// Counter sets: the stats structs of the serving stack, each declared once.
//
// A counter set is a struct of named uint64_t counters — zerber::ServerStats,
// net::TcpServerStats, cluster::ShardClientStats, net::TransportStats and
// net::TcpSocketStats. Its fields are written down once, as an X-macro field
// list, and ZR_COUNTER_SET expands that list into the struct and a
// {name, member} table. Everything that walks the fields — sums across
// shards, loops or workers (+=), window deltas (-), the multi-writer mirror
// (AtomicCounters), the StatsResponse codec, the load report's JSON blocks
// and the scrape series (obs::Scrape::AddCounters) — iterates that table,
// so adding a counter means adding one line to its list.
//
// Sealed-telemetry invariant (paper §3, §5.2): counters hold numbers only,
// and their names are source identifiers, never derived from data. The
// sealed-boundary lint (tools/check_sealed.py) covers this TU.

#ifndef ZERBERR_OBS_COUNTER_SET_H_
#define ZERBERR_OBS_COUNTER_SET_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace zr::obs {

/// One counter of counter set `Set`: its name and its member.
template <typename Set>
struct CounterField {
  const char* name;
  uint64_t Set::*member;
};

/// A struct declared with ZR_COUNTER_SET.
template <typename Set>
concept CounterSet = requires { Set::Fields(); };

#define ZR_COUNTER_SET_MEMBER_(name) uint64_t name = 0;
#define ZR_COUNTER_SET_FIELD_(name) \
  ::zr::obs::CounterField<Self>{#name, &Self::name},

/// Declares aggregate `struct Type` with one zero-initialized uint64_t
/// member per entry of `LIST`, an X-macro field list: LIST(X) expands to
/// X(name) once per counter, in declaration order, which is also the order
/// of every wire, JSON and scrape rendering. The struct gets:
///   Fields()  the {name, member} table, in list order;
///   a += b    the field-wise sum;
///   a - b     the field-wise difference, clamped at zero (the delta over
///             a window: a counter only falls when its owner restarted
///             inside the window, and that delta undercounts instead of
///             wrapping);
///   a == b.
#define ZR_COUNTER_SET(Type, LIST)                               \
  struct Type {                                                  \
    LIST(ZR_COUNTER_SET_MEMBER_)                                 \
    static constexpr auto Fields() {                             \
      using Self = Type;                                         \
      return std::array{LIST(ZR_COUNTER_SET_FIELD_)};            \
    }                                                            \
    friend Type& operator+=(Type& a, const Type& b) {            \
      for (const auto& f : Fields()) a.*f.member += b.*f.member; \
      return a;                                                  \
    }                                                            \
    friend Type operator-(Type a, const Type& b) {               \
      for (const auto& f : Fields()) {                           \
        uint64_t& x = a.*f.member;                               \
        x = x > b.*f.member ? x - b.*f.member : 0;               \
      }                                                          \
      return a;                                                  \
    }                                                            \
    friend bool operator==(const Type&, const Type&) = default;  \
  }

/// The multi-writer mirror of counter set `Set`: one atomic cell per
/// field. Add takes no lock; Snapshot reads each cell atomically, so a
/// snapshot racing writers is torn-free per counter (the set is not one
/// atomic cut).
template <CounterSet Set>
class AtomicCounters {
 public:
  /// Adds `delta` to counter `Field`, a member of Set (for example
  /// &TcpServerStats::frames_served); its cell is found at compile time.
  template <uint64_t Set::*Field>
  void Add(uint64_t delta = 1) {
    constexpr size_t kCell = CellOf<Field>();
    cells_[kCell].fetch_add(delta);
  }

  Set Snapshot() const {
    Set out;
    size_t cell = 0;
    for (const auto& f : Set::Fields()) out.*f.member = cells_[cell++].load();
    return out;
  }

 private:
  template <uint64_t Set::*Field>
  static consteval size_t CellOf() {
    constexpr auto kFields = Set::Fields();
    size_t cell = 0;
    while (kFields[cell].member != Field) ++cell;
    return cell;
  }

  std::array<std::atomic<uint64_t>, Set::Fields().size()> cells_{};
};

}  // namespace zr::obs

#endif  // ZERBERR_OBS_COUNTER_SET_H_

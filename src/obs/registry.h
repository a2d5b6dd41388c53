// Process-wide metrics registry: the one interface every layer publishes
// telemetry through, and the source the scrape plane renders.
//
// Two publication paths:
//
//   * Owned instruments — GetCounter/GetGauge register a named process-wide
//     instrument on first use and return a stable pointer (instruments are
//     never deleted), so hot paths cache the pointer once and then write
//     lock-free. Registration itself is zr::Mutex-annotated and rare.
//
//   * Collectors — a component instance that keeps its own counter set
//     (obs/counter_set.h) and latency histograms registers a callback that
//     fills a Scrape at scrape time: zerber::IndexServer (ServerStats plus
//     its fetch/insert/delete histograms), store::DurableShard (its WAL
//     append histogram), net::TcpServer (TcpServerStats, merged and per
//     loop) and cluster::RouterService (RouterStats plus each shard
//     client's ShardClientStats). Every instance labels its series with
//     NewInstanceLabel() — `id="<n>"`, unique in the process — plus its
//     own keys (shard, addr, loop), so two live instances never render
//     the same series. RegisterCollector returns an RAII CollectorHandle;
//     the owning component keeps it after everything the collector reads
//     (normally as its last member) so the collector is unregistered
//     before any of that state is torn down. Collectors run with the
//     registry lock held — Remove therefore blocks until an in-flight
//     scrape finishes, which is what makes the handle's destruction a safe
//     teardown point — so a collector must not call back into the
//     registry.
//
// RenderPrometheus emits the text exposition format: `name{labels} value`
// lines for counters/gauges/samples, and for each histogram cumulative
// `_bucket{labels,le="..."}` series plus `_sum`/`_count`/`_min`/`_max`.
// Names and label values are instrumentation-site constants plus numeric
// ids and addresses — the sealed-telemetry invariant (never terms, never
// plaintext) holds by construction and is linted by tools/check_sealed.py.

#ifndef ZERBERR_OBS_REGISTRY_H_
#define ZERBERR_OBS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/counter_set.h"
#include "obs/metrics.h"
#include "util/histogram.h"
#include "util/mutex.h"

namespace zr::obs {

/// One scrape-time reading from a collector: rendered as
/// `name{labels} value` (or `name value` when labels is empty).
struct Sample {
  std::string name;
  std::string labels;  // Prometheus label body, e.g. `shard="2"` — no braces.
  uint64_t value = 0;
};

/// One scrape-time histogram reading from a collector.
struct HistogramSample {
  std::string name;
  std::string labels;  // as in Sample; `le` is appended per bucket
  LatencyHistogram snapshot;
};

/// What the collectors emit during one scrape.
struct Scrape {
  std::vector<Sample> samples;
  std::vector<HistogramSample> histograms;

  /// One `<prefix><field>_total{labels}` sample per counter of `set`.
  template <CounterSet Set>
  void AddCounters(std::string_view prefix, const std::string& labels,
                   const Set& set) {
    for (const auto& f : Set::Fields()) {
      samples.push_back(
          {std::string(prefix) + f.name + "_total", labels, set.*f.member});
    }
  }

  void AddHistogram(std::string name, std::string labels,
                    const Histogram& histogram) {
    histograms.push_back(
        {std::move(name), std::move(labels), histogram.Snapshot()});
  }
};

/// `id="<n>"`, n = 1, 2, ... in construction order: the label that keeps
/// one collector-published instance's series apart from every other
/// live instance's in this process.
std::string NewInstanceLabel();

class Registry;

/// RAII registration of a collector; unregisters on destruction.
/// Default-constructed handles are empty. Move-only.
class CollectorHandle {
 public:
  CollectorHandle() = default;
  CollectorHandle(Registry* registry, uint64_t id)
      : registry_(registry), id_(id) {}
  CollectorHandle(CollectorHandle&& other) noexcept
      : registry_(other.registry_), id_(other.id_) {
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  CollectorHandle& operator=(CollectorHandle&& other) noexcept;
  CollectorHandle(const CollectorHandle&) = delete;
  CollectorHandle& operator=(const CollectorHandle&) = delete;
  ~CollectorHandle() { Release(); }

  /// Unregisters now (idempotent). Blocks until any in-flight scrape that
  /// may be running this collector completes.
  void Release();

 private:
  Registry* registry_ = nullptr;
  uint64_t id_ = 0;
};

class Registry {
 public:
  using Collector = std::function<void(Scrape*)>;

  /// The process-wide registry. Components default to this; tests may
  /// construct private registries.
  static Registry& Global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the named instrument, registering it on first use. The
  /// returned pointer is stable for the registry's lifetime; callers
  /// should fetch once and cache. A name maps to exactly one instrument
  /// kind — reusing a counter name for a gauge is a programming error and
  /// returns the existing instrument's slot independently (the two
  /// namespaces are disjoint maps).
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);

  /// Registers a scrape-time sample source. See the file comment for the
  /// locking contract (runs under the registry lock; no reentrancy).
  CollectorHandle RegisterCollector(Collector fn);

  /// Counters, gauges, and collector samples as flat samples (histograms
  /// are excluded — scrape them via RenderPrometheus).
  std::vector<Sample> CollectSamples() const;

  /// The full registry in Prometheus text exposition format.
  std::string RenderPrometheus() const;

 private:
  friend class CollectorHandle;

  void RemoveCollector(uint64_t id);

  /// Owned instruments and every collector's output.
  Scrape Collect() const;

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      ZR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      ZR_GUARDED_BY(mu_);
  std::map<uint64_t, Collector> collectors_ ZR_GUARDED_BY(mu_);
  uint64_t next_collector_id_ ZR_GUARDED_BY(mu_) = 1;
};

}  // namespace zr::obs

#endif  // ZERBERR_OBS_REGISTRY_H_

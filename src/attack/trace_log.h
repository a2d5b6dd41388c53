// Passive wire-trace capture for the adversarial traffic suite.
//
// TraceLog is the eavesdropper's notebook: a net::FrameObserver that
// records, for every complete frame crossing a tapped TcpSession, exactly
// what an adversary on the wire path can see — sizes, direction, timing,
// the (plaintext) message tag, and the plaintext request shape of query
// traffic (merged-list id, offset, count; paper Section 4.1's server
// adversary sees all of these). Posting elements themselves stay sealed;
// the log never looks inside them.
//
// Determinism: with an injectable clock and a single tapped stream, two
// identically seeded runs produce identical Records() — which is what
// makes the captured trace (and the attack report derived from it)
// byte-reproducible, mirroring the load harness's injectable-clock
// pattern.

#ifndef ZERBERR_ATTACK_TRACE_LOG_H_
#define ZERBERR_ATTACK_TRACE_LOG_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/messages.h"
#include "net/tcp.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace zr::attack {

/// One fetch range as it appears in plaintext on the wire (QueryRequest,
/// or one element of a MultiFetchRequest).
struct ObservedRange {
  uint32_t list = 0;
  uint64_t offset = 0;
  uint64_t count = 0;

  friend bool operator==(const ObservedRange&, const ObservedRange&) = default;
};

/// One observed frame.
struct TraceRecord {
  /// Connection the frame belongs to (see net::FrameObserver's contract).
  uint64_t stream = 0;

  /// Arrival index within the stream (0-based, both directions counted).
  uint64_t seq = 0;

  bool client_to_server = false;

  /// Plaintext message tag (frames are self-describing; kInvalid for a
  /// payload the tag parser rejects).
  net::MessageTag tag = net::MessageTag::kInvalid;

  uint64_t payload_bytes = 0;

  /// Full on-socket frame size: header + extension + payload.
  uint64_t frame_bytes = 0;

  /// Capture timestamp from the injected clock (monotonic ns by default).
  uint64_t ts_ns = 0;

  /// Requests: the fetch ranges (one for a QueryRequest, one per range of
  /// a MultiFetchRequest). Empty for other tags.
  std::vector<ObservedRange> ranges;

  /// Responses: posting-element counts (one entry for a QueryResponse,
  /// one per inner response of a MultiFetchResponse). Empty otherwise —
  /// including error responses, whose size is still in payload_bytes.
  std::vector<uint64_t> response_elements;
};

/// Thread-safe frame recorder. One instance may tap several sessions on
/// different threads simultaneously; records are kept per arrival and
/// returned sorted by (stream, seq).
class TraceLog : public net::FrameObserver {
 public:
  using NowFn = std::function<uint64_t()>;

  /// Null `now` uses the monotonic clock; tests inject a counter for
  /// byte-identical captures.
  explicit TraceLog(NowFn now = nullptr);

  void OnFrame(uint64_t stream, bool client_to_server,
               std::string_view payload, uint64_t frame_bytes) override;

  /// Aggregate byte/frame counters of everything observed. For a client
  /// tap these must equal the session's TcpSocketStats exactly
  /// (bytes_up == frames' frame_bytes summed, etc.) — the framing-identity
  /// assertion of tests/attack_trace_test.cc.
  struct Totals {
    uint64_t frames_up = 0;
    uint64_t frames_down = 0;
    uint64_t bytes_up = 0;    ///< full frame bytes, headers included
    uint64_t bytes_down = 0;
    uint64_t payload_up = 0;  ///< message payload bytes only
    uint64_t payload_down = 0;
  };
  Totals totals() const;

  /// Snapshot of all records, sorted by (stream, seq).
  std::vector<TraceRecord> Records() const;

  size_t size() const;

  void Clear();

 private:
  NowFn now_;
  mutable Mutex mu_;
  std::vector<TraceRecord> records_ ZR_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, uint64_t> next_seq_ ZR_GUARDED_BY(mu_);
  Totals totals_ ZR_GUARDED_BY(mu_);
};

}  // namespace zr::attack

#endif  // ZERBERR_ATTACK_TRACE_LOG_H_

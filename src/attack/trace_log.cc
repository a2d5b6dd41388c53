#include "attack/trace_log.h"

#include <algorithm>

#include "obs/trace.h"

namespace zr::attack {

namespace {

// The plaintext request/response shape of query traffic, one overload per
// message type the eavesdropper reads; other types keep only their sizes.
void Observe(const net::QueryRequest& m, TraceRecord* record) {
  record->ranges.push_back(ObservedRange{m.list, m.offset, m.count});
}

void Observe(const net::MultiFetchRequest& m, TraceRecord* record) {
  for (const net::FetchRange& f : m.fetches) {
    record->ranges.push_back(ObservedRange{f.list, f.offset, f.count});
  }
}

void Observe(const net::QueryResponse& m, TraceRecord* record) {
  record->response_elements.push_back(m.elements.size());
}

void Observe(const net::MultiFetchResponse& m, TraceRecord* record) {
  for (const net::QueryResponse& r : m.responses) {
    record->response_elements.push_back(r.elements.size());
  }
}

}  // namespace

TraceLog::TraceLog(NowFn now) : now_(std::move(now)) {}

void TraceLog::OnFrame(uint64_t stream, bool client_to_server,
                       std::string_view payload, uint64_t frame_bytes) {
  TraceRecord record;
  record.stream = stream;
  record.client_to_server = client_to_server;
  record.tag = net::TagOf(payload);
  record.payload_bytes = payload.size();
  record.frame_bytes = frame_bytes;
  record.ts_ns = now_ ? now_() : obs::MonotonicNowNs();

  // Parse failures are not errors here: an eavesdropper keeps the sizes
  // either way, and the serving path rejects malformed frames on its own.
  net::Messages::ForTag(record.tag, [&]<typename M>(std::type_identity<M>) {
    if constexpr (requires(const M& m, TraceRecord* r) { Observe(m, r); }) {
      auto parsed = net::Parse<M>(payload);
      if (parsed.ok()) Observe(*parsed, &record);
    }
  });

  MutexLock lock(mu_);
  record.seq = next_seq_[stream]++;
  if (client_to_server) {
    ++totals_.frames_up;
    totals_.bytes_up += frame_bytes;
    totals_.payload_up += payload.size();
  } else {
    ++totals_.frames_down;
    totals_.bytes_down += frame_bytes;
    totals_.payload_down += payload.size();
  }
  records_.push_back(std::move(record));
}

TraceLog::Totals TraceLog::totals() const {
  MutexLock lock(mu_);
  return totals_;
}

std::vector<TraceRecord> TraceLog::Records() const {
  std::vector<TraceRecord> out;
  {
    MutexLock lock(mu_);
    out = records_;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              if (a.stream != b.stream) return a.stream < b.stream;
              return a.seq < b.seq;
            });
  return out;
}

size_t TraceLog::size() const {
  MutexLock lock(mu_);
  return records_.size();
}

void TraceLog::Clear() {
  MutexLock lock(mu_);
  records_.clear();
  next_seq_.clear();
  totals_ = Totals();
}

}  // namespace zr::attack

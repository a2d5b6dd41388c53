#include "spans.h"

#include <cstdio>
#include <memory>

namespace zr::perfbench {

const char* ExchangeName(Exchange e) {
  switch (e) {
    case Exchange::kFetch:
      return "fetch";
    case Exchange::kMultiFetch:
      return "multifetch";
    case Exchange::kInsert:
      return "insert";
    case Exchange::kDelete:
      return "delete";
  }
  return "unknown";
}

void SpanLog::Add(const Span& span) {
  MutexLock lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Take() {
  MutexLock lock(mu_);
  std::vector<Span> out = std::move(spans_);
  spans_.clear();
  return out;
}

Status WriteSpans(const std::string& path, const std::vector<Span>& spans,
                  const std::vector<obs::SpanRecord>& program_spans,
                  const char* const* op_class_names) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                           &std::fclose);
  if (!f) return Status::Internal("cannot write " + path);
  static constexpr const char* kKinds[] = {"op", "exchange", "dispatch"};
  for (const Span& s : spans) {
    const char* cls = s.kind == SpanKind::kOp
                          ? op_class_names[s.cls]
                          : ExchangeName(static_cast<Exchange>(s.cls));
    std::fprintf(f.get(),
                 "{\"trace\":%llu,\"span\":%llu,\"parent\":%llu,"
                 "\"name\":\"%s.%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 static_cast<unsigned long long>(s.trace_id),
                 static_cast<unsigned long long>(s.span_id),
                 static_cast<unsigned long long>(s.parent_id),
                 kKinds[static_cast<size_t>(s.kind)], cls,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  for (const obs::SpanRecord& s : program_spans) {
    std::fprintf(f.get(),
                 "{\"trace\":%llu,\"name\":\"%s\",\"duration_ns\":%llu,"
                 "\"detail\":%llu}\n",
                 static_cast<unsigned long long>(s.trace_id),
                 obs::StageName(s.stage),
                 static_cast<unsigned long long>(s.duration_ns),
                 static_cast<unsigned long long>(s.detail));
  }
  if (std::fflush(f.get()) != 0) return Status::Internal("short write " + path);
  return Status::OK();
}

}  // namespace zr::perfbench

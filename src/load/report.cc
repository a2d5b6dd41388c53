#include "load/report.h"

#include <cinttypes>
#include <cstdio>

#include "obs/counter_set.h"

namespace zr::load {

namespace {

// Minimal deterministic JSON building: fixed key order, "%.6g" for doubles
// (shortest stable form at the precision the gate compares), no locale
// dependence.

void AppendKey(std::string* out, const char* key, bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\":");
}

void AppendU64(std::string* out, const char* key, uint64_t value, bool* first) {
  AppendKey(out, key, first);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out->append(buf);
}

void AppendDouble(std::string* out, const char* key, double value,
                  bool* first) {
  AppendKey(out, key, first);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out->append(buf);
}

void AppendString(std::string* out, const char* key, const std::string& value,
                  bool* first) {
  AppendKey(out, key, first);
  out->push_back('"');
  out->append(value);  // names/specs are identifier-safe; no escaping needed
  out->push_back('"');
}

/// `"key":{...}` with one entry per counter of `set`, in field-list order.
template <obs::CounterSet Set>
void AppendCounters(std::string* out, const char* key, const Set& set,
                    bool* first) {
  AppendKey(out, key, first);
  out->push_back('{');
  bool f = true;
  for (const auto& field : Set::Fields()) {
    AppendU64(out, field.name, set.*field.member, &f);
  }
  out->push_back('}');
}

void AppendLatency(std::string* out, const LatencyHistogram& h) {
  bool first = true;
  out->push_back('{');
  AppendU64(out, "count", h.TotalCount(), &first);
  AppendU64(out, "min_ns", h.MinNs(), &first);
  AppendDouble(out, "mean_ns", h.MeanNs(), &first);
  AppendDouble(out, "p50_ns", h.PercentileNs(50.0), &first);
  AppendDouble(out, "p95_ns", h.PercentileNs(95.0), &first);
  AppendDouble(out, "p99_ns", h.PercentileNs(99.0), &first);
  AppendDouble(out, "p999_ns", h.PercentileNs(99.9), &first);
  AppendU64(out, "max_ns", h.MaxNs(), &first);
  AppendU64(out, "sum_ns", h.SumNs(), &first);
  out->push_back('}');
}

void AppendSpec(std::string* out, const LoadSpec& spec) {
  bool first = true;
  out->push_back('{');
  AppendU64(out, "seed", spec.seed, &first);
  AppendU64(out, "workers", spec.workers, &first);
  AppendString(out, "mode", LoopModeName(spec.mode), &first);
  AppendU64(out, "ops_per_worker", spec.ops_per_worker, &first);
  AppendU64(out, "duration_ms", spec.duration_ms, &first);
  AppendDouble(out, "target_rate", spec.target_rate, &first);
  AppendDouble(out, "zipf_s", spec.zipf_s, &first);
  AppendU64(out, "top_k", spec.top_k, &first);
  AppendU64(out, "initial_response_size", spec.initial_response_size, &first);
  if (spec.terms_per_query_mean != 1.0) {
    // Workload-shaping knob, but conditional: the default must keep the
    // spec JSON byte-identical to pre-knob baselines (check_perf.py
    // compares specs verbatim).
    AppendDouble(out, "terms_per_query_mean", spec.terms_per_query_mean,
                 &first);
  }
  AppendU64(out, "num_users", spec.num_users, &first);
  AppendU64(out, "groups_per_user", spec.groups_per_user, &first);
  AppendU64(out, "warmup_inserts", spec.warmup_inserts, &first);
  AppendKey(out, "mix", &first);
  out->push_back('{');
  bool mix_first = true;
  for (size_t c = 0; c < kNumOpClasses; ++c) {
    AppendDouble(out, OpClassName(static_cast<OpClass>(c)), spec.mix[c],
                 &mix_first);
  }
  out->push_back('}');
  out->push_back('}');
}

}  // namespace

double LoadReport::ClassThroughput(OpClass c) const {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(op_classes[static_cast<size_t>(c)].ok) /
         wall_seconds;
}

std::string LoadReport::ToJson() const {
  std::string out;
  out.reserve(2048);
  bool first = true;
  out.push_back('{');
  AppendString(&out, "name", name, &first);
  AppendKey(&out, "spec", &first);
  AppendSpec(&out, spec);
  AppendDouble(&out, "wall_seconds", wall_seconds, &first);
  AppendU64(&out, "total_ops", total_ops, &first);
  AppendDouble(&out, "throughput_ops_per_sec", throughput, &first);

  AppendKey(&out, "op_classes", &first);
  out.push_back('{');
  bool class_first = true;
  for (size_t c = 0; c < kNumOpClasses; ++c) {
    const OpClassReport& r = op_classes[c];
    AppendKey(&out, OpClassName(static_cast<OpClass>(c)), &class_first);
    out.push_back('{');
    bool f = true;
    AppendU64(&out, "attempted", r.attempted, &f);
    AppendU64(&out, "ok", r.ok, &f);
    AppendU64(&out, "errors", r.errors, &f);
    AppendU64(&out, "skipped", r.skipped, &f);
    AppendU64(&out, "elements", r.elements, &f);
    AppendU64(&out, "bytes", r.bytes, &f);
    AppendU64(&out, "exchanges", r.exchanges, &f);
    AppendDouble(&out, "throughput_ops_per_sec",
                 ClassThroughput(static_cast<OpClass>(c)), &f);
    AppendKey(&out, "latency", &f);
    AppendLatency(&out, r.latency);
    out.push_back('}');
  }
  out.push_back('}');

  AppendCounters(&out, "server", server, &first);
  AppendString(&out, "transport_kind", transport_kind, &first);
  AppendCounters(&out, "transport", transport, &first);
  AppendCounters(&out, "socket", socket, &first);
  AppendCounters(&out, "cluster", cluster, &first);

  AppendKey(&out, "obs", &first);
  out.push_back('{');
  bool ob = true;
  AppendU64(&out, "traces", obs.traces, &ob);
  AppendU64(&out, "complete_traces", obs.complete_traces, &ob);
  AppendU64(&out, "spans", obs.spans, &ob);
  AppendU64(&out, "dropped_spans", obs.dropped_spans, &ob);
  AppendU64(&out, "slow_ops", obs.slow_ops, &ob);
  AppendKey(&out, "stages", &ob);
  out.push_back('{');
  bool st = true;
  for (size_t s = 0; s < zr::obs::kNumStages; ++s) {
    const ObsStageReport& stage = obs.stages[s];
    AppendKey(&out, zr::obs::StageName(static_cast<zr::obs::Stage>(s + 1)),
              &st);
    out.push_back('{');
    bool sf = true;
    AppendU64(&out, "count", stage.count, &sf);
    AppendU64(&out, "total_ns", stage.total_ns, &sf);
    AppendU64(&out, "max_ns", stage.max_ns, &sf);
    out.push_back('}');
  }
  out.push_back('}');
  AppendKey(&out, "example_trace", &ob);
  out.push_back('{');
  bool ex = true;
  AppendU64(&out, "trace_id", obs.example_trace_id, &ex);
  AppendKey(&out, "spans", &ex);
  out.push_back('[');
  for (size_t i = 0; i < obs.example_spans.size(); ++i) {
    if (i > 0) out.push_back(',');
    const zr::obs::SpanRecord& span = obs.example_spans[i];
    out.push_back('{');
    bool sp = true;
    AppendString(&out, "stage", zr::obs::StageName(span.stage), &sp);
    AppendU64(&out, "duration_ns", span.duration_ns, &sp);
    AppendU64(&out, "detail", span.detail, &sp);
    out.push_back('}');
  }
  out.push_back(']');
  out.push_back('}');
  out.push_back('}');

  out.push_back('}');
  return out;
}

}  // namespace zr::load

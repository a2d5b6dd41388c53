#include "obs/registry.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>

namespace zr::obs {

CollectorHandle& CollectorHandle::operator=(CollectorHandle&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

void CollectorHandle::Release() {
  if (registry_ != nullptr) {
    registry_->RemoveCollector(id_);
    registry_ = nullptr;
    id_ = 0;
  }
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

std::string NewInstanceLabel() {
  static std::atomic<uint64_t> next{1};
  return "id=\"" + std::to_string(next.fetch_add(1)) + "\"";
}

namespace {

template <typename T>
T* GetOrCreate(std::map<std::string, std::unique_ptr<T>, std::less<>>* map,
               std::string_view name) {
  auto it = map->find(name);
  if (it == map->end()) {
    it = map->emplace(std::string(name), std::make_unique<T>()).first;
  }
  return it->second.get();
}

void AppendMetricLine(std::string* out, std::string_view name,
                      std::string_view labels, uint64_t value) {
  out->append(name);
  if (!labels.empty()) {
    out->push_back('{');
    out->append(labels);
    out->push_back('}');
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", value);
  out->append(buf);
}

/// Cumulative `_bucket` series (sparse: only buckets holding samples, the
/// grid has 360) with `le` after the instance labels, then the exact
/// aggregates.
void AppendHistogram(std::string* out, const HistogramSample& h) {
  const LatencyHistogram& snap = h.snapshot;
  const std::string bucket = h.name + "_bucket";
  const std::string le_prefix = h.labels.empty() ? "" : h.labels + ",";
  uint64_t cumulative = 0;
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    if (snap.BucketCount(i) == 0) continue;
    cumulative += snap.BucketCount(i);
    char le[48];
    std::snprintf(le, sizeof(le), "le=\"%.6g\"",
                  LatencyHistogram::BucketEdge(i + 1));
    AppendMetricLine(out, bucket, le_prefix + le, cumulative);
  }
  AppendMetricLine(out, bucket, le_prefix + "le=\"+Inf\"", snap.TotalCount());
  AppendMetricLine(out, h.name + "_sum", h.labels, snap.SumNs());
  AppendMetricLine(out, h.name + "_count", h.labels, snap.TotalCount());
  AppendMetricLine(out, h.name + "_min", h.labels, snap.MinNs());
  AppendMetricLine(out, h.name + "_max", h.labels, snap.MaxNs());
}

}  // namespace

Counter* Registry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  return GetOrCreate(&counters_, name);
}

Gauge* Registry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  return GetOrCreate(&gauges_, name);
}

CollectorHandle Registry::RegisterCollector(Collector fn) {
  MutexLock lock(mu_);
  uint64_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(fn));
  return CollectorHandle(this, id);
}

void Registry::RemoveCollector(uint64_t id) {
  MutexLock lock(mu_);
  collectors_.erase(id);
}

Scrape Registry::Collect() const {
  Scrape scrape;
  MutexLock lock(mu_);
  for (const auto& [name, counter] : counters_) {
    scrape.samples.push_back({name, "", counter->Value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    scrape.samples.push_back({name, "", gauge->Value()});
  }
  for (const auto& [id, collector] : collectors_) collector(&scrape);
  return scrape;
}

std::vector<Sample> Registry::CollectSamples() const {
  return Collect().samples;
}

std::string Registry::RenderPrometheus() const {
  Scrape scrape = Collect();
  std::string out;
  for (const Sample& s : scrape.samples) {
    AppendMetricLine(&out, s.name, s.labels, s.value);
  }
  for (const HistogramSample& h : scrape.histograms) AppendHistogram(&out, h);
  return out;
}

}  // namespace zr::obs

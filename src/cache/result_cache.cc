#include "cache/result_cache.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace biglake {
namespace cache {

namespace {
CacheMetrics ResultCacheMetrics() {
  auto& reg = obs::MetricsRegistry::Default();
  return {"resultcache.", reg.GetCounter(METRIC_RESULTCACHE_EVICTIONS),
          reg.GetCounter(METRIC_RESULTCACHE_INVALIDATIONS),
          reg.GetCounter(METRIC_CACHE_ADMISSION_REJECTED, {{"cache", "result"}}),
          reg.GetGauge(METRIC_RESULTCACHE_BYTES_PINNED)};
}
}  // namespace

ResultCache::ResultCache(SimEnv* env)
    : env_(env), core_(env, ResultCacheMetrics()) {
  auto& reg = obs::MetricsRegistry::Default();
  hits_ = reg.GetCounter(METRIC_RESULTCACHE_HITS);
  misses_ = reg.GetCounter(METRIC_RESULTCACHE_MISSES);
  inserts_ = reg.GetCounter(METRIC_RESULTCACHE_INSERTS);
}

ResultCache::~ResultCache() = default;

void ResultCache::Configure(const ResultCacheOptions& options) {
  core_.Configure(options);
}

void ResultCache::Clear() { core_.Clear(); }

ResultCacheStats ResultCache::Stats() const { return core_.Stats(); }

std::shared_ptr<const RecordBatch> ResultCache::Get(const std::string& key) {
  if (!enabled()) return nullptr;
  env_->Charge("resultcache.probes", kProbeMicros);
  std::shared_ptr<const RecordBatch> found =
      core_.Find(key, &Value::batch, /*touch=*/true);
  core_.RecordAccess(key);
  core_.CountLookup(found != nullptr);
  if (found == nullptr) {
    misses_->Increment();
    env_->counters().Add("resultcache.misses", 1);
    return nullptr;
  }
  hits_->Increment();
  env_->counters().Add("resultcache.hits", 1);
  // Deterministic replay cost: serving N rows from the cache is O(N) serial
  // virtual time, independent of the engine's worker count.
  const uint64_t rows = found->num_rows();
  const SimMicros replay = (rows + kHitRowsPerMicro / 2) / kHitRowsPerMicro;
  env_->Charge("resultcache.serve", kHitBaseMicros + replay);
  return found;
}

void ResultCache::Put(const std::string& key,
                      const std::vector<std::string>& tables,
                      std::shared_ptr<const RecordBatch> batch) {
  if (!enabled() || batch == nullptr) return;
  const uint64_t bytes = batch->MemoryBytes();
  // A re-insert of a live key (e.g. cache warmed between probe and insert)
  // only refreshes recency.
  if (core_.Insert(key, Value{std::move(batch), tables}, bytes)) {
    inserts_->Increment();
    env_->counters().Add("resultcache.inserts", 1);
  }
}

uint64_t ResultCache::InvalidateTable(const std::string& table_id) {
  return core_.Invalidate("", [&](const Value& v) {
    return std::find(v.tables.begin(), v.tables.end(), table_id) !=
           v.tables.end();
  });
}

}  // namespace cache
}  // namespace biglake

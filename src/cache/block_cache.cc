#include "cache/block_cache.h"

#include <algorithm>
#include <type_traits>

#include "common/strings.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace biglake {
namespace cache {

uint64_t ProjectionFingerprint(std::span<const std::string> columns) {
  // Commutative combine (sum of independent per-column hashes): two engines
  // listing the same column set in different orders share cached blocks.
  // The per-column hashes are deduplicated first so a repeated column name
  // cannot fork the fingerprint away from the equivalent distinct set.
  std::vector<uint64_t> hashes;
  hashes.reserve(columns.size());
  for (const std::string& c : columns) hashes.push_back(KeyHash(c));
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  uint64_t h = 0xcbf29ce484222325ULL + hashes.size();
  for (uint64_t x : hashes) h += x;
  return h;
}

std::string ObjectKeyPrefix(const char* cloud, const std::string& bucket,
                            const std::string& object) {
  // Length prefixes make the encoding injective: `("a|b", "c")` and
  // `("a", "b|c")` cannot collide, whatever characters the names contain.
  // `cloud` is an internal constant ("gcp"/"aws"/"azure"), never adversarial.
  return StrCat(cloud, "|", bucket.size(), ":", bucket, "|", object.size(),
                ":", object, "@");
}

std::string FooterKey(const std::string& object_prefix, uint64_t generation) {
  return StrCat(object_prefix, generation, "|footer");
}

std::string BlockKey(const std::string& object_prefix, uint64_t generation,
                     size_t row_group, uint64_t projection_fp) {
  return StrCat(object_prefix, generation, "|rg", row_group, "|p",
                projection_fp);
}

namespace internal {
CacheTxn*& CurrentTxn() {
  static thread_local CacheTxn* txn = nullptr;
  return txn;
}
}  // namespace internal

namespace {
CacheMetrics BlockCacheMetrics() {
  auto& reg = obs::MetricsRegistry::Default();
  return {"blockcache.", reg.GetCounter(METRIC_CACHE_EVICTIONS),
          reg.GetCounter(METRIC_CACHE_INVALIDATIONS),
          reg.GetCounter(METRIC_CACHE_ADMISSION_REJECTED, {{"cache", "block"}}),
          reg.GetGauge(METRIC_CACHE_BYTES_PINNED)};
}
}  // namespace

BlockCache::BlockCache(SimEnv* env)
    : env_(env), core_(env, BlockCacheMetrics()) {
  auto& reg = obs::MetricsRegistry::Default();
  hits_block_ = reg.GetCounter(METRIC_CACHE_HITS, {{"kind", "block"}});
  hits_footer_ = reg.GetCounter(METRIC_CACHE_HITS, {{"kind", "footer"}});
  misses_block_ = reg.GetCounter(METRIC_CACHE_MISSES, {{"kind", "block"}});
  misses_footer_ = reg.GetCounter(METRIC_CACHE_MISSES, {{"kind", "footer"}});
}

BlockCache::~BlockCache() = default;

void BlockCache::Configure(const BlockCacheOptions& options) {
  core_.Configure(options);
}

double BlockCache::FillFraction() const { return core_.FillFraction(); }

void BlockCache::Clear() { core_.Clear(); }

BlockCacheStats BlockCache::Stats() const { return core_.Stats(); }

void BlockCache::RecordAccess(CacheTxn* txn, const std::string& key) {
  if (core_.policy() != AdmissionPolicy::kTinyLfu) return;
  if (txn != nullptr) {
    CacheTxn::Op op;
    op.key = key;
    op.access_only = true;
    txn->ops_.push_back(std::move(op));
  } else {
    core_.RecordAccess(key);
  }
}

void BlockCache::CountLookup(bool hit, bool footer) {
  core_.CountLookup(hit);
  if (hit) {
    (footer ? hits_footer_ : hits_block_)->Increment();
    env_->counters().Add(footer ? "blockcache.footer_hits" : "blockcache.hits",
                         1);
  } else {
    (footer ? misses_footer_ : misses_block_)->Increment();
    env_->counters().Add(
        footer ? "blockcache.footer_misses" : "blockcache.misses", 1);
  }
}

template <typename T>
std::shared_ptr<const T> BlockCache::Get(
    const std::string& key, std::shared_ptr<const T> BlockCacheValue::*field) {
  if (!enabled()) return nullptr;
  constexpr bool kFooter = std::is_same_v<T, ParquetFileMeta>;
  CacheTxn* txn = internal::CurrentTxn();
  if (txn != nullptr) {
    auto pit = txn->pending_.find(key);
    if (pit != txn->pending_.end()) {
      const BlockCacheValue& pending = txn->ops_[pit->second].value;
      if (pending.*field != nullptr) {
        CountLookup(/*hit=*/true, kFooter);
        RecordAccess(txn, key);
        return pending.*field;
      }
    }
  }
  std::shared_ptr<const T> found = core_.Find(key, field, /*touch=*/false);
  if (found == nullptr) {
    CountLookup(/*hit=*/false, kFooter);
    RecordAccess(txn, key);
    return nullptr;
  }
  CountLookup(/*hit=*/true, kFooter);
  if (txn != nullptr) {
    txn->ops_.push_back({key, {}, 0, false});  // buffered LRU touch
  } else {
    core_.Touch(key);
  }
  return found;
}

std::shared_ptr<const RecordBatch> BlockCache::GetBlock(
    const std::string& key) {
  return Get(key, &BlockCacheValue::block);
}

std::shared_ptr<const ParquetFileMeta> BlockCache::GetFooter(
    const std::string& key) {
  return Get(key, &BlockCacheValue::footer);
}

void BlockCache::Put(const std::string& key, BlockCacheValue value,
                     uint64_t bytes) {
  if (CacheTxn* txn = internal::CurrentTxn()) {
    txn->ops_.push_back({key, std::move(value), bytes, false});
    txn->pending_[key] = txn->ops_.size() - 1;
    return;
  }
  core_.Insert(key, std::move(value), bytes);
}

void BlockCache::PutBlock(const std::string& key,
                          std::shared_ptr<const RecordBatch> block) {
  if (!enabled() || block == nullptr) return;
  const uint64_t bytes = block->MemoryBytes();
  Put(key, {std::move(block), nullptr}, bytes);
}

void BlockCache::PutFooter(const std::string& key,
                           std::shared_ptr<const ParquetFileMeta> footer,
                           uint64_t approx_bytes) {
  if (!enabled() || footer == nullptr) return;
  Put(key, {nullptr, std::move(footer)}, approx_bytes);
}

void BlockCache::ApplyOp(CacheTxn::Op& op) {
  if (op.access_only) {
    core_.RecordAccess(op.key);
  } else if (op.is_insert()) {
    core_.Insert(op.key, std::move(op.value), op.bytes);
  } else {
    core_.Touch(op.key);
  }
}

uint64_t BlockCache::InvalidateObject(const char* cloud,
                                      const std::string& bucket,
                                      const std::string& object) {
  return core_.Invalidate(ObjectKeyPrefix(cloud, bucket, object),
                          [](const BlockCacheValue&) { return true; });
}

void BlockCache::FoldTxn(CacheTxn* txn) {
  if (txn->ops_.empty()) return;
  CacheTxn* current = internal::CurrentTxn();
  if (current != nullptr && current != txn) {
    // Nested fan-out: a prefetch unit's ops join its stream task's txn so
    // the launcher still folds everything in one deterministic pass.
    for (CacheTxn::Op& op : txn->ops_) {
      current->ops_.push_back(std::move(op));
      if (current->ops_.back().is_insert()) {
        current->pending_[current->ops_.back().key] = current->ops_.size() - 1;
      }
    }
  } else {
    for (CacheTxn::Op& op : txn->ops_) ApplyOp(op);
  }
  txn->ops_.clear();
  txn->pending_.clear();
}

void BlockCache::FoldTxns(std::vector<CacheTxn>* txns) {
  for (CacheTxn& txn : *txns) FoldTxn(&txn);
}

}  // namespace cache
}  // namespace biglake

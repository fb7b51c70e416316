// Columnar block cache (the paper's caching/columnar-IO layer, Sec 3.3/4.2).
//
// BigLake keeps hot table data close to the compute: decoded columnar blocks
// and parsed file footers are cached under keys that include the object
// *generation*, so any rewrite (CAS commit, DML, BLMT coalesce) makes stale
// entries unreachable — generation-based invalidation — while
// `InvalidateObject`, called for every removed file by the one post-commit
// routine (LakehouseEnv::AfterCommit) and by BLMT GC, reclaims the capacity
// early.
//
// Determinism. The cache is shared across queries and touched from pool
// workers, yet hit/miss counts, eviction decisions and the surviving entry
// set must be bit-identical at any worker count (the chaos and determinism
// suites compare counters across 1/2/8 workers). Two rules make that true:
//
//   1. During a parallel region the shared state is *read-only*. Every task
//      installs a `CacheTxn` (mirroring ScopedChargeShard / MetricsDelta in
//      common/sim_env.h and obs/metrics.h): inserts and LRU touches are
//      buffered in the task's txn and folded back in slot order by the
//      launcher (`FoldTxns`), so mutations happen at a deterministic program
//      point in a deterministic order. Lookups see the frozen shared state
//      plus the task's own pending inserts. Within one query each data file
//      belongs to exactly one stream, so tasks never need each other's
//      pending entries.
//   2. LRU recency is a logical sequence number assigned when an operation
//      is *applied* (always a serial point), never wall or simulated time —
//      so recency order is identical whether the ops were buffered by eight
//      workers or executed inline by one.
//
// The storage itself -- sharding, logical-stamp recency, LRU/TinyLFU
// eviction, byte accounting, Clear and Stats -- is the shared cache core
// (cache/cache_core.h). On top of it this file adds the key helpers, the
// CacheTxn buffering and folding above, and block/footer hit and miss
// counting. An entry is only ever admitted whole (the Read API refuses to
// admit blocks whose object reads did not all observe the expected
// generation, so a faulted or concurrently-rewritten read never poisons the
// cache).

#ifndef BIGLAKE_CACHE_BLOCK_CACHE_H_
#define BIGLAKE_CACHE_BLOCK_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/cache_core.h"
#include "columnar/batch.h"
#include "common/sim_env.h"
#include "format/parquet_lite.h"

namespace biglake {
namespace cache {

using BlockCacheOptions = CacheOptions;
using BlockCacheStats = CacheStats;

/// Order-insensitive fingerprint of a projection (the set of columns a block
/// was decoded with); part of the block key so different projections of the
/// same row group never alias. Duplicate names are ignored, so `[a,a,b]`
/// and `[b,a]` fingerprint identically (it is a *set* fingerprint).
uint64_t ProjectionFingerprint(std::span<const std::string> columns);
/// Braced-list convenience: ProjectionFingerprint({"a", "b"}).
inline uint64_t ProjectionFingerprint(
    std::initializer_list<std::string> columns) {
  return ProjectionFingerprint(
      std::span<const std::string>(columns.begin(), columns.size()));
}

/// `<cloud>|<len>:<bucket>|<len>:<object>@` — the invalidation prefix
/// covering every generation/projection of one object. Bucket and object
/// components are length-prefixed so adversarial names containing `|`, `:`
/// or `@` cannot alias another (bucket, object) split, and no object's
/// prefix is a prefix of a different object's keys (the lengths diverge
/// before the content can), keeping InvalidateObject's prefix scan sound.
std::string ObjectKeyPrefix(const char* cloud, const std::string& bucket,
                            const std::string& object);
/// Key of a parsed footer: prefix + generation.
std::string FooterKey(const std::string& object_prefix, uint64_t generation);
/// Key of one decoded row-group block under one projection.
std::string BlockKey(const std::string& object_prefix, uint64_t generation,
                     size_t row_group, uint64_t projection_fp);

/// One cached value: a decoded block or a parsed footer (never both).
struct BlockCacheValue {
  std::shared_ptr<const RecordBatch> block;
  std::shared_ptr<const ParquetFileMeta> footer;
};

class BlockCache;

/// Buffered cache mutations from one parallel task slot. The launcher owns
/// one txn per slot and calls BlockCache::FoldTxns after joining the region.
class CacheTxn {
 public:
  bool empty() const { return ops_.empty(); }

 private:
  friend class BlockCache;
  struct Op {
    std::string key;
    // An insert when a value is set; a pure LRU touch otherwise.
    BlockCacheValue value;
    uint64_t bytes = 0;
    // Frequency-only op: a miss observed under TinyLFU. Applied it bumps
    // the sketch but never touches the LRU or entry maps, so frequency
    // updates fold in the same deterministic slot order as inserts.
    bool access_only = false;

    bool is_insert() const {
      return value.block != nullptr || value.footer != nullptr;
    }
  };
  std::vector<Op> ops_;
  /// key -> index into ops_ of the latest pending *insert*, for
  /// self-visibility of a task's own writes.
  std::map<std::string, size_t> pending_;
};

namespace internal {
/// The calling thread's buffered-mutation sink, or nullptr for direct apply.
CacheTxn*& CurrentTxn();
}  // namespace internal

/// Installs `txn` as this thread's cache-mutation sink for the scope
/// (restoring the previous sink on destruction), exactly like
/// ScopedChargeShard / ScopedMetricsDelta.
class ScopedCacheTxn {
 public:
  explicit ScopedCacheTxn(CacheTxn* txn) : prev_(internal::CurrentTxn()) {
    internal::CurrentTxn() = txn;
  }
  ~ScopedCacheTxn() { internal::CurrentTxn() = prev_; }
  ScopedCacheTxn(const ScopedCacheTxn&) = delete;
  ScopedCacheTxn& operator=(const ScopedCacheTxn&) = delete;

 private:
  CacheTxn* prev_;
};

class BlockCache {
 public:
  explicit BlockCache(SimEnv* env);
  ~BlockCache();
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// (Re)configures capacity, evicting down to the new budget. Serial
  /// context only — never inside a parallel region.
  void Configure(const BlockCacheOptions& options);
  bool enabled() const { return core_.enabled(); }

  /// Fraction of capacity currently pinned, in [0, 1] (0 when disabled).
  /// Serial context only — the scheduler polls this at admission as its
  /// memory-pressure backpressure signal (docs/SCHEDULING.md).
  double FillFraction() const;

  /// Lookup a decoded block / parsed footer. A hit bumps hit counters and
  /// records an LRU touch (buffered when a CacheTxn is installed); a miss
  /// bumps miss counters and returns nullptr.
  std::shared_ptr<const RecordBatch> GetBlock(const std::string& key);
  std::shared_ptr<const ParquetFileMeta> GetFooter(const std::string& key);

  /// Admit a fully-read block / footer. Buffered when a CacheTxn is
  /// installed; applied (with eviction) immediately otherwise.
  void PutBlock(const std::string& key,
                std::shared_ptr<const RecordBatch> block);
  void PutFooter(const std::string& key,
                 std::shared_ptr<const ParquetFileMeta> footer,
                 uint64_t approx_bytes);

  /// Drops every generation/projection of `<cloud>|<bucket>|<object>`;
  /// returns the number of entries dropped. Serial context only (called by
  /// LakehouseEnv::AfterCommit for removed files, and by BLMT GC).
  uint64_t InvalidateObject(const char* cloud, const std::string& bucket,
                            const std::string& object);

  /// Folds one task's buffered ops: appended to the calling thread's own
  /// installed txn when there is one (nested fan-out, e.g. prefetch units
  /// folding into their stream's txn), applied to the shared state
  /// otherwise. The txn is cleared either way.
  void FoldTxn(CacheTxn* txn);
  /// Folds every txn in slot order. Call once after joining a ParallelFor.
  void FoldTxns(std::vector<CacheTxn>* txns);

  /// Drops all entries (capacity is kept). Serial context only.
  void Clear();

  BlockCacheStats Stats() const;

 private:
  /// The one lookup behind GetBlock and GetFooter: the task's own pending
  /// insert first, then the shared state.
  template <typename T>
  std::shared_ptr<const T> Get(const std::string& key,
                               std::shared_ptr<const T> BlockCacheValue::*field);
  /// The one insert behind PutBlock and PutFooter.
  void Put(const std::string& key, BlockCacheValue value, uint64_t bytes);
  void ApplyOp(CacheTxn::Op& op);
  /// Buffers (or directly applies) one frequency observation for `key`.
  void RecordAccess(CacheTxn* txn, const std::string& key);
  void CountLookup(bool hit, bool footer);

  SimEnv* env_;
  // Every method that reaches the core, but enabled(), is defined in
  // block_cache.cc, so includers do not each compile a copy of the core.
  CacheCore<BlockCacheValue> core_;
  obs::Counter* hits_block_;
  obs::Counter* hits_footer_;
  obs::Counter* misses_block_;
  obs::Counter* misses_footer_;
};

}  // namespace cache
}  // namespace biglake

#endif  // BIGLAKE_CACHE_BLOCK_CACHE_H_

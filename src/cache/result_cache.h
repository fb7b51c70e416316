// Query result cache: repeated dashboard queries skip the engine entirely.
//
// The top layer of BigLake's caching stack (metadata cache -> columnar block
// cache -> result cache). Entries hold the fully-materialized RecordBatch of
// a query, keyed by a caller-composed string binding together
//
//   plan fingerprint x per-table commit generations x engine knobs
//
// (see engine/plan_fingerprint.h for the canonical composition). Because
// every referenced table's Big Metadata commit generation is *in the key*,
// any CAS commit / DML / BLMT optimize moves dependent keys and stale
// entries become unreachable by construction — correctness never depends on
// eager invalidation. `InvalidateTable`, called for every touched table by
// the one post-commit routine every commit route ends in
// (LakehouseEnv::AfterCommit), additionally reclaims the dead bytes the
// moment a commit lands; it drops exactly the entries whose stored table
// list names the table.
//
// Determinism. Probe (Get) and insert (Put) happen only at the serial
// entry/exit of QueryEngine::Execute — never inside a parallel region — so
// unlike the block cache no transaction buffering is needed. All simulated
// costs charged here (probe latency, per-row hit replay) are independent of
// the engine's worker count and of earlier hits, and LRU recency is a logical sequence number,
// so hit/miss counters, eviction decisions and the virtual clock stay
// bit-identical across 1/2/8 workers.
//
// The storage -- sharding, logical-stamp recency, LRU/TinyLFU eviction
// and admission, byte accounting, Clear and Stats -- is the shared cache
// core (cache/cache_core.h), the same one the block cache runs on. This
// file adds the probe and hit charges and each entry's table dependencies,
// which `InvalidateTable` matches against.

#ifndef BIGLAKE_CACHE_RESULT_CACHE_H_
#define BIGLAKE_CACHE_RESULT_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_core.h"
#include "columnar/batch.h"
#include "common/sim_env.h"

namespace biglake {
namespace cache {

using ResultCacheOptions = CacheOptions;
using ResultCacheStats = CacheStats;

class ResultCache {
 public:
  /// Simulated cost of one probe, charged on every Get, hit or miss.
  static constexpr SimMicros kProbeMicros = 25;
  /// Simulated cost of serving a hit: kHitBaseMicros plus one micro per
  /// kHitRowsPerMicro rows of the cached batch (0.05 us/row), rounded to
  /// the nearest micro. A pure function of the row count, independent of
  /// the worker count and of earlier hits.
  static constexpr SimMicros kHitBaseMicros = 50;
  static constexpr uint64_t kHitRowsPerMicro = 20;

  explicit ResultCache(SimEnv* env);
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// (Re)configures capacity/policy, evicting down to the new budget.
  /// Serial context only.
  void Configure(const ResultCacheOptions& options);
  bool enabled() const { return core_.enabled(); }

  /// Probes for a cached result. Charges kProbeMicros always and the
  /// deterministic hit-replay cost on a hit; bumps hit/miss counters.
  std::shared_ptr<const RecordBatch> Get(const std::string& key);

  /// Admits a result depending on `tables` (the sorted table ids baked into
  /// the key). Insertion itself is uncharged simulated time.
  void Put(const std::string& key, const std::vector<std::string>& tables,
           std::shared_ptr<const RecordBatch> batch);

  /// Drops every entry depending on `table_id`; returns how many. Called
  /// by LakehouseEnv::AfterCommit after every commit (and by BLMT GC);
  /// reclaims bytes early (generation-in-key already guarantees
  /// correctness).
  uint64_t InvalidateTable(const std::string& table_id);

  /// Drops all entries (capacity is kept). Serial context only.
  void Clear();

  ResultCacheStats Stats() const;

 private:
  struct Value {
    std::shared_ptr<const RecordBatch> batch;
    std::vector<std::string> tables;
  };

  SimEnv* env_;
  // Reached only from result_cache.cc (but enabled()), like the block
  // cache's core.
  CacheCore<Value> core_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* inserts_;
};

}  // namespace cache
}  // namespace biglake

#endif  // BIGLAKE_CACHE_RESULT_CACHE_H_

// LakehouseEnv: the wired-together simulation of the BigQuery estate.
//
// One SimEnv (clock + counters), one control-plane Catalog and Big Metadata
// store (the paper keeps both on GCP even for Omni, Sec 5.1/5.4), and one
// simulated object store per (cloud, region) the deployment spans. Tests,
// examples and benches build everything on top of this.

#ifndef BIGLAKE_CORE_ENVIRONMENT_H_
#define BIGLAKE_CORE_ENVIRONMENT_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/block_cache.h"
#include "cache/result_cache.h"
#include "catalog/catalog.h"
#include "columnar/batch.h"
#include "fault/retry.h"
#include "meta/bigmeta.h"
#include "meta/metadata_cache.h"
#include "meta/txn.h"
#include "objstore/objstore.h"
#include "security/security.h"

namespace biglake {

class LakehouseEnv {
 public:
  LakehouseEnv()
      : meta_(&env_),
        cache_mgr_(&env_, &meta_),
        block_cache_(&env_),
        result_cache_(&env_) {}

  SimEnv& sim() { return env_; }
  Catalog& catalog() { return catalog_; }
  BigMetadataStore& meta() { return meta_; }
  MetadataCacheManager& cache_manager() { return cache_mgr_; }
  SessionTokenService& token_service() { return tokens_; }

  /// The environment-wide columnar block cache (src/cache/). Disabled until
  /// ConfigureBlockCache grants it capacity; every consumer (Read API, and
  /// through it the engine and Spark-lite) shares the same instance, so an
  /// external engine's scan warms the next BigQuery scan and vice versa.
  cache::BlockCache& block_cache() { return block_cache_; }
  void ConfigureBlockCache(const cache::BlockCacheOptions& options) {
    block_cache_.Configure(options);
  }

  /// The environment-wide query result cache (src/cache/result_cache.h).
  /// Disabled until ConfigureResultCache grants it capacity; shared by every
  /// engine on this env, and invalidated by AfterCommit, which every commit
  /// route ends in.
  cache::ResultCache& result_cache() { return result_cache_; }
  void ConfigureResultCache(const cache::ResultCacheOptions& options) {
    result_cache_.Configure(options);
  }

  /// Registers an object store for a (cloud, region); returns it.
  ObjectStore* AddStore(const CloudLocation& location,
                        ObjectStoreOptions options = {}) {
    options.location = location;
    auto store = std::make_unique<ObjectStore>(&env_, options);
    ObjectStore* ptr = store.get();
    stores_[location.ToString()] = std::move(store);
    return ptr;
  }

  /// The store serving a location, or nullptr.
  ObjectStore* store(const CloudLocation& location) const {
    auto it = stores_.find(location.ToString());
    return it == stores_.end() ? nullptr : it->second.get();
  }

  Result<ObjectStore*> FindStore(const CloudLocation& location) const {
    ObjectStore* s = store(location);
    if (s == nullptr) {
      return Status::NotFound("no object store registered for " +
                              location.ToString());
    }
    return s;
  }

  /// Opts this environment into multi-table transactions (meta/txn.h): the
  /// coordinator keeps its log + intent manifests under `prefix` in `bucket`
  /// on `store`, and fires AfterCommit for every record it applies — in the
  /// same atomic step as the metadata apply, so no cached plan can mix
  /// per-table generations across a commit. From then on BLMT commits go
  /// through the coordinator, except single-table INSERT appends
  /// (docs/TRANSACTIONS.md has the routing table).
  meta::TxnCoordinator* EnableTransactions(
      ObjectStore* store, const std::string& bucket,
      meta::TxnCoordinatorOptions options = {});

  /// The transaction coordinator, or nullptr when not enabled.
  meta::TxnCoordinator* txn() { return txn_.get(); }

  // --- The write path: write data files, then commit, then invalidate ---

  /// Writes `batches` as one immutable Parquet-lite data file named
  /// `<prefix>data/<stem><n>.plk` in the table's bucket and returns its
  /// metadata entry, column statistics included. `n` comes from this
  /// environment's one file counter, so two writers on one environment never
  /// produce the same name. The name is fixed before the put, which retries
  /// transient faults under `retry` by re-sending the same bytes to the same
  /// object: a retry never perturbs naming or leaves a half-written orphan.
  /// The file stays invisible until a commit adds it.
  Result<CachedFileMeta> WriteDataFile(const TableDef& table,
                                       std::span<const RecordBatch> batches,
                                       std::string_view stem,
                                       const fault::RetryPolicy& retry);

  /// The direct commit route: applies `ops` as one Big Metadata transaction
  /// (no txn log record), then runs AfterCommit. Returns the commit txn id.
  Result<uint64_t> CommitDirect(const std::vector<meta::TxnTableOps>& ops);

  /// The post-commit rule, run by every commit route (CommitDirect, and the
  /// coordinator's invalidation hook): drops the result-cache entries of
  /// every table `ops` touches and the cached blocks and footers of every
  /// file it removes. Generation-keyed cache entries are already
  /// unreachable after a commit; this reclaims their bytes at once.
  void AfterCommit(const std::vector<meta::TxnTableOps>& ops);

 private:
  SimEnv env_;
  Catalog catalog_;
  BigMetadataStore meta_;
  MetadataCacheManager cache_mgr_;
  SessionTokenService tokens_{0x42ab5ec7e7fULL};
  cache::BlockCache block_cache_;
  cache::ResultCache result_cache_;
  std::map<std::string, std::unique_ptr<ObjectStore>> stores_;
  std::unique_ptr<meta::TxnCoordinator> txn_;
  uint64_t next_file_ = 1;
};

}  // namespace biglake

#endif  // BIGLAKE_CORE_ENVIRONMENT_H_

// MetadataCacheManager: keeps Big Metadata in sync with an external data
// lake on object storage (Sec 3.3, Fig 3).
//
// Refresh runs in the background under the table's *connection* credentials
// (delegated access, Sec 3.1) — this is one of the two reasons the paper
// gives for not forwarding end-user credentials to the object store. A
// refresh lists the table prefix (paying the full paginated LIST cost),
// reads Parquet-lite footers of new/changed files (one Stat-equivalent +
// two range reads each), and commits the per-file statistics into
// BigMetadataStore. Queries thereafter prune and plan entirely from the
// cache, never touching the object store for metadata.
//
// The same machinery maintains Object-table indexes (Sec 4.1): every object
// under the prefix becomes a cached row of object attributes, with no
// footer parsing.

#ifndef BIGLAKE_META_METADATA_CACHE_H_
#define BIGLAKE_META_METADATA_CACHE_H_

#include <string>
#include <vector>

#include "columnar/batch.h"
#include "fault/retry.h"
#include "meta/bigmeta.h"
#include "objstore/objstore.h"

namespace biglake {

struct CacheRefreshOptions {
  /// Parse Parquet-lite footers to harvest column statistics (true for
  /// BigLake structured tables; false for Object tables, which only need
  /// object attributes).
  bool parse_footers = true;
  /// Cached entries also record hive-style partition values parsed from
  /// paths like "date=20231101/region=east/part-0.plk".
  bool parse_hive_partitions = true;
  /// Transient substrate failures (listing, footer reads, injected faults)
  /// retry the whole refresh attempt — the cache is only mutated at the very
  /// end of a successful attempt, so an attempt is idempotent.
  fault::RetryPolicy retry;
};

struct CacheRefreshReport {
  uint64_t listed_objects = 0;
  uint64_t added_files = 0;
  uint64_t removed_files = 0;
  uint64_t footers_read = 0;
  /// Previously cached paths whose object generation changed and were
  /// re-read (a staleness repair, as opposed to a brand-new file).
  uint64_t stale_entries_refreshed = 0;
  SimMicros refresh_micros = 0;
};

/// Parses "k=v" path segments into partition values (ints when the value is
/// a decimal number, strings otherwise).
std::vector<std::pair<std::string, Value>> ParseHivePartition(
    const std::string& path);

/// Appends each hive partition value named in `referenced` (and not stored
/// in `batch`) as a constant virtual column, so predicates and row filters
/// can mention partition columns the data files do not hold.
Result<RecordBatch> WithPartitionColumns(
    RecordBatch batch,
    const std::vector<std::pair<std::string, Value>>& partition,
    const std::vector<std::string>& referenced);

class MetadataCacheManager {
 public:
  MetadataCacheManager(SimEnv* env, BigMetadataStore* meta)
      : env_(env), meta_(meta) {}

  /// Full refresh of `table_id` from `bucket`/`prefix` in `store`, accessed
  /// as `caller` (the connection's service account context). Diffs against
  /// the current cache: new objects are added (footers parsed per options),
  /// vanished objects are removed, changed generations re-read.
  Result<CacheRefreshReport> Refresh(const std::string& table_id,
                                     const ObjectStore& store,
                                     const CallerContext& caller,
                                     const std::string& bucket,
                                     const std::string& prefix,
                                     const CacheRefreshOptions& options = {});

 private:
  /// One refresh attempt; mutates BigMetadataStore only on success.
  Result<CacheRefreshReport> RefreshOnce(const std::string& table_id,
                                         const ObjectStore& store,
                                         const CallerContext& caller,
                                         const std::string& bucket,
                                         const std::string& prefix,
                                         const CacheRefreshOptions& options);

  SimEnv* env_;
  BigMetadataStore* meta_;
};

}  // namespace biglake

#endif  // BIGLAKE_META_METADATA_CACHE_H_

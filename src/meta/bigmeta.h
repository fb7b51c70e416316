// Big Metadata: BigQuery's scalable physical-metadata system (Sec 3.3, 3.5;
// Edara & Pasumansky, VLDB'21), simulated.
//
// File-level physical metadata (names, partitions, sizes, row counts,
// per-column min/max/null statistics) is managed like data:
//   * Mutations append to an in-memory *transaction-log tail* backed by a
//     stateful service — commits are microseconds, not object-store CAS
//     round-trips, which is why BLMT commit throughput beats object-store
//     table formats (Sec 3.5).
//   * The tail is periodically folded into *columnar baselines* for read
//     efficiency; snapshot reads reconcile baseline + tail.
//   * Commits are transactional and may span multiple tables — the
//     multi-table-transaction capability open table formats lack.
//   * Readers get snapshot isolation: every commit gets a monotonically
//     increasing transaction id, and reads are "as of" a txn id.
//
// The same store doubles as the BigLake *metadata cache* over external data
// lakes (populated by MetadataCacheManager) and as the row source for
// Object tables (Sec 4.1).

#ifndef BIGLAKE_META_BIGMETA_H_
#define BIGLAKE_META_BIGMETA_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columnar/expr.h"
#include "common/sim_env.h"
#include "common/status.h"
#include "format/iceberg_lite.h"

namespace biglake {

/// One file (or object) tracked in Big Metadata. Extends the manifest entry
/// with object attributes so Object tables can be served from the cache.
struct CachedFileMeta {
  DataFileEntry file;
  std::string content_type;
  SimMicros create_time = 0;
  SimMicros update_time = 0;
  uint64_t generation = 0;
};

struct ParquetFileMeta;

/// Copies a parsed footer's row count and whole-file column statistics into
/// `f` — the statistics the metadata cache keeps and pruning reads.
void SetFooterStats(const ParquetFileMeta& footer, CachedFileMeta* f);

/// Stats pruning for one file: true when `f`'s statistics prove no row can
/// satisfy `predicate`. Hive partition values act as exact point stats;
/// stored columns use the file's min/max.
bool FileCannotMatch(const Expr& predicate, const CachedFileMeta& f);

/// Cost knobs for the simulated metadata service.
struct BigMetadataOptions {
  /// Latency of a (replicated) tail append — the commit path.
  SimMicros commit_latency = 500;  // 0.5 ms
  /// Fixed cost of opening a baseline for a snapshot read.
  SimMicros snapshot_base_latency = 1'000;
  /// Per-file scan cost when reading columnar baselines (vectorized).
  double baseline_micros_per_file = 0.05;
  /// Per-record reconcile cost for the in-memory tail.
  double tail_micros_per_record = 0.5;
  /// Fold the tail into the baseline once it exceeds this many records.
  uint64_t compaction_threshold = 256;
  /// Cost of rewriting the baseline during compaction, per file.
  double compaction_micros_per_file = 0.2;
};

/// Result of a pruned file listing.
struct PrunedFiles {
  std::vector<CachedFileMeta> files;
  uint64_t candidates = 0;  // files considered
  uint64_t pruned = 0;      // files eliminated by stats/partitions
};

class BigMetadataStore;

/// A (possibly multi-table) metadata transaction. Obtain from
/// BigMetadataStore::BeginTransaction(); all staged operations commit
/// atomically with a single transaction id.
class MetaTransaction {
 public:
  /// Stages files to add to `table_id`.
  void AddFiles(const std::string& table_id,
                std::vector<CachedFileMeta> files);
  /// Stages file paths to remove from `table_id`.
  void RemoveFiles(const std::string& table_id,
                   std::vector<std::string> paths);

  /// Atomically applies all staged ops; returns the commit txn id.
  /// The transaction must not be reused afterwards.
  Result<uint64_t> Commit();

 private:
  friend class BigMetadataStore;
  explicit MetaTransaction(BigMetadataStore* store) : store_(store) {}

  struct TableOps {
    std::vector<CachedFileMeta> adds;
    std::vector<std::string> removes;
  };
  BigMetadataStore* store_;
  std::map<std::string, TableOps> ops_;
  bool committed_ = false;
};

/// Snapshot sentinel: "as of the latest commit". Txn ids are >= 1, and
/// `txn = 0` means "before any commit" (an empty view) — so a snapshot
/// pinned on a store with no commits yet (LatestTxn() == 0) stays empty
/// even after later commits land, instead of silently reading latest.
inline constexpr uint64_t kLatestTxn = ~uint64_t{0};

/// The metadata service. Tables are identified by opaque string ids
/// ("dataset.table"). Single-threaded simulation.
class BigMetadataStore {
 public:
  explicit BigMetadataStore(SimEnv* env, BigMetadataOptions options = {});

  /// Registers a table (idempotent).
  void EnsureTable(const std::string& table_id);
  bool HasTable(const std::string& table_id) const;
  Status DropTable(const std::string& table_id);

  MetaTransaction BeginTransaction() { return MetaTransaction(this); }

  /// Single-table conveniences (one-op transactions).
  Result<uint64_t> AppendFiles(const std::string& table_id,
                               std::vector<CachedFileMeta> files);
  Result<uint64_t> RemoveFiles(const std::string& table_id,
                               std::vector<std::string> paths);
  /// Atomically removes `remove_paths` and adds `adds` (compaction commit).
  Result<uint64_t> SwapFiles(const std::string& table_id,
                             std::vector<std::string> remove_paths,
                             std::vector<CachedFileMeta> adds);

  /// Latest committed transaction id (0 = nothing committed yet).
  uint64_t LatestTxn() const { return next_txn_ - 1; }

  /// Per-table commit generation: the txn id of the last commit that touched
  /// `table_id` (0 = registered but never committed). Txn ids are global and
  /// monotonic, so a table's generation never repeats — any CAS commit, DML
  /// or BLMT optimize moves it forward. An uncharged watermark read; the
  /// result cache keys entries to it so stale results become unreachable by
  /// construction.
  Result<uint64_t> TableGeneration(const std::string& table_id) const;

  /// Like TableGeneration, but as of snapshot `txn` (kLatestTxn = latest):
  /// the id of the last commit that touched `table_id` with id <= `txn`
  /// (0 when no commit that old touched the table). Lets a caller
  /// holding a pinned TxnSnapshot derive per-table generations consistent
  /// with that snapshot (the result cache keys on these). OutOfRange if `txn`
  /// predates the compacted baseline, mirroring Snapshot().
  Result<uint64_t> TableGenerationAt(const std::string& table_id,
                                     uint64_t txn) const;

  /// Watermark of the highest external transaction-log record applied to
  /// this store (see meta/txn.h). 0 = none. The coordinator advances it in
  /// the same atomic step that applies a committed record, so recovery knows
  /// exactly which log suffix is missing.
  uint64_t txn_log_applied_seq() const { return txn_log_applied_seq_; }
  void set_txn_log_applied_seq(uint64_t seq) { txn_log_applied_seq_ = seq; }

  /// Snapshot list of live files in the table as of `txn` (kLatestTxn =
  /// latest; 0 = before any commit, i.e. empty). Charges baseline + tail
  /// reconcile costs.
  Result<std::vector<CachedFileMeta>> Snapshot(const std::string& table_id,
                                               uint64_t txn = kLatestTxn) const;

  /// Snapshot + partition/statistics pruning with `predicate` (nullptr = no
  /// pruning). Files whose partition values or column stats prove the
  /// predicate unsatisfiable are skipped without touching the object store.
  Result<PrunedFiles> PruneFiles(const std::string& table_id,
                                 const ExprPtr& predicate,
                                 uint64_t txn = kLatestTxn) const;

  /// Aggregated per-column statistics across live files — handed to query
  /// planners via CreateReadSession (Sec 3.4).
  Result<std::map<std::string, ColumnStats>> TableStats(
      const std::string& table_id, uint64_t txn = kLatestTxn) const;

  /// Number of records currently in the (uncompacted) tail.
  Result<uint64_t> TailLength(const std::string& table_id) const;
  /// Number of files in the columnar baseline.
  Result<uint64_t> BaselineSize(const std::string& table_id) const;

  /// Forces tail folding regardless of threshold.
  Status Compact(const std::string& table_id);

 private:
  friend class MetaTransaction;

  struct LogRecord {
    uint64_t txn = 0;
    std::vector<CachedFileMeta> adds;
    std::vector<std::string> removes;
  };
  struct TableState {
    std::vector<CachedFileMeta> baseline;  // live files folded so far
    uint64_t baseline_txn = 0;             // all txns <= this are folded
    std::vector<LogRecord> tail;
  };

  Result<uint64_t> CommitOps(
      const std::map<std::string, MetaTransaction::TableOps>& ops);
  void MaybeCompact(TableState* table);
  static void ApplyRecord(std::vector<CachedFileMeta>* files,
                          const LogRecord& rec);

  SimEnv* env_;
  BigMetadataOptions options_;
  std::map<std::string, TableState> tables_;
  uint64_t next_txn_ = 1;
  uint64_t txn_log_applied_seq_ = 0;
};

}  // namespace biglake

#endif  // BIGLAKE_META_BIGMETA_H_

// The BigQuery Storage Read API (Sec 2.2.1), extended to BigLake tables
// (Sec 3).
//
// CreateReadSession resolves the table through the catalog, authenticates
// the caller against the table's IAM policy, swaps the caller's identity for
// the table's *connection* credential (delegated access, Sec 3.1), resolves
// the fine-grained policy into a row filter + column mask set (Sec 3.2),
// prunes data files with Big Metadata statistics when caching is enabled
// (Sec 3.3) — falling back to object-store listing + footer peeking when it
// is not — and returns parallel streams plus table statistics that external
// engines feed into their optimizers (Sec 3.4).
//
// ReadRows is the single enforcement point every engine reads through. It
// runs one stream *inside the trust boundary* as four named stages:
//   fetch  — credential check, footer, row-group pruning and decode, inline
//            or through a readahead window on the prefetch pool;
//   select — pushed-down predicate, then the security row filter;
//   govern — projection onto the requested columns plus data masking;
//   emit   — response-sized local handles (or one pushed-down partial
//            aggregate per stream), with byte accounting.
// The consuming engine is untrusted; it only ever sees post-policy batches.

#ifndef BIGLAKE_CORE_READ_API_H_
#define BIGLAKE_CORE_READ_API_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "columnar/aggregate.h"
#include "columnar/batch.h"
#include "columnar/expr.h"
#include "columnar/ipc.h"
#include "common/thread_pool.h"
#include "core/environment.h"
#include "meta/bigmeta.h"

namespace biglake {

struct ReadSessionOptions {
  /// Columns to return (empty = all). Projection is applied server-side.
  std::vector<std::string> columns;
  /// Predicate pushed down into the scan (may be nullptr).
  ExprPtr predicate;
  /// Point-in-time snapshot: Big Metadata txn id (kLatestTxn = latest,
  /// resolved to a concrete txn at session creation; 0 = before any commit).
  uint64_t snapshot_txn = kLatestTxn;
  /// Desired read parallelism; actual stream count <= this.
  uint32_t max_streams = 8;
  /// Baseline kept for bench_read_api_governance and read_api_test: the
  /// legacy row-oriented reader + transcode path instead of the vectorized
  /// reader (the Sec 3.4 before/after comparison).
  bool use_row_oriented_reader = false;
  /// Where the consuming engine runs. Reads of data in another cloud cross
  /// the WAN and incur egress (the Omni naive-federation baseline). Unset =
  /// colocated with the data.
  std::optional<CloudLocation> caller_location;
  /// Aggregate pushdown (the Sec 3.4 future-work item, mirroring
  /// DataSourceV2's partial-aggregate support): when `partial_aggregates`
  /// is non-empty, ReadRows computes per-stream partial aggregates
  /// server-side and returns one small batch per stream instead of raw
  /// rows. Only COUNT/SUM/MIN/MAX are pushable (AVG is not decomposable
  /// without rewriting; engines push SUM+COUNT instead). The consumer
  /// merges partials: SUM over sums/counts, MIN/MAX over mins/maxes.
  std::vector<std::string> aggregate_group_by;
  std::vector<AggSpec> partial_aggregates;
  /// Serve footers and decoded row-group blocks through the environment's
  /// columnar block cache (src/cache/) when it has capacity (Sec 3.3/4.2:
  /// warm scans bounded by CPU, not the object store). Cache hits change
  /// cost accounting only — never rows. Off by default so existing
  /// configurations are bit-identical to the pre-cache behavior. Ignored by
  /// the legacy row-oriented reader (the "before" baseline stays uncached).
  bool use_block_cache = false;
  /// Readahead window per stream: up to this many files are fetched+decoded
  /// concurrently on a prefetch pool, double-buffered against the consuming
  /// pipeline. Simulated charges fold back serial-equivalently in file
  /// order, so results and counters are bit-identical at any depth or
  /// worker count; the analytic overlap (I/O hidden behind the window) is
  /// reported separately and subtracted from per-stream wall time.
  /// 0 = fetch synchronously (the pre-pipeline behavior).
  uint32_t readahead_depth = 0;
  /// Evaluate pushed-down predicates and row filters with the typed flat
  /// kernels (src/columnar/kernels.h) and a deferred SelectionVector, fusing
  /// filter+project into one gather per block instead of two eager
  /// Filter() copies plus a Project(). Row-identical to the legacy path;
  /// ignored by the row-oriented reader (the "before" baseline). `false` is
  /// the boxed kernels-off baseline kept for bench_expr_kernels,
  /// bench_string_transport and the perfbench oracle.
  bool use_vectorized_kernels = true;
};

/// One parallel unit of work: a subset of the session's data files.
struct ReadStream {
  std::string stream_id;
  std::vector<CachedFileMeta> files;
  uint64_t estimated_rows = 0;
};

/// Server-side session state (governance resolution, scan columns, per-stream
/// overlap); defined in read_api.cc.
struct ReadSessionState;

/// The result of CreateReadSession. Copies share the session's state, which
/// lives as long as the last copy (a refined session keeps its own).
struct ReadSession {
  std::string session_id;
  std::string table_id;
  SchemaPtr output_schema;  // post-projection
  std::vector<ReadStream> streams;
  /// Table statistics from Big Metadata (Sec 3.4): external engines use
  /// these for join reordering and dynamic partition pruning. Empty when
  /// the table has no metadata cache.
  std::map<std::string, ColumnStats> table_stats;
  uint64_t snapshot_txn = 0;
  /// Diagnostics surfaced to benches.
  uint64_t files_pruned = 0;
  uint64_t files_total = 0;

 private:
  friend class StorageReadApi;
  /// Issued by one StorageReadApi for `session_id`; a handle whose issuer
  /// or id does not match is refused with NotFound.
  std::shared_ptr<ReadSessionState> state_;
};

class StorageReadApi {
 public:
  explicit StorageReadApi(LakehouseEnv* env) : env_(env) {}

  /// Creates a session for `principal` over `table_id`. Fails with
  /// PermissionDenied / Unauthenticated on any governance violation.
  Result<ReadSession> CreateReadSession(const Principal& principal,
                                        const std::string& table_id,
                                        const ReadSessionOptions& options);

  /// Reads one stream fully, returning one BatchHandle per response batch.
  /// Handles are *local* — refcounted references to the post-policy batches
  /// — so an in-process engine consumes them with zero serialization
  /// (`Open()` is a refcount bump). Transports that cross a process or
  /// trust boundary (Omni VPN, persistence) call `ToWire()`, which is the
  /// only point the Arrow-lite codec runs.
  Result<std::vector<BatchHandle>> ReadStreamHandles(const ReadSession& session,
                                                     size_t stream_index);

  /// Wire-format compatibility shim: ReadStreamHandles + ToWire per batch.
  /// (A gRPC server would stream these; callers deserialize with
  /// DeserializeBatch.)
  Result<std::vector<std::string>> ReadRows(const ReadSession& session,
                                            size_t stream_index);

  /// Convenience: ReadStreamHandles + open + concat — serialization-free
  /// in-process.
  Result<RecordBatch> ReadStreamBatch(const ReadSession& session,
                                      size_t stream_index);

  /// Read-session reuse (Sec 3.4 future work, implemented): narrows an
  /// existing session with an additional predicate — e.g. a dynamic-
  /// partition-pruning IN-list discovered at runtime — re-pruning the
  /// session's files without paying the full session-creation cost.
  /// Returns a new session sharing the original's governance resolution.
  Result<ReadSession> RefineSession(const ReadSession& session,
                                    const ExprPtr& extra_predicate);

  /// Dynamic work rebalancing (Sec 2.2.1): splits a stream's remaining
  /// files into two roughly equal halves.
  static Result<std::pair<ReadStream, ReadStream>> SplitStream(
      const ReadStream& stream);

  /// Simulated micros of object-store latency the prefetch pipeline hid
  /// behind compute for one stream of one session (0 without readahead).
  /// Engines subtract this from per-stream virtual elapsed time when
  /// computing analytic wall time; total resource time is unaffected.
  /// Serial context only (call after the scan's parallel region joined).
  SimMicros StreamOverlapSaved(const ReadSession& session,
                               size_t stream_index) const;

 private:
  /// One full read of a stream; retried whole by ReadStreamHandles on
  /// transient failure (all its state is local, so attempts are
  /// independent).
  Result<std::vector<BatchHandle>> ReadRowsAttempt(
      const ReadSession& session, ReadSessionState& state,
      size_t stream_index, const std::string& stream_key);

  /// The session's state if this instance issued it, else NotFound.
  Result<ReadSessionState*> StateOf(const ReadSession& session) const;

  /// Collects (and prunes) the file list for a table, via Big Metadata when
  /// cached, else via LIST + footer peeks (the slow pre-BigLake path).
  Result<PrunedFiles> CollectFiles(const TableDef& table,
                                   const Credential& credential,
                                   const ExprPtr& predicate, uint64_t txn,
                                   bool use_block_cache);

  /// The dedicated prefetch pool (lazily built, thread-safe). Distinct from
  /// any engine pool: a stream task blocks waiting on its readahead window,
  /// so running prefetch units on the same pool could deadlock.
  ThreadPool* prefetch_pool();

  LakehouseEnv* env_;
  uint64_t next_session_ = 1;
  std::once_flag prefetch_pool_once_;
  std::unique_ptr<ThreadPool> prefetch_pool_;
};

}  // namespace biglake

#endif  // BIGLAKE_CORE_READ_API_H_

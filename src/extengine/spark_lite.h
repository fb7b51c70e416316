// Spark-lite: a third-party analytics engine consuming BigLake through the
// Storage Read API (Sec 3.2, 3.4).
//
// Models the Spark + Spark-BigQuery-Connector stack:
//   * A DataFrame API (filter / select / join / aggregate / collect).
//   * A DataSourceV2-style connector: the driver calls CreateReadSession
//     (pushing down projection + predicates), executors read the returned
//     streams in parallel, and Arrow-lite batches flow in with encodings
//     preserved (minimal copies).
//   * Session statistics (Sec 3.4): when enabled, the connector uses the
//     table statistics returned by CreateReadSession for join build-side
//     selection and dynamic partition pruning. DPP *re-creates* the read
//     session with the new IN-list predicate — the server-side session cost
//     the paper calls out — which still wins when pruning is selective.
//   * A *direct* scan path reading Parquet-lite straight from object
//     storage with bucket credentials: the ungoverned baseline that BigLake
//     price-performance is compared against. No fine-grained security, no
//     metadata cache: LIST + footer peeks every query.
//
// The engine is untrusted by design: everything it receives from the Read
// API is post-governance. Its only trusted path is the direct scan, which
// exists precisely to show what governance-by-engine would cost.

#ifndef BIGLAKE_EXTENGINE_SPARK_LITE_H_
#define BIGLAKE_EXTENGINE_SPARK_LITE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/read_api.h"
#include "engine/plan.h"

namespace biglake {

struct SparkOptions {
  uint32_t executors = 8;
  /// Use CreateReadSession statistics for build-side selection + DPP.
  bool use_session_stats = true;
  bool dynamic_partition_pruning = true;
  uint64_t dpp_max_keys = 4096;
  /// Reuse the probe scan's read session for DPP (RefineSession) instead
  /// of re-creating it (Sec 3.4 future work, implemented).
  bool reuse_read_sessions = true;
  /// Push COUNT/SUM/MIN/MAX (DataSourceV2-style partial aggregates) into
  /// the Read API so only per-stream partials come back (Sec 3.4 future
  /// work, implemented).
  bool aggregate_pushdown = true;
  /// Spark-lite CPU per value: JVM row processing is costlier than the
  /// server-side vectorized pipeline.
  double cpu_micros_per_value = 0.004;
};

struct SparkQueryStats {
  SimMicros wall_micros = 0;
  SimMicros total_micros = 0;
  uint64_t rows_returned = 0;
  uint64_t sessions_created = 0;  // includes DPP session re-creation
  uint64_t files_scanned = 0;
  uint64_t files_pruned = 0;
  uint64_t build_side_swaps = 0;
  uint64_t dpp_scans = 0;
  uint64_t direct_list_calls = 0;
  uint64_t aggregates_pushed = 0;
  uint64_t sessions_refined = 0;  // DPP via RefineSession
};

struct SparkResult {
  RecordBatch batch;
  SparkQueryStats stats;
};

class SparkLiteEngine;

/// A lazy DataFrame. Methods build up a plan; Collect() executes it.
class DataFrame {
 public:
  DataFrame Filter(ExprPtr predicate) const;
  DataFrame Select(std::vector<std::string> columns) const;
  DataFrame Join(const DataFrame& right, std::vector<std::string> left_keys,
                 std::vector<std::string> right_keys) const;
  DataFrame Aggregate(std::vector<std::string> group_by,
                      std::vector<AggSpec> aggregates) const;
  DataFrame OrderBy(std::vector<SortKey> keys) const;
  DataFrame Limit(uint64_t n) const;

  /// Executes as `principal` (the identity presented to the Read API).
  Result<SparkResult> Collect(const Principal& principal) const;

  /// Implementation detail, public only so the engine's .cc can see it.
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;

 private:
  friend class SparkLiteEngine;
  DataFrame(SparkLiteEngine* engine, NodePtr node)
      : engine_(engine), node_(std::move(node)) {}

  SparkLiteEngine* engine_ = nullptr;
  NodePtr node_;
};

class SparkLiteEngine {
 public:
  SparkLiteEngine(LakehouseEnv* env, StorageReadApi* read_api,
                  SparkOptions options = {})
      : env_(env), read_api_(read_api), options_(options) {}

  const SparkOptions& options() const { return options_; }

  /// Governed read through the BigLake connector.
  DataFrame ReadBigLake(std::string table_id);

  /// Ungoverned baseline kept for bench_spark_acceleration: read
  /// Parquet-lite files directly from the bucket (requires the caller to
  /// hold bucket credentials out of band).
  DataFrame ReadParquetDirect(CloudLocation location, std::string bucket,
                              std::string prefix);

 private:
  friend class DataFrame;

  struct ScanSpec {
    bool direct = false;
    std::string table_id;                // connector scans
    CloudLocation location;              // direct scans
    std::string bucket;
    std::string prefix;
    std::vector<std::string> columns;    // pushdown projection
    ExprPtr predicate;                   // pushdown predicate
  };

  Result<RecordBatch> ExecuteNode(const Principal& principal,
                                  const DataFrame::NodePtr& node,
                                  SparkQueryStats* stats);
  Result<RecordBatch> ExecuteScan(const Principal& principal,
                                  const ScanSpec& scan,
                                  SparkQueryStats* stats);
  Result<RecordBatch> ConnectorScan(const Principal& principal,
                                    const ScanSpec& scan,
                                    SparkQueryStats* stats);
  /// The connector's session request for `scan`: projection + predicate
  /// pushdown, one stream per executor.
  ReadSessionOptions SessionOptions(const ScanSpec& scan) const;
  /// Reads every stream of a session with wave-based wall accounting.
  Result<RecordBatch> ReadSessionStreams(const ReadSession& session,
                                         SparkQueryStats* stats);
  Result<RecordBatch> DirectScan(const ScanSpec& scan,
                                 SparkQueryStats* stats);
  uint64_t EstimateRows(const Principal& principal,
                        const DataFrame::NodePtr& node);
  void ChargeCpu(uint64_t values, SparkQueryStats* stats);

  LakehouseEnv* env_;
  StorageReadApi* read_api_;
  SparkOptions options_;
};

/// Node of the DataFrame plan (header-visible so DataFrame methods can
/// build trees; treat as private to this module).
struct DataFrame::Node {
  enum class Kind { kScan, kFilter, kSelect, kJoin, kAggregate, kSort, kLimit };
  Kind kind = Kind::kScan;
  std::vector<NodePtr> children;
  SparkLiteEngine::ScanSpec scan;
  ExprPtr predicate;
  std::vector<std::string> columns;
  std::vector<std::string> left_keys, right_keys;
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggregates;
  std::vector<SortKey> sort_keys;
  uint64_t limit = 0;
};

}  // namespace biglake

#endif  // BIGLAKE_EXTENGINE_SPARK_LITE_H_

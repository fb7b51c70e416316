#include "extengine/spark_lite.h"

#include <algorithm>
#include <set>

#include "common/strings.h"
#include "engine/operators.h"
#include "format/object_source.h"
#include "format/parquet_lite.h"
#include "meta/metadata_cache.h"

namespace biglake {

namespace {
using Node = DataFrame::Node;
using NodePtr = DataFrame::NodePtr;

std::shared_ptr<Node> NewNode(Node::Kind kind) {
  auto n = std::make_shared<Node>();
  n->kind = kind;
  return n;
}
}  // namespace

DataFrame SparkLiteEngine::ReadBigLake(std::string table_id) {
  auto n = NewNode(Node::Kind::kScan);
  n->scan.table_id = std::move(table_id);
  return DataFrame(this, n);
}

DataFrame SparkLiteEngine::ReadParquetDirect(CloudLocation location,
                                             std::string bucket,
                                             std::string prefix) {
  auto n = NewNode(Node::Kind::kScan);
  n->scan.direct = true;
  n->scan.location = location;
  n->scan.bucket = std::move(bucket);
  n->scan.prefix = std::move(prefix);
  return DataFrame(this, n);
}

DataFrame DataFrame::Filter(ExprPtr predicate) const {
  // Pushdown: a filter directly over a scan folds into the scan spec, the
  // way Spark's DataSourceV2 pushes predicates into the connector.
  if (node_->kind == Node::Kind::kScan) {
    auto n = NewNode(Node::Kind::kScan);
    n->scan = node_->scan;
    n->scan.predicate = n->scan.predicate == nullptr
                            ? predicate
                            : Expr::And(n->scan.predicate, predicate);
    return DataFrame(engine_, n);
  }
  auto n = NewNode(Node::Kind::kFilter);
  n->children = {node_};
  n->predicate = std::move(predicate);
  return DataFrame(engine_, n);
}

DataFrame DataFrame::Select(std::vector<std::string> columns) const {
  if (node_->kind == Node::Kind::kScan && node_->scan.columns.empty()) {
    auto n = NewNode(Node::Kind::kScan);
    n->scan = node_->scan;
    n->scan.columns = std::move(columns);
    return DataFrame(engine_, n);
  }
  auto n = NewNode(Node::Kind::kSelect);
  n->children = {node_};
  n->columns = std::move(columns);
  return DataFrame(engine_, n);
}

DataFrame DataFrame::Join(const DataFrame& right,
                          std::vector<std::string> left_keys,
                          std::vector<std::string> right_keys) const {
  auto n = NewNode(Node::Kind::kJoin);
  n->children = {node_, right.node_};
  n->left_keys = std::move(left_keys);
  n->right_keys = std::move(right_keys);
  return DataFrame(engine_, n);
}

DataFrame DataFrame::Aggregate(std::vector<std::string> group_by,
                               std::vector<AggSpec> aggregates) const {
  auto n = NewNode(Node::Kind::kAggregate);
  n->children = {node_};
  n->group_by = std::move(group_by);
  n->aggregates = std::move(aggregates);
  return DataFrame(engine_, n);
}

DataFrame DataFrame::OrderBy(std::vector<SortKey> keys) const {
  auto n = NewNode(Node::Kind::kSort);
  n->children = {node_};
  n->sort_keys = std::move(keys);
  return DataFrame(engine_, n);
}

DataFrame DataFrame::Limit(uint64_t limit) const {
  auto n = NewNode(Node::Kind::kLimit);
  n->children = {node_};
  n->limit = limit;
  return DataFrame(engine_, n);
}

Result<SparkResult> DataFrame::Collect(const Principal& principal) const {
  SparkResult result;
  SimTimer timer(engine_->env_->sim());
  BL_ASSIGN_OR_RETURN(result.batch,
                      engine_->ExecuteNode(principal, node_, &result.stats));
  result.stats.rows_returned = result.batch.num_rows();
  result.stats.total_micros = timer.ElapsedMicros();
  engine_->env_->sim().counters().Add("spark.queries", 1);
  return result;
}

void SparkLiteEngine::ChargeCpu(uint64_t values, SparkQueryStats* stats) {
  auto micros = static_cast<SimMicros>(options_.cpu_micros_per_value *
                                       static_cast<double>(values));
  env_->sim().Charge("spark.cpu", micros);
  stats->total_micros += micros;
  stats->wall_micros += micros / std::max<uint32_t>(1, options_.executors);
}

uint64_t SparkLiteEngine::EstimateRows(const Principal& principal,
                                       const NodePtr& node) {
  switch (node->kind) {
    case Node::Kind::kScan: {
      if (node->scan.direct) return 1ull << 40;  // no stats for direct reads
      if (!options_.use_session_stats) return 1ull << 40;
      // Driver-side: session statistics from the connector.
      ReadSessionOptions opts;
      opts.max_streams = 1;
      auto session =
          read_api_->CreateReadSession(principal, node->scan.table_id, opts);
      if (!session.ok()) return 1ull << 40;
      uint64_t rows = 0;
      for (const auto& [col, stats] : session->table_stats) {
        rows = std::max(rows, stats.row_count);
      }
      if (node->scan.predicate != nullptr) rows /= 10;
      return rows == 0 ? 1ull << 40 : rows;
    }
    case Node::Kind::kFilter:
      return EstimateRows(principal, node->children[0]) / 10;
    case Node::Kind::kJoin:
      return std::max(EstimateRows(principal, node->children[0]),
                      EstimateRows(principal, node->children[1]));
    case Node::Kind::kAggregate:
      return std::max<uint64_t>(
          1, EstimateRows(principal, node->children[0]) / 100);
    case Node::Kind::kLimit:
      return node->limit;
    default:
      return node->children.empty()
                 ? 0
                 : EstimateRows(principal, node->children[0]);
  }
}

Result<RecordBatch> SparkLiteEngine::ExecuteNode(const Principal& principal,
                                                 const NodePtr& node,
                                                 SparkQueryStats* stats) {
  switch (node->kind) {
    case Node::Kind::kScan:
      return ExecuteScan(principal, node->scan, stats);
    case Node::Kind::kFilter: {
      BL_ASSIGN_OR_RETURN(RecordBatch in,
                          ExecuteNode(principal, node->children[0], stats));
      BL_ASSIGN_OR_RETURN(Column mask, node->predicate->Evaluate(in));
      ChargeCpu(in.num_rows(), stats);
      return in.Filter(BoolColumnToMask(mask));
    }
    case Node::Kind::kSelect: {
      BL_ASSIGN_OR_RETURN(RecordBatch in,
                          ExecuteNode(principal, node->children[0], stats));
      return in.Project(node->columns);
    }
    case Node::Kind::kJoin: {
      NodePtr build = node->children[0];
      NodePtr probe = node->children[1];
      std::vector<std::string> build_keys = node->left_keys;
      std::vector<std::string> probe_keys = node->right_keys;
      if (options_.use_session_stats &&
          EstimateRows(principal, build) > EstimateRows(principal, probe)) {
        std::swap(build, probe);
        std::swap(build_keys, probe_keys);
        ++stats->build_side_swaps;
        env_->sim().counters().Add("spark.build_side_swaps", 1);
      }
      // Connector scans must request join keys explicitly when the key is a
      // hive partition column not stored in the data files.
      auto ensure_keys = [this](const NodePtr& p,
                                const std::vector<std::string>& keys)
          -> NodePtr {
        if (p->kind != Node::Kind::kScan || p->scan.direct) return p;
        auto table = env_->catalog().GetTable(p->scan.table_id);
        if (!table.ok()) return p;
        std::vector<std::string> cols = p->scan.columns;
        if (cols.empty()) {
          bool missing = false;
          for (const auto& k : keys) {
            if ((*table)->schema->FieldIndex(k) < 0) missing = true;
          }
          if (!missing) return p;
          for (const Field& f : (*table)->schema->fields()) {
            cols.push_back(f.name);
          }
        }
        bool changed = false;
        for (const auto& k : keys) {
          if (std::find(cols.begin(), cols.end(), k) == cols.end()) {
            cols.push_back(k);
            changed = true;
          }
        }
        if (!changed && !p->scan.columns.empty()) return p;
        auto n = NewNode(Node::Kind::kScan);
        n->scan = p->scan;
        n->scan.columns = std::move(cols);
        return n;
      };
      build = ensure_keys(build, build_keys);
      probe = ensure_keys(probe, probe_keys);

      BL_ASSIGN_OR_RETURN(RecordBatch build_batch,
                          ExecuteNode(principal, build, stats));
      // Dynamic partition pruning: re-create the probe scan's read session
      // with the build side's distinct keys as an IN-list.
      RecordBatch probe_batch;
      bool probe_done = false;
      if (options_.use_session_stats && options_.dynamic_partition_pruning &&
          probe->kind == Node::Kind::kScan && !probe->scan.direct &&
          build_keys.size() == 1) {
        std::vector<Value> keys = ops::DistinctValues(
            build_batch, build_keys[0], options_.dpp_max_keys);
        if (!keys.empty()) {
          ExprPtr in_list =
              Expr::InList(Expr::Col(probe_keys[0]), std::move(keys));
          ++stats->dpp_scans;
          env_->sim().counters().Add("spark.dpp_scans", 1);
          if (options_.reuse_read_sessions) {
            // Session reuse: narrow the base session in place instead of
            // paying a second full session creation.
            SimTimer plan_timer(env_->sim());
            auto base = read_api_->CreateReadSession(
                principal, probe->scan.table_id, SessionOptions(probe->scan));
            if (base.ok()) {
              auto refined = read_api_->RefineSession(*base, in_list);
              if (refined.ok()) {
                stats->wall_micros += plan_timer.ElapsedMicros();
                ++stats->sessions_created;
                ++stats->sessions_refined;
                env_->sim().counters().Add("spark.sessions_refined", 1);
                for (const auto& stream : refined->streams) {
                  stats->files_scanned += stream.files.size();
                }
                stats->files_pruned += refined->files_pruned;
                BL_ASSIGN_OR_RETURN(probe_batch,
                                    ReadSessionStreams(*refined, stats));
                probe_done = true;
              }
            }
            if (!probe_done && !base.ok() &&
                (base.status().IsPermissionDenied() ||
                 base.status().code() == StatusCode::kUnauthenticated)) {
              return base.status();
            }
          }
          if (!probe_done) {
            auto pruned = NewNode(Node::Kind::kScan);
            pruned->scan = probe->scan;
            pruned->scan.predicate =
                pruned->scan.predicate == nullptr
                    ? in_list
                    : Expr::And(pruned->scan.predicate, in_list);
            probe = pruned;
          }
        }
      }
      if (!probe_done) {
        BL_ASSIGN_OR_RETURN(probe_batch,
                            ExecuteNode(principal, probe, stats));
      }
      uint64_t matches = 0;
      BL_ASSIGN_OR_RETURN(RecordBatch joined,
                          ops::HashJoinBatches(build_batch, probe_batch,
                                               build_keys, probe_keys,
                                               &matches));
      ChargeCpu(build_batch.num_rows() * 4 + probe_batch.num_rows() + matches,
                stats);
      return joined;
    }
    case Node::Kind::kAggregate: {
      // Aggregate pushdown: COUNT/SUM/MIN/MAX over a connector scan run
      // server-side; only per-stream partials cross the wire.
      const NodePtr& child = node->children[0];
      bool pushable = options_.aggregate_pushdown &&
                      child->kind == Node::Kind::kScan &&
                      !child->scan.direct && !node->aggregates.empty();
      for (const auto& spec : node->aggregates) {
        if (spec.op == AggOp::kAvg) pushable = false;
      }
      if (pushable) {
        ReadSessionOptions opts = SessionOptions(child->scan);
        opts.columns.clear();  // the partials read their own inputs
        opts.aggregate_group_by = node->group_by;
        opts.partial_aggregates = node->aggregates;
        SimTimer plan_timer(env_->sim());
        auto session = read_api_->CreateReadSession(
            principal, child->scan.table_id, opts);
        if (session.ok()) {
          stats->wall_micros += plan_timer.ElapsedMicros();
          ++stats->sessions_created;
          ++stats->aggregates_pushed;
          env_->sim().counters().Add("spark.aggregate_pushdowns", 1);
          stats->files_scanned +=
              session->files_total - session->files_pruned;
          stats->files_pruned += session->files_pruned;
          std::vector<RecordBatch> partials;
          std::vector<SimMicros> elapsed;
          for (size_t st = 0; st < session->streams.size(); ++st) {
            SimTimer t(env_->sim());
            BL_ASSIGN_OR_RETURN(RecordBatch b,
                                read_api_->ReadStreamBatch(*session, st));
            SimMicros e = t.ElapsedMicros();
            stats->total_micros += e;
            // Readahead hides part of the stream's I/O behind compute;
            // the wall estimate (not resource time) shrinks accordingly.
            SimMicros saved = read_api_->StreamOverlapSaved(*session, st);
            elapsed.push_back(e > saved ? e - saved : 0);
            partials.push_back(std::move(b));
          }
          std::sort(elapsed.rbegin(), elapsed.rend());
          for (size_t i = 0; i < elapsed.size(); i += options_.executors) {
            stats->wall_micros += elapsed[i];
          }
          BL_ASSIGN_OR_RETURN(RecordBatch merged,
                              RecordBatch::Concat(partials));
          ChargeCpu(merged.num_rows(), stats);
          return MergePartialAggregates(merged, node->group_by,
                                        node->aggregates);
        }
        // Fall through to client-side aggregation on session errors other
        // than governance denials (those must still fail the query).
        if (session.status().IsPermissionDenied() ||
            session.status().code() == StatusCode::kUnauthenticated) {
          return session.status();
        }
      }
      BL_ASSIGN_OR_RETURN(RecordBatch in,
                          ExecuteNode(principal, node->children[0], stats));
      ChargeCpu(in.num_rows() * (node->aggregates.size() + 1), stats);
      return ops::AggregateBatch(in, node->group_by, node->aggregates);
    }
    case Node::Kind::kSort: {
      BL_ASSIGN_OR_RETURN(RecordBatch in,
                          ExecuteNode(principal, node->children[0], stats));
      ChargeCpu(in.num_rows(), stats);
      return ops::SortBatch(in, node->sort_keys);
    }
    case Node::Kind::kLimit: {
      BL_ASSIGN_OR_RETURN(RecordBatch in,
                          ExecuteNode(principal, node->children[0], stats));
      return in.Slice(0, node->limit);
    }
  }
  return Status::Internal("unreachable dataframe node kind");
}

Result<RecordBatch> SparkLiteEngine::ExecuteScan(const Principal& principal,
                                                 const ScanSpec& scan,
                                                 SparkQueryStats* stats) {
  return scan.direct ? DirectScan(scan, stats)
                     : ConnectorScan(principal, scan, stats);
}

Result<RecordBatch> SparkLiteEngine::ReadSessionStreams(
    const ReadSession& session, SparkQueryStats* stats) {
  std::vector<RecordBatch> batches;
  std::vector<SimMicros> elapsed;
  for (size_t st = 0; st < session.streams.size(); ++st) {
    SimTimer t(env_->sim());
    BL_ASSIGN_OR_RETURN(RecordBatch b, read_api_->ReadStreamBatch(session, st));
    SimMicros e = t.ElapsedMicros();
    stats->total_micros += e;
    SimMicros saved = read_api_->StreamOverlapSaved(session, st);
    elapsed.push_back(e > saved ? e - saved : 0);
    // Arrow-native ingestion: negligible copy cost, tiny per-row handling.
    ChargeCpu(b.num_rows(), stats);
    batches.push_back(std::move(b));
  }
  std::sort(elapsed.rbegin(), elapsed.rend());
  for (size_t i = 0; i < elapsed.size(); i += options_.executors) {
    stats->wall_micros += elapsed[i];
  }
  if (batches.empty()) return RecordBatch::Empty(session.output_schema);
  return RecordBatch::Concat(batches);
}

ReadSessionOptions SparkLiteEngine::SessionOptions(const ScanSpec& scan) const {
  ReadSessionOptions opts;
  opts.columns = scan.columns;
  opts.predicate = scan.predicate;
  opts.max_streams = options_.executors;
  return opts;
}

Result<RecordBatch> SparkLiteEngine::ConnectorScan(const Principal& principal,
                                                   const ScanSpec& scan,
                                                   SparkQueryStats* stats) {
  // Driver: create the session with projection + predicate pushdown.
  SimTimer plan_timer(env_->sim());
  BL_ASSIGN_OR_RETURN(ReadSession session,
                      read_api_->CreateReadSession(principal, scan.table_id,
                                                   SessionOptions(scan)));
  SimMicros plan_cost = plan_timer.ElapsedMicros();
  stats->wall_micros += plan_cost;
  stats->total_micros += plan_cost;
  ++stats->sessions_created;
  stats->files_scanned += session.files_total - session.files_pruned;
  stats->files_pruned += session.files_pruned;
  // Executors: parallel stream reads; wall time = slowest stream per wave.
  return ReadSessionStreams(session, stats);
}

Result<RecordBatch> SparkLiteEngine::DirectScan(const ScanSpec& scan,
                                                SparkQueryStats* stats) {
  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(scan.location));
  CallerContext ctx{.location = scan.location};
  SimTimer list_timer(env_->sim());
  // Every direct query re-lists the prefix (no metadata cache).
  BL_ASSIGN_OR_RETURN(std::vector<ObjectMetadata> listed,
                      store->ListAll(ctx, scan.bucket, scan.prefix));
  stats->direct_list_calls += 1;
  stats->wall_micros += list_timer.ElapsedMicros();  // listing serializes
  std::vector<std::string> pred_cols;
  if (scan.predicate != nullptr) {
    std::set<std::string> referenced;
    scan.predicate->CollectColumns(&referenced);
    pred_cols.assign(referenced.begin(), referenced.end());
  }
  std::vector<RecordBatch> batches;
  std::vector<SimMicros> file_elapsed;
  for (const ObjectMetadata& obj : listed) {
    SimTimer file_timer(env_->sim());
    ObjectSource source(store, ctx, scan.bucket, obj.name, obj.size);
    auto meta = ReadParquetFooter(source);
    if (!meta.ok()) {
      // Transient store faults surface to the caller; only structurally
      // non-Parquet objects are skipped as non-data files.
      if (IsRetryable(meta.status())) return meta.status();
      continue;
    }
    // Footer-level pruning (the only pruning available without a cache).
    CachedFileMeta file;
    file.file.partition = ParseHivePartition(obj.name);
    if (scan.predicate != nullptr) {
      SetFooterStats(*meta, &file);
      if (FileCannotMatch(*scan.predicate, file)) {
        ++stats->files_pruned;
        continue;
      }
    }
    ++stats->files_scanned;
    // Spark applies the predicate itself (no trusted enforcement layer): it
    // reads the projection plus the predicate's stored columns, filters
    // with hive partition values materialized, then projects.
    std::vector<std::string> cols = scan.columns;
    if (!cols.empty()) {
      for (const auto& c : pred_cols) {
        if (meta->schema->FieldIndex(c) >= 0 &&
            std::find(cols.begin(), cols.end(), c) == cols.end()) {
          cols.push_back(c);
        }
      }
    }
    VectorizedReader reader(&source, *meta);
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      BL_ASSIGN_OR_RETURN(RecordBatch b, reader.ReadRowGroup(g, cols));
      if (scan.predicate != nullptr) {
        BL_ASSIGN_OR_RETURN(
            RecordBatch with_partition,
            WithPartitionColumns(b, file.file.partition, pred_cols));
        BL_ASSIGN_OR_RETURN(Column mask,
                            scan.predicate->Evaluate(with_partition));
        b = b.Filter(BoolColumnToMask(mask));
      }
      if (cols.size() > scan.columns.size()) {
        BL_ASSIGN_OR_RETURN(b, b.Project(scan.columns));
      }
      ChargeCpu(b.num_rows() * b.num_columns(), stats);
      batches.push_back(std::move(b));
    }
    file_elapsed.push_back(file_timer.ElapsedMicros());
  }
  // Executors process files in waves; each wave's wall time is its slowest
  // file (same analytic parallelism model as connector streams).
  std::sort(file_elapsed.rbegin(), file_elapsed.rend());
  for (size_t i = 0; i < file_elapsed.size(); i += options_.executors) {
    stats->wall_micros += file_elapsed[i];
  }
  if (batches.empty()) {
    return Status::NotFound(
        StrCat("no Parquet-lite files under ", scan.bucket, "/", scan.prefix));
  }
  return RecordBatch::Concat(batches);
}

}  // namespace biglake

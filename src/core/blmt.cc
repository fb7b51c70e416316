#include "core/blmt.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/strings.h"
#include "format/object_source.h"
#include "format/parquet_lite.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace biglake {

namespace {

void CountDml(const char* op) {
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_BLMT_DML, {{"op", op}})
      ->Increment();
}

}  // namespace

Status BlmtService::CreateTable(TableDef def,
                                std::vector<std::string> clustering) {
  def.kind = TableKind::kBigLakeManaged;
  std::string id = def.id();
  BL_RETURN_NOT_OK(env_->catalog().CreateTable(std::move(def)));
  env_->meta().EnsureTable(id);
  clustering_[id] = std::move(clustering);
  return Status::OK();
}

Result<const TableDef*> BlmtService::CheckedTable(
    const Principal& principal, const std::string& table_id,
    Role needed) const {
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));
  if (table->kind != TableKind::kBigLakeManaged) {
    return Status::InvalidArgument(
        StrCat("table `", table_id, "` is not a BigLake managed table"));
  }
  if (!table->iam.Allows(principal, needed)) {
    return Status::PermissionDenied(
        StrCat(principal, " lacks access to `", table_id, "`"));
  }
  return table;
}

Result<CachedFileMeta> BlmtService::WriteDataFile(const TableDef& table,
                                                  const RecordBatch& rows) {
  BL_ASSIGN_OR_RETURN(std::string bytes, WriteParquetFile(rows));
  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(table.location));
  CallerContext ctx{.location = table.location};
  std::string name =
      StrCat(table.prefix, "data/blmt-", next_file_++, ".plk");
  PutOptions po;
  po.content_type = "application/x-parquet-lite";
  uint64_t size = bytes.size();
  // The name is fixed before the (retried) put so a transient fault never
  // perturbs file naming or leaves half-written orphans.
  BL_ASSIGN_OR_RETURN(
      uint64_t gen,
      fault::RetryResult<uint64_t>(
          &env_->sim(), options_.retry, FaultSite::kObjPut,
          StrCat(table.bucket, "/", name), [&] {
            return store->Put(ctx, table.bucket, name, std::string(bytes), po);
          }));
  CachedFileMeta meta;
  meta.file.path = name;
  meta.file.size_bytes = size;
  meta.file.row_count = rows.num_rows();
  meta.generation = gen;
  meta.content_type = po.content_type;
  meta.create_time = env_->sim().clock().Now();
  for (size_t c = 0; c < rows.num_columns(); ++c) {
    meta.file.column_stats[rows.schema()->field(c).name] =
        ComputeColumnStats(rows.column(c));
  }
  return meta;
}

Result<RecordBatch> BlmtService::ReadFile(const TableDef& table,
                                          const CachedFileMeta& file) {
  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(table.location));
  CallerContext ctx{.location = table.location};
  // File reads are pure, so the whole read retries on transient faults.
  return fault::RetryResult<RecordBatch>(
      &env_->sim(), options_.retry, FaultSite::kObjGet,
      StrCat(table.bucket, "/", file.file.path), [&]() -> Result<RecordBatch> {
        ObjectSource source(store, ctx, table.bucket, file.file.path,
                            file.file.size_bytes);
        BL_ASSIGN_OR_RETURN(std::vector<RecordBatch> groups,
                            ReadAllRowGroups(source));
        if (groups.empty()) return RecordBatch::Empty(table.schema);
        return RecordBatch::Concat(groups);
      });
}

Result<uint64_t> BlmtService::Insert(const Principal& principal,
                                     const std::string& table_id,
                                     const RecordBatch& rows) {
  obs::ScopedSpan span("blmt:insert", obs::Span::kRpc);
  CountDml("insert");
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      CheckedTable(principal, table_id, Role::kWriter));
  if (!rows.schema()->Equals(*table->schema)) {
    return Status::InvalidArgument("insert schema does not match table");
  }
  BL_ASSIGN_OR_RETURN(CachedFileMeta file, WriteDataFile(*table, rows));
  BL_ASSIGN_OR_RETURN(uint64_t txn,
                      env_->meta().AppendFiles(table_id, {file}));
  // Every DML commit moves the table generation; reclaim dependent cached
  // results eagerly (the generation key already fences them).
  env_->result_cache().InvalidateTable(table_id);
  return txn;
}

Result<uint64_t> BlmtService::MultiTableInsert(
    const Principal& principal,
    const std::vector<std::pair<std::string, RecordBatch>>& inserts) {
  obs::ScopedSpan span("blmt:multi_table_insert", obs::Span::kRpc);
  CountDml("multi_table_insert");
  if (transactional()) {
    std::vector<std::string> tables;
    tables.reserve(inserts.size());
    for (const auto& [table_id, rows] : inserts) {
      tables.push_back(table_id);
      (void)rows;
    }
    BL_ASSIGN_OR_RETURN(std::unique_ptr<meta::LakehouseTxn> txn,
                        BeginTransaction(tables));
    for (const auto& [table_id, rows] : inserts) {
      Status s = TxnInsert(txn.get(), principal, table_id, rows);
      if (!s.ok()) {
        (void)AbortTransaction(txn.get());
        return s;
      }
    }
    return CommitTransaction(txn.get());
  }
  MetaTransaction txn = env_->meta().BeginTransaction();
  for (const auto& [table_id, rows] : inserts) {
    BL_ASSIGN_OR_RETURN(const TableDef* table,
                        CheckedTable(principal, table_id, Role::kWriter));
    if (!rows.schema()->Equals(*table->schema)) {
      return Status::InvalidArgument(
          StrCat("insert schema does not match table `", table_id, "`"));
    }
    BL_ASSIGN_OR_RETURN(CachedFileMeta file, WriteDataFile(*table, rows));
    txn.AddFiles(table_id, {file});
  }
  BL_ASSIGN_OR_RETURN(uint64_t commit_txn, txn.Commit());
  for (const auto& [table_id, rows] : inserts) {
    env_->result_cache().InvalidateTable(table_id);
    (void)rows;
  }
  return commit_txn;
}

Result<uint64_t> BlmtService::Delete(const Principal& principal,
                                     const std::string& table_id,
                                     const ExprPtr& predicate) {
  obs::ScopedSpan span("blmt:delete", obs::Span::kRpc);
  CountDml("delete");
  return RunRewrite(principal, table_id, predicate, nullptr);
}

Result<uint64_t> BlmtService::Update(
    const Principal& principal, const std::string& table_id,
    const ExprPtr& predicate,
    const std::map<std::string, Value>& assignments) {
  obs::ScopedSpan span("blmt:update", obs::Span::kRpc);
  CountDml("update");
  return RunRewrite(principal, table_id, predicate, &assignments);
}

Result<uint64_t> BlmtService::RunRewrite(
    const Principal& principal, const std::string& table_id,
    const ExprPtr& predicate,
    const std::map<std::string, Value>* assignments) {
  if (transactional()) {
    BL_ASSIGN_OR_RETURN(std::unique_ptr<meta::LakehouseTxn> txn,
                        BeginTransaction({table_id}));
    Result<uint64_t> staged =
        StageRewrite(txn.get(), principal, table_id, predicate, assignments);
    if (!staged.ok()) {
      (void)AbortTransaction(txn.get());
      return staged.status();
    }
    BL_RETURN_NOT_OK(CommitTransaction(txn.get()).status());
    return staged;
  }
  BL_ASSIGN_OR_RETURN(
      Rewrite rewrite,
      PlanRewrite(principal, table_id, predicate, assignments, kLatestTxn));
  if (!rewrite.removals.empty()) {
    // Rewritten files must never be served from cache again: drop every
    // cached generation/projection before swapping them out.
    for (const std::string& path : rewrite.removals) {
      env_->block_cache().InvalidateObject(
          CloudProviderName(rewrite.table->location.provider),
          rewrite.table->bucket, path);
    }
    BL_RETURN_NOT_OK(env_->meta()
                         .SwapFiles(table_id, std::move(rewrite.removals),
                                    std::move(rewrite.additions))
                         .status());
    env_->result_cache().InvalidateTable(table_id);
  }
  return rewrite.matched;
}

Result<BlmtService::Rewrite> BlmtService::PlanRewrite(
    const Principal& principal, const std::string& table_id,
    const ExprPtr& predicate, const std::map<std::string, Value>* assignments,
    uint64_t snapshot_txn) {
  Rewrite out;
  BL_ASSIGN_OR_RETURN(out.table,
                      CheckedTable(principal, table_id, Role::kWriter));
  if (predicate == nullptr) {
    return Status::InvalidArgument(StrCat(
        assignments == nullptr ? "DELETE" : "UPDATE", " requires a predicate"));
  }
  if (assignments != nullptr) {
    for (const auto& [col, val] : *assignments) {
      if (out.table->schema->FieldIndex(col) < 0) {
        return Status::NotFound(StrCat("no column `", col, "`"));
      }
      (void)val;
    }
  }
  // Only files whose statistics admit matches are rewritten.
  BL_ASSIGN_OR_RETURN(PrunedFiles candidates,
                      env_->meta().PruneFiles(table_id, predicate,
                                              snapshot_txn));
  for (const CachedFileMeta& file : candidates.files) {
    BL_ASSIGN_OR_RETURN(RecordBatch data, ReadFile(*out.table, file));
    BL_ASSIGN_OR_RETURN(Column match, predicate->Evaluate(data));
    std::vector<uint8_t> mask = BoolColumnToMask(match);
    uint64_t matches =
        std::accumulate(mask.begin(), mask.end(), uint64_t{0});
    if (matches == 0) continue;  // false positive from stats
    out.matched += matches;
    out.removals.push_back(file.file.path);
    RecordBatch rewritten;
    if (assignments == nullptr) {
      // Keep the non-matching remainder.
      for (auto& m : mask) m = m ? 0 : 1;
      rewritten = data.Filter(mask);
      if (rewritten.num_rows() == 0) continue;
    } else {
      // Rebuild the file with assignments applied to matching rows.
      std::vector<Column> cols;
      for (size_t c = 0; c < data.num_columns(); ++c) {
        const Field& f = data.schema()->field(c);
        auto ait = assignments->find(f.name);
        if (ait == assignments->end()) {
          cols.push_back(data.column(c));
          continue;
        }
        ColumnBuilder builder(f.type);
        for (size_t r = 0; r < data.num_rows(); ++r) {
          BL_RETURN_NOT_OK(builder.AppendValue(
              mask[r] ? ait->second : data.GetValue(r, c)));
        }
        cols.push_back(builder.Finish());
      }
      rewritten = RecordBatch(data.schema(), std::move(cols));
    }
    BL_ASSIGN_OR_RETURN(CachedFileMeta meta,
                        WriteDataFile(*out.table, rewritten));
    out.additions.push_back(std::move(meta));
  }
  return out;
}

Result<RecordBatch> BlmtService::ReadAll(const std::string& table_id,
                                         uint64_t snapshot_txn) {
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));
  BL_ASSIGN_OR_RETURN(std::vector<CachedFileMeta> files,
                      env_->meta().Snapshot(table_id, snapshot_txn));
  std::vector<RecordBatch> batches;
  for (const auto& f : files) {
    BL_ASSIGN_OR_RETURN(RecordBatch b, ReadFile(*table, f));
    batches.push_back(std::move(b));
  }
  if (batches.empty()) return RecordBatch::Empty(table->schema);
  return RecordBatch::Concat(batches);
}

Result<std::unique_ptr<meta::LakehouseTxn>> BlmtService::BeginTransaction(
    const std::vector<std::string>& tables) {
  if (!transactional()) {
    return Status::FailedPrecondition(
        "multi-table transactions are not enabled on this environment "
        "(LakehouseEnv::EnableTransactions)");
  }
  return env_->txn()->BeginTransaction(tables);
}

Status BlmtService::TxnInsert(meta::LakehouseTxn* txn,
                              const Principal& principal,
                              const std::string& table_id,
                              const RecordBatch& rows) {
  if (txn->state() != meta::LakehouseTxn::State::kOpen) {
    return Status::FailedPrecondition("transaction is not open");
  }
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      CheckedTable(principal, table_id, Role::kWriter));
  if (!rows.schema()->Equals(*table->schema)) {
    return Status::InvalidArgument(
        StrCat("insert schema does not match table `", table_id, "`"));
  }
  BL_ASSIGN_OR_RETURN(CachedFileMeta file, WriteDataFile(*table, rows));
  txn->AddFiles(table_id, {std::move(file)});
  return Status::OK();
}

Result<uint64_t> BlmtService::TxnDelete(meta::LakehouseTxn* txn,
                                        const Principal& principal,
                                        const std::string& table_id,
                                        const ExprPtr& predicate) {
  return StageRewrite(txn, principal, table_id, predicate, nullptr);
}

Result<uint64_t> BlmtService::TxnUpdate(
    meta::LakehouseTxn* txn, const Principal& principal,
    const std::string& table_id, const ExprPtr& predicate,
    const std::map<std::string, Value>& assignments) {
  return StageRewrite(txn, principal, table_id, predicate, &assignments);
}

Result<uint64_t> BlmtService::StageRewrite(
    meta::LakehouseTxn* txn, const Principal& principal,
    const std::string& table_id, const ExprPtr& predicate,
    const std::map<std::string, Value>* assignments) {
  if (txn->state() != meta::LakehouseTxn::State::kOpen) {
    return Status::FailedPrecondition("transaction is not open");
  }
  if (txn->HasRemoves(table_id)) {
    return Status::InvalidArgument(
        StrCat("transaction already rewrites `", table_id,
               "` (one rewriting statement per table per transaction)"));
  }
  // Candidates resolve against the transaction's pinned snapshot: the
  // statement sees the world as of Begin, and the commit-time liveness check
  // turns any concurrent rewrite of these files into a conflict abort.
  BL_ASSIGN_OR_RETURN(Rewrite rewrite,
                      PlanRewrite(principal, table_id, predicate, assignments,
                                  txn->snapshot().meta_txn));
  if (!rewrite.removals.empty()) {
    txn->RemoveFiles(table_id, std::move(rewrite.removals));
    txn->AddFiles(table_id, std::move(rewrite.additions));
  }
  return rewrite.matched;
}

Result<uint64_t> BlmtService::CommitTransaction(meta::LakehouseTxn* txn) {
  if (!transactional()) {
    return Status::FailedPrecondition(
        "multi-table transactions are not enabled on this environment");
  }
  return env_->txn()->Commit(txn);
}

Status BlmtService::AbortTransaction(meta::LakehouseTxn* txn) {
  if (!transactional()) {
    return Status::FailedPrecondition(
        "multi-table transactions are not enabled on this environment");
  }
  return env_->txn()->Abort(txn);
}

Result<OptimizeReport> BlmtService::OptimizeStorage(
    const std::string& table_id) {
  obs::ScopedSpan span("blmt:optimize_storage", obs::Span::kRpc);
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_BLMT_OPTIMIZE_RUNS)
      ->Increment();
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));
  BL_ASSIGN_OR_RETURN(std::vector<CachedFileMeta> files,
                      env_->meta().Snapshot(table_id));
  OptimizeReport report;
  report.files_before = files.size();

  // Coalesce runs of small files into target-sized rewrites.
  std::vector<CachedFileMeta> small;
  uint64_t small_bytes = 0;
  for (const auto& f : files) {
    if (f.file.size_bytes < options_.small_file_bytes) {
      small.push_back(f);
      small_bytes += f.file.size_bytes;
    }
  }
  if (small.size() < 2) {
    report.files_after = files.size();
    return report;
  }

  std::vector<RecordBatch> batches;
  std::vector<std::string> removals;
  for (const auto& f : small) {
    BL_ASSIGN_OR_RETURN(RecordBatch b, ReadFile(*table, f));
    batches.push_back(std::move(b));
    removals.push_back(f.file.path);
  }
  BL_ASSIGN_OR_RETURN(RecordBatch merged, RecordBatch::Concat(batches));
  report.rows_rewritten = merged.num_rows();

  // Recluster: sort by the clustering columns so future scans prune better.
  auto cit = clustering_.find(table_id);
  if (cit != clustering_.end() && !cit->second.empty() &&
      merged.num_rows() > 1) {
    std::vector<uint32_t> order(merged.num_rows());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    std::vector<int> key_cols;
    for (const auto& col : cit->second) {
      int idx = merged.schema()->FieldIndex(col);
      if (idx >= 0) key_cols.push_back(idx);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       for (int c : key_cols) {
                         int cmp = merged.GetValue(a, static_cast<size_t>(c))
                                       .Compare(merged.GetValue(
                                           b, static_cast<size_t>(c)));
                         if (cmp != 0) return cmp < 0;
                       }
                       return false;
                     });
    merged = merged.Gather(order);
  }

  // Adaptive file sizing: split the merged data into target-sized files.
  uint64_t avg_row_bytes =
      std::max<uint64_t>(1, small_bytes / std::max<uint64_t>(
                                              1, merged.num_rows()));
  uint64_t rows_per_file =
      std::max<uint64_t>(1, options_.target_file_bytes / avg_row_bytes);
  std::vector<CachedFileMeta> additions;
  for (size_t off = 0; off < merged.num_rows(); off += rows_per_file) {
    RecordBatch piece = merged.Slice(
        off, std::min<size_t>(rows_per_file, merged.num_rows() - off));
    BL_ASSIGN_OR_RETURN(CachedFileMeta meta, WriteDataFile(*table, piece));
    additions.push_back(std::move(meta));
  }
  report.files_coalesced = removals.size();
  report.files_after =
      files.size() - removals.size() + additions.size();
  // Coalesce/recluster replaces the small files wholesale; evict their
  // cached footers and blocks before the metadata swap lands.
  for (const std::string& path : removals) {
    env_->block_cache().InvalidateObject(
        CloudProviderName(table->location.provider), table->bucket, path);
  }
  BL_RETURN_NOT_OK(env_->meta()
                       .SwapFiles(table_id, std::move(removals),
                                  std::move(additions))
                       .status());
  env_->result_cache().InvalidateTable(table_id);
  env_->sim().counters().Add("blmt.optimize_runs", 1);
  return report;
}

Result<GcReport> BlmtService::GarbageCollect(const std::string& table_id) {
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));
  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(table->location));
  CallerContext ctx{.location = table->location};
  BL_ASSIGN_OR_RETURN(std::vector<CachedFileMeta> live,
                      env_->meta().Snapshot(table_id));
  std::set<std::string> live_paths;
  for (const auto& f : live) live_paths.insert(f.file.path);

  GcReport report;
  BL_ASSIGN_OR_RETURN(
      std::vector<ObjectMetadata> objects,
      store->ListAll(ctx, table->bucket, table->prefix + "data/"));
  SimMicros now = env_->sim().clock().Now();
  for (const auto& obj : objects) {
    ++report.objects_scanned;
    if (live_paths.count(obj.name) > 0) continue;
    if (now < obj.update_time + options_.gc_min_age) continue;
    BL_RETURN_NOT_OK(store->Delete(ctx, table->bucket, obj.name));
    env_->block_cache().InvalidateObject(
        CloudProviderName(table->location.provider), table->bucket, obj.name);
    ++report.objects_deleted;
  }
  // GC only deletes already-dead objects (no generation change), but sweep
  // dependent results anyway: defense in depth against a cached result that
  // outlived its inputs.
  if (report.objects_deleted > 0) {
    env_->result_cache().InvalidateTable(table_id);
  }
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_BLMT_GC_DELETED)
      ->Add(report.objects_deleted);
  env_->sim().counters().Add("blmt.gc_runs", 1);
  return report;
}

Result<IcebergExportInfo> BlmtService::ExportIcebergSnapshot(
    const std::string& table_id) {
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));
  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(table->location));
  CallerContext ctx{.location = table->location};
  BL_ASSIGN_OR_RETURN(std::vector<CachedFileMeta> live,
                      env_->meta().Snapshot(table_id));
  std::vector<DataFileEntry> entries;
  entries.reserve(live.size());
  for (const auto& f : live) entries.push_back(f.file);

  std::string prefix = table->prefix + "iceberg/";
  Result<IcebergTable> iceberg =
      IcebergTable::Load(store, ctx, table->bucket, prefix);
  if (!iceberg.ok()) {
    if (!iceberg.status().IsNotFound()) return iceberg.status();
    iceberg = IcebergTable::Create(store, ctx, table->bucket, prefix,
                                   table->schema, table->partition_columns);
    BL_RETURN_NOT_OK(iceberg.status());
  }
  BL_RETURN_NOT_OK(iceberg->CommitReplace(ctx, std::move(entries)));
  IcebergExportInfo info;
  info.bucket = table->bucket;
  info.prefix = prefix;
  info.snapshot_id = iceberg->metadata().current_snapshot_id;
  info.num_files = live.size();
  env_->sim().counters().Add("blmt.iceberg_exports", 1);
  return info;
}

}  // namespace biglake

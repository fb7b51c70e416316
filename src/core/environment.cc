#include "core/environment.h"

#include "common/strings.h"
#include "format/parquet_lite.h"

namespace biglake {

meta::TxnCoordinator* LakehouseEnv::EnableTransactions(
    ObjectStore* store, const std::string& bucket,
    meta::TxnCoordinatorOptions options) {
  options.bucket = bucket;
  txn_ = std::make_unique<meta::TxnCoordinator>(&env_, &meta_, store,
                                                std::move(options));
  txn_->set_invalidation_hook(
      [this](const meta::TxnLogRecord& rec) { AfterCommit(rec.tables); });
  return txn_.get();
}

Result<CachedFileMeta> LakehouseEnv::WriteDataFile(
    const TableDef& table, std::span<const RecordBatch> batches,
    std::string_view stem, const fault::RetryPolicy& retry) {
  ParquetWriter writer(table.schema);
  for (const RecordBatch& b : batches) BL_RETURN_NOT_OK(writer.Append(b));
  BL_ASSIGN_OR_RETURN(std::string bytes, writer.Finish());
  BL_ASSIGN_OR_RETURN(ObjectStore * store, FindStore(table.location));
  CallerContext ctx{.location = table.location};
  const std::string name =
      StrCat(table.prefix, "data/", stem, next_file_++, ".plk");
  PutOptions po;
  po.content_type = "application/x-parquet-lite";
  const uint64_t size = bytes.size();
  BL_ASSIGN_OR_RETURN(
      uint64_t gen,
      fault::RetryResult<uint64_t>(
          &env_, retry, FaultSite::kObjPut, StrCat(table.bucket, "/", name),
          [&] {
            return store->Put(ctx, table.bucket, name, std::string(bytes), po);
          }));
  CachedFileMeta meta;
  meta.file.path = name;
  meta.file.size_bytes = size;
  meta.generation = gen;
  meta.content_type = po.content_type;
  meta.create_time = env_.clock().Now();
  if (batches.empty()) return meta;
  // Column statistics straight from the written rows.
  RecordBatch all = batches.front();
  if (batches.size() > 1) {
    BL_ASSIGN_OR_RETURN(all, RecordBatch::Concat(std::vector<RecordBatch>(
                                 batches.begin(), batches.end())));
  }
  meta.file.row_count = all.num_rows();
  for (size_t c = 0; c < all.num_columns(); ++c) {
    meta.file.column_stats[all.schema()->field(c).name] =
        ComputeColumnStats(all.column(c));
  }
  return meta;
}

Result<uint64_t> LakehouseEnv::CommitDirect(
    const std::vector<meta::TxnTableOps>& ops) {
  MetaTransaction txn = meta_.BeginTransaction();
  for (const meta::TxnTableOps& t : ops) {
    if (!t.removes.empty()) txn.RemoveFiles(t.table_id, t.removes);
    txn.AddFiles(t.table_id, t.adds);
  }
  BL_ASSIGN_OR_RETURN(uint64_t commit_txn, txn.Commit());
  AfterCommit(ops);
  return commit_txn;
}

void LakehouseEnv::AfterCommit(const std::vector<meta::TxnTableOps>& ops) {
  for (const meta::TxnTableOps& t : ops) {
    result_cache_.InvalidateTable(t.table_id);
    if (t.removes.empty()) continue;
    auto table = catalog_.GetTable(t.table_id);
    if (!table.ok()) continue;  // replayed into an env without catalog
    const char* cloud = CloudProviderName((*table)->location.provider);
    for (const std::string& path : t.removes) {
      // Remove paths are full object names (they include the table prefix).
      block_cache_.InvalidateObject(cloud, (*table)->bucket, path);
    }
  }
}

}  // namespace biglake

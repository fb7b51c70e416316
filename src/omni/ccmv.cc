#include "omni/ccmv.h"

#include "common/coding.h"
#include "common/strings.h"
#include "format/object_source.h"
#include "format/parquet_lite.h"

namespace biglake {

Result<CcmvRefreshReport> CcmvService::CreateView(CcmvDefinition def) {
  if (views_.count(def.name) > 0) {
    return Status::AlreadyExists(StrCat("CCMV `", def.name, "` exists"));
  }
  BL_ASSIGN_OR_RETURN(const TableDef* source,
                      env_->catalog().GetTable(def.source_table));
  BL_ASSIGN_OR_RETURN(ObjectStore * target,
                      env_->FindStore(def.target_location));
  if (!target->BucketExists(def.target_bucket)) {
    BL_RETURN_NOT_OK(target->CreateBucket(def.target_bucket));
  }
  if (source->location.SameCloud(def.target_location)) {
    // Allowed, but the whole point is cross-cloud; note it for operators.
    env_->sim().counters().Add("ccmv.same_cloud_views", 1);
  }
  std::string name = def.name;
  ViewState state;
  state.def = std::move(def);
  views_[name] = std::move(state);
  return RefreshInternal(&views_[name], /*incremental=*/false);
}

Result<std::map<std::string, uint64_t>> CcmvService::SourceFingerprints(
    const ViewState& view) {
  BL_ASSIGN_OR_RETURN(std::vector<CachedFileMeta> files,
                      env_->meta().Snapshot(view.def.source_table));
  std::map<std::string, std::string> accum;  // partition key -> blob
  for (const auto& f : files) {
    std::string key = "__default__";
    for (const auto& [pcol, pval] : f.file.partition) {
      if (pcol == view.def.partition_column) key = pval.ToString();
    }
    std::string& blob = accum[key];
    blob += f.file.path;
    PutVarint64(&blob, f.generation);
  }
  std::map<std::string, uint64_t> fingerprints;
  for (const auto& [key, blob] : accum) {
    fingerprints[key] = Fnv1a64(blob);
  }
  return fingerprints;
}

Result<CcmvRefreshReport> CcmvService::Refresh(const std::string& name) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("no CCMV `", name, "`"));
  }
  return RefreshInternal(&it->second, /*incremental=*/true);
}

Result<CcmvRefreshReport> CcmvService::FullRefresh(const std::string& name) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("no CCMV `", name, "`"));
  }
  return RefreshInternal(&it->second, /*incremental=*/false);
}

Result<CcmvRefreshReport> CcmvService::RefreshInternal(ViewState* view,
                                                       bool incremental) {
  SimTimer timer(env_->sim());
  CcmvRefreshReport report;
  BL_ASSIGN_OR_RETURN(const TableDef* source,
                      env_->catalog().GetTable(view->def.source_table));
  BL_ASSIGN_OR_RETURN(ObjectStore * target,
                      env_->FindStore(view->def.target_location));
  auto fingerprints_result = SourceFingerprints(*view);
  BL_RETURN_NOT_OK(fingerprints_result.status());
  std::map<std::string, uint64_t> fingerprints =
      std::move(fingerprints_result).value();
  report.partitions_total = fingerprints.size();

  // Vanished partitions: drop their replicas.
  CallerContext target_ctx{.location = view->def.target_location};
  for (auto it = view->partitions.begin(); it != view->partitions.end();) {
    if (fingerprints.count(it->first) == 0) {
      if (!it->second.replica_object.empty()) {
        (void)target->Delete(target_ctx, view->def.target_bucket,
                             it->second.replica_object);
      }
      it = view->partitions.erase(it);
    } else {
      ++it;
    }
  }

  for (const auto& [partition_key, fingerprint] : fingerprints) {
    PartitionState& state = view->partitions[partition_key];
    if (incremental && state.fingerprint == fingerprint) continue;

    // 1) Materialize the local MV partition where the data lives: a
    //    regional subquery with the MV's filter + projection.
    ExprPtr predicate = view->def.predicate;
    if (partition_key != "__default__") {
      // Constrain to this partition.
      uint64_t as_int = 0;
      Value v = ParseUint64(partition_key, &as_int)
                    ? Value::Int64(static_cast<int64_t>(as_int))
                    : Value::String(partition_key);
      ExprPtr pexpr =
          Expr::Eq(Expr::Col(view->def.partition_column), Expr::Lit(v));
      predicate = predicate == nullptr ? pexpr : Expr::And(predicate, pexpr);
    }
    ReadSessionOptions opts;
    opts.columns = view->def.columns;
    opts.predicate = predicate;
    opts.max_streams = 4;
    // The local MV job runs colocated with the source data.
    opts.caller_location = source->location;
    BL_ASSIGN_OR_RETURN(
        ReadSession session,
        read_api_->CreateReadSession("sa:ccmv-refresher",
                                     view->def.source_table, opts));
    std::vector<RecordBatch> pieces;
    for (size_t s = 0; s < session.streams.size(); ++s) {
      BL_ASSIGN_OR_RETURN(RecordBatch b,
                          read_api_->ReadStreamBatch(session, s));
      pieces.push_back(std::move(b));
    }
    BL_ASSIGN_OR_RETURN(RecordBatch partition_data,
                        RecordBatch::Concat(pieces));
    BL_ASSIGN_OR_RETURN(std::string file_bytes,
                        WriteParquetFile(partition_data));

    // 2) Stateful file-based replication to the target region: the copied
    //    bytes are the egress this refresh pays.
    uint64_t bytes = file_bytes.size();
    if (!source->location.SameCloud(view->def.target_location)) {
      env_->sim().counters().Add(
          StrCat("egress.",
                 CloudProviderName(source->location.provider), ".",
                 CloudProviderName(view->def.target_location.provider)),
          bytes);
    }
    env_->sim().clock().Advance(
        options_.per_file_latency +
        (options_.replication_bytes_per_sec == 0
             ? 0
             : bytes * 1'000'000ull / options_.replication_bytes_per_sec));
    env_->sim().counters().Add("ccmv.replicated_bytes", bytes);

    // Crash-consistent swap: write the new (uniquely named) replica object
    // first; only after it lands do we retire the old one and record the new
    // fingerprint. A failed put leaves the previous replica intact and the
    // partition marked stale for the next refresh.
    std::string object_name =
        StrCat(view->def.name, "/", partition_key, "-v", view->next_file++,
               ".plk");
    PutOptions po;
    po.content_type = "application/x-parquet-lite";
    BL_RETURN_NOT_OK(target
                         ->Put(target_ctx, view->def.target_bucket,
                               object_name, std::move(file_bytes), po)
                         .status());
    if (!state.replica_object.empty()) {
      (void)target->Delete(target_ctx, view->def.target_bucket,
                           state.replica_object);
    }
    state.fingerprint = fingerprint;
    state.replica_object = object_name;
    state.replica_bytes = bytes;
    ++report.partitions_refreshed;
    report.bytes_replicated += bytes;
  }
  env_->sim().counters().Add("ccmv.refreshes", 1);
  report.refresh_micros = timer.ElapsedMicros();
  return report;
}

Result<RecordBatch> CcmvService::QueryReplica(const Principal& principal,
                                              const std::string& name) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("no CCMV `", name, "`"));
  }
  const ViewState& view = it->second;
  // Replica access control piggybacks on the source table's IAM policy.
  BL_ASSIGN_OR_RETURN(const TableDef* source,
                      env_->catalog().GetTable(view.def.source_table));
  if (!source->iam.Allows(principal, Role::kReader)) {
    return Status::PermissionDenied(
        StrCat(principal, " may not read CCMV `", name, "`"));
  }
  BL_ASSIGN_OR_RETURN(ObjectStore * target,
                      env_->FindStore(view.def.target_location));
  CallerContext ctx{.location = view.def.target_location};
  std::vector<RecordBatch> pieces;
  for (const auto& [key, state] : view.partitions) {
    if (state.replica_object.empty()) continue;
    BL_ASSIGN_OR_RETURN(ObjectMetadata meta,
                        target->Stat(ctx, view.def.target_bucket,
                                     state.replica_object));
    ObjectSource source_obj(target, ctx, view.def.target_bucket,
                            state.replica_object, meta.size);
    BL_ASSIGN_OR_RETURN(std::vector<RecordBatch> groups,
                        ReadAllRowGroups(source_obj));
    for (RecordBatch& b : groups) pieces.push_back(std::move(b));
  }
  if (pieces.empty()) {
    return Status::NotFound(StrCat("CCMV `", name, "` has no replica data"));
  }
  env_->sim().counters().Add("ccmv.replica_queries", 1);
  return RecordBatch::Concat(pieces);
}

Result<uint64_t> CcmvService::PartitionCount(const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("no CCMV `", name, "`"));
  }
  return static_cast<uint64_t>(it->second.partitions.size());
}

}  // namespace biglake

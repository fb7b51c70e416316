#include "meta/metadata_cache.h"

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "format/object_source.h"
#include "format/parquet_lite.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace biglake {



std::vector<std::pair<std::string, Value>> ParseHivePartition(
    const std::string& path) {
  std::vector<std::pair<std::string, Value>> partition;
  for (const std::string& segment : Split(path, '/')) {
    size_t eq = segment.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    std::string key = segment.substr(0, eq);
    std::string val = segment.substr(eq + 1);
    uint64_t as_int = 0;
    if (ParseUint64(val, &as_int)) {
      partition.emplace_back(std::move(key),
                             Value::Int64(static_cast<int64_t>(as_int)));
    } else {
      partition.emplace_back(std::move(key), Value::String(std::move(val)));
    }
  }
  return partition;
}

Result<RecordBatch> WithPartitionColumns(
    RecordBatch batch,
    const std::vector<std::pair<std::string, Value>>& partition,
    const std::vector<std::string>& referenced) {
  std::vector<Field> fields(batch.schema()->fields());
  std::vector<Column> cols;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    cols.push_back(batch.column(c));
  }
  bool added = false;
  for (const auto& [pcol, pval] : partition) {
    if (batch.schema()->FieldIndex(pcol) >= 0 ||
        std::find(referenced.begin(), referenced.end(), pcol) ==
            referenced.end()) {
      continue;
    }
    DataType t = pval.is_int64() ? DataType::kInt64 : DataType::kString;
    ColumnBuilder builder(t);
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      BL_RETURN_NOT_OK(builder.AppendValue(pval));
    }
    fields.push_back({pcol, t, false});
    cols.push_back(builder.Finish());
    added = true;
  }
  if (!added) return batch;
  return RecordBatch(MakeSchema(std::move(fields)), std::move(cols));
}

Result<CacheRefreshReport> MetadataCacheManager::Refresh(
    const std::string& table_id, const ObjectStore& store,
    const CallerContext& caller, const std::string& bucket,
    const std::string& prefix, const CacheRefreshOptions& options) {
  // A refresh attempt only commits into BigMetadataStore as its final step,
  // so a failed attempt leaves no partial state and retrying it is safe.
  return fault::RetryResult<CacheRefreshReport>(
      env_, options.retry, FaultSite::kMetaRefresh, table_id, [&] {
        return RefreshOnce(table_id, store, caller, bucket, prefix, options);
      });
}

Result<CacheRefreshReport> MetadataCacheManager::RefreshOnce(
    const std::string& table_id, const ObjectStore& store,
    const CallerContext& caller, const std::string& bucket,
    const std::string& prefix, const CacheRefreshOptions& options) {
  SimTimer timer(*env_);
  obs::ScopedSpan span("metacache:refresh", obs::Span::kRpc);
  span.SetAttr("table", table_id);
  BL_RETURN_NOT_OK(CheckFault(env_, FaultSite::kMetaRefresh,
                              CloudProviderName(store.location().provider),
                              table_id));
  CacheRefreshReport report;
  meta_->EnsureTable(table_id);

  // Current cache state, keyed by path.
  BL_ASSIGN_OR_RETURN(std::vector<CachedFileMeta> cached,
                      meta_->Snapshot(table_id));
  std::map<std::string, const CachedFileMeta*> cached_by_path;
  for (const auto& f : cached) cached_by_path[f.file.path] = &f;

  // One full (paginated, charged) listing of the lake prefix.
  BL_ASSIGN_OR_RETURN(std::vector<ObjectMetadata> listed,
                      store.ListAll(caller, bucket, prefix));
  report.listed_objects = listed.size();

  std::vector<CachedFileMeta> adds;
  std::vector<std::string> removes;
  std::map<std::string, bool> seen;
  for (const ObjectMetadata& obj : listed) {
    seen[obj.name] = true;
    auto it = cached_by_path.find(obj.name);
    if (it != cached_by_path.end() &&
        it->second->generation == obj.generation) {
      continue;  // unchanged
    }
    if (it != cached_by_path.end()) {
      // A known path whose generation changed: a stale entry re-read.
      removes.push_back(obj.name);
      ++report.stale_entries_refreshed;
    }

    CachedFileMeta entry;
    entry.file.path = obj.name;
    entry.file.size_bytes = obj.size;
    entry.content_type = obj.content_type;
    entry.create_time = obj.create_time;
    entry.update_time = obj.update_time;
    entry.generation = obj.generation;
    if (options.parse_hive_partitions) {
      entry.file.partition = ParseHivePartition(obj.name);
    }
    if (options.parse_footers) {
      ObjectSource source(&store, caller, bucket, obj.name, obj.size);
      auto meta = ReadParquetFooter(source);
      ++report.footers_read;
      // A transient store fault fails the whole refresh (callers retry at
      // the kMetaRefresh site); caching the file without its stats would
      // silently degrade pruning until the next refresh.
      if (!meta.ok() && IsRetryable(meta.status())) return meta.status();
      if (meta.ok()) {
        SetFooterStats(*meta, &entry);
      }
      // Non-Parquet files are still cached (without stats) so listings
      // stay complete; engines will treat them as unprunable.
    }
    adds.push_back(std::move(entry));
  }
  for (const auto& f : cached) {
    if (seen.count(f.file.path) == 0) removes.push_back(f.file.path);
  }
  report.added_files = adds.size();
  report.removed_files = removes.size();
  if (!adds.empty() || !removes.empty()) {
    BL_RETURN_NOT_OK(
        meta_->SwapFiles(table_id, std::move(removes), std::move(adds))
            .status());
  }
  env_->counters().Add("metacache.refreshes", 1);
  report.refresh_micros = timer.ElapsedMicros();

  auto& reg = obs::MetricsRegistry::Default();
  reg.GetCounter(METRIC_METACACHE_REFRESHES)->Increment();
  reg.GetCounter(METRIC_METACACHE_STALE_REFRESHED)
      ->Add(report.stale_entries_refreshed);
  reg.GetCounter(METRIC_METACACHE_FOOTERS_READ)->Add(report.footers_read);
  reg.GetHistogram(METRIC_METACACHE_REFRESH_SIM_MICROS)
      ->Observe(report.refresh_micros);
  span.AddNum("listed_objects", report.listed_objects);
  span.AddNum("added_files", report.added_files);
  span.AddNum("removed_files", report.removed_files);
  span.AddNum("footers_read", report.footers_read);
  span.AddNum("stale_entries_refreshed", report.stale_entries_refreshed);
  return report;
}

}  // namespace biglake

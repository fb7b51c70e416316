#include "core/write_api.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace biglake {

Result<std::string> StorageWriteApi::CreateWriteStream(
    const Principal& principal, const std::string& table_id, WriteMode mode) {
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));
  if (!table->iam.Allows(principal, Role::kWriter)) {
    return Status::PermissionDenied(
        StrCat(principal, " may not write table `", table_id, "`"));
  }
  if (table->kind != TableKind::kManaged &&
      table->kind != TableKind::kBigLakeManaged) {
    return Status::InvalidArgument(
        StrCat("table `", table_id, "` (", TableKindName(table->kind),
               ") does not accept Write API streams"));
  }
  StreamState state;
  state.info.stream_id = StrCat("ws-", next_stream_++);
  state.info.table_id = table_id;
  state.info.mode = mode;
  state.table = table;
  std::string id = state.info.stream_id;
  streams_[id] = std::move(state);
  return id;
}

Result<uint64_t> StorageWriteApi::AppendRows(const std::string& stream_id,
                                             const RecordBatch& batch,
                                             std::optional<uint64_t> offset) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return Status::NotFound(StrCat("no write stream `", stream_id, "`"));
  }
  StreamState& stream = it->second;
  if (stream.info.finalized) {
    return Status::FailedPrecondition(
        StrCat("stream `", stream_id, "` is finalized"));
  }
  if (!batch.schema()->Equals(*stream.table->schema)) {
    return Status::InvalidArgument("append schema does not match table");
  }
  obs::ScopedSpan span("writeapi:append", obs::Span::kRpc);
  env_->sim().Charge("writeapi.appends", options_.append_latency);
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_WRITEAPI_APPENDS)
      ->Increment();

  // Exactly-once offset protocol.
  if (offset.has_value()) {
    if (*offset < stream.info.rows_appended) {
      // Duplicate retry of an already-applied append: acknowledge as-is.
      env_->sim().counters().Add("writeapi.duplicate_appends", 1);
      return stream.info.rows_appended;
    }
    if (*offset > stream.info.rows_appended) {
      return Status::OutOfRange(
          StrCat("append offset ", *offset, " beyond stream size ",
                 stream.info.rows_appended));
    }
  }

  stream.buffered.push_back(batch);
  stream.buffered_rows += batch.num_rows();
  stream.info.rows_appended += batch.num_rows();
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_WRITEAPI_ROWS_APPENDED)
      ->Add(batch.num_rows());
  span.AddNum("rows", batch.num_rows());

  if (stream.info.mode == WriteMode::kCommitted &&
      stream.buffered_rows >= options_.committed_flush_rows) {
    BL_RETURN_NOT_OK(FlushCommitted(&stream));
  }
  return stream.info.rows_appended;
}

Result<uint64_t> StorageWriteApi::CommitStreams(
    const std::vector<StreamState*>& streams, const std::string& key) {
  BL_RETURN_NOT_OK(fault::RetryStatus(
      &env_->sim(), options_.retry, FaultSite::kWriteCommit, key, [&] {
        return CheckFault(&env_->sim(), FaultSite::kWriteCommit, "", key);
      }));
  std::vector<meta::TxnTableOps> ops;
  for (StreamState* stream : streams) {
    if (stream->buffered_rows == 0) continue;
    BL_ASSIGN_OR_RETURN(CachedFileMeta file,
                        env_->WriteDataFile(*stream->table, stream->buffered,
                                            "f-", options_.retry));
    ops.push_back({stream->info.table_id, {std::move(file)}, {}});
  }
  BL_ASSIGN_OR_RETURN(uint64_t txn, env_->CommitDirect(ops));
  for (StreamState* stream : streams) {
    stream->buffered.clear();
    stream->buffered_rows = 0;
  }
  return txn;
}

Status StorageWriteApi::FlushCommitted(StreamState* stream) {
  if (stream->buffered_rows == 0) return Status::OK();
  obs::ScopedSpan span("writeapi:commit", obs::Span::kRpc);
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_WRITEAPI_COMMITS, {{"mode", "single"}})
      ->Increment();
  return CommitStreams({stream}, stream->info.stream_id).status();
}

Status StorageWriteApi::FinalizeStream(const std::string& stream_id) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return Status::NotFound(StrCat("no write stream `", stream_id, "`"));
  }
  StreamState& stream = it->second;
  if (stream.info.mode == WriteMode::kCommitted) {
    // Committed streams flush any remainder and are done.
    BL_RETURN_NOT_OK(FlushCommitted(&stream));
    streams_.erase(it);
    return Status::OK();
  }
  stream.info.finalized = true;
  return Status::OK();
}

Result<uint64_t> StorageWriteApi::BatchCommit(
    const std::vector<std::string>& stream_ids) {
  // Validate all streams first (all-or-nothing).
  std::vector<StreamState*> to_commit;
  for (const auto& id : stream_ids) {
    auto it = streams_.find(id);
    if (it == streams_.end()) {
      return Status::NotFound(StrCat("no write stream `", id, "`"));
    }
    StreamState& stream = it->second;
    if (stream.info.mode != WriteMode::kPending) {
      return Status::FailedPrecondition(
          StrCat("stream `", id, "` is not a pending stream"));
    }
    if (!stream.info.finalized) {
      return Status::FailedPrecondition(
          StrCat("stream `", id, "` must be finalized before commit"));
    }
    // A stream named twice commits once.
    if (std::find(to_commit.begin(), to_commit.end(), &stream) ==
        to_commit.end()) {
      to_commit.push_back(&stream);
    }
  }
  // Write data files, then one metadata transaction across all tables.
  obs::ScopedSpan span("writeapi:batch_commit", obs::Span::kRpc);
  span.AddNum("streams", to_commit.size());
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_WRITEAPI_COMMITS, {{"mode", "batch"}})
      ->Increment();
  BL_ASSIGN_OR_RETURN(
      uint64_t txn,
      CommitStreams(to_commit, stream_ids.empty() ? std::string("batch")
                                                  : stream_ids.front()));
  // Committed streams are done: a retried BatchCommit of them is NotFound
  // and cannot commit their rows twice.
  for (const auto& id : stream_ids) streams_.erase(id);
  return txn;
}

Result<WriteStreamInfo> StorageWriteApi::GetStream(
    const std::string& stream_id) const {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return Status::NotFound(StrCat("no write stream `", stream_id, "`"));
  }
  return it->second.info;
}

}  // namespace biglake

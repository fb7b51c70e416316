// The BigQuery Storage Write API (Sec 2.2.2): scalable streaming ingestion
// with exactly-once semantics, stream-level and cross-stream transactions.
//
// A writer creates a stream against a managed or BigLake-managed table and
// appends Arrow-lite batches. Two modes mirror the paper:
//   * kCommitted — rows become visible as soon as the append returns
//     (real-time streaming).
//   * kPending   — rows buffer invisibly until the stream is finalized and
//     committed; BatchCommit applies any number of finalized streams (over
//     any number of tables) in ONE Big Metadata transaction — the
//     cross-stream / multi-table atomicity open formats cannot offer.
//
// Exactly-once: every append may carry an explicit offset; re-sent offsets
// are acknowledged without duplicating rows (the retry-safe contract).
//
// A stream's state lives only while the stream can still change: a pending
// stream is forgotten once BatchCommit commits it, a committed-mode stream
// once FinalizeStream flushes it. Every call on a forgotten stream,
// GetStream included, returns NotFound, so a retried BatchCommit never
// commits rows twice and a long-running writer holds no state for streams
// that are done.

#ifndef BIGLAKE_CORE_WRITE_API_H_
#define BIGLAKE_CORE_WRITE_API_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "core/environment.h"
#include "fault/retry.h"

namespace biglake {

enum class WriteMode { kCommitted, kPending };

struct WriteApiOptions {
  /// Rows buffered in a committed-mode stream before flushing a data file.
  uint64_t committed_flush_rows = 4096;
  /// Per-append RPC cost.
  SimMicros append_latency = 1'000;  // 1 ms
  /// Transient faults on data-file puts and commit RPCs retry under this
  /// policy. Data files keep their name across put attempts, so a retried
  /// flush neither orphans objects nor perturbs downstream file naming.
  fault::RetryPolicy retry;
};

struct WriteStreamInfo {
  std::string stream_id;
  std::string table_id;
  WriteMode mode = WriteMode::kPending;
  uint64_t rows_appended = 0;
  bool finalized = false;
};

class StorageWriteApi {
 public:
  explicit StorageWriteApi(LakehouseEnv* env, WriteApiOptions options = {})
      : env_(env), options_(options) {}

  /// Creates a write stream; requires Writer on the table.
  Result<std::string> CreateWriteStream(const Principal& principal,
                                        const std::string& table_id,
                                        WriteMode mode);

  /// Appends a batch. With `offset` set, enforces exactly-once: an offset
  /// at the stream's current size appends; a smaller one is a duplicate
  /// retry (acknowledged, not re-applied); a larger one is OutOfRange.
  /// Returns the stream row count after the append.
  Result<uint64_t> AppendRows(const std::string& stream_id,
                              const RecordBatch& batch,
                              std::optional<uint64_t> offset = std::nullopt);

  /// Seals a pending stream; no further appends. A committed-mode stream
  /// flushes its remainder and is forgotten.
  Status FinalizeStream(const std::string& stream_id);

  /// Atomically commits finalized pending streams (possibly spanning
  /// multiple tables) in one metadata transaction and forgets them. Returns
  /// the txn id.
  Result<uint64_t> BatchCommit(const std::vector<std::string>& stream_ids);

  /// The stream's state; NotFound once it was committed or finalized as
  /// described in the header comment.
  Result<WriteStreamInfo> GetStream(const std::string& stream_id) const;

 private:
  struct StreamState {
    WriteStreamInfo info;
    const TableDef* table = nullptr;
    std::vector<RecordBatch> buffered;
    uint64_t buffered_rows = 0;
  };

  /// The one commit body: writes each stream's buffered rows as one data
  /// file, then commits every file in one direct Big Metadata transaction
  /// (LakehouseEnv::CommitDirect) and empties the buffers. `key` names the
  /// commit for fault injection and retries.
  Result<uint64_t> CommitStreams(const std::vector<StreamState*>& streams,
                                 const std::string& key);

  /// Flushes a committed-mode stream's buffer as a visible commit: a
  /// one-stream CommitStreams.
  Status FlushCommitted(StreamState* stream);

  LakehouseEnv* env_;
  WriteApiOptions options_;
  uint64_t next_stream_ = 1;
  std::map<std::string, StreamState> streams_;
};

}  // namespace biglake

#endif  // BIGLAKE_CORE_WRITE_API_H_

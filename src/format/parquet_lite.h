// Parquet-lite: a self-describing columnar file format.
//
// Stands in for Apache Parquet (Sec 2.1, Sec 3): row groups of column chunks
// with per-chunk encodings (PLAIN / DICTIONARY / RLE) and per-chunk
// min/max/null-count statistics in the footer. Files are byte buffers placed
// in the simulated object store; readers access them through a
// RandomAccessSource so that footer peeking and chunk reads cost real
// (simulated) object-store requests — the overhead Sec 3.3 attributes to
// querying open formats without a metadata cache.
//
// Two readers are provided, mirroring the evolution described in Sec 3.4:
//   * RowOrientedReader — the "initial prototype": materializes boxed rows,
//     which downstream code must transcode back into columnar batches.
//   * VectorizedReader — emits columnar batches directly from the encoded
//     chunks, preserving dictionary/RLE encodings end-to-end.

#ifndef BIGLAKE_FORMAT_PARQUET_LITE_H_
#define BIGLAKE_FORMAT_PARQUET_LITE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/expr.h"
#include "columnar/ipc.h"
#include "common/status.h"

namespace biglake {

/// Random-access byte source; lets the same reader work over in-memory
/// buffers and (simulated) object-store objects.
class RandomAccessSource {
 public:
  virtual ~RandomAccessSource() = default;
  virtual Result<std::string> Read(uint64_t offset, uint64_t length) const = 0;
  virtual uint64_t Size() const = 0;
};

/// In-memory source (no I/O cost).
class StringSource : public RandomAccessSource {
 public:
  explicit StringSource(std::string data) : data_(std::move(data)) {}
  Result<std::string> Read(uint64_t offset, uint64_t length) const override;
  uint64_t Size() const override { return data_.size(); }

 private:
  std::string data_;
};

struct ParquetWriteOptions {
  /// Rows per row group.
  uint64_t row_group_size = 8192;
  /// Use dictionary encoding for string columns whose cardinality within a
  /// row group is at most this fraction of rows (and at most dict_max_card).
  double dict_cardinality_ratio = 0.5;
  uint64_t dict_max_card = 4096;
  /// Use RLE for int64 columns when the average run length is >= this.
  double rle_min_avg_run = 4.0;
};

/// Per-column-chunk footer entry.
struct ColumnChunkMeta {
  uint64_t offset = 0;
  uint64_t size = 0;
  ColumnStats stats;
};

struct RowGroupMeta {
  uint64_t num_rows = 0;
  std::vector<ColumnChunkMeta> columns;  // one per schema field
};

struct ParquetFileMeta {
  SchemaPtr schema;
  std::vector<RowGroupMeta> row_groups;
  uint64_t total_rows = 0;

  /// Merges per-chunk stats into whole-file per-column stats.
  ColumnStats FileColumnStats(size_t column_index) const;
};

/// Serializes one or more batches (sharing a schema) into a Parquet-lite
/// file. The writer picks per-chunk encodings automatically.
class ParquetWriter {
 public:
  explicit ParquetWriter(SchemaPtr schema, ParquetWriteOptions options = {});

  Status Append(const RecordBatch& batch);
  /// Finalizes and returns the file bytes. The writer is consumed.
  Result<std::string> Finish();

 private:
  Status FlushRowGroup();

  SchemaPtr schema_;
  ParquetWriteOptions options_;
  std::vector<RecordBatch> pending_;
  uint64_t pending_rows_ = 0;
  std::string file_;
  std::vector<RowGroupMeta> row_groups_;
  uint64_t total_rows_ = 0;
  bool finished_ = false;
};

/// One-shot convenience: write a single batch to file bytes.
Result<std::string> WriteParquetFile(const RecordBatch& batch,
                                     ParquetWriteOptions options = {});

/// Parses only the footer (two source reads: length probe + footer body),
/// the same access pattern engines use to "peek at file-level metadata".
Result<ParquetFileMeta> ReadParquetFooter(const RandomAccessSource& source);

/// Columnar reader: decodes requested column chunks straight into Columns,
/// preserving dictionary/RLE encodings.
class VectorizedReader {
 public:
  VectorizedReader(const RandomAccessSource* source, ParquetFileMeta meta)
      : source_(source), meta_(std::move(meta)) {}

  const ParquetFileMeta& meta() const { return meta_; }
  size_t num_row_groups() const { return meta_.row_groups.size(); }

  /// Reads one row group, optionally restricted to a column subset
  /// (empty = all). Missing-from-projection columns are simply not read —
  /// column pruning saves both I/O and decode work.
  Result<RecordBatch> ReadRowGroup(
      size_t row_group, const std::vector<std::string>& columns = {}) const;

 private:
  const RandomAccessSource* source_;
  ParquetFileMeta meta_;
};

/// Decodes a whole file: the footer, then every row group with every
/// column. For internal reads that must see every row (DML rewrites,
/// replica reads); governed reads go through the Storage Read API.
Result<std::vector<RecordBatch>> ReadAllRowGroups(
    const RandomAccessSource& source);

/// Row-oriented reader (the pre-optimization code path of Sec 3.4): yields
/// boxed rows one at a time; callers that need columnar data must transcode.
class RowOrientedReader {
 public:
  RowOrientedReader(const RandomAccessSource* source, ParquetFileMeta meta)
      : source_(source), meta_(std::move(meta)) {}

  const ParquetFileMeta& meta() const { return meta_; }

  /// Reads the next row into `*row` (resized to the field count). Returns
  /// false when the file is exhausted.
  Result<bool> Next(std::vector<Value>* row);

  /// Convenience used by the benches: drains the whole file through the
  /// row-oriented path and transcodes back into a columnar batch via
  /// ColumnBuilders (paying the row-pivot cost twice).
  Result<RecordBatch> ReadAllTranscoded();

 private:
  const RandomAccessSource* source_;
  ParquetFileMeta meta_;
  size_t current_group_ = 0;
  size_t current_row_ = 0;
  std::unique_ptr<RecordBatch> loaded_;  // decoded current row group
};

}  // namespace biglake

#endif  // BIGLAKE_FORMAT_PARQUET_LITE_H_

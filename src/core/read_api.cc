#include "core/read_api.h"

#include <algorithm>
#include <future>
#include <optional>
#include <set>

#include "columnar/ipc.h"
#include "columnar/kernels.h"
#include "columnar/selection.h"
#include "common/cancel.h"
#include "common/strings.h"
#include "fault/retry.h"
#include "format/object_source.h"
#include "format/parquet_lite.h"
#include "meta/metadata_cache.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace biglake {

struct ReadSessionState {
  const StorageReadApi* issuer = nullptr;
  std::string session_id;
  ReadSessionOptions options;
  const TableDef* table = nullptr;
  Credential credential;       // delegated, scoped to the table prefix
  EffectiveAccess access;      // resolved fine-grained policy
  std::vector<std::string> read_columns;  // pre-mask scan columns
  /// Columns govern projects onto: the requested columns, or the scan
  /// columns when aggregates are pushed down (they feed the aggregation).
  std::vector<std::string> emit_columns;
  /// Serve footers and blocks through the block cache (never for the
  /// row-oriented baseline, which stays uncached).
  bool use_block_cache = false;
  /// Per-stream overlap (see StreamOverlapSaved); slot s is written only
  /// by the task reading stream s.
  std::vector<SimMicros> overlap_saved;
};

namespace {

/// Per-CreateReadSession control-plane cost: session state is persisted
/// (to Spanner in the paper — "creating a read session is expensive").
constexpr SimMicros kCreateSessionLatency = 15'000;
/// RefineSession reuses the persisted state and only re-prunes: much
/// cheaper than a fresh session (Sec 3.4 future work, implemented).
constexpr SimMicros kRefineSessionLatency = 2'000;
/// Server-side CPU cost per value processed by the vectorized pipeline,
/// and the multiplier for the row-oriented prototype (Sec 3.4 reports
/// ~an order of magnitude CPU difference).
constexpr double kVectorizedMicrosPerValue = 0.002;
constexpr double kRowOrientedCpuMultiplier = 10.0;
/// Rows per ReadRows response batch.
constexpr size_t kResponseBatchRows = 4096;
/// Stream reads are idempotent (they mutate nothing but accounting), so a
/// ReadRows attempt that fails transiently is retried whole — the paper's
/// per-stream retry behavior.
const fault::RetryPolicy kReadRowsRetry{};

/// Greedy balanced assignment of files to at most `max_streams` streams.
std::vector<ReadStream> AssignStreams(std::vector<CachedFileMeta> files,
                                      uint32_t max_streams,
                                      const std::string& session_id) {
  uint32_t n = std::max<uint32_t>(
      1, std::min<uint32_t>(max_streams,
                            static_cast<uint32_t>(files.size())));
  std::vector<ReadStream> streams(n);
  for (uint32_t i = 0; i < n; ++i) {
    streams[i].stream_id = StrCat(session_id, "/stream-", i);
  }
  // Largest files first onto the least-loaded stream.
  std::sort(files.begin(), files.end(),
            [](const CachedFileMeta& a, const CachedFileMeta& b) {
              return a.file.row_count > b.file.row_count;
            });
  for (auto& f : files) {
    ReadStream* least = &streams[0];
    for (auto& s : streams) {
      if (s.estimated_rows < least->estimated_rows) least = &s;
    }
    least->estimated_rows += f.file.row_count;
    least->files.push_back(std::move(f));
  }
  return streams;
}

/// Output field for a possibly-masked column: non-nullify masks change the
/// type to STRING (hash/redact/last-four emit string tokens).
Field MaskedField(const Field& field,
                  const std::map<std::string, MaskType>& masks) {
  auto it = masks.find(field.name);
  if (it == masks.end()) return field;
  Field out = field;
  out.nullable = true;
  if (it->second != MaskType::kNullify) out.type = DataType::kString;
  return out;
}

/// Approximate resident bytes of a parsed footer (schema + per-chunk
/// metadata), for cache capacity accounting.
uint64_t FooterFootprint(const ParquetFileMeta& meta) {
  uint64_t footprint = 64;
  for (const auto& rg : meta.row_groups) {
    footprint += 48 * rg.columns.size();
  }
  return footprint;
}

/// A file's parsed footer, through the block cache when `cache` is set
/// (`*hit` reports a cache hit). nullptr means "not a data file"; a
/// retryable store fault is an error, because treating it as a non-data
/// file would silently return a partial listing or scan. A parse is
/// admitted to the cache only when every read observed `generation`.
Result<std::shared_ptr<const ParquetFileMeta>> CachedFooter(
    const ObjectSource& source, cache::BlockCache* cache,
    const std::string& key, uint64_t generation, bool* hit = nullptr) {
  if (cache != nullptr) {
    auto meta = cache->GetFooter(key);
    if (hit != nullptr) *hit = meta != nullptr;
    if (meta != nullptr) return meta;
  }
  auto parsed = ReadParquetFooter(source);
  if (!parsed.ok()) {
    if (IsRetryable(parsed.status())) return parsed.status();
    return std::shared_ptr<const ParquetFileMeta>();
  }
  auto owned =
      std::make_shared<const ParquetFileMeta>(std::move(parsed).value());
  if (cache != nullptr && generation != 0 &&
      source.observed_generation() == generation) {
    cache->PutFooter(key, owned, FooterFootprint(*owned));
  }
  return owned;
}

/// Whether the table's file list and statistics come from Big Metadata
/// (cached external tables and both managed kinds) rather than listing.
bool UsesBigMetadata(const TableDef& table) {
  return table.metadata_cache_enabled || table.kind == TableKind::kManaged ||
         table.kind == TableKind::kBigLakeManaged;
}

/// NotFound unless every name is a stored or hive-partition column.
Status CheckColumns(const TableDef& table,
                    const std::set<std::string>& names) {
  for (const auto& name : names) {
    if (table.schema->FieldIndex(name) < 0 &&
        std::find(table.partition_columns.begin(),
                  table.partition_columns.end(),
                  name) == table.partition_columns.end()) {
      return Status::NotFound(
          StrCat("no column `", name, "` in table `", table.id(), "`"));
    }
  }
  return Status::OK();
}

/// Everything fetch produces for one data file, before select/govern/emit.
/// Blocks are shared with the block cache and never mutated in place.
struct FileBlocks {
  bool skip = false;  // non-data file / foreign-schema file (counted)
  std::vector<std::shared_ptr<const RecordBatch>> blocks;
  uint64_t values_decoded = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// One ReadRows attempt over one stream: the context its stages share and
/// the responses they emit. Every stage runs on the stream's thread except
/// Fetch, which the readahead window also runs on prefetch workers; Fetch
/// only reads the context.
struct StreamRead {
  LakehouseEnv* env;
  const ReadSessionState& state;
  const ReadStream& stream;
  const ObjectStore* store;
  CallerContext ctx;
  cache::BlockCache* cache;
  uint64_t projection_fp;
  const CancelToken* cancel;

  std::vector<BatchHandle> responses{};
  std::vector<RecordBatch> pushdown_inputs{};
  uint64_t rows = 0;
  uint64_t bytes = 0;
  uint64_t values_processed = 0;

  Result<FileBlocks> Fetch(const CachedFileMeta& fm) const;
  Status FetchInline();
  Result<SimMicros> FetchReadahead(uint32_t depth, ThreadPool* pool);
  Status Consume(const CachedFileMeta& fm, const FileBlocks& fb);
  Result<std::optional<SelectionVector>> Select(bool fused,
                                                RecordBatch* batch) const;
  RecordBatch Govern(const RecordBatch& batch, const SelectionVector* sel,
                     const std::vector<std::string>& columns) const;
  void Emit(RecordBatch piece);
  Status EmitPartials(const SchemaPtr& output_schema);
};

/// Fetch one data file: credential check, footer (cache-aware), row-group
/// pruning, then per-group decoded blocks (cache-aware). Safe on a prefetch
/// worker: all simulated charges go to the installed ChargeShard and cache
/// mutations to the installed CacheTxn. A block or footer is admitted to
/// the cache only when every underlying read observed the expected object
/// generation — a faulted or partially-read block is never admitted.
Result<FileBlocks> StreamRead::Fetch(const CachedFileMeta& fm) const {
  const TableDef& table = *state.table;
  FileBlocks out;
  // Delegated-access check on every object touched.
  BL_RETURN_NOT_OK(CheckCredential(state.credential, table.bucket,
                                   fm.file.path, env->sim().clock().Now()));
  ObjectSource source(store, ctx, table.bucket, fm.file.path,
                      fm.file.size_bytes);
  std::string obj_prefix;
  if (cache != nullptr) {
    obj_prefix =
        cache::ObjectKeyPrefix(CloudProviderName(table.location.provider),
                               table.bucket, fm.file.path);
  }
  bool hit = false;
  BL_ASSIGN_OR_RETURN(
      std::shared_ptr<const ParquetFileMeta> meta,
      CachedFooter(source, cache,
                   cache == nullptr
                       ? std::string()
                       : cache::FooterKey(obj_prefix, fm.generation),
                   fm.generation, &hit));
  if (cache != nullptr) {
    if (hit) {
      ++out.cache_hits;
    } else {
      ++out.cache_misses;
    }
  }
  if (meta == nullptr) {
    out.skip = true;  // non-data file under the prefix
    return out;
  }
  // Defensive: a file under the prefix whose schema lacks columns the
  // table declares is not part of this table (e.g. a foreign dataset
  // sharing the bucket) — skip it rather than misread it.
  for (const auto& col : state.read_columns) {
    if (table.schema->FieldIndex(col) >= 0 &&
        meta->schema->FieldIndex(col) < 0) {
      env->sim().counters().Add("readapi.schema_mismatch_files", 1);
      obs::MetricsRegistry::Default()
          .GetCounter(METRIC_READAPI_SCHEMA_MISMATCHES)
          ->Increment();
      out.skip = true;
      return out;
    }
  }
  const bool row_oriented = state.options.use_row_oriented_reader;
  std::vector<std::string> cols_present;
  if (!row_oriented) {
    for (const auto& c : state.read_columns) {
      if (meta->schema->FieldIndex(c) >= 0) cols_present.push_back(c);
    }
  }
  for (size_t g = 0; g < meta->row_groups.size(); ++g) {
    // Row-group level pruning from footer stats.
    if (state.options.predicate != nullptr) {
      const RowGroupMeta& rg = meta->row_groups[g];
      auto lookup = [&](const std::string& col) -> const ColumnStats* {
        int idx = meta->schema->FieldIndex(col);
        if (idx < 0) return nullptr;
        return &rg.columns[static_cast<size_t>(idx)].stats;
      };
      if (state.options.predicate->EvaluatePrune(lookup) ==
          PruneResult::kCannotMatch) {
        continue;
      }
    }
    if (row_oriented) {
      // Legacy prototype: whole row group through boxed rows, then
      // transcode back to columnar (Sec 3.4 "before"). Never cached — the
      // before/after comparison keeps its uncached baseline.
      RowOrientedReader reader(&source, *meta);
      BL_ASSIGN_OR_RETURN(RecordBatch all, reader.ReadAllTranscoded());
      out.values_decoded += static_cast<uint64_t>(
          all.num_rows() * all.num_columns() * kRowOrientedCpuMultiplier);
      out.blocks.push_back(std::make_shared<const RecordBatch>(std::move(all)));
      // The row reader has no projection: it decodes every column of every
      // row group, once per file.
      break;
    }
    // Vectorized path: only the needed columns, encodings preserved.
    std::shared_ptr<const RecordBatch> block;
    std::string block_key;
    if (cache != nullptr) {
      block_key =
          cache::BlockKey(obj_prefix, fm.generation, g, projection_fp);
      block = cache->GetBlock(block_key);
      if (block != nullptr) {
        ++out.cache_hits;
      } else {
        ++out.cache_misses;
      }
    }
    if (block == nullptr) {
      VectorizedReader reader(&source, *meta);
      BL_ASSIGN_OR_RETURN(RecordBatch rb,
                          reader.ReadRowGroup(g, cols_present));
      auto owned = std::make_shared<const RecordBatch>(std::move(rb));
      // Admission gate: every read this source made must have observed the
      // generation the session expects — a faulted or concurrently-
      // rewritten object must never be admitted (partial blocks poison).
      if (cache != nullptr && fm.generation != 0 &&
          source.observed_generation() == fm.generation) {
        cache->PutBlock(block_key, owned);
      }
      block = std::move(owned);
    }
    out.values_decoded += block->num_rows() * block->num_columns();
    out.blocks.push_back(std::move(block));
  }
  return out;
}

/// Fetch inline: fetch+decode one file at a time on the stream's thread,
/// then consume it (bit-identical to the readahead window at any depth).
Status StreamRead::FetchInline() {
  for (const CachedFileMeta& fm : stream.files) {
    if (cancel != nullptr) BL_RETURN_NOT_OK(cancel->Check());
    std::optional<obs::ScopedSpan> cache_span;
    if (cache != nullptr) {
      cache_span.emplace("cache:file", obs::Span::kObjstore);
      cache_span->SetAttr("path", fm.file.path);
    }
    BL_ASSIGN_OR_RETURN(FileBlocks fb, Fetch(fm));
    if (cache_span) {
      cache_span->AddNum("hits", fb.cache_hits);
      cache_span->AddNum("misses", fb.cache_misses);
      cache_span.reset();
    }
    BL_RETURN_NOT_OK(Consume(fm, fb));
  }
  return Status::OK();
}

/// Fetch through a readahead window: `depth` fetch+decode units in flight
/// on `pool`, double-buffered against this consumer. Each unit accumulates
/// its simulated charges in a private ChargeShard and its cache mutations
/// in a private CacheTxn; the consumer folds units back *in file order*, so
/// the clock, every counter and the cache end up bit-identical to the
/// inline fetch at any worker count. Returns the analytic overlap (I/O
/// hidden behind the window), never measured by racing the fold order.
Result<SimMicros> StreamRead::FetchReadahead(uint32_t depth,
                                             ThreadPool* pool) {
  struct PrefetchUnit {
    ChargeShard shard;
    cache::CacheTxn txn;
    Result<FileBlocks> result{Status::Internal("prefetch unit pending")};
    std::promise<void> done;
    std::future<void> ready;
  };
  const size_t num_files = stream.files.size();
  std::vector<std::unique_ptr<PrefetchUnit>> units(num_files);
  auto& mreg = obs::MetricsRegistry::Default();
  obs::Counter* issued_metric = mreg.GetCounter(METRIC_PREFETCH_ISSUED);
  obs::Counter* wasted_metric = mreg.GetCounter(METRIC_PREFETCH_WASTED);
  auto issue = [&](size_t j) {
    auto unit = std::make_unique<PrefetchUnit>();
    unit->shard.base_now = env->sim().clock().Now();
    unit->ready = unit->done.get_future();
    PrefetchUnit* u = unit.get();
    units[j] = std::move(unit);
    issued_metric->Increment();
    env->sim().counters().Add("readapi.prefetch_issued", 1);
    const CachedFileMeta* fmp = &stream.files[j];
    pool->Submit([this, u, fmp] {
      ScopedChargeShard charge_scope(&u->shard);
      cache::ScopedCacheTxn txn_scope(&u->txn);
      ScopedCancelToken cancel_scope(cancel);
      // Checkpoint against the unit's issue-time clock view (its shard
      // base): a unit issued after the deadline expired fails without
      // fetching, deterministically at any worker count.
      Status admitted = cancel != nullptr ? cancel->Check() : Status::OK();
      if (admitted.ok()) {
        u->result = Fetch(*fmp);
      } else {
        u->result = std::move(admitted);
      }
      u->done.set_value();
    });
  };
  size_t issued = 0;
  for (; issued < depth; ++issued) issue(issued);
  std::vector<SimMicros> unit_micros;
  unit_micros.reserve(num_files);
  Status first_error;
  uint64_t wasted = 0;
  for (size_t i = 0; i < issued; ++i) {
    PrefetchUnit& u = *units[i];
    u.ready.wait();
    // Consumer-side checkpoint, before this unit is processed: units
    // already in flight still fold below (their charges are real), they
    // just count as wasted once the stream is being torn down.
    if (first_error.ok() && cancel != nullptr) {
      Status c = cancel->Check();
      if (!c.ok()) first_error = std::move(c);
    }
    std::optional<obs::ScopedSpan> prefetch_span;
    if (first_error.ok()) {
      prefetch_span.emplace("prefetch:file", obs::Span::kObjstore);
      prefetch_span->SetAttr("path", stream.files[i].file.path);
    }
    // Fold the unit in file order — even when draining after an error,
    // so the charges and the cache state never depend on where in the
    // window the failure landed or on pool scheduling.
    env->sim().clock().Advance(u.shard.advanced);
    for (const auto& [key, delta] : u.shard.counters) {
      env->sim().counters().Add(key, delta);
    }
    env->block_cache().FoldTxn(&u.txn);
    unit_micros.push_back(u.shard.advanced);
    if (!first_error.ok()) {
      ++wasted;
      units[i].reset();
      continue;
    }
    if (!u.result.ok()) {
      first_error = u.result.status();
      units[i].reset();
      continue;
    }
    if (prefetch_span) {
      prefetch_span->AddNum("sim_micros", u.shard.advanced);
      prefetch_span->AddNum("hits", u.result->cache_hits);
      prefetch_span->AddNum("misses", u.result->cache_misses);
    }
    Status processed = Consume(stream.files[i], *u.result);
    units[i].reset();
    if (!processed.ok()) {
      first_error = processed;
      continue;
    }
    if (issued < num_files) issue(issued++);
  }
  if (wasted > 0) {
    wasted_metric->Add(wasted);
    env->sim().counters().Add("readapi.prefetch_wasted", wasted);
  }
  BL_RETURN_NOT_OK(first_error);
  // Analytic overlap: within each consecutive window of `depth` units the
  // critical path pays only the slowest unit; the rest was hidden behind
  // it. Total (resource) simulated time is untouched — only the
  // per-stream wall estimate the engines compute shrinks by `saved`.
  SimMicros saved = 0;
  for (size_t w = 0; w < unit_micros.size(); w += depth) {
    SimMicros sum = 0;
    SimMicros slowest = 0;
    size_t end = std::min<size_t>(unit_micros.size(), w + depth);
    for (size_t k = w; k < end; ++k) {
      sum += unit_micros[k];
      slowest = std::max(slowest, unit_micros[k]);
    }
    saved += sum - slowest;
  }
  env->sim().counters().Add("readapi.prefetch_overlap_saved_micros", saved);
  return saved;
}

/// The per-file consumer both fetch modes share: select → govern → emit on
/// zero-copy views of the immutable (possibly cached) decoded blocks —
/// `*block` is a refcount bump per buffer, not a copy — so cache hits can
/// never change the rows a stream returns, and a block evicted or
/// invalidated mid-scan stays alive until the last in-flight view drops it.
Status StreamRead::Consume(const CachedFileMeta& fm, const FileBlocks& fb) {
  if (fb.skip) return Status::OK();
  const bool filtered = state.options.predicate != nullptr ||
                        state.access.row_filter != nullptr;
  for (const auto& block : fb.blocks) {
    if (block->num_rows() == 0) continue;
    BL_ASSIGN_OR_RETURN(
        RecordBatch batch,
        WithPartitionColumns(*block, fm.file.partition, state.read_columns));
    // Emit columns present in this file (drops filter-only columns).
    std::vector<std::string> available;
    for (const auto& c : state.emit_columns) {
      if (batch.schema()->FieldIndex(c) >= 0) available.push_back(c);
    }
    const bool fused = state.options.use_vectorized_kernels &&
                       !state.options.use_row_oriented_reader &&
                       !available.empty() && filtered;
    BL_ASSIGN_OR_RETURN(std::optional<SelectionVector> sel,
                        Select(fused, &batch));
    if (sel ? sel->empty() : batch.num_rows() == 0) continue;
    RecordBatch secured = Govern(batch, sel ? &*sel : nullptr, available);
    if (!state.options.partial_aggregates.empty()) {
      // Aggregate pushdown: accumulate; one partial batch per stream.
      pushdown_inputs.push_back(std::move(secured));
      continue;
    }
    for (size_t off = 0; off < secured.num_rows(); off += kResponseBatchRows) {
      Emit(secured.Slice(
          off, std::min(kResponseBatchRows, secured.num_rows() - off)));
    }
  }
  values_processed += fb.values_decoded;
  return Status::OK();
}

/// Select: the pushed-down predicate, then the security row filter —
/// enforced here, inside the trust boundary. The fused kernel path returns
/// one selection vector over `*batch` (typed kernel masks, no copies); the
/// boxed kernels-off baseline filters `*batch` eagerly, one copy per
/// filter, and returns nullopt.
Result<std::optional<SelectionVector>> StreamRead::Select(
    bool fused, RecordBatch* batch) const {
  const Expr* filters[] = {state.options.predicate.get(),
                           state.access.row_filter.get()};
  if (!fused) {
    for (const Expr* filter : filters) {
      if (filter == nullptr) continue;
      BL_ASSIGN_OR_RETURN(Column mask_col, filter->Evaluate(*batch));
      *batch = batch->Filter(BoolColumnToMask(mask_col));
    }
    return std::optional<SelectionVector>();
  }
  std::vector<uint8_t> mask;
  for (const Expr* filter : filters) {
    if (filter == nullptr) continue;
    BL_ASSIGN_OR_RETURN(kernels::BoolVec bv,
                        kernels::EvaluatePredicate(*filter, *batch));
    if (mask.empty()) {
      mask = kernels::BoolVecToMask(bv);
    } else {
      kernels::AndMaskInPlace(&mask, kernels::BoolVecToMask(bv));
    }
  }
  SelectionVector sel = SelectionVector::FromMask(mask);
  kernels::ObserveSelectivity(sel.size(), batch->num_rows());
  return std::optional<SelectionVector>(std::move(sel));
}

/// Govern: projection onto `columns` plus data masking, after selection so
/// masked values never leave. With a selection (fused path) each column is
/// gathered once and a nullified column is emitted as NULLs without
/// gathering rows it would throw away; without one, `batch` is already
/// filtered and unmasked columns are shared, not copied.
RecordBatch StreamRead::Govern(const RecordBatch& batch,
                               const SelectionVector* sel,
                               const std::vector<std::string>& columns) const {
  const std::map<std::string, MaskType>& masks = state.access.masked_columns;
  std::vector<Field> fields;
  std::vector<Column> cols;
  fields.reserve(columns.size());
  cols.reserve(columns.size());
  for (const auto& name : columns) {
    const size_t idx = static_cast<size_t>(batch.schema()->FieldIndex(name));
    const Field& f = batch.schema()->field(idx);
    auto mit = masks.find(name);
    if (mit == masks.end()) {
      fields.push_back(f);
      cols.push_back(sel != nullptr ? batch.column(idx).Gather(sel->ids())
                                    : batch.column(idx));
      continue;
    }
    fields.push_back(MaskedField(f, masks));
    if (sel == nullptr) {
      cols.push_back(ApplyMask(batch.column(idx), mit->second));
    } else if (mit->second == MaskType::kNullify) {
      cols.push_back(Column::MakeNull(f.type, sel->size()));
    } else {
      cols.push_back(
          ApplyMask(batch.column(idx).Gather(sel->ids()), mit->second));
    }
  }
  if (sel != nullptr) kernels::CountSelectionMaterialization();
  return RecordBatch(MakeSchema(std::move(fields)), std::move(cols));
}

/// Emit: one response batch as a local handle — a zero-copy view; the
/// codec runs only if a caller demands wire bytes (ToWire).
void StreamRead::Emit(RecordBatch piece) {
  rows += piece.num_rows();
  BatchHandle handle = BatchHandle::Local(std::move(piece));
  const uint64_t sz = handle.SizeBytes();
  env->sim().counters().Add("readapi.bytes_returned", sz);
  bytes += sz;
  responses.push_back(std::move(handle));
}

/// Emit under aggregate pushdown: one partial-aggregate batch per stream.
Status StreamRead::EmitPartials(const SchemaPtr& output_schema) {
  RecordBatch merged = RecordBatch::Empty(output_schema);
  if (!pushdown_inputs.empty()) {
    BL_ASSIGN_OR_RETURN(RecordBatch all, RecordBatch::Concat(pushdown_inputs));
    values_processed += all.num_rows();
    BL_ASSIGN_OR_RETURN(merged,
                        AggregateBatch(all, state.options.aggregate_group_by,
                                       state.options.partial_aggregates));
  }
  Emit(std::move(merged));
  env->sim().counters().Add("readapi.pushdown_aggregates", 1);
  return Status::OK();
}

}  // namespace

Result<PrunedFiles> StorageReadApi::CollectFiles(const TableDef& table,
                                                 const Credential& credential,
                                                 const ExprPtr& predicate,
                                                 uint64_t txn,
                                                 bool use_block_cache) {
  if (UsesBigMetadata(table)) {
    // Fast path: prune from the Big Metadata columnar cache, never touching
    // the object store (Sec 3.3).
    obs::MetricsRegistry::Default()
        .GetCounter(METRIC_METACACHE_LOOKUPS, {{"result", "hit"}})
        ->Increment();
    return env_->meta().PruneFiles(table.id(), predicate, txn);
  }
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_METACACHE_LOOKUPS, {{"result", "miss"}})
      ->Increment();
  // Legacy path (pre-BigLake external tables): LIST the prefix, then peek at
  // every candidate file's footer to recover prunable statistics. Slow and
  // object-store-bound — this is the Figure 3/4 "before" configuration.
  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(table.location));
  CallerContext ctx{.location = table.location};
  BL_ASSIGN_OR_RETURN(std::vector<ObjectMetadata> listed,
                      store->ListAll(ctx, table.bucket, table.prefix));
  cache::BlockCache* cache =
      use_block_cache && env_->block_cache().enabled() ? &env_->block_cache()
                                                       : nullptr;
  PrunedFiles result;
  result.candidates = listed.size();
  for (const ObjectMetadata& obj : listed) {
    BL_RETURN_NOT_OK(CheckCredential(credential, table.bucket, obj.name,
                                     env_->sim().clock().Now()));
    CachedFileMeta entry;
    entry.file.path = obj.name;
    entry.file.size_bytes = obj.size;
    entry.generation = obj.generation;
    entry.file.partition = ParseHivePartition(obj.name);
    // Footer peeks dominate this path; a cached parse (keyed by the listed
    // generation, so a rewrite can never serve stale stats) skips them.
    ObjectSource source(store, ctx, table.bucket, obj.name, obj.size);
    BL_ASSIGN_OR_RETURN(
        std::shared_ptr<const ParquetFileMeta> meta,
        CachedFooter(source, cache,
                     cache == nullptr
                         ? std::string()
                         : cache::FooterKey(
                               cache::ObjectKeyPrefix(
                                   CloudProviderName(table.location.provider),
                                   table.bucket, obj.name),
                               obj.generation),
                     obj.generation));
    if (meta == nullptr) continue;  // not a data file
    SetFooterStats(*meta, &entry);
    if (predicate != nullptr && FileCannotMatch(*predicate, entry)) {
      ++result.pruned;
      continue;
    }
    result.files.push_back(std::move(entry));
  }
  return result;
}

Result<ReadSession> StorageReadApi::CreateReadSession(
    const Principal& principal, const std::string& table_id,
    const ReadSessionOptions& options) {
  obs::ScopedSpan span("readapi:create_session", obs::Span::kRpc);
  span.SetAttr("table", table_id);
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_READAPI_SESSIONS, {{"kind", "create"}})
      ->Increment();
  env_->sim().Charge("readapi.create_session", kCreateSessionLatency);
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));

  // Coarse-grained IAM first.
  if (!table->iam.Allows(principal, Role::kReader)) {
    return Status::PermissionDenied(
        StrCat(principal, " may not read table `", table_id, "`"));
  }

  // Delegated access: the session runs under the connection's service
  // account, scoped to the table prefix — never under the caller.
  Credential credential;
  if (!table->connection.empty()) {
    BL_ASSIGN_OR_RETURN(const Connection* conn,
                        env_->catalog().GetConnection(table->connection));
    credential = conn->service_account.ScopeDown(
        {table->bucket + "/" + table->prefix});
  } else {
    credential.principal = "sa:bigquery-internal";
  }

  // Resolve fine-grained policy over the *requested* columns.
  std::vector<std::string> requested = options.columns;
  if (requested.empty()) {
    for (const Field& f : table->schema->fields()) {
      requested.push_back(f.name);
    }
  }
  BL_ASSIGN_OR_RETURN(EffectiveAccess access,
                      ResolveAccess(table->policy, principal, requested));

  // Server-side scan columns: requested + predicate + row-filter columns,
  // plus pushed-down aggregate inputs and group keys.
  std::set<std::string> scan_cols(requested.begin(), requested.end());
  if (options.predicate != nullptr) {
    options.predicate->CollectColumns(&scan_cols);
  }
  if (access.row_filter != nullptr) {
    access.row_filter->CollectColumns(&scan_cols);
  }
  for (const AggSpec& spec : options.partial_aggregates) {
    if (spec.op == AggOp::kAvg) {
      return Status::InvalidArgument(
          "AVG is not pushable; push SUM and COUNT and divide client-side");
    }
    if (!spec.input.empty()) scan_cols.insert(spec.input);
  }
  for (const auto& g : options.aggregate_group_by) scan_cols.insert(g);
  BL_RETURN_NOT_OK(CheckColumns(*table, scan_cols));

  ReadSession session;
  session.session_id = StrCat("rs-", next_session_++);
  session.table_id = table_id;
  session.snapshot_txn = options.snapshot_txn == kLatestTxn
                             ? env_->meta().LatestTxn()
                             : options.snapshot_txn;

  // Collect + prune files, then shard into streams.
  const bool use_block_cache =
      options.use_block_cache && !options.use_row_oriented_reader;
  BL_ASSIGN_OR_RETURN(PrunedFiles pruned,
                      CollectFiles(*table, credential, options.predicate,
                                   options.snapshot_txn, use_block_cache));
  session.files_total = pruned.candidates;
  session.files_pruned = pruned.pruned;

  // Output schema: requested columns, with mask-induced type changes.
  // Requested hive partition columns (not stored in the files) are served
  // as virtual columns; their type comes from the cached partition values.
  std::vector<Field> out_fields;
  for (const auto& name : requested) {
    int idx = table->schema->FieldIndex(name);
    if (idx >= 0) {
      out_fields.push_back(MaskedField(table->schema->field(idx),
                                       access.masked_columns));
      continue;
    }
    DataType t = DataType::kInt64;
    for (const auto& f : pruned.files) {
      for (const auto& [pcol, pval] : f.file.partition) {
        if (pcol == name && pval.is_string()) t = DataType::kString;
      }
      break;
    }
    out_fields.push_back({name, t, false});
  }
  session.output_schema = MakeSchema(std::move(out_fields));
  session.streams = AssignStreams(std::move(pruned.files),
                                  options.max_streams, session.session_id);

  // Table statistics for engine-side optimization (Sec 3.4).
  if (UsesBigMetadata(*table)) {
    auto stats = env_->meta().TableStats(table_id, options.snapshot_txn);
    if (stats.ok()) session.table_stats = std::move(stats).value();
  }

  auto state = std::make_shared<ReadSessionState>();
  state->issuer = this;
  state->session_id = session.session_id;
  state->options = options;
  state->table = table;
  state->credential = std::move(credential);
  state->access = std::move(access);
  state->read_columns.assign(scan_cols.begin(), scan_cols.end());
  // Server-side aggregation consumes the scan columns, not the projection.
  state->emit_columns = options.partial_aggregates.empty()
                            ? std::move(requested)
                            : state->read_columns;
  state->use_block_cache = use_block_cache;
  state->overlap_saved.assign(session.streams.size(), 0);
  session.state_ = std::move(state);

  auto& reg = obs::MetricsRegistry::Default();
  reg.GetHistogram(METRIC_READAPI_STREAM_FANOUT, {},
                   &obs::DefaultFanoutBounds())
      ->Observe(session.streams.size());
  reg.GetCounter(METRIC_READAPI_FILES_PRUNED)->Add(session.files_pruned);
  span.AddNum("files_total", session.files_total);
  span.AddNum("files_pruned", session.files_pruned);
  span.AddNum("streams", session.streams.size());
  return session;
}

Result<ReadSessionState*> StorageReadApi::StateOf(
    const ReadSession& session) const {
  ReadSessionState* state = session.state_.get();
  if (state == nullptr || state->issuer != this ||
      state->session_id != session.session_id) {
    return Status::NotFound(StrCat("no session `", session.session_id, "`"));
  }
  return state;
}

Result<ReadSession> StorageReadApi::RefineSession(
    const ReadSession& session, const ExprPtr& extra_predicate) {
  BL_ASSIGN_OR_RETURN(const ReadSessionState* base, StateOf(session));
  if (extra_predicate == nullptr) {
    return Status::InvalidArgument("RefineSession requires a predicate");
  }
  const TableDef& table = *base->table;
  std::set<std::string> extra_cols;
  extra_predicate->CollectColumns(&extra_cols);
  BL_RETURN_NOT_OK(CheckColumns(table, extra_cols));
  obs::ScopedSpan span("readapi:refine_session", obs::Span::kRpc);
  span.SetAttr("table", table.id());
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_READAPI_SESSIONS, {{"kind", "refine"}})
      ->Increment();
  env_->sim().Charge("readapi.refine_session", kRefineSessionLatency);

  // Re-prune the session's existing file set with the extra predicate —
  // no listing, no footer peeks, no fresh Spanner-side persistence.
  ReadSession refined = session;
  refined.session_id = StrCat(session.session_id, "+r", next_session_++);
  std::vector<CachedFileMeta> kept;
  uint64_t pruned_count = 0;
  for (const ReadStream& stream : session.streams) {
    for (const CachedFileMeta& f : stream.files) {
      if (FileCannotMatch(*extra_predicate, f)) {
        ++pruned_count;
        continue;
      }
      kept.push_back(f);
    }
  }
  refined.files_pruned = session.files_pruned + pruned_count;
  refined.streams = AssignStreams(std::move(kept), base->options.max_streams,
                                  refined.session_id);
  span.AddNum("files_pruned", pruned_count);
  span.AddNum("streams", refined.streams.size());

  auto state = std::make_shared<ReadSessionState>(*base);
  state->session_id = refined.session_id;
  state->options.predicate =
      state->options.predicate == nullptr
          ? extra_predicate
          : Expr::And(state->options.predicate, extra_predicate);
  for (const auto& c : extra_cols) {
    if (std::find(state->read_columns.begin(), state->read_columns.end(),
                  c) == state->read_columns.end()) {
      state->read_columns.push_back(c);
    }
  }
  if (!state->options.partial_aggregates.empty()) {
    state->emit_columns = state->read_columns;
  }
  state->overlap_saved.assign(refined.streams.size(), 0);
  refined.state_ = std::move(state);
  return refined;
}

Result<std::vector<BatchHandle>> StorageReadApi::ReadStreamHandles(
    const ReadSession& session, size_t stream_index) {
  BL_ASSIGN_OR_RETURN(ReadSessionState * state, StateOf(session));
  if (stream_index >= session.streams.size()) {
    return Status::OutOfRange(StrCat("stream ", stream_index, " of ",
                                     session.streams.size()));
  }
  // One key per stream: each stream is read by exactly one task, so its
  // fault/retry decision sequence is single-threaded and deterministic.
  const std::string stream_key = StrCat(session.session_id, "/", stream_index);
  return fault::RetryResult<std::vector<BatchHandle>>(
      &env_->sim(), kReadRowsRetry, FaultSite::kReadRows, stream_key, [&] {
        return ReadRowsAttempt(session, *state, stream_index, stream_key);
      });
}

Result<std::vector<std::string>> StorageReadApi::ReadRows(
    const ReadSession& session, size_t stream_index) {
  BL_ASSIGN_OR_RETURN(std::vector<BatchHandle> handles,
                      ReadStreamHandles(session, stream_index));
  // The wire boundary: this is where (and only where) local batches meet
  // the Arrow-lite codec.
  std::vector<std::string> responses;
  responses.reserve(handles.size());
  for (const BatchHandle& h : handles) responses.push_back(h.ToWire());
  return responses;
}

Result<std::vector<BatchHandle>> StorageReadApi::ReadRowsAttempt(
    const ReadSession& session, ReadSessionState& state, size_t stream_index,
    const std::string& stream_key) {
  const TableDef& table = *state.table;
  obs::ScopedSpan span("readapi:read_rows", obs::Span::kRpc);
  BL_RETURN_NOT_OK(
      CheckFault(&env_->sim(), FaultSite::kReadRows, "", stream_key));
  if (state.access.deny_all_rows) {
    // Row-governed table, caller granted no policy: zero rows, but a
    // well-formed (empty) response so engines see the schema.
    return std::vector<BatchHandle>{
        BatchHandle::Local(RecordBatch::Empty(session.output_schema))};
  }
  if (table.kind == TableKind::kObjectTable) {
    return Status::InvalidArgument(
        "object tables are read through ObjectTableService, not ReadRows");
  }
  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(table.location));
  // Slot s is written only by the task reading stream s; a stream a caller
  // appended after creation (SplitStream) has no slot.
  const bool has_slot = stream_index < state.overlap_saved.size();
  if (has_slot) state.overlap_saved[stream_index] = 0;
  cache::BlockCache* cache =
      state.use_block_cache && env_->block_cache().enabled()
          ? &env_->block_cache()
          : nullptr;
  StreamRead read{
      env_, state, session.streams[stream_index], store,
      CallerContext{.location =
                        state.options.caller_location.value_or(table.location)},
      cache,
      cache == nullptr ? 0 : cache::ProjectionFingerprint(state.read_columns),
      // Per-file cancellation checkpoints. Inside a scan region this
      // thread's clock view is its stream shard (base + own charges), so a
      // deadline expires after the same file at any worker count.
      CurrentCancelToken()};

  // Stages: fetch (inline or a readahead window) → per file: select →
  // govern → emit.
  const uint32_t depth = static_cast<uint32_t>(std::min<size_t>(
      state.options.readahead_depth, read.stream.files.size()));
  if (depth <= 1) {
    BL_RETURN_NOT_OK(read.FetchInline());
  } else {
    BL_ASSIGN_OR_RETURN(SimMicros saved,
                        read.FetchReadahead(depth, prefetch_pool()));
    if (has_slot) state.overlap_saved[stream_index] = saved;
  }
  if (!state.options.partial_aggregates.empty()) {
    BL_RETURN_NOT_OK(read.EmitPartials(session.output_schema));
  }

  // Server-side CPU accounting: the vectorized pipeline is an order of
  // magnitude cheaper per value than the row-oriented prototype.
  auto server_cpu = static_cast<SimMicros>(
      kVectorizedMicrosPerValue * static_cast<double>(read.values_processed));
  env_->sim().Charge("readapi.read_rows", server_cpu);
  env_->sim().counters().Add("readapi.cpu_micros", server_cpu);
  auto& reg = obs::MetricsRegistry::Default();
  reg.GetCounter(METRIC_READAPI_ROWS_RETURNED)->Add(read.rows);
  reg.GetCounter(METRIC_READAPI_BYTES_RETURNED)->Add(read.bytes);
  reg.GetCounter(METRIC_READAPI_SERVER_CPU_MICROS)->Add(server_cpu);
  reg.GetHistogram(METRIC_READAPI_STREAM_ROWS, {}, &obs::DefaultRowsBounds())
      ->Observe(read.rows);
  span.AddNum("rows", read.rows);
  span.AddNum("bytes", read.bytes);
  span.AddNum("server_cpu_micros", server_cpu);
  if (read.responses.empty()) {
    read.responses.push_back(
        BatchHandle::Local(RecordBatch::Empty(session.output_schema)));
  }
  return std::move(read.responses);
}

SimMicros StorageReadApi::StreamOverlapSaved(const ReadSession& session,
                                             size_t stream_index) const {
  auto state = StateOf(session);
  if (!state.ok()) return 0;
  const std::vector<SimMicros>& saved = (*state)->overlap_saved;
  return stream_index < saved.size() ? saved[stream_index] : 0;
}

ThreadPool* StorageReadApi::prefetch_pool() {
  std::call_once(prefetch_pool_once_, [this] {
    // Sized for overlap, not throughput: units mostly wait on simulated
    // object-store latency, and the analytic charge folding is what the
    // benches measure.
    prefetch_pool_ = std::make_unique<ThreadPool>(4);
  });
  return prefetch_pool_.get();
}

Result<RecordBatch> StorageReadApi::ReadStreamBatch(const ReadSession& session,
                                                    size_t stream_index) {
  BL_ASSIGN_OR_RETURN(std::vector<BatchHandle> handles,
                      ReadStreamHandles(session, stream_index));
  // In-process fast path: opening a local handle is a refcount bump — the
  // whole stream flows to the engine without touching the codec.
  std::vector<RecordBatch> batches;
  batches.reserve(handles.size());
  for (const BatchHandle& h : handles) {
    BL_ASSIGN_OR_RETURN(RecordBatch b, h.Open());
    batches.push_back(std::move(b));
  }
  return RecordBatch::Concat(batches);
}

Result<std::pair<ReadStream, ReadStream>> StorageReadApi::SplitStream(
    const ReadStream& stream) {
  if (stream.files.size() < 2) {
    return Status::FailedPrecondition(
        "stream has too few files to split");
  }
  ReadStream a, b;
  a.stream_id = stream.stream_id + "/a";
  b.stream_id = stream.stream_id + "/b";
  for (size_t i = 0; i < stream.files.size(); ++i) {
    ReadStream& target = (i % 2 == 0) ? a : b;
    target.files.push_back(stream.files[i]);
    target.estimated_rows += stream.files[i].file.row_count;
  }
  return std::make_pair(std::move(a), std::move(b));
}

}  // namespace biglake

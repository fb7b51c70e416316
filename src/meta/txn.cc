#include "meta/txn.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>

#include "common/coding.h"
#include "common/strings.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace biglake {
namespace meta {

void EncodeCachedFileMeta(std::string* dst, const CachedFileMeta& f) {
  std::string entry;
  EncodeDataFileEntry(&entry, f.file);
  PutLengthPrefixed(dst, entry);
  PutLengthPrefixed(dst, f.content_type);
  PutVarint64(dst, f.create_time);
  PutVarint64(dst, f.update_time);
  PutVarint64(dst, f.generation);
}

Status DecodeCachedFileMeta(Decoder* dec, CachedFileMeta* out) {
  std::string_view entry;
  BL_RETURN_NOT_OK(dec->GetLengthPrefixed(&entry));
  Decoder entry_dec(entry);
  BL_RETURN_NOT_OK(DecodeDataFileEntry(&entry_dec, &out->file));
  BL_RETURN_NOT_OK(dec->GetLengthPrefixedString(&out->content_type));
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->create_time));
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->update_time));
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->generation));
  return Status::OK();
}

void EncodeTxnLogRecord(std::string* dst, const TxnLogRecord& rec) {
  PutVarint64(dst, rec.seq);
  PutLengthPrefixed(dst, rec.uid);
  PutVarint64(dst, rec.tables.size());
  for (const TxnTableOps& ops : rec.tables) {
    PutLengthPrefixed(dst, ops.table_id);
    PutVarint64(dst, ops.adds.size());
    for (const CachedFileMeta& f : ops.adds) EncodeCachedFileMeta(dst, f);
    PutVarint64(dst, ops.removes.size());
    for (const std::string& p : ops.removes) PutLengthPrefixed(dst, p);
  }
}

Status DecodeTxnLogRecord(Decoder* dec, TxnLogRecord* out) {
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->seq));
  BL_RETURN_NOT_OK(dec->GetLengthPrefixedString(&out->uid));
  uint64_t num_tables = 0;
  BL_RETURN_NOT_OK(dec->GetCount(&num_tables));
  out->tables.clear();
  out->tables.reserve(num_tables);
  for (uint64_t i = 0; i < num_tables; ++i) {
    TxnTableOps ops;
    BL_RETURN_NOT_OK(dec->GetLengthPrefixedString(&ops.table_id));
    uint64_t num_adds = 0;
    BL_RETURN_NOT_OK(dec->GetCount(&num_adds));
    ops.adds.resize(num_adds);
    for (uint64_t j = 0; j < num_adds; ++j) {
      BL_RETURN_NOT_OK(DecodeCachedFileMeta(dec, &ops.adds[j]));
    }
    uint64_t num_removes = 0;
    BL_RETURN_NOT_OK(dec->GetCount(&num_removes));
    ops.removes.resize(num_removes);
    for (uint64_t j = 0; j < num_removes; ++j) {
      BL_RETURN_NOT_OK(dec->GetLengthPrefixedString(&ops.removes[j]));
    }
    out->tables.push_back(std::move(ops));
  }
  return Status::OK();
}

void LakehouseTxn::AddFiles(const std::string& table_id,
                            std::vector<CachedFileMeta> files) {
  TxnTableOps& w = ops_[table_id];
  w.table_id = table_id;
  for (auto& f : files) w.adds.push_back(std::move(f));
}

void LakehouseTxn::RemoveFiles(const std::string& table_id,
                               std::vector<std::string> paths) {
  TxnTableOps& w = ops_[table_id];
  w.table_id = table_id;
  for (auto& p : paths) w.removes.push_back(std::move(p));
}

TxnLogRecord LakehouseTxn::Record() const {
  TxnLogRecord rec;
  rec.uid = uid_;
  for (const auto& [table_id, ops] : ops_) rec.tables.push_back(ops);
  return rec;
}

std::vector<std::string> LakehouseTxn::TouchedTables() const {
  std::vector<std::string> tables;
  tables.reserve(ops_.size());
  for (const auto& [table_id, w] : ops_) {
    tables.push_back(table_id);
    (void)w;
  }
  return tables;
}

struct TxnCoordinator::Metrics {
  obs::Counter* commits;
  obs::Counter* aborts_conflict;
  obs::Counter* aborts_fault;
  obs::Counter* aborts_crash;
  obs::Counter* aborts_user;
  obs::Counter* intents_written;
  obs::Counter* intents_gced;
  obs::Counter* recovered;

  Metrics() {
    auto& reg = obs::MetricsRegistry::Default();
    commits = reg.GetCounter(METRIC_TXN_COMMITS);
    aborts_conflict =
        reg.GetCounter(METRIC_TXN_ABORTS, {{"reason", "conflict"}});
    aborts_fault = reg.GetCounter(METRIC_TXN_ABORTS, {{"reason", "fault"}});
    aborts_crash = reg.GetCounter(METRIC_TXN_ABORTS, {{"reason", "crash"}});
    aborts_user = reg.GetCounter(METRIC_TXN_ABORTS, {{"reason", "user"}});
    intents_written = reg.GetCounter(METRIC_TXN_INTENTS_WRITTEN);
    intents_gced = reg.GetCounter(METRIC_TXN_INTENTS_GCED);
    recovered = reg.GetCounter(METRIC_TXN_RECOVERED);
  }
};

TxnCoordinator::TxnCoordinator(SimEnv* env, BigMetadataStore* meta,
                               ObjectStore* store,
                               TxnCoordinatorOptions options)
    : env_(env),
      meta_(meta),
      store_(store),
      ctx_{store->location()},
      options_(std::move(options)),
      metrics_(std::make_unique<Metrics>()) {}

TxnCoordinator::~TxnCoordinator() = default;

Result<TxnSnapshot> TxnCoordinator::PinSnapshot(
    const std::vector<std::string>& tables) const {
  TxnSnapshot snap;
  snap.meta_txn = meta_->LatestTxn();
  for (const std::string& t : tables) {
    BL_ASSIGN_OR_RETURN(uint64_t gen, meta_->TableGeneration(t));
    snap.generations[t] = gen;
  }
  return snap;
}

Result<std::unique_ptr<LakehouseTxn>> TxnCoordinator::BeginTransaction(
    const std::vector<std::string>& tables) {
  BL_ASSIGN_OR_RETURN(TxnSnapshot snap, PinSnapshot(tables));
  auto txn = std::unique_ptr<LakehouseTxn>(new LakehouseTxn());
  txn->coord_ = this;
  txn->snapshot_ = std::move(snap);
  txn->uid_ = StrCat("t", next_uid_++);
  env_->counters().Add("txn.begun", 1);
  return txn;
}

void TxnCoordinator::CountAbort(const char* reason) {
  env_->counters().Add("txn.aborts", 1);
  env_->counters().Add(StrCat("txn.aborts.", reason), 1);
  if (std::string_view(reason) == "conflict") {
    metrics_->aborts_conflict->Increment();
    env_->counters().Add("txn.conflicts", 1);
  } else if (std::string_view(reason) == "fault") {
    metrics_->aborts_fault->Increment();
  } else if (std::string_view(reason) == "crash") {
    metrics_->aborts_crash->Increment();
  } else {
    metrics_->aborts_user->Increment();
  }
}

Status TxnCoordinator::WriteIntents(const LakehouseTxn& txn) {
  const char* cloud = CloudProviderName(store_->location().provider);
  for (const auto& [table_id, ops] : txn.ops_) {
    std::string body;
    PutLengthPrefixed(&body, txn.uid_);
    PutVarint64(&body, txn.snapshot_.meta_txn);
    TxnLogRecord one;  // reuse the record framing for a single table
    one.uid = txn.uid_;
    one.tables.push_back(ops);
    EncodeTxnLogRecord(&body, one);
    const std::string name = IntentObjectName(txn.uid_, table_id);
    Status s = fault::RetryStatus(
        env_, options_.retry, FaultSite::kTxnIntent, name, [&] {
          BL_RETURN_NOT_OK(
              CheckFault(env_, FaultSite::kTxnIntent, cloud, name));
          // Unconditional put: re-running after a partial failure (or a uid
          // collision with a GC-pending orphan) just overwrites.
          return store_->Put(ctx_, options_.bucket, name, body).status();
        });
    if (!s.ok()) return s;
    metrics_->intents_written->Increment();
    env_->counters().Add("txn.intents_written", 1);
  }
  return Status::OK();
}

void TxnCoordinator::DeleteIntents(const TxnLogRecord& rec) {
  for (const TxnTableOps& ops : rec.tables) {
    Status s = store_->Delete(ctx_, options_.bucket,
                              IntentObjectName(rec.uid, ops.table_id));
    // Best effort by design: a committed transaction must never fail (or
    // look failed) because intent cleanup hit a fault. Orphans are counted
    // and reclaimed by GcOrphanedIntents.
    if (!s.ok() && !s.IsNotFound()) {
      env_->counters().Add("txn.intent_delete_failed", 1);
    }
  }
}

Status TxnCoordinator::TryAppend(const LakehouseTxn& txn, TxnLogRecord* rec,
                                 bool* conflict) {
  const char* cloud = CloudProviderName(store_->location().provider);
  rec->seq = meta_->txn_log_applied_seq() + 1;
  const std::string name = RecordObjectName(rec->seq);
  BL_RETURN_NOT_OK(CheckFault(env_, FaultSite::kTxnLog, cloud, name));

  // First-committer-wins at file granularity: every staged remove must still
  // be live. Appends (empty removes) can never conflict. The check reads Big
  // Metadata as of the applied watermark; when the put below succeeds, no
  // record lies beyond that watermark, so the check saw every commit.
  for (const TxnTableOps& ops : rec->tables) {
    if (!meta_->HasTable(ops.table_id)) {
      *conflict = true;
      return Status::FailedPrecondition(
          StrCat("txn ", txn.uid_, " conflicts: table `", ops.table_id,
                 "` dropped concurrently"));
    }
    if (ops.removes.empty()) continue;
    BL_ASSIGN_OR_RETURN(std::vector<CachedFileMeta> live,
                        meta_->Snapshot(ops.table_id));
    std::set<std::string> live_paths;
    for (const CachedFileMeta& f : live) live_paths.insert(f.file.path);
    for (const std::string& path : ops.removes) {
      if (live_paths.count(path) == 0) {
        *conflict = true;
        return Status::FailedPrecondition(
            StrCat("txn ", txn.uid_, " conflicts on `", ops.table_id, "`: `",
                   path, "` was rewritten by a concurrent commit"));
      }
    }
  }

  std::string encoded;
  EncodeTxnLogRecord(&encoded, *rec);
  PutOptions put_opts;
  put_opts.if_generation_match = 0;  // create-only: the commit point
  return store_
      ->Put(ctx_, options_.bucket, name, std::move(encoded), put_opts)
      .status();
}

Result<uint64_t> TxnCoordinator::ApplyCommitted(const TxnLogRecord& rec) {
  MetaTransaction mt = meta_->BeginTransaction();
  for (const TxnTableOps& ops : rec.tables) {
    if (!ops.adds.empty()) mt.AddFiles(ops.table_id, ops.adds);
    if (!ops.removes.empty()) mt.RemoveFiles(ops.table_id, ops.removes);
  }
  BL_ASSIGN_OR_RETURN(uint64_t meta_txn, mt.Commit());
  meta_->set_txn_log_applied_seq(rec.seq);
  // Fires before control returns to anyone who could read: the result/block
  // caches drop every entry keyed to the old generations in the same atomic
  // (single-threaded) step as the metadata commit.
  if (hook_) hook_(rec);
  return meta_txn;
}

Result<uint64_t> TxnCoordinator::Commit(LakehouseTxn* txn) {
  obs::ScopedSpan span("txn:commit", obs::Span::kRpc);
  if (txn->coord_ != this) {
    return Status::InvalidArgument("txn belongs to a different coordinator");
  }
  if (txn->state_ != LakehouseTxn::State::kOpen) {
    return Status::FailedPrecondition("transaction is not open");
  }
  if (txn->ops_.empty()) {
    txn->state_ = LakehouseTxn::State::kCommitted;
    metrics_->commits->Increment();
    env_->counters().Add("txn.commits", 1);
    return meta_->LatestTxn();
  }

  TxnLogRecord rec = txn->Record();

  txn->intents_written_ = true;
  Status intent_status = WriteIntents(*txn);
  if (!intent_status.ok()) {
    DeleteIntents(rec);
    txn->state_ = LakehouseTxn::State::kAborted;
    CountAbort("fault");
    return intent_status;
  }
  if (crash_point_ == TxnCrashPoint::kAfterIntents) {
    crash_point_ = TxnCrashPoint::kNone;
    txn->state_ = LakehouseTxn::State::kAborted;
    CountAbort("crash");
    return Status::Cancelled(
        "simulated crash after intent write (not committed)");
  }

  fault::Retryer retryer(env_, options_.retry, FaultSite::kTxnLog,
                         options_.prefix + "log/");
  for (;;) {
    bool conflict = false;
    Status s = TryAppend(*txn, &rec, &conflict);
    if (s.ok()) break;
    if (conflict) {
      DeleteIntents(rec);
      txn->state_ = LakehouseTxn::State::kAborted;
      CountAbort("conflict");
      return s;
    }
    if (s.code() == StatusCode::kFailedPrecondition) {
      // Lost the create-only put: a predecessor's record holds this seq but
      // is not applied yet. Apply it and any after it in seq order, so the
      // next attempt re-checks conflicts against every commit.
      Status caught_up = Recover().status();
      if (!caught_up.ok()) s = caught_up;
    }
    bool again;
    if (s.code() == StatusCode::kFailedPrecondition) {
      again = retryer.RetryImmediately();
    } else if (IsRetryable(s)) {
      again = retryer.BackoffAndRetry();
    } else {
      again = false;
    }
    if (!again) {
      DeleteIntents(rec);
      txn->state_ = LakehouseTxn::State::kAborted;
      CountAbort("fault");
      if (retryer.deadline_exhausted()) {
        return Status::DeadlineExceeded(
            StrCat("txn commit retry deadline exceeded (", retryer.attempts(),
                   " attempts): ", s.ToString()));
      }
      return s;
    }
  }

  // ---- Commit point passed: the record is durable in the log. ----
  txn->state_ = LakehouseTxn::State::kCommitted;
  if (crash_point_ == TxnCrashPoint::kAfterLogCas) {
    crash_point_ = TxnCrashPoint::kNone;
    // No abort accounting: the transaction IS committed; Recover() will
    // apply it and count it as recovered.
    return Status::Cancelled(
        "simulated crash after txn-log record put (committed, unapplied)");
  }
  BL_ASSIGN_OR_RETURN(uint64_t meta_txn, ApplyCommitted(rec));
  DeleteIntents(rec);
  metrics_->commits->Increment();
  env_->counters().Add("txn.commits", 1);
  span.AddNum("txn.tables", rec.tables.size());
  return meta_txn;
}

Status TxnCoordinator::Abort(LakehouseTxn* txn) {
  obs::ScopedSpan span("txn:abort", obs::Span::kRpc);
  if (txn->coord_ != this) {
    return Status::InvalidArgument("txn belongs to a different coordinator");
  }
  if (txn->state_ != LakehouseTxn::State::kOpen) {
    return Status::FailedPrecondition("transaction is not open");
  }
  if (txn->intents_written_) DeleteIntents(txn->Record());
  txn->state_ = LakehouseTxn::State::kAborted;
  CountAbort("user");
  return Status::OK();
}

std::string TxnCoordinator::RecordObjectName(uint64_t seq) const {
  char digits[21];
  std::snprintf(digits, sizeof(digits), "%020llu",
                static_cast<unsigned long long>(seq));
  return StrCat(options_.prefix, "log/", digits);
}

Result<TxnLogRecord> TxnCoordinator::ReadRecord(uint64_t seq) const {
  BL_ASSIGN_OR_RETURN(std::string bytes,
                      store_->Get(ctx_, options_.bucket, RecordObjectName(seq)));
  // The object must hold exactly one record, carrying the seq of its name.
  Decoder dec(bytes);
  TxnLogRecord rec;
  Status s = DecodeTxnLogRecord(&dec, &rec);
  if (!s.ok()) {
    return Status::DataLoss(
        StrCat("txn log record ", seq, " is corrupt: ", s.message()));
  }
  if (!dec.done()) {
    return Status::DataLoss(StrCat("txn log record ", seq, " has ",
                                   dec.remaining(), " trailing bytes"));
  }
  if (rec.seq != seq) {
    return Status::DataLoss(
        StrCat("txn log record ", seq, " decodes as seq ", rec.seq));
  }
  return rec;
}

Result<std::vector<TxnLogRecord>> TxnCoordinator::ReadLog() const {
  BL_ASSIGN_OR_RETURN(
      std::vector<ObjectMetadata> objects,
      store_->ListAll(ctx_, options_.bucket, options_.prefix + "log/"));
  std::vector<TxnLogRecord> records;
  records.reserve(objects.size());
  for (const ObjectMetadata& obj : objects) {
    // Zero-padded names list in seq order; any other name, or a gap, means
    // the log is not what this coordinator wrote.
    const uint64_t seq = records.size() + 1;
    if (obj.name != RecordObjectName(seq)) {
      return Status::DataLoss(StrCat("txn log object `", obj.name,
                                     "` found where record ", seq,
                                     " belongs"));
    }
    BL_ASSIGN_OR_RETURN(TxnLogRecord rec, ReadRecord(seq));
    records.push_back(std::move(rec));
  }
  return records;
}

Result<uint64_t> TxnCoordinator::Recover() {
  obs::ScopedSpan span("txn:recover", obs::Span::kRpc);
  uint64_t applied = 0;
  for (;;) {
    Result<TxnLogRecord> rec = ReadRecord(meta_->txn_log_applied_seq() + 1);
    if (rec.status().IsNotFound()) return applied;
    BL_RETURN_NOT_OK(rec.status());
    for (const TxnTableOps& ops : rec->tables) meta_->EnsureTable(ops.table_id);
    BL_RETURN_NOT_OK(ApplyCommitted(*rec).status());
    DeleteIntents(*rec);
    ++applied;
    metrics_->recovered->Increment();
    env_->counters().Add("txn.recovered", 1);
  }
}

Result<uint64_t> TxnCoordinator::GcOrphanedIntents() {
  BL_ASSIGN_OR_RETURN(std::vector<TxnLogRecord> records, ReadLog());
  std::set<std::string> committed_uids;
  for (const TxnLogRecord& rec : records) committed_uids.insert(rec.uid);
  const std::string intents_prefix = options_.prefix + "intents/";
  BL_ASSIGN_OR_RETURN(
      std::vector<ObjectMetadata> objects,
      store_->ListAll(ctx_, options_.bucket, intents_prefix));
  uint64_t deleted = 0;
  const SimMicros now = env_->clock().Now();
  for (const ObjectMetadata& obj : objects) {
    std::string rest = obj.name.substr(intents_prefix.size());
    std::string uid = rest.substr(0, rest.find('/'));
    const bool committed = committed_uids.count(uid) > 0;
    const bool aged_out = obj.update_time + options_.intent_gc_min_age <= now;
    if (!committed && !aged_out) continue;  // possibly still in flight
    Status s = store_->Delete(ctx_, options_.bucket, obj.name);
    if (s.ok()) {
      ++deleted;
    } else if (!s.IsNotFound()) {
      env_->counters().Add("txn.intent_delete_failed", 1);
    }
  }
  if (deleted > 0) {
    metrics_->intents_gced->Add(deleted);
    env_->counters().Add("txn.intents_gced", deleted);
  }
  return deleted;
}

Status TxnCoordinator::Replay(const std::vector<TxnLogRecord>& records,
                              BigMetadataStore* target) {
  for (const TxnLogRecord& rec : records) {
    if (rec.seq <= target->txn_log_applied_seq()) continue;
    MetaTransaction mt = target->BeginTransaction();
    for (const TxnTableOps& ops : rec.tables) {
      target->EnsureTable(ops.table_id);
      if (!ops.adds.empty()) mt.AddFiles(ops.table_id, ops.adds);
      if (!ops.removes.empty()) mt.RemoveFiles(ops.table_id, ops.removes);
    }
    BL_ASSIGN_OR_RETURN(uint64_t meta_txn, mt.Commit());
    (void)meta_txn;
    target->set_txn_log_applied_seq(rec.seq);
  }
  return Status::OK();
}

}  // namespace meta
}  // namespace biglake

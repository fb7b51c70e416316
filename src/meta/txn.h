// Multi-table lakehouse transactions over Big Metadata + object storage,
// after LakeVilla (arXiv 2504.20768): non-invasive cross-table ACID layered
// on exactly the substrate the lakehouse already has.
//
// Protocol (one committed transaction):
//   1. BeginTransaction pins a TxnSnapshot: the store's latest txn id plus a
//      consistent {table -> generation} vector. All reads inside the
//      transaction resolve against that snapshot (snapshot isolation).
//   2. Writers stage adds/removes per table on the LakehouseTxn handle. Data
//      files are written eagerly (they are invisible until commit — Big
//      Metadata is the source of truth for liveness).
//   3. Commit writes one *write-intent manifest* object per touched table
//      (`<prefix>intents/<uid>/<table>`), then writes its one log record as
//      a new object `<prefix>log/<seq>` (seq zero-padded, so listing order
//      is seq order) with a create-only put at seq = applied watermark + 1.
//      That put is the CAS and the commit point: a transaction is committed
//      iff its record object exists. A commit never reads or rewrites the
//      records before it, so its cost does not grow with the log.
//   4. After the put the coordinator applies the record to Big Metadata as
//      one MetaTransaction (all tables get the same metadata txn id — atomic
//      cross-table visibility), advances the store's applied-seq watermark,
//      fires the cache-invalidation hook (result + block caches drop stale
//      entries before any subsequent read), and best-effort deletes the
//      intents. Intent deletion failures never fail a committed transaction;
//      GcOrphanedIntents reclaims them later.
//
// Conflicts — first committer wins, at file granularity: data files are
// immutable, so two transactions conflict iff one removes a file the other
// already removed (DELETE/UPDATE rewrites of overlapping files). Before each
// put the coordinator checks that every staged remove is still live in Big
// Metadata. A put that loses (the seq is taken by a committed record that is
// not applied yet) first applies every record from the watermark on, in seq
// order, then re-runs the check at the next seq: the check always sees every
// commit before the one it races for. A miss aborts the transaction with
// kFailedPrecondition (deliberately
// *not* retryable — the caller must begin a fresh transaction on a new
// snapshot, it must not replay the same doomed write set). Pure appends
// never conflict, which also keeps the single-table INSERT fast path (which
// bypasses the log) safe to mix with transactions.
//
// Crash safety: every object-store step is fault-injectable (FaultSite::
// kTxnIntent / kTxnLog plus the store's own kObjCas) and the coordinator can
// simulate a crash at either side of the commit point (CrashPoint). A crash
// before the put leaves only orphaned intents (GC'd by age); a crash after
// it leaves a committed-but-unapplied record that Recover() (or the next
// commit's lost put) applies by reading forward from the applied-seq
// watermark until a record object is NotFound: O(unapplied records).
// Replaying the full log into an empty store reproduces byte-identical table
// snapshots (tests/txn_property_test). Only ReadLog, GcOrphanedIntents and
// Replay touch the whole history, and no commit calls them.

#ifndef BIGLAKE_META_TXN_H_
#define BIGLAKE_META_TXN_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_env.h"
#include "common/status.h"
#include "fault/retry.h"
#include "meta/bigmeta.h"
#include "objstore/objstore.h"

namespace biglake {
namespace meta {

/// A consistent read view pinned at Begin: reads "as of" `meta_txn` see
/// every table at the generation recorded here — never a mix of before/after
/// across tables. Thread through ReadSessionOptions::snapshot_txn and
/// QueryEngine::Execute to resolve every scan of a multi-table query against
/// one snapshot.
struct TxnSnapshot {
  uint64_t meta_txn = 0;
  /// Per-table commit generation at `meta_txn` (result-cache key material).
  std::map<std::string, uint64_t> generations;
};

/// Staged operations against one table inside a transaction log record.
struct TxnTableOps {
  std::string table_id;
  std::vector<CachedFileMeta> adds;
  std::vector<std::string> removes;
};

/// One committed transaction in the log. `seq` is the record's 1-based
/// position and names its object; `uid` names its intent objects.
struct TxnLogRecord {
  uint64_t seq = 0;
  std::string uid;
  std::vector<TxnTableOps> tables;  // sorted by table_id
};

void EncodeCachedFileMeta(std::string* dst, const CachedFileMeta& f);
Status DecodeCachedFileMeta(Decoder* dec, CachedFileMeta* out);
void EncodeTxnLogRecord(std::string* dst, const TxnLogRecord& rec);
Status DecodeTxnLogRecord(Decoder* dec, TxnLogRecord* out);

/// Where (in the commit sequence) to simulate a coordinator crash. Consumed
/// by the next Commit and then auto-reset; the crashed commit returns
/// kCancelled and leaves the handle unusable, exactly like a dead process.
enum class TxnCrashPoint {
  kNone = 0,
  kAfterIntents,  // intents durable, log untouched: txn is NOT committed
  kAfterLogCas,   // record object put, metadata unapplied: txn IS committed
};

struct TxnCoordinatorOptions {
  /// Bucket holding the txn log records + intent manifests (usually the
  /// lake's own).
  std::string bucket;
  /// Object-name prefix for coordinator state.
  std::string prefix = "_txn/";
  /// Retry policy for intent puts and the record-put loop. One attempt of
  /// that loop can fail at the kTxnLog site, at the store's kObjCas site or
  /// in a catch-up GET, or lose its seq to a predecessor, so it gets more
  /// headroom than the 4-attempt substrate default.
  fault::RetryPolicy retry = [] {
    fault::RetryPolicy p;
    p.max_attempts = 8;
    p.initial_backoff = 50'000;  // 50 ms, doubling
    return p;
  }();
  /// An intent whose uid is not in the log is deleted only once it is at
  /// least this old (virtual time) — younger ones may belong to an in-flight
  /// transaction.
  SimMicros intent_gc_min_age = 10'000'000;  // 10 s
};

class TxnCoordinator;

/// Handle to one open transaction. Obtain from
/// TxnCoordinator::BeginTransaction; stage writes, then Commit or Abort
/// exactly once (both via the coordinator or the convenience methods here).
class LakehouseTxn {
 public:
  enum class State { kOpen, kCommitted, kAborted };

  const TxnSnapshot& snapshot() const { return snapshot_; }
  const std::string& uid() const { return uid_; }
  State state() const { return state_; }

  /// Stages files to add to `table_id` (append — never conflicts).
  void AddFiles(const std::string& table_id,
                std::vector<CachedFileMeta> files);
  /// Stages live file paths to remove from `table_id` (rewrite — conflicts
  /// with any concurrent removal of the same paths).
  void RemoveFiles(const std::string& table_id,
                   std::vector<std::string> paths);

  /// Tables with staged operations, sorted.
  std::vector<std::string> TouchedTables() const;

  /// True when a rewrite (remove) is already staged for `table_id`. DML
  /// layers use this to enforce one rewriting statement per table per
  /// transaction (a second one would re-remove the same paths).
  bool HasRemoves(const std::string& table_id) const {
    auto it = ops_.find(table_id);
    return it != ops_.end() && !it->second.removes.empty();
  }

 private:
  friend class TxnCoordinator;

  /// The log record this transaction commits (seq not yet assigned).
  TxnLogRecord Record() const;

  TxnCoordinator* coord_ = nullptr;
  TxnSnapshot snapshot_;
  std::string uid_;
  std::map<std::string, TxnTableOps> ops_;
  State state_ = State::kOpen;
  bool intents_written_ = false;
};

/// The transaction coordinator. Single-threaded like the rest of the
/// simulation; determinism contract: uids and log seqs come from counters,
/// all randomness from the seeded retry policy, so a given op sequence
/// produces identical logs at any worker count.
class TxnCoordinator {
 public:
  /// Fired once per applied log record, after the metadata commit and before
  /// control returns to the committer: the environment wires result/block
  /// cache invalidation here so no cached plan can mix per-table generations
  /// across the commit.
  using InvalidationHook = std::function<void(const TxnLogRecord&)>;

  TxnCoordinator(SimEnv* env, BigMetadataStore* meta, ObjectStore* store,
                 TxnCoordinatorOptions options);
  ~TxnCoordinator();

  /// Pins a snapshot covering `tables` (all must exist).
  Result<TxnSnapshot> PinSnapshot(const std::vector<std::string>& tables) const;

  /// Opens a transaction whose reads see the pinned snapshot. `tables` is
  /// the read/write footprint used for the snapshot's generation vector;
  /// staging a table outside it is allowed (the footprint only bounds what
  /// the snapshot can vouch for).
  Result<std::unique_ptr<LakehouseTxn>> BeginTransaction(
      const std::vector<std::string>& tables);

  /// Runs the commit protocol (header comment). Returns the metadata txn id
  /// all tables became visible at. Errors:
  ///   kFailedPrecondition — lost first-committer-wins; begin a fresh txn.
  ///   kCancelled          — simulated crash; consult the log / Recover().
  ///   retryable codes     — nothing committed; safe to replay the op.
  Result<uint64_t> Commit(LakehouseTxn* txn);

  /// Voluntarily abandons an open transaction; drops any staged state and
  /// best-effort deletes intents (none exist unless a Commit died midway).
  Status Abort(LakehouseTxn* txn);

  /// Applies committed-but-unapplied log records (seq beyond the store's
  /// applied watermark) in seq order, fires the invalidation hook for each,
  /// and deletes their intents. Reads forward from the watermark, so it
  /// costs one GET per unapplied record plus one NotFound probe. Returns how
  /// many records were applied. Call after a simulated crash — or harmlessly
  /// any time; Commit calls it after losing its record put. Records MUST
  /// apply in seq order: the applied watermark is a high-water mark.
  /// DataLoss when a record object is corrupt.
  Result<uint64_t> Recover();

  /// Deletes intent objects that are either committed (their uid is in the
  /// log — ops are durable there) or older than `intent_gc_min_age` with no
  /// log record (crashed/abandoned before the commit point). Returns how
  /// many objects were deleted.
  Result<uint64_t> GcOrphanedIntents();

  /// Decodes the full transaction log (record order = commit order): one
  /// LIST plus one GET per record, O(history), never on the commit path.
  /// DataLoss when a record object is corrupt, carries another seq than its
  /// name, or the record names are not exactly 1..n.
  Result<std::vector<TxnLogRecord>> ReadLog() const;

  /// Replays `records` (in order) into `target`, creating tables as needed —
  /// the disaster-recovery / bootstrap path, and the oracle the property
  /// test compares live stores against.
  static Status Replay(const std::vector<TxnLogRecord>& records,
                       BigMetadataStore* target);

  /// Arms a simulated crash for the next Commit (auto-reset after firing).
  void set_crash_point(TxnCrashPoint p) { crash_point_ = p; }

  void set_invalidation_hook(InvalidationHook hook) {
    hook_ = std::move(hook);
  }

  const TxnCoordinatorOptions& options() const { return options_; }
  /// `<prefix>log/<seq>`, seq zero-padded to 20 digits.
  std::string RecordObjectName(uint64_t seq) const;
  std::string IntentObjectName(const std::string& uid,
                               const std::string& table_id) const {
    return options_.prefix + "intents/" + uid + "/" + table_id;
  }

 private:
  struct Metrics;

  Status WriteIntents(const LakehouseTxn& txn);
  /// Best-effort deletes the intents of `rec`'s transaction.
  void DeleteIntents(const TxnLogRecord& rec);
  /// One commit attempt at seq = applied watermark + 1: fault check,
  /// conflict check, create-only put of the record object. Sets `*conflict`
  /// when the transaction lost first-committer-wins (the returned
  /// kFailedPrecondition then must NOT be retried; an unset flag with
  /// kFailedPrecondition means the seq is taken — catch up and retry).
  Status TryAppend(const LakehouseTxn& txn, TxnLogRecord* rec, bool* conflict);
  /// GETs and decodes record `seq`: NotFound when it does not exist,
  /// DataLoss when it does not decode to its end or carries another seq.
  Result<TxnLogRecord> ReadRecord(uint64_t seq) const;
  /// Post-commit-point: metadata apply + watermark + invalidation hook.
  Result<uint64_t> ApplyCommitted(const TxnLogRecord& rec);
  void CountAbort(const char* reason);

  SimEnv* env_;
  BigMetadataStore* meta_;
  ObjectStore* store_;
  CallerContext ctx_;
  TxnCoordinatorOptions options_;
  InvalidationHook hook_;
  std::unique_ptr<Metrics> metrics_;
  TxnCrashPoint crash_point_ = TxnCrashPoint::kNone;
  uint64_t next_uid_ = 1;
};

}  // namespace meta
}  // namespace biglake

#endif  // BIGLAKE_META_TXN_H_

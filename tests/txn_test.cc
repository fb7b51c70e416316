// Multi-table transaction coordinator (src/meta/txn.h): commit atomicity,
// snapshot-isolation reads, first-committer-wins conflicts, abort/GC of
// orphaned intents, crash recovery at both sides of the commit point,
// single-fault transparency at the new kTxnIntent/kTxnLog sites, and
// atomic cache invalidation.

#include "meta/txn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "columnar/ipc.h"
#include "common/coding.h"
#include "common/strings.h"
#include "core/blmt.h"
#include "core/environment.h"
#include "engine/engine.h"
#include "fault/fault.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "lakehouse_fixture.h"

namespace biglake {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using meta::LakehouseTxn;
using meta::TxnCoordinator;
using meta::TxnCrashPoint;
using meta::TxnLogRecord;

constexpr const char* kOrders = TxnLakeWorld::kOrders;
constexpr const char* kItems = TxnLakeWorld::kItems;

ExprPtr IdLt(int64_t n) {
  return Expr::Lt(Expr::Col("id"), Expr::Lit(Value::Int64(n)));
}

std::vector<int64_t> Range(int64_t base, int64_t n) {
  std::vector<int64_t> v;
  for (int64_t i = 0; i < n; ++i) v.push_back(base + i);
  return v;
}

// ---- Commit protocol basics -----------------------------------------------

TEST(TxnTest, CommitMakesAllTablesVisibleAtomically) {
  TxnLakeWorld w;
  auto txn = w.blmt.BeginTransaction({kOrders, kItems});
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  const uint64_t before = (*txn)->snapshot().meta_txn;

  ASSERT_TRUE(
      w.blmt.TxnInsert(txn->get(), "u", kOrders, w.TxnRows(0, 10, 1)).ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(txn->get(), "u", kItems, w.TxnRows(100, 20, 1)).ok());

  // Staged but uncommitted: nothing is visible.
  EXPECT_TRUE(w.Ids(kOrders).empty());
  EXPECT_TRUE(w.Ids(kItems).empty());

  auto committed = w.blmt.CommitTransaction(txn->get());
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ((*txn)->state(), LakehouseTxn::State::kCommitted);

  // Both tables became visible at the same metadata txn.
  EXPECT_EQ(*w.lake.meta().TableGeneration(kOrders), *committed);
  EXPECT_EQ(*w.lake.meta().TableGeneration(kItems), *committed);
  EXPECT_EQ(w.Ids(kOrders), Range(0, 10));
  EXPECT_EQ(w.Ids(kItems), Range(100, 20));
  // As of the pre-commit snapshot, neither table has the rows.
  EXPECT_TRUE(w.Ids(kOrders, before).empty());
  EXPECT_TRUE(w.Ids(kItems, before).empty());

  // Commit left no intents behind and exactly one log record.
  EXPECT_EQ(w.IntentCount(), 0u);
  auto log = w.coord->ReadLog();
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 1u);
  EXPECT_EQ((*log)[0].seq, 1u);
  EXPECT_EQ((*log)[0].tables.size(), 2u);
  EXPECT_EQ(w.lake.sim().counters().Get("txn.commits"), 1u);
}

TEST(TxnTest, MultiTableInsertRoutesThroughCoordinator) {
  TxnLakeWorld w;
  auto committed = w.blmt.MultiTableInsert(
      "u", {{kOrders, w.TxnRows(0, 5, 7)}, {kItems, w.TxnRows(50, 5, 7)}});
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(w.Ids(kOrders), Range(0, 5));
  EXPECT_EQ(w.Ids(kItems), Range(50, 5));
  auto log = w.coord->ReadLog();
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->size(), 1u);
  EXPECT_EQ(w.lake.sim().counters().Get("txn.commits"), 1u);
}

TEST(TxnTest, EmptyTransactionCommitsWithoutLogRecord) {
  TxnLakeWorld w;
  auto txn = w.blmt.BeginTransaction({kOrders});
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(w.blmt.CommitTransaction(txn->get()).ok());
  auto log = w.coord->ReadLog();
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log->empty());
}

// ---- Snapshot isolation ----------------------------------------------------

TEST(TxnTest, SnapshotReadsAreStableAcrossConcurrentCommits) {
  TxnLakeWorld w;
  ASSERT_TRUE(w.blmt
                  .MultiTableInsert("u", {{kOrders, w.TxnRows(0, 10, 1)},
                                          {kItems, w.TxnRows(0, 10, 1)}})
                  .ok());

  auto reader = w.blmt.BeginTransaction({kOrders, kItems});
  ASSERT_TRUE(reader.ok());
  const meta::TxnSnapshot snap = (*reader)->snapshot();

  // A commit lands after the reader pinned its snapshot.
  ASSERT_TRUE(w.blmt
                  .MultiTableInsert("u", {{kOrders, w.TxnRows(100, 5, 2)},
                                          {kItems, w.TxnRows(100, 5, 2)}})
                  .ok());

  // Latest sees both tags; the pinned snapshot sees only the first — in
  // *both* tables (never tag 2 in one and not the other).
  EXPECT_EQ(w.Tags(kOrders), (std::set<int64_t>{1, 2}));
  EXPECT_EQ(w.Tags(kOrders, snap.meta_txn), (std::set<int64_t>{1}));
  EXPECT_EQ(w.Tags(kItems, snap.meta_txn), (std::set<int64_t>{1}));
  ASSERT_TRUE(w.blmt.AbortTransaction(reader->get()).ok());
}

TEST(TxnTest, EngineExecutePinsTxnSnapshot) {
  TxnLakeWorld w;
  ASSERT_TRUE(w.blmt
                  .MultiTableInsert("u", {{kOrders, w.TxnRows(0, 8, 1)},
                                          {kItems, w.TxnRows(0, 8, 1)}})
                  .ok());
  auto reader = w.blmt.BeginTransaction({kOrders, kItems});
  ASSERT_TRUE(reader.ok());
  const meta::TxnSnapshot snap = (*reader)->snapshot();

  ASSERT_TRUE(w.blmt
                  .MultiTableInsert("u", {{kOrders, w.TxnRows(100, 4, 2)},
                                          {kItems, w.TxnRows(100, 4, 2)}})
                  .ok());

  QueryEngine engine(&w.lake, &w.api);
  PlanPtr join = Plan::HashJoin(Plan::Scan(kOrders), Plan::Scan(kItems),
                                {"id"}, {"id"});
  auto pinned = engine.Execute("u", join, nullptr, nullptr, &snap);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->batch.num_rows(), 8u);  // old rows only, both sides

  auto latest = engine.Execute("u", join);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->batch.num_rows(), 12u);
  ASSERT_TRUE(w.blmt.AbortTransaction(reader->get()).ok());
}

// ---- Conflicts -------------------------------------------------------------

TEST(TxnTest, FirstCommitterWinsOnOverlappingRewrites) {
  TxnLakeWorld w;
  // One data file in ds.orders covering ids 0..19: any two rewrites of it
  // conflict at file granularity.
  ASSERT_TRUE(w.blmt.MultiTableInsert("u", {{kOrders, w.TxnRows(0, 20, 1)}})
                  .ok());

  auto t1 = w.blmt.BeginTransaction({kOrders});
  auto t2 = w.blmt.BeginTransaction({kOrders});
  ASSERT_TRUE(t1.ok() && t2.ok());
  auto del = w.blmt.TxnDelete(t1->get(), "u", kOrders, IdLt(10));
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(*del, 10u);
  auto upd = w.blmt.TxnUpdate(t2->get(), "u", kOrders, IdLt(5),
                              {{"tag", Value::Int64(9)}});
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(*upd, 5u);

  ASSERT_TRUE(w.blmt.CommitTransaction(t1->get()).ok());
  auto s = w.blmt.CommitTransaction(t2->get());
  // Loser gets kFailedPrecondition — deliberately NOT retryable: replaying
  // the identical write set would re-remove already-rewritten files.
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(IsRetryable(s.status()));
  EXPECT_EQ((*t2)->state(), LakehouseTxn::State::kAborted);

  // Only the winner's effect is visible; no intents left behind.
  EXPECT_EQ(w.Ids(kOrders), Range(10, 10));
  EXPECT_EQ(w.Tags(kOrders), (std::set<int64_t>{1}));
  EXPECT_EQ(w.IntentCount(), 0u);
  EXPECT_EQ(w.lake.sim().counters().Get("txn.conflicts"), 1u);

  // The canonical recovery: begin a fresh transaction on the new snapshot.
  auto t3 = w.blmt.BeginTransaction({kOrders});
  ASSERT_TRUE(t3.ok());
  ASSERT_TRUE(w.blmt
                  .TxnUpdate(t3->get(), "u", kOrders, IdLt(12),
                             {{"tag", Value::Int64(9)}})
                  .ok());
  ASSERT_TRUE(w.blmt.CommitTransaction(t3->get()).ok());
  EXPECT_EQ(w.Tags(kOrders), (std::set<int64_t>{1, 9}));
}

// Regression (stale-snapshot class): a rewrite whose predecessor rewrote the
// same file, committed, and crashed before applying must conflict. The
// conflict check has to see every committed record, so the coordinator
// applies the predecessor's record before it checks, not after.
TEST(TxnTest, RewriteAfterCrashedPredecessorRewriteConflicts) {
  TxnLakeWorld w;
  ASSERT_TRUE(w.blmt.MultiTableInsert("u", {{kOrders, w.TxnRows(0, 20, 1)}})
                  .ok());

  auto t1 = w.blmt.BeginTransaction({kOrders});
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(w.blmt.TxnDelete(t1->get(), "u", kOrders, IdLt(10)).ok());
  w.coord->set_crash_point(TxnCrashPoint::kAfterLogCas);
  ASSERT_EQ(w.blmt.CommitTransaction(t1->get()).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ((*t1)->state(), LakehouseTxn::State::kCommitted);

  // t2 pins a snapshot that still shows the file t1 rewrote.
  auto t2 = w.blmt.BeginTransaction({kOrders});
  ASSERT_TRUE(t2.ok());
  auto upd = w.blmt.TxnUpdate(t2->get(), "u", kOrders, IdLt(5),
                              {{"tag", Value::Int64(9)}});
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(*upd, 5u);
  auto s = w.blmt.CommitTransaction(t2->get());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kFailedPrecondition)
      << s.status().ToString();
  EXPECT_EQ((*t2)->state(), LakehouseTxn::State::kAborted);

  // t1 applied exactly once; t2 left no trace.
  EXPECT_EQ(w.Ids(kOrders), Range(10, 10));
  EXPECT_EQ(w.Tags(kOrders), (std::set<int64_t>{1}));
  EXPECT_EQ(w.lake.meta().txn_log_applied_seq(), 2u);
  EXPECT_EQ(w.coord->ReadLog()->size(), 2u);
  EXPECT_EQ(w.IntentCount(), 0u);
}

TEST(TxnTest, ConcurrentAppendsNeverConflict) {
  TxnLakeWorld w;
  auto t1 = w.blmt.BeginTransaction({kOrders, kItems});
  auto t2 = w.blmt.BeginTransaction({kOrders, kItems});
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(t1->get(), "u", kOrders, w.TxnRows(0, 5, 1)).ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(t1->get(), "u", kItems, w.TxnRows(0, 5, 1)).ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(t2->get(), "u", kOrders, w.TxnRows(100, 5, 2)).ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(t2->get(), "u", kItems, w.TxnRows(100, 5, 2)).ok());
  ASSERT_TRUE(w.blmt.CommitTransaction(t1->get()).ok());
  // t2 commits on a stale snapshot but only appends: no conflict.
  ASSERT_TRUE(w.blmt.CommitTransaction(t2->get()).ok());
  EXPECT_EQ(w.Tags(kOrders), (std::set<int64_t>{1, 2}));
  EXPECT_EQ(w.Tags(kItems), (std::set<int64_t>{1, 2}));
  EXPECT_EQ(w.lake.sim().counters().Get("txn.conflicts"), 0u);
}

TEST(TxnTest, SecondRewriteOfSameTableInOneTxnIsRejected) {
  TxnLakeWorld w;
  ASSERT_TRUE(w.blmt.MultiTableInsert("u", {{kOrders, w.TxnRows(0, 10, 1)}})
                  .ok());
  auto txn = w.blmt.BeginTransaction({kOrders});
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(w.blmt.TxnDelete(txn->get(), "u", kOrders, IdLt(3)).ok());
  auto s = w.blmt.TxnDelete(txn->get(), "u", kOrders, IdLt(5));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(w.blmt.AbortTransaction(txn->get()).ok());
}

// ---- Abort + intent GC -----------------------------------------------------

TEST(TxnTest, AbortLeavesNoTrace) {
  TxnLakeWorld w;
  auto txn = w.blmt.BeginTransaction({kOrders, kItems});
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(txn->get(), "u", kOrders, w.TxnRows(0, 5, 1)).ok());
  ASSERT_TRUE(w.blmt.AbortTransaction(txn->get()).ok());
  EXPECT_EQ((*txn)->state(), LakehouseTxn::State::kAborted);

  EXPECT_TRUE(w.Ids(kOrders).empty());
  auto log = w.coord->ReadLog();
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log->empty());
  EXPECT_EQ(w.IntentCount(), 0u);
  EXPECT_EQ(w.lake.sim().counters().Get("txn.aborts.user"), 1u);

  // Committing an aborted handle is rejected.
  EXPECT_EQ(w.blmt.CommitTransaction(txn->get()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TxnTest, CrashAfterIntentsIsInvisibleAndGcdByAge) {
  TxnLakeWorld w;
  auto txn = w.blmt.BeginTransaction({kOrders, kItems});
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(txn->get(), "u", kOrders, w.TxnRows(0, 5, 1)).ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(txn->get(), "u", kItems, w.TxnRows(0, 5, 1)).ok());

  w.coord->set_crash_point(TxnCrashPoint::kAfterIntents);
  auto s = w.blmt.CommitTransaction(txn->get());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kCancelled);
  EXPECT_EQ((*txn)->state(), LakehouseTxn::State::kAborted);

  // Not committed: no log record, nothing visible, but orphaned intents.
  EXPECT_TRUE(w.coord->ReadLog()->empty());
  EXPECT_TRUE(w.Ids(kOrders).empty());
  EXPECT_EQ(w.IntentCount(), 2u);
  // Recover() finds nothing to apply.
  auto recovered = w.coord->Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 0u);

  // Young uncommitted intents are spared (could be in flight)...
  ASSERT_TRUE(w.coord->GcOrphanedIntents().ok());
  EXPECT_EQ(w.IntentCount(), 2u);
  // ...but age out after intent_gc_min_age.
  w.lake.sim().clock().Advance(w.coord->options().intent_gc_min_age + 1);
  auto gced = w.coord->GcOrphanedIntents();
  ASSERT_TRUE(gced.ok());
  EXPECT_EQ(*gced, 2u);
  EXPECT_EQ(w.IntentCount(), 0u);
}

TEST(TxnTest, CrashAfterLogCasIsCommittedAndRecovered) {
  TxnLakeWorld w;
  auto txn = w.blmt.BeginTransaction({kOrders, kItems});
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(txn->get(), "u", kOrders, w.TxnRows(0, 6, 3)).ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(txn->get(), "u", kItems, w.TxnRows(0, 4, 3)).ok());

  w.coord->set_crash_point(TxnCrashPoint::kAfterLogCas);
  auto s = w.blmt.CommitTransaction(txn->get());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kCancelled);
  // The record is in the log: the transaction IS committed.
  EXPECT_EQ((*txn)->state(), LakehouseTxn::State::kCommitted);
  EXPECT_EQ(w.coord->ReadLog()->size(), 1u);
  // ...but not yet applied to Big Metadata.
  EXPECT_TRUE(w.Ids(kOrders).empty());
  EXPECT_TRUE(w.Ids(kItems).empty());

  auto recovered = w.coord->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, 1u);
  // Atomic visibility holds through recovery too.
  EXPECT_EQ(*w.lake.meta().TableGeneration(kOrders),
            *w.lake.meta().TableGeneration(kItems));
  EXPECT_EQ(w.Ids(kOrders), Range(0, 6));
  EXPECT_EQ(w.Ids(kItems), Range(0, 4));
  // Recovery also reclaimed the intents; a second Recover is a no-op.
  EXPECT_EQ(w.IntentCount(), 0u);
  EXPECT_EQ(*w.coord->Recover(), 0u);
  EXPECT_EQ(w.lake.sim().counters().Get("txn.recovered"), 1u);
}

// Regression (lost-writes class, found by the chaos sweep design): the
// applied-seq watermark is a high-water mark, so a successor commit applying
// before a crashed predecessor's record would strand the predecessor's
// writes forever. Commit must catch up in log order first.
TEST(TxnTest, SuccessorCommitAppliesCrashedPredecessorFirst) {
  TxnLakeWorld w;
  // txn1: committed in the log (seq 1) but crashed before applying.
  auto t1 = w.blmt.BeginTransaction({kOrders, kItems});
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(t1->get(), "u", kOrders, w.TxnRows(0, 3, 1)).ok());
  ASSERT_TRUE(
      w.blmt.TxnInsert(t1->get(), "u", kItems, w.TxnRows(0, 3, 1)).ok());
  w.coord->set_crash_point(TxnCrashPoint::kAfterLogCas);
  ASSERT_EQ(w.blmt.CommitTransaction(t1->get()).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ((*t1)->state(), LakehouseTxn::State::kCommitted);
  EXPECT_TRUE(w.Ids(kOrders).empty());  // durable but unapplied

  // txn2 (a different writer, no crash): its apply must pull txn1 in first.
  ASSERT_TRUE(w.blmt.MultiTableInsert("u", {{kOrders, w.TxnRows(100, 2, 2)}})
                  .ok());
  EXPECT_EQ(w.Tags(kOrders), (std::set<int64_t>{1, 2}));
  EXPECT_EQ(w.Tags(kItems), (std::set<int64_t>{1}));
  EXPECT_EQ(w.lake.meta().txn_log_applied_seq(), 2u);
  // Nothing left for Recover; txn1's intents were reclaimed by the catch-up.
  EXPECT_EQ(*w.coord->Recover(), 0u);
  EXPECT_EQ(w.IntentCount(), 0u);
  // txn1 applied before txn2: snapshot at the first generation shows tag 1.
  auto g1 = w.lake.meta().TableGeneration(kItems);
  ASSERT_TRUE(g1.ok());
  EXPECT_EQ(w.Tags(kOrders, *g1), (std::set<int64_t>{1}));
}

// ---- Commit cost -----------------------------------------------------------

/// One object-store counter of the default registry (the gcp store's).
uint64_t StoreCounter(const char* name, const obs::LabelSet& labels = {}) {
  obs::LabelSet all = labels;
  all.emplace_back("cloud", "gcp");
  return obs::MetricsRegistry::Default().GetCounter(name, all)->Value();
}

/// What one object-store interaction costs: bytes each way and requests.
struct StoreTraffic {
  uint64_t read_bytes = 0, write_bytes = 0;
  std::map<std::string, uint64_t> requests;  // by op

  static StoreTraffic Now() {
    StoreTraffic t;
    t.read_bytes = StoreCounter(METRIC_OBJSTORE_READ_BYTES);
    t.write_bytes = StoreCounter(METRIC_OBJSTORE_WRITE_BYTES);
    for (const char* op : {"put", "get", "get_range", "stat", "delete",
                           "list"}) {
      t.requests[op] = StoreCounter(METRIC_OBJSTORE_REQUESTS, {{"op", op}});
    }
    return t;
  }
  StoreTraffic Since(const StoreTraffic& before) const {
    StoreTraffic d;
    d.read_bytes = read_bytes - before.read_bytes;
    d.write_bytes = write_bytes - before.write_bytes;
    for (const auto& [op, n] : requests) {
      d.requests[op] = n - before.requests.at(op);
    }
    return d;
  }
};

/// Commits one coordinator-level transaction that adds one synthetic file
/// (no data object is written) to ds.orders.
Result<uint64_t> CommitSyntheticAppend(TxnLakeWorld& w, int n) {
  BL_ASSIGN_OR_RETURN(std::unique_ptr<LakehouseTxn> txn,
                      w.coord->BeginTransaction({kOrders}));
  CachedFileMeta f;
  char name[32];
  std::snprintf(name, sizeof(name), "orders/data/s-%06d.plk", n);
  f.file.path = name;
  f.file.size_bytes = 100;
  f.file.row_count = 1;
  txn->AddFiles(kOrders, {f});
  return w.coord->Commit(txn.get());
}

// A commit writes one record object and reads no history, so its
// object-store traffic does not grow with the log. Recovery reads forward
// from the applied watermark: one GET per unapplied record plus one NotFound
// probe, however long the log is.
TEST(TxnTest, CommitCostIsFlatInLogLength) {
  TxnLakeWorld w;
  int n = 0;
  auto commit_at = [&](int prior) {
    while (n < prior) {
      EXPECT_TRUE(CommitSyntheticAppend(w, n++).ok());
    }
    const StoreTraffic before = StoreTraffic::Now();
    EXPECT_TRUE(CommitSyntheticAppend(w, n++).ok());
    return StoreTraffic::Now().Since(before);
  };
  const StoreTraffic at_10 = commit_at(10);
  const StoreTraffic at_1000 = commit_at(1000);
  EXPECT_EQ(at_10.read_bytes, 0u);
  EXPECT_EQ(at_1000.read_bytes, at_10.read_bytes);
  EXPECT_EQ(at_1000.requests, at_10.requests);
  // One record put, one intent put, one intent delete.
  EXPECT_EQ(at_10.requests.at("put"), 2u);
  EXPECT_EQ(at_10.requests.at("delete"), 1u);
  // Written bytes are equal up to the widths of the counters a record and
  // its intent carry (seq, uid and snapshot txn go from two to four
  // digits): 8 bytes at most. Rewriting the log would add every prior
  // record.
  EXPECT_GE(at_1000.write_bytes, at_10.write_bytes);
  EXPECT_LE(at_1000.write_bytes, at_10.write_bytes + 8);

  // Crash the next commit after its record put, then recover.
  auto txn = w.coord->BeginTransaction({kOrders});
  ASSERT_TRUE(txn.ok());
  CachedFileMeta f;
  f.file.path = "orders/data/s-crashed.plk";
  (*txn)->AddFiles(kOrders, {f});
  w.coord->set_crash_point(TxnCrashPoint::kAfterLogCas);
  ASSERT_EQ(w.coord->Commit(txn->get()).status().code(),
            StatusCode::kCancelled);
  const uint64_t seq = w.lake.meta().txn_log_applied_seq() + 1;
  EXPECT_EQ(seq, 1002u);
  auto record = w.store->Stat(CallerContext{.location = w.gcp}, "lake",
                              w.coord->RecordObjectName(seq));
  ASSERT_TRUE(record.ok()) << record.status().ToString();

  const StoreTraffic before = StoreTraffic::Now();
  auto recovered = w.coord->Recover();
  const StoreTraffic recovery = StoreTraffic::Now().Since(before);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, 1u);
  EXPECT_EQ(recovery.requests.at("get"), 2u);  // the record + NotFound probe
  EXPECT_EQ(recovery.requests.at("list"), 0u);
  EXPECT_EQ(recovery.read_bytes, record->size);
  EXPECT_EQ(w.lake.meta().txn_log_applied_seq(), seq);
}

// ---- Fault transparency ----------------------------------------------------

TEST(TxnTest, SingleFaultAtEachTxnSiteIsAbsorbedByRetry) {
  for (FaultSite site : {FaultSite::kTxnIntent, FaultSite::kTxnLog}) {
    TxnLakeWorld w;
    FaultInjector* injector = FaultInjector::InstallOn(&w.lake.sim());
    injector->SetPlan(FaultPlan::FailNext(site));
    auto committed = w.blmt.MultiTableInsert(
        "u", {{kOrders, w.TxnRows(0, 5, 1)}, {kItems, w.TxnRows(0, 5, 1)}});
    ASSERT_TRUE(committed.ok())
        << FaultSiteName(site) << ": " << committed.status().ToString();
    EXPECT_GE(injector->injected(site), 1u) << FaultSiteName(site);
    injector->Clear();
    EXPECT_EQ(w.Ids(kOrders), Range(0, 5));
    EXPECT_EQ(w.Ids(kItems), Range(0, 5));
    EXPECT_EQ(w.IntentCount(), 0u);
    EXPECT_EQ(w.lake.sim().counters().Get("txn.commits"), 1u);
    EXPECT_EQ(w.lake.sim().counters().Get("txn.aborts"), 0u);
  }
}

// Regression (swallowed-status class): a fault during post-commit intent
// cleanup must not fail the commit, must not double-apply, and the orphan
// must be reclaimable. Pinned: FailNext(kObjDelete, 2) — both intent
// deletes of a two-table commit fail.
TEST(TxnTest, IntentDeleteFaultDoesNotFailCommittedTxn) {
  TxnLakeWorld w;
  FaultInjector* injector = FaultInjector::InstallOn(&w.lake.sim());
  injector->SetPlan(FaultPlan::FailNext(FaultSite::kObjDelete, /*count=*/2));
  auto committed = w.blmt.MultiTableInsert(
      "u", {{kOrders, w.TxnRows(0, 5, 1)}, {kItems, w.TxnRows(0, 5, 1)}});
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  injector->Clear();

  // Rows are visible exactly once; the commit looked clean to the caller.
  EXPECT_EQ(w.Ids(kOrders), Range(0, 5));
  EXPECT_EQ(w.Ids(kItems), Range(0, 5));
  EXPECT_GE(w.lake.sim().counters().Get("txn.intent_delete_failed"), 1u);

  // The orphaned intents belong to a *committed* uid: GC reclaims them
  // immediately, no aging required.
  EXPECT_EQ(w.IntentCount(), 2u);
  auto gced = w.coord->GcOrphanedIntents();
  ASSERT_TRUE(gced.ok());
  EXPECT_EQ(*gced, 2u);
  EXPECT_EQ(w.IntentCount(), 0u);
  // And nothing was double-applied.
  EXPECT_EQ(*w.coord->Recover(), 0u);
  EXPECT_EQ(w.Ids(kOrders), Range(0, 5));
}

// Exhausting the commit retry budget aborts cleanly: nothing committed,
// nothing visible, handle aborted — the op is safe to replay wholesale.
TEST(TxnTest, RetryBudgetExhaustionAbortsCleanly) {
  TxnLakeWorld w;
  FaultInjector* injector = FaultInjector::InstallOn(&w.lake.sim());
  injector->SetPlan(FaultPlan::FailNext(FaultSite::kTxnLog, /*count=*/100));
  auto s = w.blmt.MultiTableInsert(
      "u", {{kOrders, w.TxnRows(0, 5, 1)}, {kItems, w.TxnRows(0, 5, 1)}});
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(IsRetryable(s.status()) ||
              s.status().code() == StatusCode::kDeadlineExceeded)
      << s.status().ToString();
  injector->Clear();
  EXPECT_TRUE(w.Ids(kOrders).empty());
  EXPECT_TRUE(w.coord->ReadLog()->empty());
  EXPECT_EQ(w.IntentCount(), 0u);
  EXPECT_EQ(w.lake.sim().counters().Get("txn.aborts.fault"), 1u);

  // Wholesale replay succeeds.
  ASSERT_TRUE(w.blmt
                  .MultiTableInsert("u", {{kOrders, w.TxnRows(0, 5, 1)},
                                          {kItems, w.TxnRows(0, 5, 1)}})
                  .ok());
  EXPECT_EQ(w.Ids(kOrders), Range(0, 5));
}

// ---- Cache coherence -------------------------------------------------------

TEST(TxnTest, CommitInvalidatesResultCacheAtomically) {
  TxnLakeWorld w;
  ASSERT_TRUE(w.blmt
                  .MultiTableInsert("u", {{kOrders, w.TxnRows(0, 6, 1)},
                                          {kItems, w.TxnRows(0, 6, 1)}})
                  .ok());
  EngineOptions opts;
  opts.enable_result_cache = true;
  opts.max_read_streams = 2;
  QueryEngine engine(&w.lake, &w.api, opts);
  PlanPtr join = Plan::HashJoin(Plan::Scan(kOrders), Plan::Scan(kItems),
                                {"id"}, {"id"});
  auto warm = engine.Execute("u", join);
  ASSERT_TRUE(warm.ok());
  auto hit = engine.Execute("u", join);
  ASSERT_TRUE(hit.ok());
  EXPECT_GE(w.lake.result_cache().Stats().hits, 1u);

  // A transactional commit touching both tables moves both generations and
  // invalidates their entries in one step.
  ASSERT_TRUE(w.blmt
                  .MultiTableInsert("u", {{kOrders, w.TxnRows(100, 3, 2)},
                                          {kItems, w.TxnRows(100, 3, 2)}})
                  .ok());
  const uint64_t hits_before = w.lake.result_cache().Stats().hits;
  auto fresh = engine.Execute("u", join);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(w.lake.result_cache().Stats().hits, hits_before);  // miss
  EXPECT_EQ(fresh->batch.num_rows(), 9u);
}

// ---- Storage optimization --------------------------------------------------

/// Sorted live paths of a snapshot.
std::vector<std::string> Paths(
    const Result<std::vector<CachedFileMeta>>& files) {
  EXPECT_TRUE(files.ok());
  std::vector<std::string> paths;
  if (!files.ok()) return paths;
  for (const CachedFileMeta& f : *files) paths.push_back(f.file.path);
  std::sort(paths.begin(), paths.end());
  return paths;
}

// OptimizeStorage is a rewrite, so on a transactional environment it commits
// through the log like every other BLMT rewrite: replaying the log into an
// empty store reproduces the optimized file set of a table written only by
// transactions.
TEST(TxnTest, OptimizeCommitsThroughTheLogSoReplayMatchesLive) {
  TxnLakeWorld w;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(w.blmt
                    .MultiTableInsert("u", {{kOrders, w.TxnRows(i * 10, 10,
                                                                 i + 1)}})
                    .ok());
  }
  auto report = w.blmt.OptimizeStorage(kOrders);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_coalesced, 4u);
  EXPECT_EQ(w.Ids(kOrders), Range(0, 40));

  auto log = w.coord->ReadLog();
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 5u);
  ASSERT_EQ(log->back().tables.size(), 1u);
  EXPECT_EQ(log->back().tables[0].removes.size(), 4u);
  SimEnv fresh_env;
  BigMetadataStore fresh(&fresh_env);
  ASSERT_TRUE(TxnCoordinator::Replay(*log, &fresh).ok());
  EXPECT_EQ(Paths(w.lake.meta().Snapshot(kOrders)),
            Paths(fresh.Snapshot(kOrders)));
}

// ---- Log record decoding ---------------------------------------------------

// A count larger than the bytes left cannot be honest (every element takes
// at least one byte): the decoder reports DataLoss before sizing anything
// from it, instead of throwing std::length_error or allocating 2^60 slots.
TEST(TxnLogDecodeTest, CorruptCountIsDataLoss) {
  const uint64_t kHuge = uint64_t{1} << 60;
  for (int field = 0; field < 3; ++field) {
    std::string bytes;
    PutVarint64(&bytes, 1);             // seq
    PutLengthPrefixed(&bytes, "t1");    // uid
    PutVarint64(&bytes, field == 0 ? kHuge : 1);  // tables
    PutLengthPrefixed(&bytes, kOrders);
    PutVarint64(&bytes, field == 1 ? kHuge : 0);  // adds
    PutVarint64(&bytes, field == 2 ? kHuge : 0);  // removes
    Decoder dec(bytes);
    TxnLogRecord rec;
    Status s = meta::DecodeTxnLogRecord(&dec, &rec);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << field << ": " << s.ToString();
  }
  std::string schema;
  PutVarint64(&schema, kHuge);
  Decoder dec(schema);
  EXPECT_EQ(DecodeSchema(&dec).status().code(), StatusCode::kDataLoss);
}

TEST(TxnLogDecodeTest, EveryTruncationOfAMultiTableRecordFailsCleanly) {
  TxnLogRecord rec;
  rec.seq = 7;
  rec.uid = "t7";
  for (const char* table : {kItems, kOrders}) {
    meta::TxnTableOps ops;
    ops.table_id = table;
    CachedFileMeta f;
    f.file.path = StrCat(table, "/data/blmt-3.plk");
    f.file.size_bytes = 1234;
    f.file.row_count = 10;
    f.file.partition = {{"date", Value::Int64(20240101)}};
    f.file.column_stats["id"] = {Value::Int64(0), Value::Int64(9), 0, 10, 10};
    f.content_type = "application/x-parquet-lite";
    f.create_time = 5;
    f.generation = 2;
    ops.adds.push_back(f);
    ops.removes = {StrCat(table, "/data/blmt-1.plk"),
                   StrCat(table, "/data/blmt-2.plk")};
    rec.tables.push_back(std::move(ops));
  }
  std::string bytes;
  meta::EncodeTxnLogRecord(&bytes, rec);

  Decoder whole(bytes);
  TxnLogRecord back;
  ASSERT_TRUE(meta::DecodeTxnLogRecord(&whole, &back).ok());
  std::string again;
  meta::EncodeTxnLogRecord(&again, back);
  EXPECT_EQ(again, bytes);

  for (size_t n = 0; n < bytes.size(); ++n) {
    Decoder dec(std::string_view(bytes).substr(0, n));
    TxnLogRecord out;
    EXPECT_FALSE(meta::DecodeTxnLogRecord(&dec, &out).ok()) << "prefix " << n;
  }

  // The same bytes as a record object: ReadLog and Recover report DataLoss
  // for every truncated prefix, for a record whose seq is not its name's,
  // and for trailing bytes; the whole record at its own name reads back.
  TxnLakeWorld w;
  const CallerContext caller{.location = w.gcp};
  const std::string name = w.coord->RecordObjectName(rec.seq);
  for (uint64_t seq = 1; seq < rec.seq; ++seq) {
    TxnLogRecord empty;
    empty.seq = seq;
    std::string body;
    meta::EncodeTxnLogRecord(&body, empty);
    ASSERT_TRUE(
        w.store->Put(caller, "lake", w.coord->RecordObjectName(seq), body)
            .ok());
  }
  ASSERT_TRUE(w.coord->Recover().ok());  // applies the six empty records
  auto read_as_record = [&](std::string body) {
    // Delete + create: replacing one object this often would hit the
    // store's per-object mutation rate limit.
    (void)w.store->Delete(caller, "lake", name);
    EXPECT_TRUE(w.store->Put(caller, "lake", name, std::move(body)).ok());
    Status log = w.coord->ReadLog().status();
    Status recovered = w.coord->Recover().status();
    EXPECT_EQ(recovered.code(), log.code()) << recovered.ToString();
    return log;
  };
  for (size_t n = 0; n < bytes.size(); ++n) {
    Status s = read_as_record(bytes.substr(0, n));
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << "prefix " << n << ": "
                                               << s.ToString();
  }
  EXPECT_EQ(read_as_record(bytes + "x").code(), StatusCode::kDataLoss);
  TxnLogRecord other = rec;
  other.seq = rec.seq + 1;
  std::string other_bytes;
  meta::EncodeTxnLogRecord(&other_bytes, other);
  EXPECT_EQ(read_as_record(other_bytes).code(), StatusCode::kDataLoss);

  ASSERT_TRUE(w.store->Delete(caller, "lake", name).ok());
  EXPECT_TRUE(w.store->Put(caller, "lake", name, bytes).ok());
  auto log = w.coord->ReadLog();
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(log->size(), rec.seq);
  std::string read_back;
  meta::EncodeTxnLogRecord(&read_back, log->back());
  EXPECT_EQ(read_back, bytes);
}

// ReadLog accepts exactly the names 1..n under the log prefix: a gap or a
// foreign object there is DataLoss, not a silently shorter log.
TEST(TxnLogDecodeTest, GapOrForeignObjectInLogIsDataLoss) {
  TxnLakeWorld w;
  ASSERT_TRUE(w.blmt.MultiTableInsert("u", {{kOrders, w.TxnRows(0, 2, 1)}})
                  .ok());
  ASSERT_EQ(w.coord->ReadLog()->size(), 1u);
  const CallerContext caller{.location = w.gcp};
  TxnLogRecord third;
  third.seq = 3;
  std::string body;
  meta::EncodeTxnLogRecord(&body, third);
  ASSERT_TRUE(
      w.store->Put(caller, "lake", w.coord->RecordObjectName(3), body).ok());
  EXPECT_EQ(w.coord->ReadLog().status().code(), StatusCode::kDataLoss);
  ASSERT_TRUE(
      w.store->Delete(caller, "lake", w.coord->RecordObjectName(3)).ok());
  ASSERT_TRUE(w.store
                  ->Put(caller, "lake", w.coord->options().prefix + "log/x",
                        body)
                  .ok());
  EXPECT_EQ(w.coord->ReadLog().status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace biglake

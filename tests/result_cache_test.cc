// Query result cache (src/cache/result_cache.h + engine/plan_fingerprint.h):
// key canonicality (semantically distinct plans / snapshots / principals /
// knobs never alias), invalidation through every commit path, deterministic
// worker-count-independent hit accounting, and TinyLFU admission.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "columnar/ipc.h"
#include "core/biglake.h"
#include "core/blmt.h"
#include "core/environment.h"
#include "core/read_api.h"
#include "core/write_api.h"
#include "engine/engine.h"
#include "engine/plan_fingerprint.h"
#include "obs/profile.h"
#include "lakehouse_fixture.h"

namespace biglake {
namespace {

using cache::AdmissionPolicy;
using cache::ResultCache;
using cache::ResultCacheOptions;
using cache::ResultCacheStats;

// ---- Plan / knob fingerprint canonicality ---------------------------------

ExprPtr IdLt(int64_t n) {
  return Expr::Lt(Expr::Col("id"), Expr::Lit(Value::Int64(n)));
}

TEST(PlanFingerprintTest, SemanticallyDistinctPlansNeverAlias) {
  // Every pair below differs in exactly one semantic detail (literal value,
  // operator, column order, limit, sort direction, agg op, node placement);
  // all fingerprints must be pairwise distinct.
  std::vector<PlanPtr> plans;
  plans.push_back(Plan::Scan("ds.t"));
  plans.push_back(Plan::Scan("ds.u"));
  plans.push_back(Plan::Scan("ds.t", {"a"}));
  plans.push_back(Plan::Scan("ds.t", {"a", "b"}));
  plans.push_back(Plan::Scan("ds.t", {"b", "a"}));  // order shapes the schema
  plans.push_back(Plan::Scan("ds.t", {}, IdLt(5)));
  plans.push_back(Plan::Scan("ds.t", {}, IdLt(6)));
  plans.push_back(
      Plan::Scan("ds.t", {},
                 Expr::Le(Expr::Col("id"), Expr::Lit(Value::Int64(5)))));
  // Filter above a scan is not the same plan as a scan predicate.
  plans.push_back(Plan::Filter(Plan::Scan("ds.t"), IdLt(5)));
  plans.push_back(Plan::Limit(Plan::Scan("ds.t"), 10));
  plans.push_back(Plan::Limit(Plan::Scan("ds.t"), 11));
  plans.push_back(Plan::OrderBy(Plan::Scan("ds.t"), {{"a", false}}));
  plans.push_back(Plan::OrderBy(Plan::Scan("ds.t"), {{"a", true}}));
  plans.push_back(Plan::Aggregate(Plan::Scan("ds.t"), {"a"},
                                  {{AggOp::kCount, "b", "n"}}));
  plans.push_back(Plan::Aggregate(Plan::Scan("ds.t"), {"a"},
                                  {{AggOp::kSum, "b", "n"}}));
  plans.push_back(Plan::Aggregate(Plan::Scan("ds.t"), {"b"},
                                  {{AggOp::kCount, "b", "n"}}));
  plans.push_back(Plan::HashJoin(Plan::Scan("ds.t"), Plan::Scan("ds.u"),
                                 {"a"}, {"a"}));
  plans.push_back(Plan::HashJoin(Plan::Scan("ds.t"), Plan::Scan("ds.u"),
                                 {"a"}, {"b"}));
  plans.push_back(Plan::HashJoin(Plan::Scan("ds.u"), Plan::Scan("ds.t"),
                                 {"a"}, {"a"}));
  plans.push_back(
      Plan::Project(Plan::Scan("ds.t"), {"x"}, {Expr::Col("a")}));
  plans.push_back(
      Plan::Project(Plan::Scan("ds.t"), {"y"}, {Expr::Col("a")}));

  std::set<uint64_t> fps;
  for (const PlanPtr& p : plans) {
    uint64_t fp = PlanFingerprint(*p);
    EXPECT_TRUE(fps.insert(fp).second)
        << "fingerprint collision on:\n" << p->ToString();
  }
  // And the fingerprint is a pure function of the plan: an independently
  // built identical tree hashes identically.
  EXPECT_EQ(PlanFingerprint(*Plan::Scan("ds.t", {}, IdLt(5))),
            PlanFingerprint(*Plan::Scan("ds.t", {}, IdLt(5))));
}

TEST(PlanFingerprintTest, KnobFingerprintTracksRowShapingKnobsOnly) {
  EngineOptions a;
  a.max_read_streams = 8;
  EngineOptions b = a;

  // Pool size alone never shapes rows once the stream fan-out is pinned.
  b.num_workers = 2;
  EXPECT_EQ(EngineKnobFingerprint(a), EngineKnobFingerprint(b));
  // Pure cost knobs don't shape rows either.
  b.cpu_micros_per_value = 99.0;
  EXPECT_EQ(EngineKnobFingerprint(a), EngineKnobFingerprint(b));

  // With max_read_streams = 0 the *effective* fan-out is num_workers.
  EngineOptions c, d;
  c.max_read_streams = 0;
  d.max_read_streams = 0;
  c.num_workers = 2;
  d.num_workers = 8;
  EXPECT_NE(EngineKnobFingerprint(c), EngineKnobFingerprint(d));

  b = a;
  b.dynamic_partition_pruning = !a.dynamic_partition_pruning;
  EXPECT_NE(EngineKnobFingerprint(a), EngineKnobFingerprint(b));
  b = a;
  b.use_table_stats = !a.use_table_stats;
  EXPECT_NE(EngineKnobFingerprint(a), EngineKnobFingerprint(b));
  b = a;
  b.engine_location = {CloudProvider::kAWS, "us-east-1"};
  EXPECT_NE(EngineKnobFingerprint(a), EngineKnobFingerprint(b));
}

// ---- Full key composition (needs a metadata store) ------------------------

class ResultCacheEngineTest : public LakehouseFixture {
 protected:
  ResultCacheEngineTest() : api_(&lake_), blmt_(&lake_) {}

  void MakeBlmt(const std::string& name, const std::string& prefix) {
    TableDef def;
    def.dataset = "ds";
    def.name = name;
    def.schema = SalesSchema();
    def.connection = "us.lake-conn";
    def.location = gcp_;
    def.bucket = "lake";
    def.prefix = prefix;
    def.iam.Grant("*", Role::kWriter);
    ASSERT_TRUE(blmt_.CreateTable(def).ok());
  }

  EngineOptions CachedOptions() {
    EngineOptions opts;
    opts.num_workers = 2;
    opts.max_read_streams = 8;
    opts.enable_result_cache = true;
    return opts;
  }

  /// Live file paths of `table_id`, sorted.
  std::set<std::string> LivePaths(const std::string& table_id) {
    auto files = lake_.meta().Snapshot(table_id);
    EXPECT_TRUE(files.ok());
    std::set<std::string> paths;
    if (files.ok()) {
      for (const CachedFileMeta& f : *files) paths.insert(f.file.path);
    }
    return paths;
  }

  // Every commit path moves the snapshot generation (so the old key becomes
  // unreachable) AND eagerly reclaims dependent entries via InvalidateTable,
  // and drops every removed file's cached blocks and footer. After each
  // mutation the cached engine must agree with a cache-free one.
  void CheckEveryCommitPathInvalidates();

  StorageReadApi api_;
  BlmtService blmt_;
};

TEST_F(ResultCacheEngineTest, KeyBindsPrincipalPlanKnobsAndGenerations) {
  MakeBlmt("k", "k/");
  ASSERT_TRUE(blmt_.Insert("u", "ds.k", SalesBatch(10, 0, 1)).ok());
  EngineOptions opts = CachedOptions();
  PlanPtr scan = Plan::Scan("ds.k");

  PlanCacheKey base = MakeResultCacheKey("alice", *scan, opts, lake_.meta());
  ASSERT_TRUE(base.cacheable);
  ASSERT_EQ(base.tables, std::vector<std::string>{"ds.k"});

  // Deterministic: same inputs, same key.
  EXPECT_EQ(base.key,
            MakeResultCacheKey("alice", *scan, opts, lake_.meta()).key);
  // Principal is bound (row policies / masking make results principal-
  // dependent), and length-prefixed so crafted names can't splice.
  EXPECT_NE(base.key,
            MakeResultCacheKey("bob", *scan, opts, lake_.meta()).key);
  EXPECT_NE(MakeResultCacheKey("a|f1", *scan, opts, lake_.meta()).key,
            MakeResultCacheKey("a", *scan, opts, lake_.meta()).key);
  // Row-shaping knobs are bound.
  EngineOptions other = opts;
  other.max_read_streams = 4;
  EXPECT_NE(base.key,
            MakeResultCacheKey("alice", *scan, other, lake_.meta()).key);
  // Any commit moves the generation, and with it the key: stale entries are
  // unreachable by construction.
  ASSERT_TRUE(blmt_.Insert("u", "ds.k", SalesBatch(5, 100, 2)).ok());
  PlanCacheKey bumped = MakeResultCacheKey("alice", *scan, opts, lake_.meta());
  ASSERT_TRUE(bumped.cacheable);
  EXPECT_NE(base.key, bumped.key);

  // Uncacheable shapes: unknown table, opaque Map transform.
  EXPECT_FALSE(MakeResultCacheKey("alice", *Plan::Scan("ds.nope"), opts,
                                  lake_.meta())
                   .cacheable);
  PlanPtr mapped = Plan::Map(
      Plan::Scan("ds.k"), "opaque",
      [](const RecordBatch& b) -> Result<RecordBatch> { return b; });
  EXPECT_FALSE(
      MakeResultCacheKey("alice", *mapped, opts, lake_.meta()).cacheable);
}

// ---- Engine integration ---------------------------------------------------

TEST_F(ResultCacheEngineTest, WarmHitIsRowIdenticalAndCheaper) {
  MakeBlmt("warm", "warm/");
  ASSERT_TRUE(blmt_.Insert("u", "ds.warm", SalesBatch(200, 0, 7)).ok());
  QueryEngine engine(&lake_, &api_, CachedOptions());

  auto cold = engine.Execute("u", Plan::Scan("ds.warm"));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ResultCacheStats after_cold = lake_.result_cache().Stats();
  EXPECT_EQ(after_cold.misses, 1u);
  EXPECT_EQ(after_cold.inserts, 1u);

  auto warm = engine.Execute("u", Plan::Scan("ds.warm"));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ResultCacheStats after_warm = lake_.result_cache().Stats();
  EXPECT_EQ(after_warm.hits, 1u);
  EXPECT_EQ(after_warm.inserts, 1u);  // the hit did not re-insert
  // Bit-identical rows, dramatically cheaper virtual time.
  EXPECT_EQ(SerializeBatch(warm->batch), SerializeBatch(cold->batch));
  EXPECT_LT(warm->stats.total_micros, cold->stats.total_micros / 10);
  // The hit path is serial: analytic wall == total resource time.
  EXPECT_EQ(warm->stats.wall_micros, warm->stats.total_micros);
}

TEST_F(ResultCacheEngineTest, CacheOnAndOffAreRowIdentical) {
  MakeBlmt("onoff", "onoff/");
  ASSERT_TRUE(blmt_.Insert("u", "ds.onoff", SalesBatch(150, 0, 3)).ok());
  EngineOptions plain;
  plain.num_workers = 2;
  plain.max_read_streams = 8;
  QueryEngine uncached(&lake_, &api_, plain);
  QueryEngine cached(&lake_, &api_, CachedOptions());

  std::vector<PlanPtr> queries;
  queries.push_back(Plan::Scan("ds.onoff"));
  queries.push_back(Plan::Aggregate(Plan::Scan("ds.onoff"), {"region"},
                                    {{AggOp::kSum, "qty", "total"},
                                     {AggOp::kCount, "id", "n"}}));
  queries.push_back(
      Plan::OrderBy(Plan::Scan("ds.onoff", {}, IdLt(40)), {{"id", true}}));
  for (const PlanPtr& q : queries) {
    auto reference = uncached.Execute("u", q);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    auto first = cached.Execute("u", q);
    auto second = cached.Execute("u", q);  // served from cache
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(SerializeBatch(first->batch), SerializeBatch(reference->batch));
    EXPECT_EQ(SerializeBatch(second->batch),
              SerializeBatch(reference->batch));
  }
  EXPECT_EQ(lake_.result_cache().Stats().hits, queries.size());
}

TEST_F(ResultCacheEngineTest, DifferentPrincipalsNeverShareEntries) {
  MakeBlmt("iso", "iso/");
  ASSERT_TRUE(blmt_.Insert("u", "ds.iso", SalesBatch(50, 0, 5)).ok());
  QueryEngine engine(&lake_, &api_, CachedOptions());

  ASSERT_TRUE(engine.Execute("alice", Plan::Scan("ds.iso")).ok());
  ASSERT_TRUE(engine.Execute("alice", Plan::Scan("ds.iso")).ok());
  ResultCacheStats mid = lake_.result_cache().Stats();
  EXPECT_EQ(mid.hits, 1u);
  // Same plan, different principal: must be a miss and its own entry.
  ASSERT_TRUE(engine.Execute("bob", Plan::Scan("ds.iso")).ok());
  ResultCacheStats end = lake_.result_cache().Stats();
  EXPECT_EQ(end.hits, 1u);
  EXPECT_EQ(end.misses, mid.misses + 1);
  EXPECT_EQ(end.entries, 2u);
}

// The commit-path check runs with transactions off and on: both routes of
// the one BLMT commit routine — direct, and through the txn log — must meet
// the same assertions.
void ResultCacheEngineTest::CheckEveryCommitPathInvalidates() {
  MakeBlmt("mut", "mut/");
  ASSERT_TRUE(blmt_.Insert("u", "ds.mut", SalesBatch(120, 0, 9)).ok());
  EngineOptions cached = CachedOptions();
  cached.enable_block_cache = true;
  QueryEngine engine(&lake_, &api_, cached);
  EngineOptions plain;
  plain.num_workers = 2;
  plain.max_read_streams = 8;
  QueryEngine uncached(&lake_, &api_, plain);
  ResultCache& rc = lake_.result_cache();

  auto warm_then = [&](const char* what, auto&& mutate) {
    SCOPED_TRACE(what);
    ASSERT_TRUE(engine.Execute("u", Plan::Scan("ds.mut")).ok());  // cold
    ASSERT_TRUE(engine.Execute("u", Plan::Scan("ds.mut")).ok());  // warm it
    uint64_t inv_before = rc.Stats().invalidations;
    uint64_t hits_before = rc.Stats().hits;
    const char* cloud = CloudProviderName(gcp_.provider);
    auto footer_key = [&](const CachedFileMeta& f) {
      return cache::FooterKey(
          cache::ObjectKeyPrefix(cloud, "lake", f.file.path), f.generation);
    };
    auto files_before = lake_.meta().Snapshot("ds.mut");
    ASSERT_TRUE(files_before.ok());
    std::set<std::string> cached_before;
    for (const CachedFileMeta& f : *files_before) {
      if (lake_.block_cache().GetFooter(footer_key(f)) != nullptr) {
        cached_before.insert(f.file.path);
      }
    }
    mutate();
    // The commit eagerly dropped the dependent entry...
    EXPECT_GT(rc.Stats().invalidations, inv_before);
    // ...and every removed file's footer and blocks, which the cold scan
    // had cached, left the block cache.
    const std::set<std::string> live_after = LivePaths("ds.mut");
    for (const CachedFileMeta& f : *files_before) {
      if (live_after.count(f.file.path) > 0) continue;
      EXPECT_EQ(cached_before.count(f.file.path), 1u) << f.file.path;
      EXPECT_EQ(lake_.block_cache().GetFooter(footer_key(f)), nullptr)
          << f.file.path;
      EXPECT_EQ(
          lake_.block_cache().InvalidateObject(cloud, "lake", f.file.path), 0u)
          << f.file.path;
    }
    // ...and the next scan is a miss that agrees with a cache-free engine.
    auto fresh = engine.Execute("u", Plan::Scan("ds.mut"));
    auto reference = uncached.Execute("u", Plan::Scan("ds.mut"));
    ASSERT_TRUE(fresh.ok() && reference.ok());
    EXPECT_EQ(rc.Stats().hits, hits_before);
    EXPECT_EQ(SerializeBatch(fresh->batch), SerializeBatch(reference->batch));
  };

  warm_then("blmt_insert", [&] {
    ASSERT_TRUE(blmt_.Insert("u", "ds.mut", SalesBatch(30, 1000, 11)).ok());
  });
  warm_then("blmt_delete", [&] {
    auto n = blmt_.Delete("u", "ds.mut", IdLt(20));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 20u);
  });
  warm_then("blmt_update", [&] {
    auto n = blmt_.Update("u", "ds.mut", IdLt(40),
                          {{"qty", Value::Int64(77)}});
    ASSERT_TRUE(n.ok());
    EXPECT_GT(*n, 0u);
  });
  warm_then("blmt_optimize", [&] {
    auto report = blmt_.OptimizeStorage("ds.mut");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  });
  warm_then("write_api_commit", [&] {
    StorageWriteApi write_api(&lake_);
    auto stream =
        write_api.CreateWriteStream("u", "ds.mut", WriteMode::kPending);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(write_api.AppendRows(*stream, SalesBatch(25, 5000, 13)).ok());
    ASSERT_TRUE(write_api.FinalizeStream(*stream).ok());
    ASSERT_TRUE(write_api.BatchCommit({*stream}).ok());
  });
  warm_then("write_api_committed_flush", [&] {
    StorageWriteApi write_api(&lake_);
    auto stream =
        write_api.CreateWriteStream("u", "ds.mut", WriteMode::kCommitted);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(write_api.AppendRows(*stream, SalesBatch(10, 9000, 17)).ok());
    ASSERT_TRUE(write_api.FinalizeStream(*stream).ok());
  });

  // GC deletes dead objects left behind by the rewrites above once they age
  // past gc_min_age; that, too, invalidates (the snapshot it serves did not
  // change rows, but reclaiming is cheap and the generation key is what
  // guarantees correctness anyway).
  ASSERT_TRUE(engine.Execute("u", Plan::Scan("ds.mut")).ok());
  ASSERT_TRUE(engine.Execute("u", Plan::Scan("ds.mut")).ok());
  uint64_t inv_before = rc.Stats().invalidations;
  lake_.sim().clock().Advance(20'000'000);  // age past gc_min_age
  auto gc = blmt_.GarbageCollect("ds.mut");
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  ASSERT_GT(gc->objects_deleted, 0u);
  EXPECT_GT(rc.Stats().invalidations, inv_before);
}

TEST_F(ResultCacheEngineTest, EveryCommitPathInvalidatesDependentEntries) {
  CheckEveryCommitPathInvalidates();
}

TEST_F(ResultCacheEngineTest, EveryTxnCommitPathInvalidatesDependentEntries) {
  lake_.EnableTransactions(store_, "lake");
  CheckEveryCommitPathInvalidates();
}

TEST_F(ResultCacheEngineTest, MultiTableQueryInvalidatedByEitherTable) {
  MakeBlmt("fact", "fact/");
  MakeBlmt("dim", "dim/");
  ASSERT_TRUE(blmt_.Insert("u", "ds.fact", SalesBatch(80, 0, 21)).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.dim", SalesBatch(20, 0, 22)).ok());
  QueryEngine engine(&lake_, &api_, CachedOptions());
  PlanPtr join = Plan::HashJoin(Plan::Scan("ds.dim"), Plan::Scan("ds.fact"),
                                {"id"}, {"id"});

  ASSERT_TRUE(engine.Execute("u", join).ok());
  ASSERT_TRUE(engine.Execute("u", join).ok());
  EXPECT_EQ(lake_.result_cache().Stats().hits, 1u);
  // A commit to *either* side drops the joined entry.
  ASSERT_TRUE(blmt_.Insert("u", "ds.dim", SalesBatch(5, 500, 23)).ok());
  EXPECT_EQ(lake_.result_cache().Stats().entries, 0u);
  ASSERT_TRUE(engine.Execute("u", join).ok());
  EXPECT_EQ(lake_.result_cache().Stats().hits, 1u);  // miss, not a stale hit
}

// ---- Unit: capacity, LRU, TinyLFU admission -------------------------------

std::shared_ptr<const RecordBatch> MakeResult(size_t rows, int64_t base) {
  BatchBuilder b(MakeSchema({{"id", DataType::kInt64, false}}));
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        b.AppendRow({Value::Int64(base + static_cast<int64_t>(i))}).ok());
  }
  return std::make_shared<const RecordBatch>(b.Finish());
}

TEST(ResultCacheUnitTest, LruEvictsOldestWhenOverCapacity) {
  LakehouseEnv lake;
  auto probe = MakeResult(32, 0);
  uint64_t bytes = probe->MemoryBytes();
  ResultCacheOptions opts;
  opts.shard_count = 1;
  opts.capacity_bytes = 2 * bytes + bytes / 2;
  lake.ConfigureResultCache(opts);
  ResultCache& rc = lake.result_cache();

  rc.Put("q1", {"t"}, MakeResult(32, 0));
  rc.Put("q2", {"t"}, MakeResult(32, 100));
  EXPECT_NE(rc.Get("q1"), nullptr);  // q2 is now least recent
  rc.Put("q3", {"t"}, MakeResult(32, 200));
  EXPECT_EQ(rc.Get("q2"), nullptr);
  EXPECT_NE(rc.Get("q1"), nullptr);
  EXPECT_NE(rc.Get("q3"), nullptr);
  ResultCacheStats stats = rc.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes_pinned, opts.capacity_bytes);
}

TEST(ResultCacheUnitTest, InvalidateTableDropsExactlyDependents) {
  LakehouseEnv lake;
  ResultCacheOptions opts;
  opts.capacity_bytes = 16 << 20;
  lake.ConfigureResultCache(opts);
  ResultCache& rc = lake.result_cache();
  rc.Put("qa", {"ds.a"}, MakeResult(8, 0));
  rc.Put("qb", {"ds.b"}, MakeResult(8, 0));
  rc.Put("qab", {"ds.a", "ds.b"}, MakeResult(8, 0));

  EXPECT_EQ(rc.InvalidateTable("ds.a"), 2u);
  EXPECT_EQ(rc.Get("qa"), nullptr);
  EXPECT_EQ(rc.Get("qab"), nullptr);
  EXPECT_NE(rc.Get("qb"), nullptr);
  EXPECT_EQ(rc.InvalidateTable("ds.a"), 0u);  // index is exact, no residue
  EXPECT_EQ(rc.Stats().invalidations, 2u);
}

TEST(ResultCacheUnitTest, TinyLfuKeepsHotDashboardsOverOneOffQueries) {
  LakehouseEnv lake;
  auto probe = MakeResult(32, 0);
  uint64_t bytes = probe->MemoryBytes();
  ResultCacheOptions opts;
  opts.shard_count = 1;
  opts.capacity_bytes = 2 * bytes + bytes / 2;
  opts.admission_policy = AdmissionPolicy::kTinyLfu;
  lake.ConfigureResultCache(opts);
  ResultCache& rc = lake.result_cache();

  rc.Put("dash1", {"t"}, MakeResult(32, 0));
  rc.Put("dash2", {"t"}, MakeResult(32, 100));
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(rc.Get("dash1"), nullptr);
    EXPECT_NE(rc.Get("dash2"), nullptr);
  }
  // A parade of ad-hoc one-off results must not displace the dashboards.
  for (int i = 0; i < 6; ++i) {
    std::string key = "oneoff" + std::to_string(i);
    EXPECT_EQ(rc.Get(key), nullptr);
    rc.Put(key, {"t"}, MakeResult(32, 1000 + i));
  }
  EXPECT_NE(rc.Get("dash1"), nullptr);
  EXPECT_NE(rc.Get("dash2"), nullptr);
  EXPECT_GT(rc.Stats().admission_rejections, 0u);
}

// ---- Determinism: hit accounting across worker counts ---------------------

// A self-contained world (one per run: virtual clocks must start equal).
struct CacheWorld {
  LakehouseEnv lake;
  CloudLocation gcp{CloudProvider::kGCP, "us-central1"};
  StorageReadApi api;
  BlmtService blmt;

  CacheWorld() : api(&lake), blmt(&lake) {
    ObjectStore* store = lake.AddStore(gcp);
    EXPECT_TRUE(store->CreateBucket("lake").ok());
    EXPECT_TRUE(lake.catalog().CreateDataset("ds").ok());
    Connection conn;
    conn.name = "us.lake-conn";
    conn.service_account.principal = "sa:lake-conn";
    EXPECT_TRUE(lake.catalog().CreateConnection(conn).ok());
    TableDef def;
    def.dataset = "ds";
    def.name = "t";
    def.schema = MakeSchema({{"id", DataType::kInt64, false},
                             {"v", DataType::kDouble, true}});
    def.connection = "us.lake-conn";
    def.location = gcp;
    def.bucket = "lake";
    def.prefix = "t/";
    def.iam.Grant("*", Role::kWriter);
    EXPECT_TRUE(blmt.CreateTable(def).ok());
    BatchBuilder b(def.schema);
    for (int64_t i = 0; i < 300; ++i) {
      EXPECT_TRUE(b.AppendRow({Value::Int64(i),
                               Value::Double(static_cast<double>(i) * 0.25)})
                      .ok());
    }
    EXPECT_TRUE(blmt.Insert("u", "ds.t", b.Finish()).ok());
  }
};

TEST(ResultCacheDeterminismTest, HitRunsAreByteIdenticalAcrossWorkerCounts) {
  obs::ProfileExportOptions det;
  det.include_wall = false;
  det.pretty = false;

  struct Run {
    std::string cold_rows, warm_rows, warm_profile;
    uint64_t hits = 0, misses = 0;
    SimMicros warm_wall = 0, warm_total = 0;
  };
  std::vector<Run> runs;
  for (uint32_t workers : {1u, 2u, 8u}) {
    CacheWorld w;
    EngineOptions opts;
    opts.num_workers = workers;
    // Pin the stream fan-out so the query shape (and so the plan/knob key)
    // does not change when only the pool size does.
    opts.max_read_streams = 8;
    opts.enable_result_cache = true;
    QueryEngine engine(&w.lake, &w.api, opts);
    PlanPtr q = Plan::Aggregate(Plan::Scan("ds.t", {}, IdLt(200)), {},
                                {{AggOp::kSum, "v", "s"},
                                 {AggOp::kCount, "id", "n"}});
    Run run;
    auto cold = engine.Execute("u", q);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    run.cold_rows = SerializeBatch(cold->batch);
    obs::QueryProfile profile;
    auto warm = engine.Execute("u", q, &profile);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    run.warm_rows = SerializeBatch(warm->batch);
    run.warm_profile = profile.ToJson(det);
    run.warm_wall = warm->stats.wall_micros;
    run.warm_total = warm->stats.total_micros;
    run.hits = w.lake.sim().counters().Get("resultcache.hits");
    run.misses = w.lake.sim().counters().Get("resultcache.misses");
    runs.push_back(std::move(run));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].cold_rows, runs[0].cold_rows) << "run " << i;
    EXPECT_EQ(runs[i].warm_rows, runs[0].warm_rows) << "run " << i;
    // The whole hit path (probe + replay) charges worker-count-independent
    // virtual time: the warm profile is byte-identical at 1/2/8 workers.
    EXPECT_EQ(runs[i].warm_profile, runs[0].warm_profile) << "run " << i;
    EXPECT_EQ(runs[i].warm_wall, runs[0].warm_wall) << "run " << i;
    EXPECT_EQ(runs[i].warm_total, runs[0].warm_total) << "run " << i;
    EXPECT_EQ(runs[i].hits, runs[0].hits) << "run " << i;
    EXPECT_EQ(runs[i].misses, runs[0].misses) << "run " << i;
  }
  EXPECT_EQ(runs[0].hits, 1u);
  EXPECT_EQ(runs[0].misses, 1u);
  ASSERT_NE(runs[0].warm_profile.find("resultcache:hit"), std::string::npos);
}

// ---- Cross-table coherence under multi-table transactions ------------------

// A cached two-table join must never mix table A's new generation with
// table B's old one. A transactional commit (meta/txn.h) moves both tables
// atomically and fires the invalidation hook inside the same commit step,
// so: the pre-commit entry becomes unreachable (its key embeds the old
// generation vector), the first post-commit join is a miss that sees BOTH
// tables' new rows, and a reader pinned to the pre-commit snapshot still
// gets the consistent-old result — cached under its own snapshot key.
TEST(ResultCacheTxnTest, JoinNeverMixesGenerationsAcrossTxnCommit) {
  TxnLakeWorld w;
  ASSERT_TRUE(
      w.blmt
          .MultiTableInsert("u",
                            {{TxnLakeWorld::kOrders, w.TxnRows(0, 6, 1)},
                             {TxnLakeWorld::kItems, w.TxnRows(0, 6, 1)}})
          .ok());

  EngineOptions opts;
  opts.enable_result_cache = true;
  opts.max_read_streams = 4;
  QueryEngine engine(&w.lake, &w.api, opts);
  PlanPtr join =
      Plan::HashJoin(Plan::Scan(TxnLakeWorld::kOrders),
                     Plan::Scan(TxnLakeWorld::kItems), {"id"}, {"id"});

  auto cold = engine.Execute("u", join);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->batch.num_rows(), 6u);
  auto warm = engine.Execute("u", join);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(w.lake.result_cache().Stats().hits, 1u);
  const std::string old_bytes = SerializeBatch(warm->batch);

  // Pin a reader snapshot, then commit new rows to BOTH tables atomically.
  auto reader = w.blmt.BeginTransaction(
      {TxnLakeWorld::kOrders, TxnLakeWorld::kItems});
  ASSERT_TRUE(reader.ok());
  const meta::TxnSnapshot snap = (*reader)->snapshot();
  ASSERT_TRUE(
      w.blmt
          .MultiTableInsert("u",
                            {{TxnLakeWorld::kOrders, w.TxnRows(100, 3, 2)},
                             {TxnLakeWorld::kItems, w.TxnRows(100, 3, 2)}})
          .ok());

  // First post-commit join: a miss (old key unreachable), and it must see
  // the new generation of *both* tables — 9 matched rows, never 6+partial.
  const uint64_t hits_before = w.lake.result_cache().Stats().hits;
  auto fresh = engine.Execute("u", join);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(w.lake.result_cache().Stats().hits, hits_before);
  EXPECT_EQ(fresh->batch.num_rows(), 9u);

  // The pinned reader still gets the consistent-old join, from its own
  // snapshot-keyed entry: first execution misses, the repeat hits, and the
  // bytes equal the pre-commit result exactly.
  auto pinned = engine.Execute("u", join, nullptr, nullptr, &snap);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(SerializeBatch(pinned->batch), old_bytes);
  const uint64_t hits_mid = w.lake.result_cache().Stats().hits;
  auto pinned_again = engine.Execute("u", join, nullptr, nullptr, &snap);
  ASSERT_TRUE(pinned_again.ok());
  EXPECT_EQ(w.lake.result_cache().Stats().hits, hits_mid + 1);
  EXPECT_EQ(SerializeBatch(pinned_again->batch), old_bytes);
  ASSERT_TRUE(w.blmt.AbortTransaction(reader->get()).ok());

  // And the latest-generation repeat is a hit identical to `fresh`.
  auto fresh_again = engine.Execute("u", join);
  ASSERT_TRUE(fresh_again.ok());
  EXPECT_EQ(SerializeBatch(fresh_again->batch), SerializeBatch(fresh->batch));
}

}  // namespace
}  // namespace biglake

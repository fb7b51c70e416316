// Vectorized expression kernels (PR 5): the kernel path must be
// value-space identical to the legacy Expr::Evaluate path for every
// expression shape — typed fast paths, encoded-data fast paths, and the
// per-subtree fallback — and the deferred-selection engine pipeline must
// return row-identical results with kernels on or off, at any worker
// count.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/expr.h"
#include "columnar/ipc.h"
#include "columnar/kernels.h"
#include "columnar/selection.h"
#include "core/blmt.h"
#include "engine/engine.h"
#include "lakehouse_fixture.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "workload/tpcds_lite.h"

namespace biglake {
namespace {

// ---------------------------------------------------------------------------
// Kernel-vs-legacy mask equality
// ---------------------------------------------------------------------------

// One batch exercising every kernel fast path: plain int64 (with and
// without nulls), double, string, bool, dictionary strings, and RLE int64.
RecordBatch MixedBatch() {
  auto schema = MakeSchema({{"id", DataType::kInt64, false},
                            {"qty", DataType::kInt64, true},
                            {"price", DataType::kDouble, true},
                            {"name", DataType::kString, true},
                            {"flag", DataType::kBool, true},
                            {"region", DataType::kString, true},
                            {"bucket", DataType::kInt64, false}});
  std::vector<Column> cols;
  cols.push_back(Column::MakeInt64({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  cols.push_back(Column::MakeInt64({5, 0, 3, 9, 0, 2, 7, 1, 0, 4, 6, 8},
                                   {1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1}));
  cols.push_back(Column::MakeDouble(
      {1.5, 2.0, 0.0, -3.5, 4.25, 0.0, 6.5, 7.0, 8.5, 0.0, 10.5, 11.0},
      {1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1}));
  cols.push_back(Column::MakeString(
      {"ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "ibex", "jay",
       "kit", "lark"},
      {1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1}));
  cols.push_back(Column::MakeBool({1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0},
                                  {1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1}));
  cols.push_back(Column::MakeDictionaryString(
      {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}, {"east", "west", "north"},
      {1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1}));
  cols.push_back(
      Column::MakeRunLengthInt64({100, 200, 300}, {5, 4, 3}));
  return RecordBatch(schema, std::move(cols));
}

// Asserts the kernel result is value-space identical to the legacy
// evaluator: same null lanes, same boolean values on valid lanes, and the
// canonical BoolVec invariant (null lanes carry data 0).
void ExpectKernelMatchesLegacy(const ExprPtr& e, const RecordBatch& batch) {
  SCOPED_TRACE(e->ToString());
  auto legacy = e->Evaluate(batch);
  auto kern = kernels::EvaluatePredicate(*e, batch);
  ASSERT_EQ(legacy.ok(), kern.ok())
      << "legacy: " << legacy.status().ToString()
      << " kernel: " << kern.status().ToString();
  if (!legacy.ok()) return;
  ASSERT_EQ(kern->size(), batch.num_rows());
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    Value lv = legacy->GetValue(i);
    EXPECT_EQ(lv.is_null(), kern->IsNull(i)) << "row " << i;
    if (!lv.is_null()) {
      EXPECT_EQ(lv.bool_value() ? 1 : 0, kern->data[i]) << "row " << i;
    } else {
      EXPECT_EQ(kern->data[i], 0) << "null lane must carry 0, row " << i;
    }
  }
}

TEST(ExprKernelsTest, TypedCompareFastPaths) {
  RecordBatch batch = MixedBatch();
  // Column-vs-literal, both operand orders, int64 and double literals.
  ExpectKernelMatchesLegacy(Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(5))), batch);
  ExpectKernelMatchesLegacy(Expr::Lt(Expr::Lit(Value::Int64(5)), Expr::Col("qty")), batch);
  ExpectKernelMatchesLegacy(Expr::Ge(Expr::Col("qty"), Expr::Lit(Value::Double(3.5))), batch);
  ExpectKernelMatchesLegacy(Expr::Ne(Expr::Col("price"), Expr::Lit(Value::Int64(7))), batch);
  ExpectKernelMatchesLegacy(Expr::Eq(Expr::Col("price"), Expr::Lit(Value::Double(4.25))), batch);
  // Cross-type-class literal: string column vs int literal (constant rank).
  ExpectKernelMatchesLegacy(Expr::Gt(Expr::Col("name"), Expr::Lit(Value::Int64(3))), batch);
  // NULL literal.
  ExpectKernelMatchesLegacy(Expr::Eq(Expr::Col("qty"), Expr::Lit(Value::Null())), batch);
  // Both-literal.
  ExpectKernelMatchesLegacy(Expr::Lt(Expr::Lit(Value::Int64(1)), Expr::Lit(Value::Int64(2))), batch);
  // Plain strings and bools.
  ExpectKernelMatchesLegacy(Expr::Le(Expr::Col("name"), Expr::Lit(Value::String("fox"))), batch);
  ExpectKernelMatchesLegacy(Expr::Eq(Expr::Col("flag"), Expr::Lit(Value::Bool(true))), batch);
  ExpectKernelMatchesLegacy(Expr::Lt(Expr::Col("flag"), Expr::Lit(Value::Bool(true))), batch);
  // Column-vs-column: same type and mixed numeric.
  ExpectKernelMatchesLegacy(Expr::Lt(Expr::Col("qty"), Expr::Col("id")), batch);
  ExpectKernelMatchesLegacy(Expr::Gt(Expr::Col("price"), Expr::Col("qty")), batch);
  ExpectKernelMatchesLegacy(Expr::Eq(Expr::Col("name"), Expr::Col("name")), batch);
}

TEST(ExprKernelsTest, EncodedDataFastPaths) {
  RecordBatch batch = MixedBatch();
  // Dictionary strings: compare the dictionary once, map indices.
  ExpectKernelMatchesLegacy(Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("west"))), batch);
  ExpectKernelMatchesLegacy(Expr::Eq(Expr::Lit(Value::String("west")), Expr::Col("region")), batch);
  ExpectKernelMatchesLegacy(Expr::Lt(Expr::Col("region"), Expr::Lit(Value::String("north"))), batch);
  ExpectKernelMatchesLegacy(Expr::Ne(Expr::Col("region"), Expr::Lit(Value::String("absent"))), batch);
  // RLE int64: compare per run.
  ExpectKernelMatchesLegacy(Expr::Eq(Expr::Col("bucket"), Expr::Lit(Value::Int64(200))), batch);
  ExpectKernelMatchesLegacy(Expr::Ge(Expr::Col("bucket"), Expr::Lit(Value::Double(150.0))), batch);
  ExpectKernelMatchesLegacy(Expr::Gt(Expr::Lit(Value::Int64(250)), Expr::Col("bucket")), batch);
}

TEST(ExprKernelsTest, ArithEdgeCases) {
  RecordBatch batch = MixedBatch();
  auto qty = Expr::Col("qty");
  auto price = Expr::Col("price");
  ExpectKernelMatchesLegacy(
      Expr::Gt(Expr::Arith(ArithOp::kMul,
                           Expr::Arith(ArithOp::kAdd, qty, Expr::Lit(Value::Int64(2))),
                           Expr::Lit(Value::Int64(3))),
               Expr::Lit(Value::Int64(12))),
      batch);
  // Division always produces DOUBLE; division by a zero value yields NULL.
  ExpectKernelMatchesLegacy(
      Expr::Eq(Expr::Arith(ArithOp::kDiv, qty, Expr::Lit(Value::Int64(0))),
               Expr::Lit(Value::Double(1.0))),
      batch);
  ExpectKernelMatchesLegacy(
      Expr::Gt(Expr::Arith(ArithOp::kDiv, price, qty), Expr::Lit(Value::Double(0.5))),
      batch);
  // MOD by zero yields NULL; MOD with a double operand is a type error on
  // both paths.
  ExpectKernelMatchesLegacy(
      Expr::Eq(Expr::Arith(ArithOp::kMod, qty, Expr::Lit(Value::Int64(3))),
               Expr::Lit(Value::Int64(0))),
      batch);
  ExpectKernelMatchesLegacy(
      Expr::Eq(Expr::Arith(ArithOp::kMod, qty, Expr::Lit(Value::Int64(0))),
               Expr::Lit(Value::Int64(0))),
      batch);
  ExpectKernelMatchesLegacy(
      Expr::Eq(Expr::Arith(ArithOp::kMod, price, Expr::Lit(Value::Int64(2))),
               Expr::Lit(Value::Int64(0))),
      batch);
  // Arith-vs-arith comparison (span-vs-span kernel, no Value boxing).
  ExpectKernelMatchesLegacy(
      Expr::Lt(Expr::Arith(ArithOp::kSub, qty, Expr::Lit(Value::Int64(1))),
               Expr::Arith(ArithOp::kAdd, price, Expr::Lit(Value::Double(0.5)))),
      batch);
}

TEST(ExprKernelsTest, ThreeValuedLogic) {
  RecordBatch batch = MixedBatch();
  auto small = Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(4)));
  auto flag = Expr::Eq(Expr::Col("flag"), Expr::Lit(Value::Bool(true)));
  // NULL propagation through AND/OR: FALSE dominates NULL for AND, TRUE
  // dominates NULL for OR.
  ExpectKernelMatchesLegacy(Expr::And(small, flag), batch);
  ExpectKernelMatchesLegacy(Expr::Or(small, flag), batch);
  ExpectKernelMatchesLegacy(Expr::Not(flag), batch);
  ExpectKernelMatchesLegacy(Expr::Not(Expr::And(small, Expr::Not(flag))), batch);
  // IsNull over a nullable column and over an all-valid column.
  ExpectKernelMatchesLegacy(Expr::IsNull(Expr::Col("qty")), batch);
  ExpectKernelMatchesLegacy(Expr::IsNull(Expr::Col("id")), batch);
  ExpectKernelMatchesLegacy(Expr::IsNull(Expr::Arith(
      ArithOp::kDiv, Expr::Col("qty"), Expr::Lit(Value::Int64(0)))), batch);
}

TEST(ExprKernelsTest, InListShapes) {
  RecordBatch batch = MixedBatch();
  // Empty IN-list: all false (never null on valid lanes, matching legacy).
  ExpectKernelMatchesLegacy(Expr::InList(Expr::Col("qty"), {}), batch);
  // Numeric lists, including int/double mixing per Value::Compare.
  ExpectKernelMatchesLegacy(
      Expr::InList(Expr::Col("qty"),
                   {Value::Int64(3), Value::Double(5.0), Value::Int64(9)}),
      batch);
  ExpectKernelMatchesLegacy(
      Expr::InList(Expr::Col("price"), {Value::Int64(7), Value::Double(4.25)}),
      batch);
  // Null item in the list is never equal to anything.
  ExpectKernelMatchesLegacy(
      Expr::InList(Expr::Col("qty"), {Value::Null(), Value::Int64(2)}), batch);
  // String lists over plain and dictionary columns.
  ExpectKernelMatchesLegacy(
      Expr::InList(Expr::Col("name"), {Value::String("bee"), Value::String("kit")}),
      batch);
  ExpectKernelMatchesLegacy(
      Expr::InList(Expr::Col("region"),
                   {Value::String("east"), Value::String("absent")}),
      batch);
  // IN-list over the RLE column (falls back or decodes — must still match).
  ExpectKernelMatchesLegacy(
      Expr::InList(Expr::Col("bucket"), {Value::Int64(100), Value::Int64(300)}),
      batch);
}

// ---------------------------------------------------------------------------
// Dictionary compare counting (satellite: BroadcastLiteral blind spot)
// ---------------------------------------------------------------------------

TEST(ExprKernelsTest, DictCompareTouchesDictionaryNotRows) {
  RecordBatch batch = MixedBatch();  // region: 12 rows, 3 dictionary entries
  obs::Counter* dict_cmp = obs::MetricsRegistry::Default().GetCounter(
      METRIC_EXPR_DICT_COMPARES);
  auto lit_cmp = Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("west")));

  // Kernel path: one dictionary sweep (3 compares), not one per row.
  uint64_t before = dict_cmp->Value();
  ASSERT_TRUE(kernels::EvaluatePredicate(*lit_cmp, batch).ok());
  EXPECT_EQ(dict_cmp->Value() - before, 3u);

  // Legacy fast path counts the same way — including the mirrored literal
  // order, which used to fall through to the per-row generic loop.
  before = dict_cmp->Value();
  ASSERT_TRUE(lit_cmp->Evaluate(batch).ok());
  EXPECT_EQ(dict_cmp->Value() - before, 3u);
  auto mirrored = Expr::Eq(Expr::Lit(Value::String("west")), Expr::Col("region"));
  before = dict_cmp->Value();
  ASSERT_TRUE(mirrored->Evaluate(batch).ok());
  EXPECT_EQ(dict_cmp->Value() - before, 3u);

  // Kernel IN-list over a dictionary column: one sweep per list item.
  auto in_list = Expr::InList(
      Expr::Col("region"), {Value::String("east"), Value::String("north")});
  before = dict_cmp->Value();
  ASSERT_TRUE(kernels::EvaluatePredicate(*in_list, batch).ok());
  EXPECT_EQ(dict_cmp->Value() - before, 6u);
}

// ---------------------------------------------------------------------------
// SelectionVector
// ---------------------------------------------------------------------------

TEST(SelectionVectorTest, FromMaskFilterByTruncate) {
  SelectionVector sel = SelectionVector::FromMask({0, 1, 1, 0, 1, 0});
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[1], 2u);
  EXPECT_EQ(sel[2], 4u);

  // Compose with a second mask over the *underlying* rows.
  SelectionVector narrowed = sel.FilterBy({1, 0, 1, 1, 0, 1});
  ASSERT_EQ(narrowed.size(), 1u);
  EXPECT_EQ(narrowed[0], 2u);

  sel.Truncate(2);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[1], 2u);
  sel.Truncate(100);  // no-op past the end
  EXPECT_EQ(sel.size(), 2u);

  SelectionVector empty = SelectionVector::FromMask({0, 0, 0});
  EXPECT_TRUE(empty.empty());
}

// ---------------------------------------------------------------------------
// Engine parity: kernels on vs off, and worker-count determinism
// ---------------------------------------------------------------------------

class ExprKernelsEngineTest : public LakehouseFixture {
 protected:
  ExprKernelsEngineTest() : api_(&lake_), biglake_(&lake_), blmt_(&lake_) {}

  void CreateLakeTable(const std::string& name, int files, size_t rows) {
    std::string prefix = name + "/";
    BuildLake(prefix, files, rows);
    ASSERT_TRUE(
        biglake_.CreateBigLakeTable(MakeBigLakeDef(name, prefix)).ok());
  }

  QueryEngine MakeEngine(EngineOptions opts = {}) {
    return QueryEngine(&lake_, &api_, opts);
  }

  StorageReadApi api_;
  BigLakeTableService biglake_;
  BlmtService blmt_;
};

PlanPtr FilterHeavyPlan() {
  auto pred = Expr::And(
      Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(40))),
      Expr::Or(Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("east"))),
               Expr::Gt(Expr::Col("price"), Expr::Lit(Value::Double(55.0)))));
  return Plan::Project(Plan::Filter(Plan::Scan("ds.sales"), pred),
                       {"id", "score"},
                       {Expr::Col("id"),
                        Expr::Arith(ArithOp::kMul, Expr::Col("qty"),
                                    Expr::Lit(Value::Int64(3)))});
}

TEST_F(ExprKernelsEngineTest, KernelsOnOffRowIdentical) {
  CreateLakeTable("sales", 4, 200);

  std::vector<PlanPtr> plans;
  plans.push_back(FilterHeavyPlan());
  // Stacked filters compose selections.
  plans.push_back(Plan::Filter(
      Plan::Filter(Plan::Scan("ds.sales"),
                   Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(60)))),
      Expr::Ge(Expr::Col("price"), Expr::Lit(Value::Double(10.0)))));
  // Filter feeding aggregation (selection consumed without materializing).
  plans.push_back(Plan::Aggregate(
      Plan::Filter(Plan::Scan("ds.sales"),
                   Expr::Gt(Expr::Col("qty"), Expr::Lit(Value::Int64(20)))),
      {"region"},
      {{AggOp::kCount, "", "n"}, {AggOp::kSum, "price", "total"}}));
  // Filter feeding order-by + limit.
  plans.push_back(Plan::Limit(
      Plan::OrderBy(Plan::Filter(Plan::Scan("ds.sales"),
                                 Expr::Lt(Expr::Col("qty"),
                                          Expr::Lit(Value::Int64(15)))),
                    {{"id", /*descending=*/false}}),
      7));
  // Filter with zero survivors.
  plans.push_back(Plan::Filter(
      Plan::Scan("ds.sales"),
      Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(-1)))));
  // A governed table: a row filter that also names the hive partition
  // column, plus kHash and kNullify masks, so the fused and boxed read
  // paths are compared through the shared govern step.
  BuildLake("gov/", 4, 200);
  TableDef gov = MakeBigLakeDef("gov", "gov/");
  RowAccessPolicy policy;
  policy.name = "not_north_early_dates";
  policy.grantees = {"u"};
  policy.filter = Expr::And(
      Expr::Ne(Expr::Col("region"), Expr::Lit(Value::String("north"))),
      Expr::Le(Expr::Col("date"), Expr::Lit(Value::Int64(2))));
  gov.policy.row_policies = {policy};
  gov.policy.column_rules["email"] = {{"user:admin"}, false, MaskType::kHash};
  gov.policy.column_rules["price"] = {
      {"user:admin"}, false, MaskType::kNullify};
  ASSERT_TRUE(biglake_.CreateBigLakeTable(gov).ok());
  plans.push_back(Plan::Scan("ds.gov"));
  plans.push_back(Plan::Filter(
      Plan::Scan("ds.gov"),
      Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(50)))));
  plans.push_back(Plan::Aggregate(
      Plan::Filter(Plan::Scan("ds.gov"),
                   Expr::Gt(Expr::Col("qty"), Expr::Lit(Value::Int64(20)))),
      {"region"},
      {{AggOp::kCount, "", "n"}, {AggOp::kMax, "email", "top"}}));

  for (size_t p = 0; p < plans.size(); ++p) {
    SCOPED_TRACE("plan " + std::to_string(p));
    EngineOptions on;
    on.enable_vectorized_kernels = true;
    EngineOptions off;
    off.enable_vectorized_kernels = false;
    auto r_on = MakeEngine(on).Execute("u", plans[p]);
    auto r_off = MakeEngine(off).Execute("u", plans[p]);
    ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
    ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();
    EXPECT_EQ(SerializeBatch(r_on->batch), SerializeBatch(r_off->batch));
    EXPECT_EQ(r_on->stats.rows_returned, r_off->stats.rows_returned);
  }

  // A pushdown partial aggregate over the governed table, read straight
  // from the Read API with kernels on and off.
  std::vector<std::string> partials[2];
  for (int k = 0; k < 2; ++k) {
    ReadSessionOptions opts;
    opts.predicate = Expr::Gt(Expr::Col("qty"), Expr::Lit(Value::Int64(10)));
    opts.aggregate_group_by = {"region"};
    opts.partial_aggregates = {{AggOp::kCount, "", "n"},
                               {AggOp::kSum, "qty", "q"},
                               {AggOp::kMax, "email", "top"}};
    opts.use_vectorized_kernels = k == 0;
    auto session = api_.CreateReadSession("u", "ds.gov", opts);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (size_t s = 0; s < session->streams.size(); ++s) {
      auto batch = api_.ReadStreamBatch(*session, s);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      partials[k].push_back(SerializeBatch(*batch));
    }
  }
  ASSERT_FALSE(partials[0].empty());
  EXPECT_EQ(partials[0], partials[1]);
}

TEST_F(ExprKernelsEngineTest, JoinOverFilteredInputsRowIdentical) {
  CreateLakeTable("facts", 3, 150);
  CreateLakeTable("dims", 1, 60);
  auto plan = Plan::HashJoin(
      Plan::Filter(Plan::Scan("ds.dims"),
                   Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(50)))),
      Plan::Filter(Plan::Scan("ds.facts"),
                   Expr::Gt(Expr::Col("price"), Expr::Lit(Value::Double(20.0)))),
      {"region"}, {"region"});
  EngineOptions on;
  on.enable_vectorized_kernels = true;
  EngineOptions off;
  off.enable_vectorized_kernels = false;
  auto r_on = MakeEngine(on).Execute("u", plan);
  auto r_off = MakeEngine(off).Execute("u", plan);
  ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
  ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();
  ASSERT_GT(r_on->batch.num_rows(), 0u);
  EXPECT_EQ(SerializeBatch(r_on->batch), SerializeBatch(r_off->batch));
}

TEST_F(ExprKernelsEngineTest, SelectionMaterializationIsCountedAndDeferred) {
  CreateLakeTable("sales", 2, 100);
  obs::Counter* mats = obs::MetricsRegistry::Default().GetCounter(
      METRIC_SELVEC_MATERIALIZATIONS);
  obs::Counter* rows = obs::MetricsRegistry::Default().GetCounter(
      METRIC_EXPR_ROWS_EVALUATED);
  uint64_t mats_before = mats->Value();
  uint64_t rows_before = rows->Value();
  EngineOptions on;
  on.enable_vectorized_kernels = true;
  auto result = MakeEngine(on).Execute("u", FilterHeavyPlan());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(mats->Value(), mats_before);
  EXPECT_GT(rows->Value(), rows_before);

  // A filter feeding an aggregation never materializes in the engine: the
  // selection is consumed directly by the grouping kernel.
  auto agg = Plan::Aggregate(
      Plan::Filter(Plan::Scan("ds.sales"),
                   Expr::Gt(Expr::Col("qty"), Expr::Lit(Value::Int64(50)))),
      {}, {{AggOp::kCount, "", "n"}});
  mats_before = mats->Value();
  ASSERT_TRUE(MakeEngine(on).Execute("u", agg).ok());
  EXPECT_EQ(mats->Value(), mats_before);
}

// Worker-count determinism with kernels enabled: independent worlds at 1,
// 2 and 8 workers must produce byte-identical results with identical
// simulated costs, and two independent worlds at the same worker count
// must produce byte-identical simulated-cost profiles (the PR 5
// acceptance bar; stream counts legitimately scale with the worker count,
// so full profiles are compared at fixed parallelism, as in
// parallel_determinism_test).
struct DetWorld {
  LakehouseEnv lake;
  CloudLocation gcp{CloudProvider::kGCP, "us-central1"};
  ObjectStore* store = nullptr;
  StorageReadApi api;
  BigLakeTableService biglake;
  BlmtService blmt;
  TpcdsTables tables;

  explicit DetWorld(const TpcdsScale& scale)
      : api(&lake), biglake(&lake), blmt(&lake) {
    store = lake.AddStore(gcp);
    EXPECT_TRUE(store->CreateBucket("lake").ok());
    EXPECT_TRUE(lake.catalog().CreateDataset("ds").ok());
    Connection conn;
    conn.name = "us.lake-conn";
    conn.service_account.principal = "sa:lake-conn";
    EXPECT_TRUE(lake.catalog().CreateConnection(conn).ok());
    auto t = SetupTpcds(&lake, &biglake, &blmt, store, "lake", "tpcds/", "ds",
                        scale, /*cached=*/true, "us.lake-conn");
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    if (t.ok()) tables = *t;
  }
};

PlanPtr DetQuery(const TpcdsTables& t) {
  return Plan::Aggregate(
      Plan::Filter(
          Plan::HashJoin(Plan::Scan(t.item), Plan::Scan(t.store_sales),
                         {"i_item_id"}, {"ss_item_id"}),
          Expr::Gt(Expr::Col("ss_sales_price"), Expr::Lit(Value::Double(1.0)))),
      {"ss_store_id"}, {{AggOp::kCount, "ss_item_id", "n"}});
}

TpcdsScale DetScale() {
  TpcdsScale scale;
  scale.days = 4;
  scale.rows_per_day = 2000;  // crosses the parallel_row_threshold
  return scale;
}

TEST(ExprKernelsDeterminismTest, WorkerCountsProduceIdenticalResults) {
  std::string first_batch;
  uint64_t first_micros = 0;
  for (uint32_t workers : {1u, 2u, 8u}) {
    DetWorld w(DetScale());
    EngineOptions opts;
    opts.num_workers = workers;
    opts.enable_vectorized_kernels = true;
    QueryEngine engine(&w.lake, &w.api, opts);
    auto result = engine.Execute("u", DetQuery(w.tables));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(result->batch.num_rows(), 0u);
    std::string batch = SerializeBatch(result->batch);
    if (first_batch.empty()) {
      first_batch = batch;
      first_micros = result->stats.total_micros;
    } else {
      EXPECT_EQ(batch, first_batch) << workers << " workers";
      EXPECT_EQ(result->stats.total_micros, first_micros)
          << workers << " workers";
    }
  }
}

TEST(ExprKernelsDeterminismTest, IndependentRunsProduceIdenticalProfiles) {
  obs::ProfileExportOptions det;
  det.include_wall = false;
  det.pretty = false;
  DetWorld w1(DetScale());
  DetWorld w2(DetScale());
  EngineOptions opts;
  opts.num_workers = 8;
  opts.enable_vectorized_kernels = true;
  QueryEngine e1(&w1.lake, &w1.api, opts);
  QueryEngine e2(&w2.lake, &w2.api, opts);
  for (int round = 0; round < 2; ++round) {
    obs::QueryProfile p1, p2;
    auto a = e1.Execute("u", DetQuery(w1.tables), &p1);
    auto b = e2.Execute("u", DetQuery(w2.tables), &p2);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(SerializeBatch(a->batch), SerializeBatch(b->batch)) << round;
    std::string j1 = p1.ToJson(det);
    std::string j2 = p2.ToJson(det);
    ASSERT_GT(j1.size(), 2u);
    EXPECT_EQ(j1, j2) << "round " << round;
  }
}

}  // namespace
}  // namespace biglake

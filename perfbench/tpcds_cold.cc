// tpcds_cold: the paper's Fig 4 workload. One closed-loop client runs the
// eight TPC-DS-lite query shapes (src/workload/) with seeded literals over a
// fact table four times larger than the block cache, so large scans do most
// of the work: object-store fetch, decode, Read API filter/gather, the
// per-stream and whole-scan Concat, joins, aggregates and the pool.

#include <algorithm>
#include <thread>

#include "common/random.h"
#include "common/strings.h"
#include "workload.h"
#include "workload/tpcds_lite.h"

namespace perfbench {
namespace {

using namespace biglake;

constexpr uint32_t kMaxReadStreams = 8;
// Queries per template per round. The heavy full-fact shapes (q03, q05,
// q08) carry the round's p95: together they are 3 × 30 = 90 of 234 queries,
// so the top 5% (12 queries) falls inside them with samples to spare.
constexpr int kPerTemplate[8] = {30, 30, 30, 24, 30, 60, 30, 30};
// Distinct literal choices per template, so the baseline oracle runs each
// distinct query once rather than once per round slot.
constexpr int kLiteralPool = 5;

class TpcdsCold : public Workload {
 public:
  explicit TpcdsCold(uint64_t seed) : seed_(seed) {
    scale_.days = 60;
    scale_.rows_per_day = 4000;
    scale_.seed = seed;
    workers_ = std::clamp<uint32_t>(std::thread::hardware_concurrency(), 1, 4);
  }

  Status Setup() override {
    lake_ = std::make_unique<Lake>();
    BL_ASSIGN_OR_RETURN(tables_,
                        SetupTpcds(&lake_->env, &lake_->biglake, &lake_->blmt,
                                   lake_->store, "lake", "tpcds/", "ds",
                                   scale_, /*cached=*/true, "us.lake-conn"));
    // Six fixed-width columns of 8 bytes: the decoded fact table.
    fact_decoded_bytes_ = static_cast<uint64_t>(scale_.days) *
                          scale_.rows_per_day * 6 * sizeof(int64_t);
    EngineOptions opts;
    opts.num_workers = workers_;
    opts.max_read_streams = kMaxReadStreams;
    opts.enable_block_cache = true;
    opts.block_cache_capacity_bytes = fact_decoded_bytes_ / 4;
    opts.enable_result_cache = false;
    opts.readahead_depth = 0;  // the prefetch pool would exceed nproc
    engine_ = std::make_unique<QueryEngine>(&lake_->env, &lake_->read_api,
                                            opts);
    BuildQueries();
    // Warm-up: one pass of every distinct shape brings the engine pool up
    // and the metadata cache into use; each round then clears the block
    // cache so it starts cold.
    for (size_t i = 0; i < distinct_.size(); ++i) {
      BL_RETURN_NOT_OK(engine_->Execute(kPrincipal, distinct_[i]).status());
    }
    return Status::OK();
  }

  Status PrepareOracle() override {
    QueryEngine baseline(&lake_->env, &lake_->read_api,
                         BaselineEngineOptions(kMaxReadStreams));
    digests_.clear();
    for (size_t i = 0; i < distinct_.size(); ++i) {
      BL_ASSIGN_OR_RETURN(QueryResult r,
                          baseline.Execute(kPrincipal, distinct_[i]));
      digests_.push_back(ResultDigest(r.batch, ordered_[i]));
    }
    return Status::OK();
  }

  Status StartRound() override {
    lake_->env.block_cache().Clear();
    return Status::OK();
  }

  Status RunRound(RoundResult* out, SpanStats* trace,
                  uint64_t deadline_ns) override {
    for (size_t slot : round_) {
      if (NowNs() >= deadline_ns) {
        out->partial = true;
        break;
      }
      ++out->attempted;
      Result<QueryResult> r = Status::OK();
      uint64_t t0 = 0, t1 = 0;
      {
        TraceScope scope(&lake_->env.sim(), trace);
        t0 = NowNs();
        r = engine_->Execute(kPrincipal, distinct_[slot]);
        t1 = NowNs();
      }
      out->op_seconds += (t1 - t0) / 1e9;
      if (!r.ok()) {
        out->Fail(StrCat(names_[slot], ": ", r.status().ToString()));
        continue;
      }
      if (ResultDigest(r->batch, ordered_[slot]) != digests_[slot]) {
        out->Fail(StrCat(names_[slot], ": result differs from baseline"));
      }
      out->query_ms.push_back((t1 - t0) / 1e6);
      out->query_sim_ms.push_back(r->stats.wall_micros / 1e3);
    }
    return Status::OK();
  }

  Status Probe(ProbeResult* out) override {
    std::vector<std::string> files;
    for (int day = 0; day < scale_.days; ++day) {
      files.push_back(StrCat("tpcds/ss_sold_date=", day, "/part-0.plk"));
    }
    BL_ASSIGN_OR_RETURN(out->values["format.decode_ns_per_row"],
                        TimeDecode(lake_.get(), files));
    // Concat: a full fact scan read stream by stream, then concatenated
    // per stream and once more for the whole scan, as ExecuteScan does.
    ReadSessionOptions opts;
    opts.max_streams = kMaxReadStreams;
    BL_ASSIGN_OR_RETURN(ReadSession session,
                        lake_->read_api.CreateReadSession(
                            kPrincipal, tables_.store_sales, opts));
    uint64_t concat_ns = 0;
    std::vector<RecordBatch> per_stream;
    for (size_t s = 0; s < session.streams.size(); ++s) {
      BL_ASSIGN_OR_RETURN(std::vector<BatchHandle> handles,
                          lake_->read_api.ReadStreamHandles(session, s));
      std::vector<RecordBatch> pieces;
      for (const BatchHandle& h : handles) {
        BL_ASSIGN_OR_RETURN(RecordBatch b, h.Open());
        pieces.push_back(std::move(b));
      }
      const uint64_t t0 = NowNs();
      BL_ASSIGN_OR_RETURN(RecordBatch joined, RecordBatch::Concat(pieces));
      concat_ns += NowNs() - t0;
      per_stream.push_back(std::move(joined));
    }
    const uint64_t t0 = NowNs();
    BL_ASSIGN_OR_RETURN(RecordBatch all, RecordBatch::Concat(per_stream));
    concat_ns += NowNs() - t0;
    out->values["columnar.concat_ns_per_scan"] =
        Per(static_cast<double>(concat_ns), 1, "full fact scan");
    return Status::OK();
  }

  std::map<std::string, std::string> Info() const override {
    return {
        {"loop", "closed, 1 client"},
        {"engine_workers", StrCat(workers_)},
        {"prefetch_threads", "0 (readahead_depth=0)"},
        {"max_read_streams", StrCat(kMaxReadStreams)},
        {"fact_rows", StrCat(scale_.days * scale_.rows_per_day)},
        {"fact_decoded_bytes", StrCat(fact_decoded_bytes_)},
        {"block_cache_bytes", StrCat(fact_decoded_bytes_ / 4)},
        {"result_cache", "off"},
        {"queries_per_round", StrCat(round_.size())},
        {"distinct_queries", StrCat(distinct_.size())},
    };
  }

  uint32_t workers() const override { return workers_; }

 private:
  static constexpr const char* kPrincipal = "user:analyst";

  static ExprPtr DayRange(int64_t lo, int64_t hi) {
    return Expr::And(Expr::Ge(Expr::Col("ss_sold_date"),
                              Expr::Lit(Value::Int64(lo))),
                     Expr::Le(Expr::Col("ss_sold_date"),
                              Expr::Lit(Value::Int64(hi))));
  }

  PlanPtr HolidayJoin(int64_t lo) const {
    return Plan::HashJoin(
        Plan::Filter(
            Plan::Scan(tables_.date_dim),
            Expr::And(Expr::Eq(Expr::Col("d_is_holiday"),
                               Expr::Lit(Value::Bool(true))),
                      Expr::Ge(Expr::Col("d_date_key"),
                               Expr::Lit(Value::Int64(lo))))),
        Plan::Scan(tables_.store_sales), {"d_date_key"}, {"ss_sold_date"});
  }

  /// The eight TpcdsQueries shapes with literal `k` of the template's
  /// seeded pool; returns whether the result order is defined.
  PlanPtr Shape(int t, int64_t lit, bool* ordered) const {
    const int64_t days = scale_.days;
    static const char* kCategories[] = {"electronics", "grocery", "apparel",
                                        "sports", "home", "toys"};
    *ordered = false;
    switch (t) {
      case 0:  // q01 daily revenue: one partition
        return Plan::Aggregate(
            Plan::Scan(tables_.store_sales, {},
                       Expr::Eq(Expr::Col("ss_sold_date"),
                                Expr::Lit(Value::Int64(lit % days)))),
            {}, {{AggOp::kSum, "ss_sales_price", "revenue"},
                 {AggOp::kCount, "", "sales"}});
      case 1: {  // q02 weekly by store: a 7-day range
        const int64_t lo = lit % (days - 7);
        return Plan::Aggregate(
            Plan::Scan(tables_.store_sales, {}, DayRange(lo, lo + 6)),
            {"ss_store_id"}, {{AggOp::kSum, "ss_net_profit", "profit"}});
      }
      case 2:  // q03 star join on a category
        return Plan::Aggregate(
            Plan::HashJoin(
                Plan::Filter(Plan::Scan(tables_.item),
                             Expr::Eq(Expr::Col("i_category"),
                                      Expr::Lit(Value::String(
                                          kCategories[lit % 6])))),
                Plan::Scan(tables_.store_sales), {"i_item_id"},
                {"ss_item_id"}),
            {"i_brand"}, {{AggOp::kSum, "ss_sales_price", "revenue"}});
      case 3:  // q04 holiday profit: DPP through date_dim
        return Plan::Aggregate(HolidayJoin(lit % 14), {},
                               {{AggOp::kSum, "ss_net_profit", "profit"},
                                {AggOp::kCount, "", "sales"}});
      case 4: {  // q05 region revenue over a 30-day window, fact on build side
        const int64_t lo = lit % (days - 30);
        return Plan::Aggregate(
            Plan::HashJoin(
                Plan::Scan(tables_.store_sales, {}, DayRange(lo, lo + 29)),
                Plan::Scan(tables_.customer), {"ss_customer_id"},
                {"c_customer_id"}),
            {"c_region"}, {{AggOp::kSum, "ss_sales_price", "revenue"}});
      }
      case 5:  // q06 three-way snowflake
        return Plan::Aggregate(
            Plan::HashJoin(Plan::Scan(tables_.store), HolidayJoin(lit % 14),
                           {"s_store_id"}, {"ss_store_id"}),
            {"s_state"}, {{AggOp::kSum, "ss_sales_price", "revenue"}});
      case 6:  // q07 recent top items, a total order (no ties at the limit)
        *ordered = true;
        return Plan::Limit(
            Plan::OrderBy(
                Plan::Aggregate(
                    Plan::Scan(tables_.store_sales, {},
                               Expr::Ge(Expr::Col("ss_sold_date"),
                                        Expr::Lit(Value::Int64(
                                            days - 3 - lit % 4)))),
                    {"ss_item_id"}, {{AggOp::kSum, "ss_quantity", "units"}}),
                {{"units", /*descending=*/true}, {"ss_item_id", false}}),
            10);
      default:  // q08 near-full scan aggregate
        return Plan::Aggregate(
            Plan::Scan(tables_.store_sales, {},
                       Expr::Ge(Expr::Col("ss_quantity"),
                                Expr::Lit(Value::Int64(1 + lit % 3)))),
            {}, {{AggOp::kSum, "ss_net_profit", "profit"}});
    }
  }

  void BuildQueries() {
    static const char* kNames[8] = {
        "q01_daily_revenue",  "q02_weekly_by_store", "q03_category_brand",
        "q04_holiday_profit", "q05_region_revenue",  "q06_holiday_state",
        "q07_recent_top_items", "q08_total_profit"};
    Random rng(seed_ * 0x9e3779b97f4a7c15ull + 11);
    distinct_.clear();
    names_.clear();
    ordered_.clear();
    round_.clear();
    for (int t = 0; t < 8; ++t) {
      const size_t first = distinct_.size();
      for (int k = 0; k < kLiteralPool; ++k) {
        bool ordered = false;
        distinct_.push_back(Shape(t, static_cast<int64_t>(rng.Uniform(1000)),
                                  &ordered));
        names_.push_back(kNames[t]);
        ordered_.push_back(ordered);
      }
      for (int i = 0; i < kPerTemplate[t]; ++i) {
        round_.push_back(first + rng.Uniform(kLiteralPool));
      }
    }
    for (size_t i = round_.size(); i > 1; --i) {  // seeded shuffle
      std::swap(round_[i - 1], round_[rng.Uniform(i)]);
    }
  }

  uint64_t seed_;
  TpcdsScale scale_;
  uint32_t workers_ = 1;
  uint64_t fact_decoded_bytes_ = 0;
  std::unique_ptr<Lake> lake_;
  TpcdsTables tables_;
  std::unique_ptr<QueryEngine> engine_;
  std::vector<PlanPtr> distinct_;
  std::vector<std::string> names_;
  std::vector<bool> ordered_;
  std::vector<uint64_t> digests_;
  std::vector<size_t> round_;  // indexes into distinct_
};

}  // namespace

std::unique_ptr<Workload> MakeTpcdsCold(uint64_t seed) {
  return std::make_unique<TpcdsCold>(seed);
}

}  // namespace perfbench

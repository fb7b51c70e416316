// tenant_replay: an open loop on the virtual timeline. A seeded arrival
// trace from hundreds of interactive and batch tenants, all sending cheap
// queries, replays through QueryScheduler::RunAll with fair queueing and
// queues deep enough that dispatch is the hot path. The only workload in
// which the scheduler does the work; arrivals are virtual, so generator
// lateness does not apply.

#include "common/random.h"
#include "common/strings.h"
#include "engine/sql_parser.h"
#include "sched/scheduler.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace biglake;

constexpr int kInteractiveTenants = 240;
constexpr int kBatchTenants = 60;
constexpr size_t kRequestsPerRound = 3000;
constexpr uint32_t kSlots = 16;
constexpr uint32_t kMaxReadStreams = 2;
// Mean virtual inter-arrival gap. Cheap queries take a few hundred virtual
// micros on one slot, so arrivals outpace the pool and queues stay deep.
constexpr SimMicros kMeanGapMicros = 40;

class TenantReplay : public Workload {
 public:
  explicit TenantReplay(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    lake_ = std::make_unique<Lake>();
    BL_ASSIGN_OR_RETURN(tables_, BuildDashboardTables(lake_.get(), seed_,
                                                      /*days=*/10,
                                                      /*rows_per_day=*/200));
    EngineOptions opts;
    opts.num_workers = 1;
    opts.max_read_streams = kMaxReadStreams;
    opts.enable_block_cache = true;
    opts.block_cache_capacity_bytes = 64ull << 20;
    engine_ = std::make_unique<QueryEngine>(&lake_->env, &lake_->read_api,
                                            opts);
    sched::SchedulerOptions so;
    so.total_slots = kSlots;
    so.fair_queueing = true;
    so.max_queued_per_lane = 1 << 20;  // deep queues; nothing is refused
    so.default_quota.max_queued = 1 << 20;
    so.default_quota.max_slots = 4;
    scheduler_ = std::make_unique<sched::QueryScheduler>(&lake_->env,
                                                         engine_.get(), so);
    BL_RETURN_NOT_OK(BuildTrace());
    // Warm-up: every distinct query once fills the block cache.
    for (const PlanPtr& plan : plans_) {
      BL_RETURN_NOT_OK(engine_->Execute(kPrincipal, plan).status());
    }
    return Status::OK();
  }

  Status PrepareOracle() override {
    QueryEngine baseline(&lake_->env, &lake_->read_api,
                         BaselineEngineOptions(kMaxReadStreams));
    expected_rows_.clear();
    for (const PlanPtr& plan : plans_) {
      BL_ASSIGN_OR_RETURN(QueryResult r, baseline.Execute(kPrincipal, plan));
      expected_rows_.push_back(r.batch.num_rows());
    }
    return Status::OK();
  }

  Status StartRound() override { return Status::OK(); }

  Status RunRound(RoundResult* out, SpanStats* trace,
                  uint64_t deadline_ns) override {
    // Each plan is wrapped in an identity Map whose callback stamps the
    // real completion time. Queries run one at a time on this thread, so
    // the gap between consecutive completions is one query's real time,
    // including the scheduler's admission and dispatch work before it.
    // The callback is also the only point inside RunAll to move the thread
    // to its next CPU.
    std::vector<uint64_t> done_ns;
    done_ns.reserve(requests_.size());
    std::vector<sched::QueryRequest> requests = requests_;
    for (size_t i = 0; i < requests.size(); ++i) {
      requests[i].plan = Plan::Map(
          plans_[slot_[i]], "perfbench:stamp",
          [&done_ns](const RecordBatch& b) -> Result<RecordBatch> {
            done_ns.push_back(NowNs());
            RotateCpu();
            return b;
          });
    }
    std::vector<sched::QueryOutcome> outcomes;
    const uint64_t t0 = NowNs();
    {
      TraceScope scope(&lake_->env.sim(), trace);
      outcomes = scheduler_->RunAll(requests);
    }
    const uint64_t t1 = NowNs();
    out->op_seconds += (t1 - t0) / 1e9;
    if (trace != nullptr) out->TimeCall("run_all", t1 - t0);
    const sched::SchedulerReport& rep = scheduler_->report();

    uint64_t prev = t0;
    for (uint64_t t : done_ns) {
      out->query_ms.push_back((t - prev) / 1e6);
      prev = t;
    }
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ++out->attempted;
      const sched::QueryOutcome& o = outcomes[i];
      if (o.state != sched::QueryState::kCompleted) {
        out->Fail(StrCat("request ", i, " ended ",
                         sched::QueryStateName(o.state), ": ",
                         o.status.ToString()));
        continue;
      }
      if (o.rows != expected_rows_[slot_[i]]) {
        out->Fail(StrCat("request ", i, " returned ", o.rows, " rows, "
                         "baseline ", expected_rows_[slot_[i]]));
      }
      if (requests_[i].lane == sched::Lane::kInteractive) {
        out->query_sim_ms.push_back((o.queue_micros + o.service_micros) /
                                    1e3);
        out->queue_sim_ms.push_back(o.queue_micros / 1e3);
      }
    }
    if (done_ns.size() != outcomes.size()) {
      out->Fail(StrCat(done_ns.size(), " completions stamped for ",
                       outcomes.size(), " requests"));
    }
    // The report must reconcile: submitted = admitted + rejected per lane,
    // and every admitted query ends exactly once.
    for (const sched::LaneReport* lane : {&rep.interactive, &rep.batch}) {
      ++out->attempted;
      const uint64_t ended = lane->completed + lane->failed +
                             lane->cancelled_queued + lane->cancelled_running;
      if (lane->submitted != lane->admitted + lane->rejected ||
          lane->admitted != ended) {
        out->Fail(StrCat("scheduler report does not reconcile: submitted ",
                         lane->submitted, " admitted ", lane->admitted,
                         " rejected ", lane->rejected, " ended ", ended));
      }
    }
    out->det["sched_submitted"] += rep.interactive.submitted +
                                   rep.batch.submitted;
    out->det["sched_queue_depth_peak"] = static_cast<double>(rep.peak_queue_depth);
    out->det["sched_slot_occupancy"] = rep.slot_occupancy;
    out->det["sched_makespan_us"] = static_cast<double>(rep.makespan_micros);
    out->det["sched_queue_p99_us"] = static_cast<double>(
        scheduler_->QueueLatencyPercentile(sched::Lane::kInteractive, 99));
    (void)deadline_ns;  // one RunAll is indivisible
    return Status::OK();
  }

  Status Probe(ProbeResult*) override { return Status::OK(); }

  std::map<std::string, std::string> Info() const override {
    return {
        {"loop", "open, virtual-time arrival trace"},
        {"tenants", StrCat(kInteractiveTenants, " interactive + ",
                           kBatchTenants, " batch")},
        {"engine_workers", "1 (inline pool)"},
        {"prefetch_threads", "0 (readahead_depth=0)"},
        {"slots", StrCat(kSlots)},
        {"requests_per_round", StrCat(requests_.size())},
        {"mean_interarrival_us", StrCat(kMeanGapMicros)},
        {"table_rows", StrCat(tables_.rows)},
        {"block_cache_bytes", StrCat(64ull << 20)},
        {"result_cache", "off (Map-wrapped plans are not cacheable)"},
    };
  }

  uint32_t workers() const override { return 1; }

 private:
  static constexpr const char* kPrincipal = "user:analyst";

  Status BuildTrace() {
    Random rng(seed_ * 0x9e3779b97f4a7c15ull + 43);
    // Interactive tenants draw the pruned dashboard templates 0, 1, 3, 4;
    // batch tenants the ten-day report (template 2) or template 0.
    plans_.clear();
    std::map<std::string, size_t> by_sql;
    auto plan_for = [&](int tmpl, uint64_t p) -> Result<size_t> {
      bool ordered = false;
      const std::string sql = DashboardSql(tables_, tmpl, p, &ordered);
      auto [it, fresh] = by_sql.emplace(sql, plans_.size());
      if (fresh) {
        BL_ASSIGN_OR_RETURN(PlanPtr plan, ParseSql(sql));
        plans_.push_back(std::move(plan));
      }
      return it->second;
    };
    requests_.clear();
    slot_.clear();
    SimMicros now = 0;
    for (size_t i = 0; i < kRequestsPerRound; ++i) {
      sched::QueryRequest req;
      const bool batch = rng.Uniform(5) == 0;
      const int tenant = batch ? static_cast<int>(rng.Uniform(kBatchTenants))
                               : static_cast<int>(rng.Uniform(
                                     kInteractiveTenants));
      req.tenant = StrCat(batch ? "batch-" : "dash-", tenant);
      req.lane = batch ? sched::Lane::kBatch : sched::Lane::kInteractive;
      req.principal = kPrincipal;
      static const int kInteractiveTemplates[] = {0, 1, 3, 4};
      const int tmpl = batch ? (rng.OneIn(2) ? 2 : 0)
                             : kInteractiveTemplates[rng.Uniform(4)];
      BL_ASSIGN_OR_RETURN(size_t slot, plan_for(tmpl, rng.Uniform(1000)));
      slot_.push_back(slot);
      now += 1 + rng.Uniform(2 * kMeanGapMicros);
      req.arrive_micros = now;
      requests_.push_back(std::move(req));
    }
    return Status::OK();
  }

  uint64_t seed_;
  std::unique_ptr<Lake> lake_;
  DashboardTables tables_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<sched::QueryScheduler> scheduler_;
  std::vector<PlanPtr> plans_;
  std::vector<uint64_t> expected_rows_;
  std::vector<sched::QueryRequest> requests_;  // plans set per round
  std::vector<size_t> slot_;                   // request → plans_ index
};

}  // namespace

std::unique_ptr<Workload> MakeTenantReplay(uint64_t seed) {
  return std::make_unique<TenantReplay>(seed);
}

}  // namespace perfbench

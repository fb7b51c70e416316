// The contract between the perfbench runner (main.cc) and its workloads.
//
// A workload builds its world in Setup() (timed: setup_s), records its
// correctness oracle in PrepareOracle() (untimed), and then runs fixed,
// seeded rounds. StartRound() brings the world back to the round's start
// state, so every complete round repeats the first one exactly on the
// simulated clock and in every deterministic counter; the runner checks
// that and fails the run when a round differs.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/biglake.h"
#include "core/blmt.h"
#include "core/environment.h"
#include "core/read_api.h"
#include "engine/engine.h"
#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

/// Per span name: how many spans, their summed real duration, and their
/// summed real self time (duration minus the union of child intervals).
struct SpanTotals {
  uint64_t count = 0;
  uint64_t real_ns = 0;
  uint64_t self_ns = 0;
};

/// Real-time totals gathered from the program's own spans during traced
/// rounds. Stream spans run on pool threads and overlap; the program's
/// spans expose real durations but not real start stamps, so a fan-out's
/// intervals are placed by ListSchedule over the engine's worker count.
struct SpanStats {
  std::map<std::string, SpanTotals> by_name;  // "stream:3" → "stream"
  uint64_t scan_stream_ns = 0;  // summed stream durations under op:scan
  uint64_t scan_wall_ns = 0;    // summed op:scan durations with streams
  uint32_t workers = 1;

  /// Folds every span under `root` (not `root` itself) into the totals.
  void Add(const biglake::obs::Span& root);
};

/// Collects the program's spans for one operation: installs a fresh trace
/// context on construction and folds the finished tree into `stats` on
/// destruction. A null `stats` makes it a no-op (untraced rounds).
class TraceScope {
 public:
  TraceScope(const biglake::SimEnv* sim, SpanStats* stats);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  SpanStats* stats_;
  std::unique_ptr<biglake::obs::Tracer> tracer_;
  std::unique_ptr<biglake::obs::ScopedTraceContext> context_;
};

/// What one round produced.
struct RoundResult {
  /// Per query: real ms around the public call(s) and simulated ms
  /// (QueryStats::wall_micros, the cost model's critical path).
  std::vector<double> query_ms;
  std::vector<double> query_sim_ms;
  /// Per committed write operation (ingest_mixed only).
  std::vector<double> commit_ms;
  std::vector<double> commit_sim_ms;
  /// Simulated interactive-lane queueing latency (tenant_replay only).
  std::vector<double> queue_sim_ms;
  uint64_t rows_ingested = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few oracle mismatches
  /// Real seconds spent inside the measured operations.
  double op_seconds = 0;
  /// Deterministic per-round quantities that are not registry counters
  /// (files pruned, rows returned, scheduler report fields, ...).
  std::map<std::string, double> det;
  /// Real nanoseconds the benchmark timed around individual public calls
  /// (ParseSql, PlanFingerprint, AppendRows, ...), keyed by call.
  std::map<std::string, double> call_ns;
  std::map<std::string, double> call_count;

  void Fail(std::string what);
  void TimeCall(const std::string& name, uint64_t ns) {
    call_ns[name] += static_cast<double>(ns);
    call_count[name] += 1;
  }
  /// True when the round stopped at the deadline before its fixed end.
  bool partial = false;
};

/// Real-ns timings of layer calls the benchmark makes itself in a traced
/// run (decode, encode, concat), each with its base.
struct ProbeResult {
  std::map<std::string, PerBase> values;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the world from nothing: data generation, object-store puts,
  /// table creation, metadata-cache refresh and warm-up.
  virtual biglake::Status Setup() = 0;
  /// Records the correctness oracle (untimed).
  virtual biglake::Status PrepareOracle() = 0;
  /// Returns the world to the state every round starts from (untimed).
  virtual biglake::Status StartRound() = 0;
  /// Runs one fixed round. `trace` is null in untraced rounds. The round
  /// stops early (and sets `partial`) once `deadline_ns` has passed.
  virtual biglake::Status RunRound(RoundResult* out, SpanStats* trace,
                                   uint64_t deadline_ns) = 0;
  /// Times layer calls the benchmark makes itself (traced runs only).
  virtual biglake::Status Probe(ProbeResult* out) = 0;
  /// Sizes, thread counts and other facts recorded with every result.
  virtual std::map<std::string, std::string> Info() const = 0;
  /// Engine pool width, for placing stream spans.
  virtual uint32_t workers() const = 0;
  /// Whether StartRound also resets every simulated-time carry, so complete
  /// rounds repeat the first one on the simulated clock too (counters and
  /// round counts must repeat either way).
  virtual bool rounds_repeat_sim() const { return true; }
};

std::unique_ptr<Workload> MakeTpcdsCold(uint64_t seed);
std::unique_ptr<Workload> MakeDashboardWarm(uint64_t seed);
std::unique_ptr<Workload> MakeIngestMixed(uint64_t seed);
std::unique_ptr<Workload> MakeTenantReplay(uint64_t seed);

// ---- helpers shared by the workloads ---------------------------------------

/// A single-cloud lakehouse: GCP store, bucket "lake", dataset "ds",
/// connection "us.lake-conn".
struct Lake {
  biglake::LakehouseEnv env;
  biglake::CloudLocation gcp{biglake::CloudProvider::kGCP, "us-central1"};
  biglake::ObjectStore* store = nullptr;
  biglake::StorageReadApi read_api{&env};
  biglake::BigLakeTableService biglake{&env};
  biglake::BlmtService blmt{&env};

  Lake();
  biglake::CallerContext Caller() const { return {.location = gcp}; }
};

/// Order-insensitive (unless `ordered`) digest of a result: rows rendered
/// with doubles at 9 significant digits, so a different but equally valid
/// floating-point summation order cannot fail the oracle.
uint64_t ResultDigest(const biglake::RecordBatch& batch, bool ordered);

/// Real ns per row to parse the footer and decode every row group of each
/// of `objects` (bucket "lake"), fetched from the store beforehand.
biglake::Result<PerBase> TimeDecode(Lake* lake,
                                    const std::vector<std::string>& objects);

/// Engine options of the marked correctness baseline: caches off, kernels
/// off, one worker, and the workload's fixed stream fan-out.
biglake::EngineOptions BaselineEngineOptions(uint32_t max_read_streams);

/// The dashboard world shared by dashboard_warm and tenant_replay: a
/// day-partitioned BigLake table `ds.sales` on object storage (metadata
/// cache on) governed by a row-access policy (user:analyst sees three of
/// four regions) and a hashed `email` column.
struct DashboardTables {
  std::string sales = "ds.sales";
  int days = 0;
  int stores_count = 0;
  uint64_t rows = 0;
};
biglake::Result<DashboardTables> BuildDashboardTables(Lake* lake,
                                                      uint64_t seed, int days,
                                                      int rows_per_day);

/// Number of parameterized dashboard SQL templates.
constexpr int kDashboardTemplates = 5;
/// SQL text of template `t` with parameter index `p` (any value; reduced
/// modulo the template's parameter space). `*ordered` reports whether the
/// result order is defined (ORDER BY with a total order).
std::string DashboardSql(const DashboardTables& t, int tmpl, uint64_t p,
                         bool* ordered);
/// Size of template `t`'s parameter space.
uint64_t DashboardParams(const DashboardTables& t, int tmpl);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

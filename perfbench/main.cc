// perfbench: the repository benchmark runner.
//
//   perfbench --workload <tpcds_cold|dashboard_warm|ingest_mixed|tenant_replay>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer breakdown. Both print one JSON object as
// the last line of stdout; perfbench/run.py builds this binary, runs it and
// reduces that object to the benchmark's result line. See WORKLOADS.md.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/profile.h"
#include "workload.h"

namespace perfbench {
namespace {

using biglake::obs::JsonWriter;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else {
      return false;
    }
  }
  return a->selftest || !a->workload.empty();
}

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "tpcds_cold") return MakeTpcdsCold(seed);
  if (name == "dashboard_warm") return MakeDashboardWarm(seed);
  if (name == "ingest_mixed") return MakeIngestMixed(seed);
  if (name == "tenant_replay") return MakeTenantReplay(seed);
  return nullptr;
}

/// Gauges and scheduling-dependent pool counters: excluded from the
/// round-to-round determinism check and from counter deltas' meaning.
bool IsDeterministicSeries(const std::string& series) {
  static const char* kNondeterministic[] = {
      "biglake_threadpool_",          "biglake_blockcache_bytes_pinned",
      "biglake_resultcache_bytes_pinned", "biglake_buf_buffers_live",
      "biglake_sched_slots_busy",     "biglake_sched_queue_depth_peak"};
  for (const char* p : kNondeterministic) {
    if (series.rfind(p, 0) == 0) return false;
  }
  return true;
}

/// Everything a complete round must repeat exactly.
struct Signature {
  std::vector<double> query_sim, commit_sim, queue_sim;
  std::map<std::string, double> det;
  Snapshot counters;

  bool operator==(const Signature& o) const {
    return query_sim == o.query_sim && commit_sim == o.commit_sim &&
           queue_sim == o.queue_sim && det == o.det && counters == o.counters;
  }
};

Signature SignatureOf(const RoundResult& r, const Snapshot& delta,
                      bool with_sim) {
  Signature s{{}, {}, {}, r.det, {}};
  if (with_sim) {
    s.query_sim = r.query_sim_ms;
    s.commit_sim = r.commit_sim_ms;
    s.queue_sim = r.queue_sim_ms;
  }
  for (const auto& [series, v] : delta) {
    if (!IsDeterministicSeries(series) || v == 0) continue;
    if (!with_sim && series.find("sim_micros") != std::string::npos) continue;
    s.counters[series] = v;
  }
  return s;
}

/// Describes the first difference between two signatures.
std::string SignatureDiff(const Signature& a, const Signature& b) {
  if (a.query_sim != b.query_sim) return "simulated query latencies differ";
  if (a.commit_sim != b.commit_sim) return "simulated commit latencies differ";
  if (a.queue_sim != b.queue_sim) return "simulated queueing latencies differ";
  for (const auto& [k, v] : a.det) {
    auto it = b.det.find(k);
    if (it == b.det.end() || it->second != v) return "round count " + k;
  }
  for (const auto& [k, v] : a.counters) {
    auto it = b.counters.find(k);
    if (it == b.counters.end() || it->second != v) return "counter " + k;
  }
  return "counter present only in a later round";
}

struct Emitted {
  double value = 0;
  std::string unit;
  std::string base;  // "n=…" or "numerator / base" description
  bool deterministic = false;
};

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

Emitted FromPer(const PerBase& p, std::string unit, bool deterministic) {
  return {p.value, std::move(unit),
          Fmt("%.17g", p.numerator) + " / " + Fmt("%.17g", p.base) + " " +
              p.base_name,
          deterministic};
}

void WriteMetrics(JsonWriter* w, const std::map<std::string, Emitted>& m) {
  w->BeginObject();
  for (const auto& [name, e] : m) {
    w->Key(name);
    w->BeginObject();
    // JsonWriter::Double keeps three decimals; values carry all digits.
    w->Key("value");
    w->String(Fmt("%.17g", e.value));
    w->Key("unit");
    w->String(e.unit);
    w->Key("base");
    w->String(e.base);
    w->Key("deterministic");
    w->Bool(e.deterministic);
    w->EndObject();
  }
  w->EndObject();
}

const char* BuildType() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    w = Make(args.workload, args.seed);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    const uint64_t t0 = NowNs();
    biglake::Status s = w->Setup();
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (biglake::Status s = w->PrepareOracle(); !s.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const uint64_t start = NowNs();
  const uint64_t total_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t untraced_end = start + (args.trace ? total_ns / 2 : total_ns);
  const uint64_t traced_end = start + total_ns;

  std::vector<RoundResult> untraced, traced;
  uint64_t untraced_complete = 0;
  Signature first_sig;
  Snapshot first_delta, first_after;
  double peak_rss_mib = 0;
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  SpanStats spans;
  spans.workers = w->workers();

  auto run_round = [&](bool is_traced, uint64_t deadline) -> bool {
    if (biglake::Status s = w->StartRound(); !s.ok()) {
      errors.push_back("round start: " + s.ToString());
      return false;
    }
    RoundResult r;
    const bool first = untraced.empty() && !is_traced;
    const Snapshot before = TakeSnapshot();
    biglake::Status s = w->RunRound(&r, is_traced ? &spans : nullptr,
                                    first ? UINT64_MAX : deadline);
    const Snapshot after = TakeSnapshot();
    if (!s.ok()) {
      errors.push_back("round: " + s.ToString());
      return false;
    }
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
    const Snapshot delta = Delta(before, after);
    if (!r.partial) {
      const Signature sig = SignatureOf(r, delta, w->rounds_repeat_sim());
      if (first) {
        // Peak RSS over set-up and one fixed round: later rounds only add
        // work in proportion to the machine's speed.
        peak_rss_mib = PeakRssMiB();
        first_sig = sig;
        first_delta = delta;
        first_after = after;
      } else if (!(sig == first_sig)) {
        ++failed;
        errors.push_back("nondeterminism: a repeated round differs from the "
                         "first (" + SignatureDiff(first_sig, sig) + ")");
      }
    }
    (is_traced ? traced : untraced).push_back(std::move(r));
    if (!is_traced && !untraced.back().partial) ++untraced_complete;
    return true;
  };

  bool ok = run_round(false, untraced_end);
  while (ok && NowNs() < untraced_end) ok = run_round(false, untraced_end);
  if (ok && args.trace) {
    // At least one complete traced round, however long it takes.
    ok = run_round(true, UINT64_MAX);
    while (ok && NowNs() < traced_end) ok = run_round(true, traced_end);
  }
  ProbeResult probe;
  if (ok && args.trace) {
    if (biglake::Status s = w->Probe(&probe); !s.ok()) {
      errors.push_back("probe: " + s.ToString());
      ok = false;
    }
  }
  if (!ok) ++failed;
  if (untraced.empty()) {
    for (const std::string& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
    return 1;
  }

  // ---- end-to-end metrics (untraced rounds) --------------------------------
  const RoundResult& r1 = untraced.front();
  std::vector<double> q_ms, c_ms;
  double op_s = 0, rows_in = 0;
  uint64_t ops = 0;
  for (const RoundResult& r : untraced) {
    q_ms.insert(q_ms.end(), r.query_ms.begin(), r.query_ms.end());
    c_ms.insert(c_ms.end(), r.commit_ms.begin(), r.commit_ms.end());
    op_s += r.op_seconds;
    rows_in += r.rows_ingested;
    ops += r.attempted;
  }
  auto n = [](const std::vector<double>& v) {
    return "n=" + std::to_string(v.size());
  };
  std::map<std::string, Emitted> e2e, extra;
  e2e["setup_s"] = {NearestRank(setup_s, 50), "s",
                    "median of n=" + std::to_string(setup_s.size())};
  e2e["queries_per_s"] = {q_ms.size() / std::max(op_s, 1e-9), "1/s",
                          n(q_ms) + " over " + Fmt("%.3f", op_s) + " s"};
  e2e["query_p50_ms"] = {NearestRank(q_ms, 50), "ms", n(q_ms)};
  e2e["query_p95_ms"] = {NearestRank(q_ms, 95), "ms", n(q_ms)};
  e2e["peak_rss_mb"] = {peak_rss_mib, "MiB",
                        "VmHWM after set-up and round 1"};
  // Simulated latencies are deterministic per seed: they are checked for
  // exact equality (rounds here, runs in compare.py), not for noise.
  extra["sim_query_p50_ms"] = {NearestRank(r1.query_sim_ms, 50), "ms",
                               n(r1.query_sim_ms), true};
  extra["sim_query_p95_ms"] = {NearestRank(r1.query_sim_ms, 95), "ms",
                               n(r1.query_sim_ms), true};
  extra["ops_failed_ratio"] = {
      static_cast<double>(failed) / std::max<uint64_t>(attempted, 1), "ratio",
      std::to_string(failed) + " / " + std::to_string(attempted) + " ops"};
  if (!r1.commit_sim_ms.empty()) {
    extra["commit_p50_ms"] = {NearestRank(c_ms, 50), "ms", n(c_ms)};
    extra["commit_p99_ms"] = {NearestRank(c_ms, 99), "ms", n(c_ms)};
    extra["rows_ingested_per_s"] = {rows_in / std::max(op_s, 1e-9), "rows/s",
                                    Fmt("%.0f rows", rows_in)};
    extra["sim_commit_p99_ms"] = {NearestRank(r1.commit_sim_ms, 99), "ms",
                                  n(r1.commit_sim_ms), true};
  }
  if (!r1.queue_sim_ms.empty()) {
    extra["sim_queue_p99_ms"] = {NearestRank(r1.queue_sim_ms, 99), "ms",
                                 n(r1.queue_sim_ms) + " interactive", true};
  }

  // ---- per-layer metrics (traced rounds + round-1 counter deltas) ----------
  std::map<std::string, Emitted> layer;
  if (args.trace && ok) {
    const Snapshot& d = first_delta;
    const double queries = static_cast<double>(r1.query_ms.size());
    auto det = [&](const char* k) {
      auto it = r1.det.find(k);
      return it == r1.det.end() ? 0.0 : it->second;
    };
    auto fam = [&](const char* f,
                   std::vector<std::pair<std::string, std::string>> l = {}) {
      return SumFamily(d, f, l);
    };
    auto count = [&](const std::string& name, double v, std::string unit,
                     std::string base) {
      layer[name] = {v, std::move(unit), std::move(base), true};
    };
    auto per = [&](const std::string& name, PerBase p, std::string unit,
                   bool deterministic) {
      layer[name] = FromPer(p, std::move(unit), deterministic);
    };
    double traced_queries = 0, traced_op_s = 0, traced_ops = 0;
    std::map<std::string, double> call_ns, call_n;
    for (const RoundResult& r : traced) {
      traced_queries += r.query_ms.size();
      traced_op_s += r.op_seconds;
      traced_ops += r.attempted;
      for (const auto& [k, v] : r.call_ns) call_ns[k] += v;
      for (const auto& [k, v] : r.call_count) call_n[k] += v;
    }
    auto span = [&](const char* name) {
      auto it = spans.by_name.find(name);
      return it == spans.by_name.end() ? SpanTotals{} : it->second;
    };
    auto call = [&](const char* name, const char* unit_base) {
      return Per(call_ns[name], call_n[name], unit_base);
    };
    const std::string round1 = "in round 1";

    // objstore
    per("objstore.requests_per_query",
        Per(fam("biglake_objstore_requests_total"), queries, "queries"),
        "count/query", true);
    per("objstore.read_bytes_per_query",
        Per(fam("biglake_objstore_read_bytes_total"), queries, "queries"),
        "B/query", true);
    per("objstore.get_ns_per_query",
        Per(span("objstore:get").real_ns + span("objstore:get_range").real_ns,
            traced_queries, "traced queries"),
        "ns/query", false);
    per("objstore.write_bytes_per_row",
        Per(fam("biglake_objstore_write_bytes_total"), r1.rows_ingested,
            "rows ingested"),
        "B/row", true);
    // format
    for (const char* k : {"format.decode_ns_per_row", "format.encode_ns_per_row",
                          "columnar.concat_ns_per_scan"}) {
      auto it = probe.values.find(k);
      per(k, it == probe.values.end() ? PerBase{0, 0, 0, "not probed"}
                                      : it->second,
          std::strstr(k, "scan") ? "ns/scan" : "ns/row", false);
    }
    // meta
    const double files_scanned = fam("biglake_engine_files_scanned_total");
    const double files_pruned = fam("biglake_readapi_files_pruned_total");
    per("meta.files_pruned_ratio",
        Per(files_pruned, files_pruned + files_scanned, "files considered"),
        "ratio", true);
    per("meta.metacache_lookups_per_query",
        Per(fam("biglake_metacache_lookups_total"), queries, "queries"),
        "count/query", true);
    {
      const SpanTotals t = span("txn:commit");
      per("meta.txn_commit_ns", Per(t.real_ns, t.count, "txn:commit spans"),
          "ns/commit", false);
    }
    per("meta.txn_log_bytes_read_per_commit",
        Per(det("txn_commit_bytes_read"), det("txn_commits_measured"),
            "txn commits"),
        "B/commit", true);
    count("meta.txn_aborts", fam("biglake_txn_aborts_total"), "count",
          round1);
    // fault
    count("fault.retries", fam("biglake_retries_total"), "count", round1);
    for (const char* site : {"txn_log", "txn_intent", "write_commit",
                             "read_rows", "obj_cas"}) {
      count(std::string("fault.retries.") + site,
            fam("biglake_retries_total", {{"site", site}}), "count", round1);
    }
    // core
    {
      const SpanTotals t = span("readapi:create_session");
      per("core.read_api.create_session_ns",
          Per(t.real_ns, t.count, "sessions"), "ns/session", false);
      per("core.read_api.read_rows_self_ns",
          Per(span("readapi:read_rows").self_ns, traced_queries,
              "traced queries"),
          "ns/query", false);
    }
    per("core.read_api.streams_per_scan",
        Per(fam("biglake_readapi_stream_fanout_sum"),
            fam("biglake_readapi_stream_fanout_count"), "sessions"),
        "count/scan", true);
    per("core.read_api.bytes_returned_per_row",
        Per(fam("biglake_readapi_bytes_returned_total"),
            fam("biglake_readapi_rows_returned_total"), "rows returned"),
        "B/row", true);
    per("core.write_api.append_ns", call("write_append", "AppendRows calls"),
        "ns/call", false);
    per("core.write_api.batch_commit_ns",
        call("write_batch_commit", "BatchCommit calls"), "ns/call", false);
    per("core.blmt.dml_ns", call("blmt_dml", "DML staging calls"), "ns/call",
        false);
    per("core.blmt.optimize_ns", call("blmt_optimize", "OptimizeStorage calls"),
        "ns/call", false);
    // columnar
    // Per row the Read API handed out: the rows every copy is about.
    const double rows_read = fam("biglake_readapi_rows_returned_total");
    per("columnar.bytes_copied_per_row",
        Per(fam("biglake_buf_bytes_copied_total"), rows_read,
            "rows read through the Read API"),
        "B/row", true);
    per("columnar.bytes_allocated_per_row",
        Per(fam("biglake_buf_bytes_allocated_total"), rows_read,
            "rows read through the Read API"),
        "B/row", true);
    per("columnar.rows_evaluated_per_query",
        Per(fam("biglake_expr_rows_evaluated_total"), queries, "queries"),
        "rows/query", true);
    per("columnar.selvec_materializations",
        Per(fam("biglake_selvec_materializations_total"), queries, "queries"),
        "count/query", true);
    count("columnar.ipc_serialize", fam("biglake_ipc_serialize_total"),
          "count", round1 + " (0 in-process)");
    // cache
    {
      const double hits = fam("biglake_blockcache_hits_total", {{"kind", "block"}});
      const double misses =
          fam("biglake_blockcache_misses_total", {{"kind", "block"}});
      per("cache.block_hit_ratio", Per(hits, hits + misses, "block lookups"),
          "ratio", true);
    }
    count("cache.block_evictions", fam("biglake_blockcache_evictions_total"),
          "count", round1);
    count("cache.block_bytes_pinned",
          SumFamily(first_after, "biglake_blockcache_bytes_pinned"), "B",
          "gauge at the end of round 1");
    {
      const double hits = fam("biglake_resultcache_hits_total");
      const double misses = fam("biglake_resultcache_misses_total");
      per("cache.result_hit_ratio", Per(hits, hits + misses, "result probes"),
          "ratio", true);
    }
    count("cache.result_invalidations",
          fam("biglake_resultcache_invalidations_total"), "count", round1);
    count("cache.admission_rejected",
          fam("biglake_cache_admission_rejected_total"), "count", round1);
    // engine
    per("engine.parse_ns", call("parse", "ParseSql calls"), "ns/call", false);
    per("engine.plan_fingerprint_ns",
        call("plan_fingerprint", "PlanFingerprint calls"), "ns/call", false);
    per("engine.result_cache_hit_ns",
        call("result_cache_hit", "result-cache hits"), "ns/hit", false);
    for (const auto& [metric, span_name] :
         std::vector<std::pair<std::string, const char*>>{
             {"engine.op_scan_self_ns", "op:scan"},
             {"engine.op_join_self_ns", "op:hash_join"},
             {"engine.op_aggregate_self_ns", "op:aggregate"},
             {"engine.op_sort_self_ns", "op:order_by"}}) {
      per(metric, Per(span(span_name).self_ns, traced_queries,
                      "traced queries"),
          "ns/query", false);
    }
    per("engine.files_scanned_per_query",
        Per(files_scanned, queries, "queries"), "count/query", true);
    per("engine.scan_parallel_efficiency",
        Per(spans.scan_stream_ns,
            static_cast<double>(spans.workers) * spans.scan_wall_ns,
            "workers x op:scan ns"),
        "ratio", false);
    // common
    per("common.thread_pool.tasks_per_query",
        Per(fam("biglake_threadpool_tasks_total"), queries, "queries"),
        "count/query", false);
    per("common.thread_pool.steals_per_query",
        Per(fam("biglake_threadpool_steals_total"), queries, "queries"),
        "count/query", false);
    per("common.thread_pool.inline_runs_per_query",
        Per(fam("biglake_threadpool_inline_runs_total"), queries, "queries"),
        "count/query", false);
    // sched
    {
      const SpanTotals q = span("sched:query");
      per("sched.dispatch_ns_per_query",
          Per(std::max(0.0, call_ns["run_all"] - q.real_ns), q.count,
              "dispatched queries"),
          "ns/query", false);
    }
    count("sched.queue_depth_peak", det("sched_queue_depth_peak"), "count",
          round1);
    count("sched.slot_occupancy", det("sched_slot_occupancy"), "ratio",
          round1);
    count("sched.rejected", fam("biglake_sched_rejected_total"), "count",
          round1);
    for (const char* reason : {"lane_queue_full", "tenant_queue_full",
                               "cache_pressure", "quota_impossible"}) {
      count(std::string("sched.rejected.") + reason,
            fam("biglake_sched_rejected_total", {{"reason", reason}}), "count",
            round1);
    }
    // obs
    per("obs.tracing_overhead_ratio",
        Per(traced_ops > 0 ? traced_op_s / traced_ops : 0,
            ops > 0 ? op_s / ops : 0, "untraced s/op"),
        "ratio", false);
  }

  // ---- result ----------------------------------------------------------------
  const bool correct = failed == 0;
  JsonWriter j;
  j.BeginObject();
  j.Key("workload");
  j.String(args.workload);
  j.Key("seed");
  j.Uint(args.seed);
  j.Key("trace");
  j.Uint(args.trace ? 1 : 0);
  j.Key("correct");
  j.Bool(correct);
  j.Key("attempted");
  j.Uint(std::max<uint64_t>(attempted, 1));
  j.Key("failed");
  j.Uint(failed);
  j.Key("errors");
  j.BeginArray();
  for (const std::string& e : errors) j.String(e);
  j.EndArray();
  j.Key("end_to_end");
  WriteMetrics(&j, e2e);
  j.Key("extra_end_to_end");
  WriteMetrics(&j, extra);
  j.Key("per_layer");
  WriteMetrics(&j, layer);
  j.Key("rounds");
  j.BeginObject();
  j.Key("untraced");
  j.Uint(untraced.size());
  j.Key("untraced_complete");
  j.Uint(untraced_complete);
  j.Key("traced");
  j.Uint(traced.size());
  j.EndObject();
  j.Key("info");
  j.BeginObject();
  for (const auto& [k, v] : w->Info()) {
    j.Key(k);
    j.String(v);
  }
  j.Key("nproc");
  j.Uint(std::thread::hardware_concurrency());
  j.Key("build_type");
  j.String(BuildType());
  j.Key("compiler");
  j.String(__VERSION__);
  j.EndObject();
  j.EndObject();
  std::printf("%s\n", j.str().c_str());
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> | --selftest\n");
    return 2;
  }
  if (args.selftest) {
    const int failures = perfbench::SelfTest();
    std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  return perfbench::Run(args);
}

#include <algorithm>
#include <cstdio>

#include "format/parquet_lite.h"
#include "workload.h"

namespace perfbench {

using namespace biglake;

Lake::Lake() {
  store = env.AddStore(gcp);
  (void)store->CreateBucket("lake");
  (void)env.catalog().CreateDataset("ds");
  Connection conn;
  conn.name = "us.lake-conn";
  conn.service_account.principal = "sa:lake-conn";
  (void)env.catalog().CreateConnection(conn);
}

void RoundResult::Fail(std::string what) {
  ++failed;
  if (errors.size() < 5) errors.push_back(std::move(what));
}

uint64_t ResultDigest(const RecordBatch& batch, bool ordered) {
  std::vector<std::string> rows(batch.num_rows());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      const Value v = batch.GetValue(r, c);
      if (v.is_double()) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", v.double_value());
        rows[r] += buf;
      } else {
        rows[r] += v.ToString();
      }
      rows[r] += '\x1f';
    }
  }
  if (!ordered) std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](const std::string& s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 1099511628211ull;
    }
    h ^= 0x1e;
    h *= 1099511628211ull;
  };
  for (const Field& f : batch.schema()->fields()) mix(f.name);
  for (const std::string& row : rows) mix(row);
  return h;
}

Result<PerBase> TimeDecode(Lake* lake, const std::vector<std::string>& objects) {
  uint64_t decode_ns = 0, rows = 0;
  for (const std::string& name : objects) {
    BL_ASSIGN_OR_RETURN(std::string bytes,
                        lake->store->Get(lake->Caller(), "lake", name));
    StringSource source(std::move(bytes));
    const uint64_t t0 = NowNs();
    BL_ASSIGN_OR_RETURN(ParquetFileMeta meta, ReadParquetFooter(source));
    VectorizedReader reader(&source, meta);
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      BL_ASSIGN_OR_RETURN(RecordBatch b, reader.ReadRowGroup(g));
      rows += b.num_rows();
    }
    decode_ns += NowNs() - t0;
  }
  return Per(static_cast<double>(decode_ns), rows, "rows decoded");
}

EngineOptions BaselineEngineOptions(uint32_t max_read_streams) {
  EngineOptions o;
  o.num_workers = 1;
  o.max_read_streams = max_read_streams;
  o.enable_block_cache = false;
  o.enable_result_cache = false;
  o.enable_vectorized_kernels = false;
  return o;
}

// ---- span folding -----------------------------------------------------------

namespace {

std::string SpanKey(const std::string& name) {
  // "stream:3" → "stream": fan-out slots aggregate under one name.
  const size_t colon = name.rfind(':');
  if (colon != std::string::npos && colon + 1 < name.size() &&
      std::all_of(name.begin() + colon + 1, name.end(),
                  [](char c) { return c >= '0' && c <= '9'; })) {
    return name.substr(0, colon);
  }
  return name;
}

}  // namespace

void SpanStats::Add(const obs::Span& root) {
  for (const auto& child : root.children()) {
    const obs::Span& s = *child;
    if (!s.finished()) continue;
    const uint64_t dur = s.wall_nanos();
    std::vector<Interval> placed;
    std::vector<uint64_t> fan;
    uint64_t t = 0;
    for (const auto& c : s.children()) {
      if (!c->finished()) continue;
      if (c->kind() == obs::Span::kStream) {
        fan.push_back(c->wall_nanos());
      } else {
        placed.push_back({t, t + c->wall_nanos()});
        t += c->wall_nanos();
      }
    }
    for (const Interval& i : ListSchedule(t, fan, workers)) placed.push_back(i);
    SpanTotals& totals = by_name[SpanKey(s.name())];
    ++totals.count;
    totals.real_ns += dur;
    totals.self_ns += SelfTime({0, dur}, placed);
    if (s.name() == "op:scan" && !fan.empty()) {
      for (uint64_t d : fan) scan_stream_ns += d;
      scan_wall_ns += dur;
    }
    Add(s);
  }
}

TraceScope::TraceScope(const SimEnv* sim, SpanStats* stats) : stats_(stats) {
  if (stats_ == nullptr) return;
  tracer_ = std::make_unique<obs::Tracer>(sim);
  obs::Span* root = tracer_->StartRoot("perfbench:op", obs::Span::kQuery);
  context_ = std::make_unique<obs::ScopedTraceContext>(tracer_.get(), root);
}

TraceScope::~TraceScope() {
  if (stats_ == nullptr) return;
  context_.reset();
  tracer_->root()->End(tracer_->sim());
  stats_->Add(*tracer_->root());
}

}  // namespace perfbench

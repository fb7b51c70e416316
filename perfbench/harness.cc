#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sched.h>

#include "obs/metrics.h"

namespace perfbench {

double NearestRank(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

uint64_t UnionLength(const Interval& parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::clamp(c.begin, parent.begin, parent.end);
    c.end = std::clamp(c.end, parent.begin, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  uint64_t covered = 0;
  uint64_t run_begin = 0, run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (c.end <= c.begin) continue;
    if (open && c.begin <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = c.begin;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

uint64_t SelfTime(const Interval& parent,
                  const std::vector<Interval>& children) {
  const uint64_t length =
      parent.end > parent.begin ? parent.end - parent.begin : 0;
  return length - UnionLength(parent, children);
}

std::vector<Interval> ListSchedule(uint64_t start,
                                   const std::vector<uint64_t>& durations,
                                   uint32_t workers) {
  std::vector<uint64_t> lane_free(std::max<uint32_t>(workers, 1), start);
  std::vector<Interval> out;
  out.reserve(durations.size());
  for (uint64_t d : durations) {
    auto lane = std::min_element(lane_free.begin(), lane_free.end());
    out.push_back({*lane, *lane + d});
    *lane += d;
  }
  return out;
}

Snapshot ParseExposition(const std::string& text) {
  Snapshot snap;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    snap[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return snap;
}

Snapshot TakeSnapshot() {
  return ParseExposition(
      biglake::obs::MetricsRegistry::Default().DumpMetrics());
}

Snapshot Delta(const Snapshot& before, const Snapshot& after) {
  Snapshot out;
  for (const auto& [series, value] : after) {
    auto it = before.find(series);
    out[series] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

std::string LabelValue(std::string_view series, std::string_view key) {
  const std::string needle = std::string(key) + "=\"";
  size_t pos = series.find('{');
  while (pos != std::string_view::npos) {
    pos = series.find(needle, pos);
    if (pos == std::string_view::npos) return "";
    const char before = series[pos - 1];
    if (before == '{' || before == ',') {
      const size_t begin = pos + needle.size();
      const size_t end = series.find('"', begin);
      return std::string(series.substr(begin, end - begin));
    }
    pos += needle.size();
  }
  return "";
}

double SumFamily(
    const Snapshot& snap, std::string_view family,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  double total = 0;
  for (auto it = snap.lower_bound(std::string(family)); it != snap.end();
       ++it) {
    const std::string& series = it->first;
    if (series.compare(0, family.size(), family) != 0) break;
    if (series.size() > family.size() && series[family.size()] != '{') {
      continue;  // a longer family name sharing this prefix
    }
    bool match = true;
    for (const auto& [k, v] : labels) {
      if (LabelValue(series, k) != v) {
        match = false;
        break;
      }
    }
    if (match) total += it->second;
  }
  return total;
}

PerBase Per(double numerator, double base, std::string base_name) {
  return {base > 0 ? numerator / base : 0.0, numerator, base,
          std::move(base_name)};
}

void RotateCpu() {
  static uint64_t last_ns = 0;
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  static int next = 0;
  const uint64_t now = NowNs();
  if (now - last_ns < 20'000'000) return;
  last_ns = now;
  const int n = CPU_COUNT(&allowed);
  if (n <= 1) return;
  for (int tries = 0; tries < CPU_SETSIZE; ++tries) {
    next = (next + 1) % CPU_SETSIZE;
    if (CPU_ISSET(next, &allowed)) break;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(next, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

// ---- self-test on hand-built inputs ---------------------------------------

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

}  // namespace

int SelfTest() {
  g_failures = 0;
  // Nearest rank on 1..10: p50 = 5th value, p95 = 10th, p10 = 1st.
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);  // order must not matter
  Check(NearestRank(ten, 50) == 5, "p50 of 1..10 is 5");
  Check(NearestRank(ten, 95) == 10, "p95 of 1..10 is 10");
  Check(NearestRank(ten, 10) == 1, "p10 of 1..10 is 1");
  Check(NearestRank(ten, 100) == 10, "p100 is the maximum");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Check(NearestRank(hundred, 95) == 95, "p95 of 1..100 is 95");
  Check(NearestRank(hundred, 99) == 99, "p99 of 1..100 is 99");
  Check(NearestRank({7}, 50) == 7, "single sample");
  Check(NearestRank({}, 50) == 0, "empty sample");

  // Interval union: [0,100) parent; children [10,30) [20,50) overlap,
  // [60,70) disjoint, [90,120) clipped to [90,100).
  const Interval parent{0, 100};
  const std::vector<Interval> kids{{10, 30}, {20, 50}, {60, 70}, {90, 120}};
  Check(UnionLength(parent, kids) == 40 + 10 + 10, "union of overlapping");
  Check(SelfTime(parent, kids) == 40, "self time of overlapping children");
  Check(SelfTime(parent, {}) == 100, "no children: self = duration");
  Check(SelfTime(parent, {{0, 100}, {0, 100}}) == 0,
        "identical children fully cover");
  Check(SelfTime({50, 60}, {{0, 55}}) == 5, "child clipped at parent start");
  // Sequential children: the union equals the sum of their durations.
  Check(SelfTime(parent, {{0, 25}, {25, 50}}) == 50, "sequential children");

  // List scheduling: 5 slots of 10 on 2 lanes → [0,10) [0,10) [10,20)
  // [10,20) [20,30): union 30.
  auto placed = ListSchedule(0, {10, 10, 10, 10, 10}, 2);
  Check(placed.size() == 5 && placed[4].begin == 20 && placed[4].end == 30,
        "list schedule places the fifth slot third on a lane");
  Check(UnionLength({0, 100}, placed) == 30, "union of a 2-lane schedule");

  // Counter deltas from exposition text, with label filters.
  const Snapshot before = ParseExposition(
      "# TYPE biglake_x_total counter\n"
      "biglake_x_total{cloud=\"gcp\",op=\"get\"} 10\n"
      "biglake_x_total{cloud=\"gcp\",op=\"put\"} 4\n"
      "biglake_x_total_extra 99\n");
  const Snapshot after = ParseExposition(
      "biglake_x_total{cloud=\"gcp\",op=\"get\"} 25\n"
      "biglake_x_total{cloud=\"gcp\",op=\"put\"} 4\n"
      "biglake_x_total{cloud=\"aws\",op=\"get\"} 3\n"
      "biglake_x_total_extra 120\n");
  const Snapshot d = Delta(before, after);
  Check(SumFamily(d, "biglake_x_total") == 18, "family delta sums series");
  Check(SumFamily(d, "biglake_x_total", {{"op", "get"}}) == 18,
        "label filter op=get");
  Check(SumFamily(d, "biglake_x_total", {{"cloud", "gcp"}}) == 15,
        "label filter cloud=gcp");
  Check(SumFamily(d, "biglake_x_total", {{"op", "list"}}) == 0,
        "unmatched label filter");
  Check(SumFamily(d, "biglake_x_total_extra") == 21,
        "longer family names are separate");
  Check(LabelValue("m{a=\"1\",ba=\"2\"}", "a") == "1", "label value a");
  Check(LabelValue("m{a=\"1\",ba=\"2\"}", "ba") == "2", "label value ba");

  // Ratios keep their base; a zero base reports 0, not a division fault.
  const PerBase r = Per(300, 100, "rows");
  Check(r.value == 3 && r.base == 100 && r.base_name == "rows",
        "ratio keeps numerator and base");
  Check(Per(5, 0, "queries").value == 0, "zero base reports 0");
  return g_failures;
}

}  // namespace perfbench

// Measurement helpers shared by every perfbench workload: nearest-rank
// percentiles, interval-union self time over trace spans, and counter
// deltas parsed from the metrics registry's text exposition. Each helper is
// checked on hand-built inputs by `perfbench --selftest`.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample x such that at least
/// `pct` percent of the samples are <= x (rank ceil(pct/100 * n), 1-based).
/// `pct` in (0, 100]. Returns 0 for an empty sample.
double NearestRank(std::vector<double> samples, double pct);

/// A half-open time interval [begin, end).
struct Interval {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Length of the union of `children`, each clipped to `parent`.
uint64_t UnionLength(const Interval& parent, std::vector<Interval> children);

/// Self time: the parent's length minus the union of its children's
/// intervals. Children may overlap one another (stream spans on pool
/// threads), so their durations are not simply subtracted.
uint64_t SelfTime(const Interval& parent, const std::vector<Interval>& children);

/// Places `durations` (in slot order) on `workers` lanes starting at
/// `start`, each on the lane that frees up first — the order a thread pool
/// drains a fan-out. Used where the program's spans expose real durations
/// but not real start stamps.
std::vector<Interval> ListSchedule(uint64_t start,
                                   const std::vector<uint64_t>& durations,
                                   uint32_t workers);

/// Series key ("name{k=\"v\",...}") → value, parsed from
/// obs::MetricsRegistry::DumpMetrics text. Histogram families contribute
/// their `_sum`, `_count` and `_bucket` series.
using Snapshot = std::map<std::string, double>;

Snapshot ParseExposition(const std::string& text);
/// Reads the process-wide registry.
Snapshot TakeSnapshot();
/// after - before, series by series (series absent before count from 0).
Snapshot Delta(const Snapshot& before, const Snapshot& after);

/// Sum over the series of `family` whose labels include every pair in
/// `labels` (an empty filter matches every series of the family).
double SumFamily(const Snapshot& snap, std::string_view family,
                 const std::vector<std::pair<std::string, std::string>>&
                     labels = {});

/// Label value of `key` in a series key, or "" when absent.
std::string LabelValue(std::string_view series, std::string_view key);

/// A count or time reported per unit of some base, e.g. bytes per row.
/// The base is kept so the ratio is always shown with it.
struct PerBase {
  double value = 0;  // numerator / base, or 0 when the base is 0
  double numerator = 0;
  double base = 0;
  std::string base_name;
};
PerBase Per(double numerator, double base, std::string base_name);

/// Monotonic wall clock in nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Moves the calling thread to the next CPU it may run on, at most once
/// every 20 ms. A single-threaded loop otherwise stays on whichever CPU it
/// started on for the whole run, and on a shared host CPUs differ in speed
/// from second to second; rotating makes every run sample all of them.
void RotateCpu();

/// Peak resident set of this process in MiB (VmHWM), or 0 if unreadable.
double PeakRssMiB();

/// Runs the helper checks on hand-built inputs; returns the number of
/// failed checks and prints each failure to stderr.
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

// The benchmark's own arithmetic: percentiles and their sample support,
// self time of a span with overlapping children, and the open-loop rate
// ladder's pass/fail rule. Pure functions, unit-tested on synthetic inputs
// in tests/stats_test.cc.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of unsorted samples: the value
/// at rank ceil(p/100 * n) of the sorted samples. 0 for no samples.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// How many of n samples lie strictly beyond the nearest-rank p-th
/// percentile: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

/// The highest percentile among `candidates` (ascending) that has at least
/// `min_beyond` of n samples beyond it; 0 when none has.
double HighestSupportedPercentile(
    size_t n, const std::vector<double>& candidates = {50, 90, 99, 99.9,
                                                       99.99},
    size_t min_beyond = 10);

/// Median over consecutive windows of `window` samples (a trailing
/// partial window is dropped) of each window's p-th percentile: a
/// percentile that one transient stall cannot move. 0 without a window.
double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double p);

/// A closed time interval [begin, end] (any unit, begin <= end).
struct Interval {
  double begin = 0;
  double end = 0;
  double length() const { return end - begin; }
};

/// Total length covered by the union of `intervals`, each first clipped to
/// `clip` (overlapping intervals count once).
double UnionLength(std::vector<Interval> intervals, const Interval& clip);

/// A span's self time: its length minus the union of its children's
/// intervals inside it. Children may overlap each other (a scatter's
/// concurrent calls) and may stick out of the span; neither is double
/// counted.
double SelfTime(const Interval& span, const std::vector<Interval>& children);

/// Median of the final tenth (at least one sample) of per-request start
/// lags, in schedule order: how far behind its schedule the sender was
/// when the ladder rung ended.
double TailLag(const std::vector<double>& start_lags);

/// One rung of the open-loop rate ladder.
struct RungStats {
  double rate = 0;         // requests per second offered
  size_t sent = 0;         // requests actually sent
  size_t failed = 0;       // errors, refusals and wrong answers
  double p99_us = 0;       // due-time latency p99 (failed = infinite)
  double late_frac = 0;    // share of sends the generator woke up late for
  double tail_lag_ms = 0;  // TailLag of send-start minus due, ms
  bool aborted = false;    // stopped early because the backlog ran away
};

/// The ladder's rule. A rung is INVALID when its generator fell behind:
/// more than max_late_frac of its sends went out late because the sender
/// itself woke up late (the offered rate was not the rate intended, so the
/// rung proves nothing either way). A valid rung MEETS
/// the limit when nothing failed, p99 <= p99_limit_us, and there is no
/// growing backlog: the rung was not aborted and its tail lag stayed
/// within backlog_limit_ms.
struct RungRule {
  double p99_limit_us = 0;
  double max_late_frac = 0;
  double backlog_limit_ms = 0;
};

enum class RungVerdict { kMeets, kMissesLimit, kBacklog, kInvalid };

RungVerdict JudgeRung(const RungStats& rung, const RungRule& rule);
const char* VerdictName(RungVerdict verdict);

/// The highest rate among `rungs` whose verdict is kMeets; 0 when none.
double MaxRate(const std::vector<RungStats>& rungs, const RungRule& rule);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

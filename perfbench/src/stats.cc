#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double p) {
  // The tolerance keeps binary rounding of p/100 * n, which can land just
  // above an exact integer rank, from pushing the rank up by one.
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-7);
  if (rank < 1) rank = 1;
  if (rank > static_cast<double>(n)) rank = static_cast<double>(n);
  return static_cast<size_t>(rank);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double p) {
  std::vector<double> per_window;
  for (size_t b = 0; window > 0 && b + window <= samples.size(); b += window) {
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + b, samples.begin() + b + window),
        p));
  }
  return Median(std::move(per_window));
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

double HighestSupportedPercentile(size_t n,
                                  const std::vector<double>& candidates,
                                  size_t min_beyond) {
  double best = 0;
  for (double p : candidates) {
    if (SamplesBeyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

double UnionLength(std::vector<Interval> intervals, const Interval& clip) {
  for (Interval& iv : intervals) {
    iv.begin = std::max(iv.begin, clip.begin);
    iv.end = std::min(iv.end, clip.end);
  }
  std::erase_if(intervals, [](const Interval& iv) { return iv.end <= iv.begin; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double total = 0;
  double cur_begin = 0;
  double cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (open && iv.begin <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
      continue;
    }
    if (open) total += cur_end - cur_begin;
    cur_begin = iv.begin;
    cur_end = iv.end;
    open = true;
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

double SelfTime(const Interval& span, const std::vector<Interval>& children) {
  return span.length() - UnionLength(children, span);
}

double TailLag(const std::vector<double>& start_lags) {
  if (start_lags.empty()) return 0;
  size_t tail = std::max<size_t>(1, start_lags.size() / 10);
  return Median(std::vector<double>(start_lags.end() - tail, start_lags.end()));
}

RungVerdict JudgeRung(const RungStats& rung, const RungRule& rule) {
  if (rung.late_frac > rule.max_late_frac) return RungVerdict::kInvalid;
  if (rung.aborted || rung.tail_lag_ms > rule.backlog_limit_ms) {
    return RungVerdict::kBacklog;
  }
  if (rung.failed > 0 || rung.sent == 0 || !(rung.p99_us <= rule.p99_limit_us)) {
    return RungVerdict::kMissesLimit;
  }
  return RungVerdict::kMeets;
}

const char* VerdictName(RungVerdict verdict) {
  switch (verdict) {
    case RungVerdict::kMeets:
      return "meets";
    case RungVerdict::kMissesLimit:
      return "misses-limit";
    case RungVerdict::kBacklog:
      return "backlog";
    case RungVerdict::kInvalid:
      return "invalid";
  }
  return "?";
}

double MaxRate(const std::vector<RungStats>& rungs, const RungRule& rule) {
  double best = 0;
  for (const RungStats& rung : rungs) {
    if (JudgeRung(rung, rule) == RungVerdict::kMeets) {
      best = std::max(best, rung.rate);
    }
  }
  return best;
}

}  // namespace perfbench

// Unit tests of the benchmark's own arithmetic on synthetic inputs:
// percentiles, self time, the rate ladder's rule and the trace breakdown.
// Standalone (no test framework): exits nonzero on the first failure.
// run.py runs it after every build, before any workload.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::Interval;
using perfbench::RungRule;
using perfbench::RungStats;
using perfbench::RungVerdict;

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  CHECK(Near(perfbench::Percentile(v, 50), 50));
  CHECK(Near(perfbench::Percentile(v, 99), 99));
  CHECK(Near(perfbench::Percentile(v, 100), 100));
  CHECK(Near(perfbench::Median({3, 1, 2}), 2));
  CHECK(Near(perfbench::Percentile({}, 50), 0));
  // A failed request counts as missing every limit.
  std::vector<double> with_fail(99, 1.0);
  with_fail.push_back(INFINITY);
  CHECK(std::isinf(perfbench::Percentile(with_fail, 100)));
  CHECK(Near(perfbench::Percentile(with_fail, 99), 1.0));
}

void TestWindowedPercentile() {
  // Three windows of 4; the stall in the middle window moves only it.
  std::vector<double> v = {1, 2, 3, 4, 1, 2, 3, 400, 1, 2, 3, 5, 9};
  CHECK(Near(perfbench::WindowedPercentile(v, 4, 100), 5));  // of 4, 400, 5
  CHECK(Near(perfbench::WindowedPercentile(v, 4, 50), 2));
  CHECK(Near(perfbench::WindowedPercentile(v, 100, 50), 0));  // no full window
}

void TestSupportedPercentile() {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  CHECK(perfbench::SamplesBeyond(1000, 99) == 10);
  CHECK(perfbench::SamplesBeyond(1000, 99.9) == 1);
  CHECK(Near(perfbench::HighestSupportedPercentile(1000), 99));
  // 999 samples: p99 has 9 beyond, so only p90 qualifies.
  CHECK(Near(perfbench::HighestSupportedPercentile(999), 90));
  CHECK(Near(perfbench::HighestSupportedPercentile(100), 90));
  CHECK(Near(perfbench::HighestSupportedPercentile(99), 50));
  CHECK(Near(perfbench::HighestSupportedPercentile(10000), 99.9));
  CHECK(Near(perfbench::HighestSupportedPercentile(100000), 99.99));
  CHECK(Near(perfbench::HighestSupportedPercentile(5), 0));
}

void TestSelfTime() {
  // No children: the whole span is self time.
  CHECK(Near(perfbench::SelfTime({0, 10}, {}), 10));
  // Disjoint children.
  CHECK(Near(perfbench::SelfTime({0, 10}, {{1, 3}, {5, 6}}), 7));
  // Overlapping scatter children count once: union [2, 8].
  CHECK(Near(perfbench::SelfTime({0, 10}, {{2, 7}, {3, 8}}), 4));
  // Nested and identical children.
  CHECK(Near(perfbench::SelfTime({0, 10}, {{2, 8}, {3, 4}, {2, 8}}), 4));
  // Children sticking out of the span are clipped to it.
  CHECK(Near(perfbench::SelfTime({0, 10}, {{-5, 2}, {9, 20}}), 7));
  // A child outside the span does not count.
  CHECK(Near(perfbench::SelfTime({0, 10}, {{11, 12}}), 10));
  // Touching children merge without a gap.
  CHECK(Near(perfbench::UnionLength({{0, 1}, {1, 2}}, {0, 5}), 2));
}

void TestTailLag() {
  std::vector<double> steady(100, 0.01);
  CHECK(Near(perfbench::TailLag(steady), 0.01));
  std::vector<double> growing;
  for (int i = 0; i < 100; ++i) growing.push_back(i);  // lag grows 1 per step
  CHECK(Near(perfbench::TailLag(growing), 94));  // median of 90..99
  CHECK(Near(perfbench::TailLag({}), 0));
  CHECK(Near(perfbench::TailLag({7}), 7));
}

void TestRateRule() {
  RungRule rule;
  rule.p99_limit_us = 1000;
  rule.max_late_frac = 0.01;
  rule.backlog_limit_ms = 1;
  auto rung = [](double rate, double p99, double late, double lag,
                 bool aborted = false, size_t failed = 0) {
    RungStats r;
    r.rate = rate;
    r.sent = 1000;
    r.failed = failed;
    r.p99_us = p99;
    r.late_frac = late;
    r.tail_lag_ms = lag;
    r.aborted = aborted;
    return r;
  };
  CHECK(perfbench::JudgeRung(rung(1000, 900, 0.001, 0.0), rule) ==
        RungVerdict::kMeets);
  CHECK(perfbench::JudgeRung(rung(1000, 1100, 0.001, 0.0), rule) ==
        RungVerdict::kMissesLimit);
  CHECK(perfbench::JudgeRung(rung(1000, 900, 0.001, 0.0, false, 1), rule) ==
        RungVerdict::kMissesLimit);
  CHECK(perfbench::JudgeRung(rung(1000, 900, 0.001, 5.0), rule) ==
        RungVerdict::kBacklog);
  CHECK(perfbench::JudgeRung(rung(1000, 900, 0.001, 0.0, true), rule) ==
        RungVerdict::kBacklog);
  // A generator that fell behind invalidates the rung even if it looks fast.
  CHECK(perfbench::JudgeRung(rung(1000, 100, 0.05, 0.0), rule) ==
        RungVerdict::kInvalid);

  // The max rate is the highest rung that meets, even past a failed rung.
  std::vector<RungStats> ladder = {
      rung(1000, 200, 0.0, 0.0), rung(2000, 300, 0.0, 0.0),
      rung(4000, 5000, 0.0, 0.0),  // one slow rung
      rung(8000, 400, 0.005, 0.0),
      rung(16000, 400, 0.2, 0.0),   // invalid: not counted as fast
      rung(32000, 400, 0.0, 50.0),  // growing backlog
  };
  CHECK(Near(perfbench::MaxRate(ladder, rule), 8000));
  CHECK(Near(perfbench::MaxRate({rung(1000, 5000, 0.0, 0.0)}, rule), 0));
}

void TestTraceBreakdown() {
  using perfbench::Layer;
  using perfbench::ReqKind;
  using perfbench::Span;
  auto span = [](Layer layer, int32_t server, int64_t b, int64_t e) {
    Span s;
    s.trace_lo = 7;
    s.layer = layer;
    s.kind = ReqKind::kSweep;
    s.server = server;
    s.begin_ns = b;
    s.end_ns = e;
    s.bytes = 100;
    return s;
  };
  // Due at 0, sent at 5, done at 100. The router handles [10, 90] and
  // scatters to two servers concurrently: channel 0 [20, 60] (server
  // [25, 55], backend [30, 40]) and channel 1 [30, 80] (server [40, 70],
  // backend [45, 50] and [48, 60]).
  const std::vector<Span> spans = {
      span(Layer::kRouter, -1, 10, 90),
      span(Layer::kChannel, 0, 20, 60),
      span(Layer::kChannel, 1, 30, 80),
      span(Layer::kServer, 0, 25, 55),
      span(Layer::kServer, 1, 40, 70),
      span(Layer::kBackendRange, 0, 30, 40),
      span(Layer::kBackendRange, 1, 45, 50),
      span(Layer::kBackendRange, 1, 48, 60),
  };
  const std::vector<perfbench::ClientRecord> clients = {
      {7, ReqKind::kSweep, 0, 5, 100}};
  const perfbench::TraceAnalysis ta =
      perfbench::AnalyzeTrace(clients, spans, ReqKind::kSweep);
  const perfbench::Breakdown& bd = ta.breakdown;
  CHECK(bd.requests == 1);
  CHECK(Near(bd.e2e, 100));
  CHECK(Near(bd.queue, 5));
  CHECK(Near(bd.router_self, 80 - 60));  // channel union [20, 80]
  CHECK(Near(bd.scatter_skew, 60 - 50));  // union minus the last channel
  CHECK(Near(bd.wire_wait, 50 - 30));     // channel 1 minus server 1
  CHECK(Near(bd.backend, 15));            // union of [45, 50], [48, 60]
  CHECK(Near(bd.server_self, 30 - 15));
  CHECK(Near(bd.unattributed, 100 - 5 - 20 - 10 - 20 - 15 - 15));
  CHECK(Near(bd.queue + bd.router_self + bd.scatter_skew + bd.wire_wait +
                 bd.server_self + bd.backend + bd.unattributed,
             bd.e2e));
  // Layer means cover every span, not only the critical path.
  CHECK(Near(ta.layers.wire_wait_ns, (40 - 30) + (50 - 30)));
  CHECK(Near(ta.layers.server_self_ns, ((30 - 10) + (30 - 15)) / 2.0));
  CHECK(Near(ta.layers.frame_bytes, 200));
  // A request without spans is all unattributed beyond its queueing.
  const perfbench::TraceAnalysis none = perfbench::AnalyzeTrace(
      {{8, ReqKind::kSweep, 0, 5, 50}}, spans, ReqKind::kSweep);
  CHECK(none.breakdown.missing_spans == 1);
  CHECK(Near(none.breakdown.unattributed, 45));
}

}  // namespace

int main() {
  TestPercentiles();
  TestSupportedPercentile();
  TestWindowedPercentile();
  TestSelfTime();
  TestTailLag();
  TestRateRule();
  TestTraceBreakdown();
  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}

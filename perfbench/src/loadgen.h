// The open-loop point generator: requests are due on a fixed schedule
// (request i at start + i / rate) whether or not earlier ones have
// finished, as independent users would send them. A pool of sender
// threads, one connection each, claims requests in order; a sender that
// claims a request early sleeps until it is due, one that claims it late
// sends at once. Latency is timed from the due time, so a stall charges
// every request queued behind it.
//
// Two kinds of lateness are kept apart: the generator's own (a sender
// that slept woke up after the due time — the offered load was not the
// load intended) and the system's (no sender was free — a backlog).

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "spans.h"

namespace perfbench {

/// High word of every trace id the benchmark installs (the low word
/// numbers the requests).
inline constexpr uint64_t kTraceHi = 0x7065726662656e63ull;  // "perfbenc"

struct PointOutcome {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  int64_t late_ns = -1;  // wake-up behind due time; -1 = did not sleep
  bool ok = false;
  std::vector<double> values;  // the served answer
};

struct OpenLoopOptions {
  double rate = 1000;      // requests per second
  size_t count = 1000;     // requests in the schedule
  bool traced = false;     // give every request a trace id
  uint64_t trace_base = 0;  // request i gets trace id (kTraceHi, base + i)
  /// A request starting this far behind its due time means the backlog is
  /// running away: the schedule is abandoned.
  double abort_lag_ms = 200;
  /// Sweep-side stop flag (optional): when set, senders stop claiming.
  const std::atomic<bool>* stop = nullptr;
};

struct OpenLoopResult {
  std::vector<PointOutcome> outcomes;  // schedule order; first `sent` valid
  size_t sent = 0;
  bool aborted = false;
  double max_late_ms = 0;  // generator lateness (senders that slept)
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  /// Due-time latencies in microseconds; failed requests are infinite.
  std::vector<double> LatenciesUs() const;
  /// Send-start minus due, ms, in schedule order.
  std::vector<double> StartLagsMs() const;
  /// Share of the sends whose sender slept and then woke more than
  /// `limit_ms` behind the due time.
  double LateFraction(double limit_ms) const;
  size_t failed() const;
  /// Client records of the sent requests, for trace analysis.
  std::vector<ClientRecord> Records(uint64_t trace_base) const;
};

/// Runs the schedule `requests[i % requests.size()]`, i < options.count,
/// over `clients` (one sender thread per client).
OpenLoopResult RunOpenLoop(const std::vector<hipads::PointRequestMsg>& requests,
                           const std::vector<hipads::AdsClient*>& clients,
                           const OpenLoopOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_

#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "serve/trace.h"

namespace perfbench {

std::vector<double> OpenLoopResult::LatenciesUs() const {
  std::vector<double> out;
  out.reserve(sent);
  for (size_t i = 0; i < sent; ++i) {
    const PointOutcome& o = outcomes[i];
    out.push_back(o.ok ? static_cast<double>(o.done_ns - o.due_ns) / 1e3
                       : INFINITY);
  }
  return out;
}

std::vector<double> OpenLoopResult::StartLagsMs() const {
  std::vector<double> out;
  out.reserve(sent);
  for (size_t i = 0; i < sent; ++i) {
    out.push_back(static_cast<double>(outcomes[i].send_ns - outcomes[i].due_ns) /
                  1e6);
  }
  return out;
}

double OpenLoopResult::LateFraction(double limit_ms) const {
  size_t slept = 0, late = 0;
  for (size_t i = 0; i < sent; ++i) {
    if (outcomes[i].late_ns < 0) continue;
    ++slept;
    if (static_cast<double>(outcomes[i].late_ns) > limit_ms * 1e6) ++late;
  }
  return slept == 0 ? 0 : static_cast<double>(late) / static_cast<double>(slept);
}

size_t OpenLoopResult::failed() const {
  size_t n = 0;
  for (size_t i = 0; i < sent; ++i) n += outcomes[i].ok ? 0 : 1;
  return n;
}

std::vector<ClientRecord> OpenLoopResult::Records(uint64_t trace_base) const {
  std::vector<ClientRecord> out;
  out.reserve(sent);
  for (size_t i = 0; i < sent; ++i) {
    const PointOutcome& o = outcomes[i];
    out.push_back(ClientRecord{trace_base + i, ReqKind::kPoint, o.due_ns,
                               o.send_ns, o.done_ns});
  }
  return out;
}

OpenLoopResult RunOpenLoop(const std::vector<hipads::PointRequestMsg>& requests,
                           const std::vector<hipads::AdsClient*>& clients,
                           const OpenLoopOptions& options) {
  OpenLoopResult result;
  result.outcomes.resize(options.count);
  std::atomic<size_t> next{0};
  std::atomic<bool> aborted{false};
  std::atomic<int64_t> max_late_ns{0};
  const double period_ns = 1e9 / options.rate;
  const int64_t abort_lag_ns =
      static_cast<int64_t>(options.abort_lag_ms * 1e6);
  // Start a little in the future so every sender is parked at t0.
  const int64_t t0 = NowNs() + 2'000'000;
  result.start_ns = t0;
  auto sender = [&](hipads::AdsClient* client) {
    // The default 50 us timer slack would add itself to every request's
    // measured latency; a sender must wake when its request is due.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (;;) {
      if (aborted.load(std::memory_order_relaxed)) return;
      if (options.stop != nullptr && options.stop->load()) return;
      const size_t i = next.fetch_add(1);
      if (i >= options.count) return;
      PointOutcome& o = result.outcomes[i];
      o.due_ns = t0 + static_cast<int64_t>(std::llround(period_ns * i));
      int64_t now = NowNs();
      if (now < o.due_ns) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(o.due_ns - now));
        now = NowNs();
        const int64_t late = now - o.due_ns;
        o.late_ns = late;
        int64_t seen = max_late_ns.load(std::memory_order_relaxed);
        while (late > seen &&
               !max_late_ns.compare_exchange_weak(seen, late)) {
        }
      }
      if (now - o.due_ns > abort_lag_ns) {
        aborted.store(true);  // left unsent: the schedule ends here
        return;
      }
      o.send_ns = now;
      const hipads::PointRequestMsg& request = requests[i % requests.size()];
      hipads::StatusOr<hipads::PointResponseMsg> response{
          hipads::Status::Unavailable("unsent")};
      if (options.traced) {
        hipads::ScopedTraceContext trace(kTraceHi, options.trace_base + i);
        response = client->Point(request);
      } else {
        response = client->Point(request);
      }
      o.done_ns = NowNs();
      o.ok = response.ok();
      if (o.ok) o.values = std::move(response.value().values);
    }
  };
  std::vector<std::thread> threads;
  for (hipads::AdsClient* client : clients) threads.emplace_back(sender, client);
  for (std::thread& t : threads) t.join();
  result.end_ns = NowNs();
  // Claims are in order, so the sent requests are a prefix of the
  // schedule except for claims abandoned at an abort or a stop; keep the
  // prefix that was actually sent.
  size_t prefix = 0;
  while (prefix < options.count && result.outcomes[prefix].send_ns != 0) {
    ++prefix;
  }
  result.sent = prefix;
  result.aborted = aborted.load();
  result.max_late_ms = static_cast<double>(max_late_ns.load()) / 1e6;
  return result;
}

}  // namespace perfbench

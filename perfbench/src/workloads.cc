#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/flat_ads.h"
#include "ads/hip.h"
#include "ads/serialize.h"
#include "ads/similarity.h"
#include "ads/sweep.h"
#include "fleet.h"
#include "graph/exact.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "loadgen.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/trace.h"
#include "spans.h"
#include "stats.h"
#include "util/metrics.h"
#include "util/random.h"

namespace perfbench {

using hipads::AdsClient;
using hipads::CollectorKind;
using hipads::CollectorSpec;
using hipads::FlatAdsSet;
using hipads::NodeId;
using hipads::PointKind;
using hipads::PointRequestMsg;

void RunReport::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

namespace {

// ---------------------------------------------------------------------------
// Parameters (README.md states them; later changes must keep them fixed)
// ---------------------------------------------------------------------------

constexpr uint32_t kK = 16;
constexpr NodeId kFleetNodes = 20000;  // point-zipf, sweep-mixed
constexpr uint32_t kAttach = 3;
constexpr double kZipfS = 1.1;
constexpr NodeId kBatchNodes = 10000;  // batch-weighted
constexpr int kSetupReps = 3;  // fleet set-ups per run; setup_s is the median
constexpr int kBatchSetupReps = 9;  // input generations per batch run
// Open-loop points.
constexpr double kRefRate = 4000;        // point-zipf reference rate, 1/s
constexpr double kSideRate = 100;        // sweep-mixed point rate, 1/s
constexpr double kP99LimitUs = 25000;    // ladder latency limit on p99
constexpr double kLateMs = 1.0;          // a sender waking this late is late
constexpr double kMaxLateFrac = 0.05;    // more late sends -> rung invalid
constexpr double kBacklogLimitMs = 1.0;  // tail start lag -> backlog
constexpr double kLadderStart = 4000;
constexpr double kLadderCoarse = 1.4142135623730951;  // 2^(1/2)
constexpr double kLadderFine = 1.0905077326652577;    // 2^(1/8)
constexpr double kLadderCap = 64000;
constexpr size_t kWindow = 1000;  // requests per latency window
constexpr size_t kSaturationCap = 400000;  // requests per saturation phase
constexpr double kSaturationSeconds = 0.75;
constexpr int kPointConnections = 4;  // point-zipf; sweep-mixed uses 3 + 1
constexpr uint32_t kSweepThreads = 2;  // 2 servers x 2 threads = nproc
constexpr size_t kBatchQueries = 20000;  // local point queries per job
constexpr size_t kProbes = 64;           // batch oracle probe nodes
constexpr int kExtraRankings = 3;  // NRMSE pools the job's ranks and these

// ---------------------------------------------------------------------------
// Per-layer metrics: every traced run prints all of them; a layer the
// workload does not exercise reads 0 (README.md lists which).
// ---------------------------------------------------------------------------

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

constexpr LayerMetricDef kLayerMetrics[] = {
    {"point_p99_us", "us"},
    {"builders.build_ms", "ms"},
    {"builders.relax_per_kmlnn", "ratio"},
    {"hip.precompute_ms", "ms"},
    {"serialize.write_ms", "ms"},
    {"serialize.bytes_per_entry", "B"},
    {"backend.open_ms", "ms"},
    {"backend.point_fetch_ns", "ns"},
    {"backend.range_ms", "ms"},
    {"sweep.map_ms", "ms"},
    {"sweep.reduce_ms", "ms"},
    {"sweep.speedup_t4", "x"},
    {"sweep.partial_bytes", "B"},
    {"estimators.point_ns", "ns"},
    {"protocol.point_frame_bytes", "B"},
    {"protocol.sweep_response_bytes", "B"},
    {"server.point_self_us", "us"},
    {"server.sweep_self_ms", "ms"},
    {"server.point_cache_hit_ratio", "ratio"},
    {"server.sweep_cache_hit_ratio", "ratio"},
    {"server.shed", "count"},
    {"server.accepts", "count"},
    {"server.batch_entries", "count"},
    {"client.wire_wait_us", "us"},
    {"router.point_self_us", "us"},
    {"router.sweep_gather_ms", "ms"},
    {"router.retries", "count"},
    {"router.hedges", "count"},
    {"metrics.overhead_frac", "frac"},
    {"loadgen.max_late_ms", "ms"},
    {"trace.overhead_frac", "frac"},
    {"trace.point_unattributed_us", "us"},
    {"trace.sweep_unattributed_ms", "ms"},
    {"failed_frac", "frac"},
    {"host.steal_frac", "frac"},
};

class LayerValues {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void EmitTo(RunReport* report) const {
    for (const LayerMetricDef& def : kLayerMetrics) {
      auto it = values_.find(def.name);
      if (it == values_.end()) {
        std::printf("# %-32s n/a on this workload (reported as 0)\n", def.name);
      }
      report->Add(def.name, it == values_.end() ? 0.0 : it->second, def.unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Host steal ticks (all CPUs, 1/100 s), from /proc/stat: CPU time the
// hypervisor gave to other guests while this one wanted it.
double StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  stat >> cpu;
  for (double& x : v) stat >> x;
  return v[7];
}

// Where the run started, for the host-steal health metric.
double g_steal_at_start = 0;
int64_t g_run_start_ns = 0;

// Share of the machine's CPU time stolen by the host since the run began.
double HostStealFraction() {
  const double cpu_s = static_cast<double>(NowNs() - g_run_start_ns) / 1e9 *
                       std::max(1u, std::thread::hardware_concurrency());
  return cpu_s > 0 ? (StealTicks() - g_steal_at_start) / 100.0 / cpu_s : 0;
}

double SecondsSince(int64_t begin_ns) {
  return static_cast<double>(NowNs() - begin_ns) / 1e9;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
}

// Seeded node-id sampler: Zipf(s) over popularity ranks mapped through a
// seeded permutation (so hot nodes land on both servers), or uniform.
class NodeSampler {
 public:
  NodeSampler(NodeId n, bool zipf, uint64_t seed) : n_(n), zipf_(zipf) {
    if (!zipf_) return;
    hipads::Rng rng(Mix(seed, 11));
    perm_ = rng.NextPermutation(n);
    cdf_.resize(n);
    double total = 0;
    for (NodeId r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  NodeId Next(hipads::Rng* rng) const {
    if (!zipf_) return static_cast<NodeId>(rng->NextBounded(n_));
    const double u = rng->NextUnit();
    size_t rank = std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    if (rank >= n_) rank = n_ - 1;
    return perm_[rank];
  }

 private:
  NodeId n_;
  bool zipf_;
  std::vector<uint32_t> perm_;
  std::vector<double> cdf_;
};

// The point mix: 80% kNodeStats (d = 2, 3 or infinity), 15% kLookup of 4
// targets, 5% kJaccard at d = 2 (the pair often spans both servers).
class PointStream {
 public:
  PointStream(NodeId n, bool zipf, uint64_t seed)
      : sampler_(n, zipf, seed), rng_(Mix(seed, 12)) {}

  std::vector<PointRequestMsg> Next(size_t count) {
    std::vector<PointRequestMsg> out(count);
    for (PointRequestMsg& m : out) {
      const double u = rng_.NextUnit();
      m.node = sampler_.Next(&rng_);
      if (u < 0.80) {
        m.kind = PointKind::kNodeStats;
        const uint64_t pick = rng_.NextBounded(3);
        m.d = pick == 0 ? 2.0 : pick == 1 ? 3.0 : INFINITY;
      } else if (u < 0.95) {
        m.kind = PointKind::kLookup;
        for (int t = 0; t < 4; ++t) m.targets.push_back(sampler_.Next(&rng_));
      } else {
        m.kind = PointKind::kJaccard;
        m.other = sampler_.Next(&rng_);
        m.d = 2.0;
      }
    }
    return out;
  }

 private:
  NodeSampler sampler_;
  hipads::Rng rng_;
};

// The in-process answer to a point request over the reference sketches:
// what AdsServerCore (and, for cross-server pairs, FleetRouter) compute.
std::vector<double> ExpectedPoint(const FlatAdsSet& s, const PointRequestMsg& m) {
  const hipads::AdsView view = s.of(static_cast<NodeId>(m.node));
  switch (m.kind) {
    case PointKind::kNodeStats: {
      const uint64_t off = s.offsets[m.node];
      hipads::HipEstimator est(view, s.hip_tau.data() + off,
                               s.hip_weight.data() + off);
      if (std::isinf(m.d)) {
        return {est.ReachableCount(), est.HarmonicCentrality(),
                est.DistanceSum()};
      }
      return {est.NeighborhoodCardinality(m.d)};
    }
    case PointKind::kLookup: {
      hipads::AdsNodeIndex index(view);
      std::vector<double> out;
      for (uint64_t t : m.targets) {
        out.push_back(index.DistanceOf(static_cast<NodeId>(t)));
      }
      return out;
    }
    case PointKind::kJaccard: {
      const hipads::AdsView other = s.of(static_cast<NodeId>(m.other));
      const double sup = s.ranks.sup();
      return {hipads::JaccardSimilarity(view, other, m.d, s.k, sup),
              hipads::UnionCardinality(view, other, m.d, s.k, sup)};
    }
    case PointKind::kFetchSketch:
      break;
  }
  return {};
}

// Checks every sent answer of `run` bitwise against the in-process oracle;
// returns the number of wrong answers (failed requests are counted by the
// caller).
size_t CountWrongAnswers(const FlatAdsSet& s,
                         const std::vector<PointRequestMsg>& requests,
                         const OpenLoopResult& run) {
  size_t wrong = 0;
  for (size_t i = 0; i < run.sent; ++i) {
    const PointOutcome& o = run.outcomes[i];
    if (o.ok && !SameBits(o.values, ExpectedPoint(s, requests[i % requests.size()]))) {
      ++wrong;
    }
  }
  return wrong;
}

// Counter values of the fleet's public scrape. The fleet runs in one
// process, so the router's own snapshot already holds every server's
// counters (one shared registry); the per-server snapshots it gathers over
// the wire repeat them and are not added again.
std::map<std::string, double> ScrapeCounts(hipads::FleetRouter& router) {
  std::map<std::string, double> out;
  auto stats = router.Stats(0);
  if (!stats.ok()) return out;
  for (const hipads::StatsSnapshotMsg& snap : stats.value().snapshots) {
    if (snap.label != "router") continue;
    for (const auto& c : snap.metrics.counters) {
      out[c.name] = static_cast<double>(c.value);
    }
    for (const auto& h : snap.metrics.histograms) {
      out[h.name + ".count"] = static_cast<double>(h.count);
      out[h.name + ".sum"] = static_cast<double>(h.sum);
    }
  }
  return out;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Scrape deltas over a phase, as the per-layer count metrics.
void SetCountMetrics(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     LayerValues* layers) {
  auto d = [&](const char* name) { return Delta(before, after, name); };
  const double point_hits = d("serve.cache.point.hits");
  const double sweep_hits = d("serve.cache.sweep.hits");
  layers->Set("server.point_cache_hit_ratio",
              Ratio(point_hits, point_hits + d("serve.cache.point.misses")));
  layers->Set("server.sweep_cache_hit_ratio",
              Ratio(sweep_hits, sweep_hits + d("serve.cache.sweep.misses")));
  layers->Set("server.shed", d("serve.shed.deadline") + d("serve.shed.busy"));
  layers->Set("server.accepts", d("serve.tcp.accepted"));
  layers->Set("server.batch_entries", d("serve.batch.entries.sum"));
  layers->Set("router.retries", d("router.retries"));
  layers->Set("router.hedges", d("router.hedge.fired"));
}

// Set-up metrics of a fleet workload (medians over the set-ups).
void SetSetupLayers(const std::vector<SetupTimes>& setups, uint64_t arcs,
                    LayerValues* layers) {
  std::vector<double> build, hip, write, open, bytes, relax;
  for (const SetupTimes& t : setups) {
    build.push_back(t.build_ms);
    hip.push_back(t.hip_ms);
    write.push_back(t.write_ms);
    open.push_back(t.open_ms);
    bytes.push_back(Ratio(static_cast<double>(t.file_bytes),
                          static_cast<double>(t.entries)));
    relax.push_back(static_cast<double>(t.relaxations) /
                    (kK * static_cast<double>(arcs) * std::log(kFleetNodes)));
  }
  layers->Set("builders.build_ms", Median(build));
  layers->Set("builders.relax_per_kmlnn", Median(relax));
  layers->Set("hip.precompute_ms", Median(hip));
  layers->Set("serialize.write_ms", Median(write));
  layers->Set("serialize.bytes_per_entry", Median(bytes));
  layers->Set("backend.open_ms", Median(open));
}

std::string ShardDir(const RunConfig& config) { return config.workdir + "/shards"; }

void PrintSetup(int round, const SetupTimes& t) {
  std::printf("# set-up %d: %.3f s (build %.0f ms, hip %.0f ms, write %.0f "
              "ms, open %.0f ms, listen+connect %.1f ms)\n",
              round + 1, t.total_s, t.build_ms, t.hip_ms, t.write_ms, t.open_ms,
              t.listen_ms);
}

// Peak-RSS hygiene between rounds: hand freed heap back to the kernel and
// restart the kernel's high-water mark, so each round's peak is its own.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

struct PointPhase {
  std::vector<PointRequestMsg> requests;
  OpenLoopResult run;
};

// One fleet, its client connections, and every point phase sent to it,
// so the oracle can check every answer before the fleet goes away.
class FleetSession {
 public:
  /// Connects the load's clients to a fleet just started (or reports why
  /// it could not start).
  static std::unique_ptr<FleetSession> Open(
      hipads::StatusOr<std::unique_ptr<Fleet>> started, RunReport* report) {
    if (!started.ok()) {
      report->Fail("fleet set-up: " + started.status().ToString());
      return nullptr;
    }
    std::unique_ptr<FleetSession> session(new FleetSession());
    session->fleet_ = std::move(started).value();
    for (int i = 0; i < kPointConnections; ++i) {
      auto channel =
          hipads::TcpChannel::Connect("127.0.0.1", session->fleet_->router_port());
      if (!channel.ok()) {
        report->Fail("connect: " + channel.status().ToString());
        return nullptr;
      }
      session->channels_.push_back(std::move(channel).value());
      session->clients_.push_back(
          std::make_unique<AdsClient>(session->channels_.back().get()));
    }
    return session;
  }

  Fleet& fleet() { return *fleet_; }
  hipads::Channel* channel(int i) { return channels_[i].get(); }

  /// An open-loop point phase from `stream` on clients [first_client, 4).
  /// Request i of the phase gets trace id *next_trace + i when traced.
  OpenLoopResult& Points(PointStream* stream, int first_client, double rate,
                         double seconds, bool traced, uint64_t* next_trace) {
    OpenLoopOptions options;
    options.rate = rate;
    options.count = static_cast<size_t>(std::max(1.0, rate * seconds));
    options.traced = traced;
    options.trace_base = *next_trace;
    *next_trace += options.count;
    std::vector<AdsClient*> clients;
    for (size_t i = first_client; i < clients_.size(); ++i) {
      clients.push_back(clients_[i].get());
    }
    PointPhase phase;
    phase.requests = stream->Next(options.count);
    phase.run = RunOpenLoop(phase.requests, clients, options);
    phases_.push_back(std::move(phase));
    return phases_.back().run;
  }

  /// Closed loop: every client sends its next request as soon as its
  /// previous one returns, for `seconds`. Returns requests per second.
  double Saturate(PointStream* stream, double seconds, uint64_t* next_trace) {
    std::atomic<bool> stop{false};
    OpenLoopOptions options;
    options.rate = 1e9;  // everything is due at once
    options.count = kSaturationCap;
    options.abort_lag_ms = 1e9;  // never abandon: the backlog is the point
    options.stop = &stop;
    options.trace_base = *next_trace;
    *next_trace += options.count;
    std::vector<AdsClient*> clients;
    for (const auto& c : clients_) clients.push_back(c.get());
    PointPhase phase;
    phase.requests = stream->Next(options.count);
    std::thread timer([&stop, seconds] {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      stop.store(true);
    });
    phase.run = RunOpenLoop(phase.requests, clients, options);
    timer.join();
    const OpenLoopResult& run = phase.run;
    const double rps = static_cast<double>(run.sent) /
                       (static_cast<double>(run.end_ns - run.start_ns) / 1e9);
    if (run.sent == options.count) {
      std::printf("# warning: the saturation phase ran out of requests\n");
    }
    phases_.push_back(std::move(phase));
    return rps;
  }

  /// Checks every point answer bitwise against the in-process oracle over
  /// `sketches`, the set the fleet's shard files were written from.
  void Verify(const FlatAdsSet& sketches, uint64_t* attempted,
              uint64_t* failed) const {
    for (const PointPhase& phase : phases_) {
      *attempted += phase.run.sent;
      *failed += phase.run.failed() +
                 CountWrongAnswers(sketches, phase.requests, phase.run);
    }
  }

 private:
  FleetSession() = default;

  std::unique_ptr<Fleet> fleet_;
  // Declared after fleet_, so connections close before the fleet stops.
  std::vector<std::unique_ptr<hipads::TcpChannel>> channels_;
  std::vector<std::unique_ptr<AdsClient>> clients_;
  std::deque<PointPhase> phases_;
};

double MedianSetupSeconds(const std::vector<SetupTimes>& setups) {
  std::vector<double> s;
  for (const SetupTimes& t : setups) s.push_back(t.total_s);
  return Median(s);
}

void PrintLatencies(const char* label, const std::vector<double>& us) {
  const double tail = HighestSupportedPercentile(us.size());
  std::printf("# %s: n=%zu p50 %.1f us, p%g %.1f us (highest percentile with "
              ">=10 samples beyond)\n",
              label, us.size(), Percentile(us, 50), tail,
              Percentile(us, tail));
}

void PrintBreakdown(const char* label, const Breakdown& bd, double unit_ns,
                    const char* unit) {
  if (bd.requests == 0) return;
  const double n = static_cast<double>(bd.requests) * unit_ns;
  std::printf("# per-layer critical path, %s (%zu requests, mean %s):\n", label,
              bd.requests, unit);
  const std::pair<const char*, double> rows[] = {
      {"loadgen.wait", bd.queue},
      {"router.self", bd.router_self},
      {"router.scatter_skew", bd.scatter_skew},
      {"client.wire_wait", bd.wire_wait},
      {"server.self", bd.server_self},
      {"backend", bd.backend},
      {"unattributed", bd.unattributed},
  };
  double sum = 0;
  for (const auto& [name, total] : rows) {
    std::printf("#   %-22s %12.3f\n", name, total / n);
    sum += total;
  }
  std::printf("#   %-22s %12.3f  (end-to-end %.3f; %zu without spans)\n",
              "sum of rows", sum / n, bd.e2e / n, bd.missing_spans);
}

// ---------------------------------------------------------------------------
// Sweep plans
// ---------------------------------------------------------------------------

// The analyst's catalog: histogram + harmonic + top-k + neighbourhood
// size(d), 3 top-k sizes x 4 radii = 12 plans, three times the servers'
// 4-entry sweep cache.
std::vector<std::vector<CollectorSpec>> SweepCatalog() {
  std::vector<std::vector<CollectorSpec>> catalog;
  for (uint32_t top : {10u, 20u, 50u}) {
    for (double d : {1.0, 2.0, 3.0, 4.0}) {
      catalog.push_back({
          {CollectorKind::kDistanceHistogram, 0, 0, 0.0},
          {CollectorKind::kHarmonic, 0, 0, 0.0},
          {CollectorKind::kTopK, static_cast<uint32_t>(hipads::ScoreKind::kHarmonic),
           top, 0.0},
          {CollectorKind::kNeighborhoodSize, 0, 0, d},
      });
    }
  }
  return catalog;
}

std::vector<std::string> EncodeAll(const std::vector<hipads::SweepCollector*>& cs,
                                   NodeId n) {
  std::vector<std::string> out;
  for (hipads::SweepCollector* c : cs) {
    std::string bytes;
    if (!c->EncodePartial(0, n, &bytes).ok()) bytes = "<unencodable>";
    out.push_back(std::move(bytes));
  }
  return out;
}

// In-process reference results of a plan: every collector's encoded state.
std::vector<std::string> ReferenceSweep(const hipads::AdsBackend& backend,
                                        const std::vector<CollectorSpec>& spec) {
  hipads::SweepPlan plan;
  auto collectors = hipads::BuildPlanFromSpec(spec, &plan);
  if (!collectors.ok()) return {};
  if (!hipads::RunSweep(backend, plan, 0).ok()) return {};
  return EncodeAll(collectors.value(), static_cast<NodeId>(backend.num_nodes()));
}

struct SweepOutcome {
  int64_t start_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  bool correct = false;
};

// The closed-loop analyst: sends plans drawn from the catalog until `stop`.
std::vector<SweepOutcome> RunSweepClient(
    hipads::Channel* channel, NodeId n,
    const std::vector<std::vector<CollectorSpec>>& catalog,
    const std::vector<std::vector<std::string>>& expected, hipads::Rng* rng,
    const std::atomic<bool>& stop, bool traced, uint64_t trace_base) {
  std::vector<SweepOutcome> out;
  while (!stop.load()) {
    const size_t pick = rng->NextBounded(catalog.size());
    hipads::SweepRequestMsg request;
    request.collectors = catalog[pick];
    request.num_threads = kSweepThreads;
    hipads::SweepPlan plan;
    auto collectors = hipads::BuildPlanFromSpec(request.collectors, &plan);
    SweepOutcome o;
    o.start_ns = NowNs();
    hipads::Status s;
    if (traced) {
      hipads::ScopedTraceContext trace(kTraceHi, trace_base + out.size());
      s = hipads::ExecuteRemoteSweep(*channel, request, n, collectors.value());
    } else {
      s = hipads::ExecuteRemoteSweep(*channel, request, n, collectors.value());
    }
    o.done_ns = NowNs();
    o.ok = s.ok();
    o.correct = o.ok && EncodeAll(collectors.value(), n) == expected[pick];
    out.push_back(o);
  }
  return out;
}

// In-process replays of every third catalog plan through RunSweep, with
// TimedCollector wrappers: sweep.map_ms, reduce_ms, partial_bytes and the
// 1-vs-4-thread speedup.
void SetSweepReplayLayers(const FlatAdsSet& sketches,
                          const std::vector<std::vector<CollectorSpec>>& catalog,
                          LayerValues* layers) {
  hipads::FlatAdsBackend reference(&sketches);
  std::vector<double> map_ms, reduce_ms, partial, speedup;
  for (size_t p = 0; p < catalog.size(); p += 3) {
    hipads::SweepPlan plan;
    auto collectors = hipads::BuildPlanFromSpec(catalog[p], &plan);
    std::vector<std::unique_ptr<TimedCollector>> timed;
    hipads::SweepPlan timed_plan;
    for (hipads::SweepCollector* c : collectors.value()) {
      timed.push_back(std::make_unique<TimedCollector>(c));
      timed_plan.Add(timed.back().get());
    }
    (void)hipads::RunSweep(reference, timed_plan, kSweepThreads);
    double m = 0, r = 0, bytes = 0;
    for (const auto& t : timed) {
      m += static_cast<double>(t->map_ns()) / 1e6;
      r += static_cast<double>(t->reduce_ns()) / 1e6;
    }
    for (const std::string& e : EncodeAll(collectors.value(), kFleetNodes)) {
      bytes += static_cast<double>(e.size());
    }
    map_ms.push_back(m);
    reduce_ms.push_back(r);
    partial.push_back(bytes);
    double wall[2];
    for (int i = 0; i < 2; ++i) {
      hipads::SweepPlan again;
      (void)hipads::BuildPlanFromSpec(catalog[p], &again);
      const int64_t t = NowNs();
      (void)hipads::RunSweep(reference, again, i == 0 ? 1 : 4);
      wall[i] = static_cast<double>(NowNs() - t);
    }
    speedup.push_back(wall[0] / wall[1]);
  }
  layers->Set("sweep.map_ms", Median(map_ms));
  layers->Set("sweep.reduce_ms", Median(reduce_ms));
  layers->Set("sweep.partial_bytes", Median(partial));
  layers->Set("sweep.speedup_t4", Median(speedup));
}

// The ladder on one fleet; returns the highest rate that met the rule.
double RunLadder(FleetSession* session, PointStream* stream, double seconds,
                 uint64_t* next_trace, double* max_late_ms) {
  const RungRule rule{kP99LimitUs, kMaxLateFrac, kBacklogLimitMs};
  const double rung_seconds = std::max(0.3, seconds * 0.03);
  std::vector<RungStats> rungs;
  auto run_rung = [&](double rate) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const OpenLoopResult& run = session->Points(
        stream, 0, rate, std::max(rung_seconds, kWindow / rate), false, next_trace);
    *max_late_ms = std::max(*max_late_ms, run.max_late_ms);
    const std::vector<double> lat = run.LatenciesUs();
    RungStats rung{rate, run.sent, run.failed(), Percentile(lat, 99),
                   run.LateFraction(kLateMs), TailLag(run.StartLagsMs()),
                   run.aborted};
    const RungVerdict verdict = JudgeRung(rung, rule);
    std::printf("#   rung %8.0f/s: sent %6zu p50 %8.1f us p99 %9.1f us, "
                "%.2f%% sent late (max %.2f ms), tail lag %.2f ms -> %s\n",
                rate, run.sent, Percentile(lat, 50), rung.p99_us,
                rung.late_frac * 100, run.max_late_ms, rung.tail_lag_ms,
                VerdictName(verdict));
    rungs.push_back(rung);
    return verdict == RungVerdict::kMeets;
  };
  // Coarse rungs (x sqrt 2) ascend until two in a row do not meet the
  // rule; fine rungs (x 2^(1/8)) then probe above the highest that met.
  int misses = 0;
  for (double rate = kLadderStart; rate <= kLadderCap && misses < 2;
       rate *= kLadderCoarse) {
    misses = run_rung(rate) ? 0 : misses + 1;
  }
  const double coarse_max = MaxRate(rungs, rule);
  for (int i = 1; coarse_max > 0 && i < 4; ++i) {
    run_rung(coarse_max * std::pow(kLadderFine, i));
  }
  return MaxRate(rungs, rule);
}

// Fills the per-layer metrics of point requests from a trace analysis.
void SetPointLayers(const TraceAnalysis& ta, LayerValues* layers) {
  layers->Set("router.point_self_us", ta.layers.router_self_ns / 1e3);
  layers->Set("client.wire_wait_us", ta.layers.wire_wait_ns / 1e3);
  layers->Set("server.point_self_us", ta.layers.server_self_ns / 1e3);
  layers->Set("backend.point_fetch_ns", ta.layers.backend_ns);
  layers->Set("protocol.point_frame_bytes", ta.layers.frame_bytes);
  layers->Set("trace.point_unattributed_us",
              Ratio(ta.breakdown.unattributed,
                    static_cast<double>(ta.breakdown.requests)) / 1e3);
}

// estimators.point_ns: the same kind of requests answered in process.
void SetEstimatorLayer(const FlatAdsSet& sketches, PointStream* stream,
                       LayerValues* layers) {
  const std::vector<PointRequestMsg> replay = stream->Next(20000);
  const int64_t t = NowNs();
  size_t answers = 0;
  for (const PointRequestMsg& m : replay) answers += ExpectedPoint(sketches, m).size();
  layers->Set("estimators.point_ns", static_cast<double>(NowNs() - t) /
                                         static_cast<double>(replay.size()));
  if (answers == 0) std::printf("# warning: empty in-process replay\n");
}

// metrics.overhead_frac: the registry's cost on the point path, timed in
// process so that socket noise cannot drown it. An AdsServerCore with the
// CLI defaults answers the same requests over the loopback transport in
// interleaved metrics-off/on pairs; the overhead is the median pair's
// on/off time ratio minus 1.
void SetMetricsOverheadLayer(const FlatAdsSet& sketches, PointStream* stream,
                             LayerValues* layers) {
  hipads::FlatAdsBackend backend(&sketches);
  hipads::AdsServerCore core(&backend, hipads::ServerOptions{});
  hipads::LoopbackChannel channel(&core);
  AdsClient client(&channel);
  const std::vector<PointRequestMsg> requests = stream->Next(20000);
  auto pass = [&](bool on) {
    hipads::SetMetricsEnabled(on);
    const int64_t t = NowNs();
    for (const PointRequestMsg& m : requests) (void)client.Point(m);
    return static_cast<double>(NowNs() - t);
  };
  pass(true);  // warm-up: fills the point cache as both halves will see it
  std::vector<double> on_over_off;
  for (int pair = 0; pair < 5; ++pair) {
    const bool on_first = pair % 2 == 0;
    const double first = pass(on_first);
    const double second = pass(!on_first);
    on_over_off.push_back(on_first ? first / second : second / first);
  }
  hipads::SetMetricsEnabled(true);
  layers->Set("metrics.overhead_frac", Median(on_over_off) - 1);
}

void Finish(const char* what, uint64_t attempted, uint64_t failed,
            RunReport* report) {
  report->attempted += attempted;
  report->failed += failed;
  if (failed > 0) report->Fail(std::to_string(failed) + " " + what + " failed or were wrong");
  std::printf("# oracle: %llu %s checked bitwise, %llu failed or wrong\n",
              static_cast<unsigned long long>(attempted), what,
              static_cast<unsigned long long>(failed));
}

// ---------------------------------------------------------------------------
// point-zipf
// ---------------------------------------------------------------------------

// Every round builds a fresh fleet (its set-up is timed). Untraced, each
// round measures the reference rate and the closed-loop throughput on that
// fleet and on a second one restarted from its shard files: thread
// placement, and with it latency and throughput, differs from fleet to
// fleet, so the reported numbers pool six fleets. Traced, the last round's
// fleet carries the traced phases and the rate ladder.
bool RunPointZipf(const RunConfig& config, RunReport* report) {
  const hipads::Graph graph = hipads::BarabasiAlbert(kFleetNodes, kAttach, config.seed);
  SpanRecorder recorder;
  PointStream stream(kFleetNodes, /*zipf=*/true, config.seed);
  uint64_t next_trace = 1;
  uint64_t attempted = 0, failed = 0;
  double max_late_ms = 0;
  std::vector<SetupTimes> setups;
  std::vector<double> ref_latency, saturation, rss;
  LayerValues layers;
  for (int round = 0; round < kSetupReps; ++round) {
    ResetPeakRss();
    SetupTimes times;
    auto session = FleetSession::Open(
        Fleet::Start(graph, kK, Mix(config.seed, 3), ShardDir(config), &recorder,
                     &times),
        report);
    if (!session) return false;
    setups.push_back(times);
    PrintSetup(round, times);
    if (config.trace && round + 1 < kSetupReps) continue;
    if (!config.trace) {
      // The reference rate and the closed-loop throughput, on this fleet
      // and then on a second one restarted from the same shard files.
      auto measure = [&](FleetSession* s) {
        // Warm-up: fills the point caches and connections; not measured.
        s->Points(&stream, 0, kRefRate, 0.3, false, &next_trace);
        const OpenLoopResult& ref = s->Points(
            &stream, 0, kRefRate, config.seconds * 0.5 / (2 * kSetupReps), false,
            &next_trace);
        max_late_ms = std::max(max_late_ms, ref.max_late_ms);
        const std::vector<double> lat = ref.LatenciesUs();
        ref_latency.insert(ref_latency.end(), lat.begin(), lat.end());
        const double late = ref.LateFraction(kLateMs);
        const double lag = TailLag(ref.StartLagsMs());
        if (late > kMaxLateFrac || lag > kBacklogLimitMs) {
          std::printf("# warning: at the reference rate %.1f%% of sends left "
                      "late and the tail lag was %.2f ms\n", late * 100, lag);
        }
        saturation.push_back(s->Saturate(&stream, kSaturationSeconds, &next_trace));
        std::printf("# fleet %zu: closed-loop %.0f requests/s\n", saturation.size(),
                    saturation.back());
      };
      measure(session.get());
      session->Verify(session->fleet().sketches(), &attempted, &failed);
      const std::vector<NodeId> splits = session->fleet().splits();
      const FlatAdsSet sketches = session->fleet().TakeSketches();
      session.reset();
      SetupTimes restart_times;
      auto restarted = FleetSession::Open(
          Fleet::Restart(ShardDir(config), splits, kFleetNodes, &recorder,
                         &restart_times),
          report);
      if (!restarted) return false;
      measure(restarted.get());
      restarted->Verify(sketches, &attempted, &failed);
      rss.push_back(PeakRssMb());
      continue;
    } else {
      Fleet& fleet = session->fleet();
      session->Points(&stream, 0, kRefRate, 0.3, false, &next_trace);  // warm-up
      // Traced and untraced phases alternate at the reference rate.
      const double phase_s = std::max(0.5, config.seconds / 8);
      std::vector<double> traced_p50, untraced_p50, untraced_latency;
      std::vector<ClientRecord> records;
      std::vector<Span> spans;
      const auto counts_before = ScrapeCounts(fleet.router());
      for (int i = 0; i < 4; ++i) {
        const bool traced = i == 1 || i == 2;
        const uint64_t base = next_trace;
        recorder.Take();
        const OpenLoopResult& run =
            session->Points(&stream, 0, kRefRate, phase_s, traced, &next_trace);
        max_late_ms = std::max(max_late_ms, run.max_late_ms);
        const std::vector<double> lat = run.LatenciesUs();
        (traced ? traced_p50 : untraced_p50).push_back(Percentile(lat, 50));
        if (!traced) {
          untraced_latency.insert(untraced_latency.end(), lat.begin(), lat.end());
          continue;
        }
        auto r = run.Records(base);
        records.insert(records.end(), r.begin(), r.end());
        auto s = recorder.Take();
        spans.insert(spans.end(), s.begin(), s.end());
      }
      SetCountMetrics(counts_before, ScrapeCounts(fleet.router()), &layers);
      layers.Set("trace.overhead_frac", Median(traced_p50) / Median(untraced_p50) - 1);
      layers.Set("point_p99_us", Percentile(untraced_latency, 99));

      SetMetricsOverheadLayer(fleet.sketches(), &stream, &layers);

      std::printf("# ladder: p99 limit %.0f us, backlog limit %.1f ms, "
                  "invalid when over %.0f%% of sends left more than %.1f ms late\n",
                  kP99LimitUs, kBacklogLimitMs, kMaxLateFrac * 100, kLateMs);
      const double max_rps =
          RunLadder(session.get(), &stream, config.seconds, &next_trace, &max_late_ms);
      std::printf("# point_max_rps %.0f\n", max_rps);

      const TraceAnalysis ta = AnalyzeTrace(records, spans, ReqKind::kPoint);
      PrintBreakdown("point requests", ta.breakdown, 1e3, "us");
      SetPointLayers(ta, &layers);
      SetEstimatorLayer(fleet.sketches(), &stream, &layers);
    }
    session->Verify(session->fleet().sketches(), &attempted, &failed);
    rss.push_back(PeakRssMb());
  }
  Finish("point answers", attempted, failed, report);
  if (config.trace) {
    SetSetupLayers(setups, graph.num_arcs(), &layers);
    layers.Set("loadgen.max_late_ms", max_late_ms);
    layers.Set("failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
    layers.Set("host.steal_frac", HostStealFraction());
    layers.EmitTo(report);
    return true;
  }
  PrintLatencies("point-zipf reference rate, all rounds", ref_latency);
  if (ref_latency.size() < 2 * kWindow) report->Fail("too few samples for windowed p99");
  const double p50 = WindowedPercentile(ref_latency, kWindow, 50);
  const double p99 = WindowedPercentile(ref_latency, kWindow, 99);
  std::printf("# reported: median over %zu-request windows of the window p50 "
              "%.1f us (p99 %.1f us); median closed-loop throughput %.0f/s\n",
              kWindow, p50, p99, Median(saturation));
  report->Add("setup_s", MedianSetupSeconds(setups), "s");
  report->Add("peak_rss_mb", Median(rss), "MB");
  report->Add("point_p50_us", p50, "us");
  report->Add("work_per_s", Median(saturation), "1/s");
  return true;
}

// ---------------------------------------------------------------------------
// sweep-mixed
// ---------------------------------------------------------------------------

// FNV-1a over a set's entries and HIP arrays: fleets rebuilt from the same
// graph must serve the same sketches.
uint64_t SketchHash(const FlatAdsSet& s) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  mix(s.offsets.data(), s.offsets.size() * sizeof(uint64_t));
  mix(s.entries.data(), s.entries.size() * sizeof(hipads::AdsEntry));
  mix(s.hip_tau.data(), s.hip_tau.size() * sizeof(double));
  mix(s.hip_weight.data(), s.hip_weight.size() * sizeof(double));
  return h;
}

struct MixedPhase {
  OpenLoopResult* points = nullptr;
  std::vector<SweepOutcome> sweeps;
  uint64_t point_base = 0, sweep_base = 0;
};

// Points at kSideRate on connections 1-3 while the analyst sweeps on
// connection 0 until the point schedule ends.
MixedPhase RunMixedPhase(FleetSession* session, PointStream* stream,
                         const std::vector<std::vector<CollectorSpec>>& catalog,
                         const std::vector<std::vector<std::string>>& expected,
                         hipads::Rng* plan_rng, double seconds, bool traced,
                         uint64_t* next_trace) {
  MixedPhase mp;
  mp.sweep_base = *next_trace;
  *next_trace += 1'000'000;
  mp.point_base = *next_trace;
  std::atomic<bool> stop{false};
  std::thread analyst([&] {
    mp.sweeps = RunSweepClient(session->channel(0), kFleetNodes, catalog, expected,
                               plan_rng, stop, traced, mp.sweep_base);
  });
  mp.points = &session->Points(stream, 1, kSideRate, seconds, traced, next_trace);
  stop.store(true);
  analyst.join();
  return mp;
}

bool RunSweepMixed(const RunConfig& config, RunReport* report) {
  const hipads::Graph graph = hipads::BarabasiAlbert(kFleetNodes, kAttach, config.seed);
  SpanRecorder recorder;
  PointStream stream(kFleetNodes, /*zipf=*/false, config.seed);
  hipads::Rng plan_rng(Mix(config.seed, 13));
  const auto catalog = SweepCatalog();
  std::vector<std::vector<std::string>> expected;
  uint64_t sketch_hash = 0;
  uint64_t next_trace = 1;
  uint64_t attempted = 0, failed = 0, sweeps_attempted = 0, sweeps_failed = 0;
  double max_late_ms = 0;
  std::vector<SetupTimes> setups;
  std::vector<double> point_latency, sweep_ms, rss;
  double sweep_wall_s = 0;
  LayerValues layers;
  auto account = [&](const MixedPhase& mp) {
    for (const SweepOutcome& o : mp.sweeps) {
      ++sweeps_attempted;
      if (!o.ok || !o.correct) ++sweeps_failed;
    }
    max_late_ms = std::max(max_late_ms, mp.points->max_late_ms);
  };
  for (int round = 0; round < kSetupReps; ++round) {
    ResetPeakRss();
    SetupTimes times;
    auto session = FleetSession::Open(
        Fleet::Start(graph, kK, Mix(config.seed, 3), ShardDir(config), &recorder,
                     &times),
        report);
    if (!session) return false;
    setups.push_back(times);
    PrintSetup(round, times);
    Fleet& fleet = session->fleet();
    if (round == 0) {
      // The oracle's answers: in-process RunSweep over the same sketches.
      hipads::FlatAdsBackend reference(&fleet.sketches());
      for (const auto& spec : catalog) expected.push_back(ReferenceSweep(reference, spec));
      sketch_hash = SketchHash(fleet.sketches());
    } else if (SketchHash(fleet.sketches()) != sketch_hash) {
      report->Fail("a rebuilt fleet serves different sketches");
    }
    if (config.trace && round + 1 < kSetupReps) continue;
    account(RunMixedPhase(session.get(), &stream, catalog, expected, &plan_rng, 0.5,
                          false, &next_trace));  // warm-up
    if (!config.trace) {
      const MixedPhase mp =
          RunMixedPhase(session.get(), &stream, catalog, expected, &plan_rng,
                        config.seconds / kSetupReps, false, &next_trace);
      account(mp);
      const std::vector<double> lat = mp.points->LatenciesUs();
      point_latency.insert(point_latency.end(), lat.begin(), lat.end());
      for (const SweepOutcome& o : mp.sweeps) {
        sweep_ms.push_back(static_cast<double>(o.done_ns - o.start_ns) / 1e6);
      }
      sweep_wall_s += static_cast<double>(mp.points->end_ns - mp.points->start_ns) / 1e9;
      if (mp.points->LateFraction(kLateMs) > kMaxLateFrac) {
        std::printf("# warning: %.1f%% of point sends left late\n",
                    mp.points->LateFraction(kLateMs) * 100);
      }
    } else {
      const double phase_s = std::max(1.0, config.seconds / 4);
      std::vector<double> traced_p50, untraced_p50, phase_latency;
      std::vector<ClientRecord> point_records, sweep_records;
      std::vector<Span> spans;
      const auto counts_before = ScrapeCounts(fleet.router());
      for (int i = 0; i < 4; ++i) {
        const bool traced = i == 1 || i == 2;
        recorder.Take();
        const MixedPhase mp = RunMixedPhase(session.get(), &stream, catalog, expected,
                                            &plan_rng, phase_s, traced, &next_trace);
        account(mp);
        std::vector<double> ms;
        for (const SweepOutcome& o : mp.sweeps) {
          ms.push_back(static_cast<double>(o.done_ns - o.start_ns));
        }
        (traced ? traced_p50 : untraced_p50).push_back(Median(ms));
        const std::vector<double> lat = mp.points->LatenciesUs();
        phase_latency.insert(phase_latency.end(), lat.begin(), lat.end());
        if (!traced) continue;
        auto r = mp.points->Records(mp.point_base);
        point_records.insert(point_records.end(), r.begin(), r.end());
        for (size_t j = 0; j < mp.sweeps.size(); ++j) {
          const SweepOutcome& o = mp.sweeps[j];
          sweep_records.push_back(ClientRecord{mp.sweep_base + j, ReqKind::kSweep,
                                               o.start_ns, o.start_ns, o.done_ns});
        }
        auto s = recorder.Take();
        spans.insert(spans.end(), s.begin(), s.end());
      }
      SetCountMetrics(counts_before, ScrapeCounts(fleet.router()), &layers);
      layers.Set("trace.overhead_frac", Median(traced_p50) / Median(untraced_p50) - 1);
      // Points of every phase: the untraced ones alone are too few for p99.
      layers.Set("point_p99_us", Percentile(phase_latency, 99));

      const TraceAnalysis pa = AnalyzeTrace(point_records, spans, ReqKind::kPoint);
      const TraceAnalysis sa = AnalyzeTrace(sweep_records, spans, ReqKind::kSweep);
      PrintBreakdown("point requests beside sweeps", pa.breakdown, 1e3, "us");
      PrintBreakdown("sweeps", sa.breakdown, 1e6, "ms");
      SetPointLayers(pa, &layers);
      layers.Set("router.sweep_gather_ms", sa.layers.router_self_ns / 1e6);
      layers.Set("server.sweep_self_ms", sa.layers.server_self_ns / 1e6);
      layers.Set("backend.range_ms", sa.layers.backend_ns / 1e6);
      layers.Set("protocol.sweep_response_bytes", sa.layers.frame_bytes);
      layers.Set("trace.sweep_unattributed_ms",
                 Ratio(sa.breakdown.unattributed,
                       static_cast<double>(sa.breakdown.requests)) / 1e6);
      SetSweepReplayLayers(fleet.sketches(), catalog, &layers);
      SetEstimatorLayer(fleet.sketches(), &stream, &layers);
      SetMetricsOverheadLayer(fleet.sketches(), &stream, &layers);
    }
    session->Verify(session->fleet().sketches(), &attempted, &failed);
    rss.push_back(PeakRssMb());
  }
  Finish("sweeps", sweeps_attempted, sweeps_failed, report);
  Finish("point answers", attempted, failed, report);
  if (config.trace) {
    SetSetupLayers(setups, graph.num_arcs(), &layers);
    layers.Set("loadgen.max_late_ms", max_late_ms);
    layers.Set("failed_frac", Ratio(static_cast<double>(report->failed),
                                    static_cast<double>(report->attempted)));
    layers.Set("host.steal_frac", HostStealFraction());
    layers.EmitTo(report);
    return true;
  }
  PrintLatencies("sweep-mixed points at 100/s, all rounds", point_latency);
  std::printf("# sweeps: n=%zu sweep_p50_ms %.2f sweep_p90_ms %.2f (%.2f sweeps/s)\n",
              sweep_ms.size(), Percentile(sweep_ms, 50), Percentile(sweep_ms, 90),
              static_cast<double>(sweep_ms.size()) / sweep_wall_s);
  if (point_latency.size() < kWindow) report->Fail("too few point samples for p99");
  report->Add("setup_s", MedianSetupSeconds(setups), "s");
  report->Add("peak_rss_mb", Median(rss), "MB");
  report->Add("point_p50_us", Percentile(point_latency, 50), "us");
  report->Add("work_per_s", static_cast<double>(sweep_ms.size()) / sweep_wall_s, "1/s");
  return true;
}

// ---------------------------------------------------------------------------
// batch-weighted
// ---------------------------------------------------------------------------

struct JobResult {
  double batch_s = 0;
  double read_ms = 0, build_ms = 0, hip_ms = 0, write_ms = 0, open_ms = 0,
         sweep_ms = 0;
  uint64_t relaxations = 0, entries = 0, file_bytes = 0, arcs = 0;
  double map_ms = 0, reduce_ms = 0, range_ms = 0, partial_bytes = 0;
  double effective_diameter = 0, mean_distance = 0;
  std::vector<double> harmonic;  // per node, from the stats sweep
  std::vector<NodeId> top;
  std::unique_ptr<hipads::AdsBackend> backend;  // the job's output, opened
};

// The plan `hipads_cli stats --top 10 --distance-quantile 0.5` runs.
const std::vector<CollectorSpec>& BatchSpec() {
  static const std::vector<CollectorSpec> spec = {
      {CollectorKind::kDistanceHistogram, 0, 0, 0.0},
      {CollectorKind::kTopK, static_cast<uint32_t>(hipads::ScoreKind::kHarmonic), 10, 0.0},
      {CollectorKind::kDistanceQuantile, 0, 0, 0.5},
  };
  return spec;
}

// `hipads_cli sketch --hip 1 --format binary` then `stats`, as one job:
// graph file -> final statistics. With `traced`, the collectors are
// wrapped in TimedCollector and the backend in TracedBackend.
bool RunBatchJob(const std::string& graph_path, const std::string& sketch_path,
                 uint64_t seed, bool traced, SpanRecorder* recorder,
                 JobResult* job, RunReport* report) {
  const uint32_t threads = 4;
  const int64_t t0 = NowNs();
  int64_t t = t0;
  auto lap = [&t]() {
    const int64_t now = NowNs();
    const double ms = static_cast<double>(now - t) / 1e6;
    t = now;
    return ms;
  };
  auto graph = hipads::ReadEdgeListFile(graph_path, /*undirected=*/true);
  if (!graph.ok()) {
    report->Fail("read edge list: " + graph.status().ToString());
    return false;
  }
  job->read_ms = lap();
  job->arcs = graph.value().num_arcs();
  hipads::AdsBuildStats stats;
  hipads::FlatAdsSet flat;
  {
    hipads::AdsSet set = hipads::BuildAdsPrunedDijkstraParallel(
        graph.value(), kK, hipads::SketchFlavor::kBottomK,
        hipads::RankAssignment::Uniform(seed), threads, &stats);
    job->build_ms = lap();
    flat = hipads::FlatAdsSet::FromAdsSet(set);
  }
  hipads::PrecomputeHipWeights(&flat, threads);
  job->hip_ms = lap();
  job->relaxations = stats.relaxations;
  job->entries = flat.TotalEntries();
  hipads::Status written =
      hipads::WriteAdsSetFile(flat, sketch_path, hipads::AdsFileFormat::kBinaryV2);
  if (!written.ok()) {
    report->Fail("write sketches: " + written.ToString());
    return false;
  }
  job->write_ms = lap();
  job->file_bytes = std::filesystem::file_size(sketch_path);
  flat = hipads::FlatAdsSet();
  auto opened = hipads::OpenAdsBackend(sketch_path);  // CLI default: copy
  if (!opened.ok()) {
    report->Fail("open sketches: " + opened.status().ToString());
    return false;
  }
  job->open_ms = lap();
  job->backend =
      std::make_unique<TracedBackend>(std::move(opened).value(), 0, recorder);

  hipads::SweepPlan plan;
  auto collectors = hipads::BuildPlanFromSpec(BatchSpec(), &plan);
  std::vector<std::unique_ptr<TimedCollector>> timed;
  hipads::SweepPlan timed_plan;
  for (hipads::SweepCollector* c : collectors.value()) {
    timed.push_back(std::make_unique<TimedCollector>(c));
    timed_plan.Add(timed.back().get());
  }
  hipads::Status swept;
  if (traced) {
    hipads::ScopedTraceContext trace(kTraceHi, 1);
    swept = hipads::RunSweep(*job->backend, timed_plan, 0);
  } else {
    swept = hipads::RunSweep(*job->backend, plan, 0);
  }
  if (!swept.ok()) {
    report->Fail("stats sweep: " + swept.ToString());
    return false;
  }
  auto* hist = static_cast<hipads::DistanceHistogramCollector*>(collectors.value()[0]);
  auto* top = static_cast<hipads::TopKCollector*>(collectors.value()[1]);
  // The final statistics `stats` prints.
  job->effective_diameter = hist->EffectiveDiameter(0.9);
  job->mean_distance = hist->MeanDistance();
  job->top = top->TopNodes();
  job->sweep_ms = lap();
  job->batch_s = static_cast<double>(NowNs() - t0) / 1e9;
  job->harmonic = top->values();
  if (traced) {
    for (const auto& c : timed) {
      job->map_ms += static_cast<double>(c->map_ns()) / 1e6;
      job->reduce_ms += static_cast<double>(c->reduce_ns()) / 1e6;
    }
    for (const Span& s : recorder->Take()) {
      if (s.layer == Layer::kBackendRange) {
        job->range_ms += static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
      }
    }
    for (const std::string& e : EncodeAll(collectors.value(),
                                          static_cast<NodeId>(job->backend->num_nodes()))) {
      job->partial_bytes += static_cast<double>(e.size());
    }
  }
  return true;
}

// Local point queries against the job's output (the `hipads_cli query
// --node N` path): fetch + HIP estimator, d = infinity. Returns per-query
// latencies (us) and, per query, the answers; with `timing` also the
// fetch and estimator shares.
struct LocalQueries {
  std::vector<NodeId> nodes;
  std::vector<double> latency_us;
  std::vector<std::vector<double>> answers;
  double fetch_ns = 0, estimator_ns = 0;  // means, when timed
  size_t failed = 0;
};

void RunLocalQueries(const hipads::AdsBackend& backend, const std::vector<NodeId>& nodes,
                     bool timing, LocalQueries* out) {
  out->nodes = nodes;
  int64_t fetch_total = 0, est_total = 0;
  for (NodeId v : nodes) {
    const int64_t t0 = NowNs();
    auto view = backend.ViewOf(v);
    auto hip = backend.HipOf(v);
    const int64_t t1 = NowNs();
    if (!view.ok() || !hip.ok() || !hip.value().present()) {
      ++out->failed;
      out->latency_us.push_back(INFINITY);
      out->answers.push_back({});
      continue;
    }
    hipads::HipEstimator est(view.value(), hip.value().tau, hip.value().weight);
    std::vector<double> answer = {est.ReachableCount(), est.HarmonicCentrality(),
                                  est.DistanceSum()};
    const int64_t t2 = NowNs();
    out->latency_us.push_back(static_cast<double>(t2 - t0) / 1e3);
    out->answers.push_back(std::move(answer));
    if (timing) {
      fetch_total += t1 - t0;
      est_total += t2 - t1;
    }
  }
  if (timing && !nodes.empty()) {
    out->fetch_ns = static_cast<double>(fetch_total) / static_cast<double>(nodes.size());
    out->estimator_ns = static_cast<double>(est_total) / static_cast<double>(nodes.size());
  }
}

bool RunBatchWeighted(const RunConfig& config, RunReport* report) {
  const std::string graph_path = config.workdir + "/graph.txt";
  const std::string sketch_path = config.workdir + "/sketches.ads2";
  // Set-up: generating the input graph file.
  std::vector<double> setup_s;
  for (int r = 0; r < kBatchSetupReps; ++r) {
    const int64_t t = NowNs();
    const hipads::Graph g = hipads::RandomizeWeights(
        hipads::BarabasiAlbert(kBatchNodes, kAttach, config.seed), 1.0, 10.0,
        Mix(config.seed, 5));
    hipads::Status s = hipads::WriteEdgeListFile(g, graph_path);
    if (!s.ok()) {
      report->Fail("write edge list: " + s.ToString());
      return false;
    }
    setup_s.push_back(SecondsSince(t));
  }
  const uint64_t rank_seed = Mix(config.seed, 3);
  hipads::Rng rng(Mix(config.seed, 14));
  SpanRecorder recorder;

  std::vector<double> batch_untraced, batch_traced;
  std::vector<JobResult> traced_jobs;
  std::vector<double> query_us, job_rss;
  uint64_t attempted = 0, failed = 0;
  std::vector<NodeId> first_top;
  double first_diameter = 0, first_mean = 0;
  LocalQueries last_queries;
  JobResult last;
  const int64_t start = NowNs();
  const int min_jobs = config.trace ? 4 : 3;
  for (int j = 0; j < min_jobs || SecondsSince(start) < config.seconds; ++j) {
    const bool traced = config.trace && j % 2 == 1;
    ResetPeakRss();
    JobResult job;
    if (!RunBatchJob(graph_path, sketch_path, rank_seed, traced, &recorder, &job,
                     report)) {
      return false;
    }
    ++attempted;
    (traced ? batch_traced : batch_untraced).push_back(job.batch_s);
    std::printf("# job %d%s: %.3f s (read %.0f ms, build %.0f ms, hip %.0f ms, "
                "write %.0f ms, open %.0f ms, stats sweep %.0f ms)\n",
                j + 1, traced ? " (traced)" : "", job.batch_s, job.read_ms,
                job.build_ms, job.hip_ms, job.write_ms, job.open_ms, job.sweep_ms);
    if (j == 0) {
      first_top = job.top;
      first_diameter = job.effective_diameter;
      first_mean = job.mean_distance;
    } else if (job.top != first_top || job.effective_diameter != first_diameter ||
               job.mean_distance != first_mean) {
      ++failed;
      report->Fail("job repetitions disagree on the final statistics");
    }
    std::vector<NodeId> nodes(kBatchQueries);
    for (NodeId& v : nodes) v = static_cast<NodeId>(rng.NextBounded(kBatchNodes));
    LocalQueries q;
    RunLocalQueries(*job.backend, nodes, traced, &q);
    attempted += nodes.size();
    failed += q.failed;
    if (!traced) {
      query_us.insert(query_us.end(), q.latency_us.begin(), q.latency_us.end());
      job_rss.push_back(PeakRssMb());
    }
    // Bitwise: the sweep's harmonic value equals the point path's.
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (!q.answers[i].empty() &&
          std::memcmp(&q.answers[i][1], &job.harmonic[nodes[i]], sizeof(double)) != 0) {
        ++failed;
      }
    }
    if (traced) {
      traced_jobs.push_back(std::move(job));
      traced_jobs.back().backend.reset();
      last_queries = std::move(q);
    } else {
      last = std::move(job);
    }
  }

  // Accuracy oracle: HIP estimates at seeded probes against exact Dijkstra
  // ground truth on the same graph, NRMSE within 1.5x Theorem 5.1's CV
  // bound 1/sqrt(2(k-1)); and the served estimates bitwise against
  // HipEstimator over an in-memory copy of the sketches.
  auto graph = hipads::ReadEdgeListFile(graph_path, /*undirected=*/true);
  auto reference = hipads::ReadFlatAdsSetFile(sketch_path);
  if (!graph.ok() || !reference.ok()) {
    report->Fail("oracle inputs unreadable");
    return false;
  }
  std::vector<NodeId> probes(kProbes);
  for (NodeId& v : probes) v = static_cast<NodeId>(rng.NextBounded(kBatchNodes));
  LocalQueries pq;
  RunLocalQueries(*last.backend, probes, false, &pq);
  std::vector<double> exact_reach, exact_harm;
  for (NodeId v : probes) {
    exact_reach.push_back(static_cast<double>(
        hipads::ExactNeighborhoodSize(graph.value(), v, INFINITY)));
    exact_harm.push_back(hipads::ExactHarmonicCentrality(graph.value(), v));
  }
  // Theorem 5.1 bounds the CV over the random ranks, so the squared errors
  // are pooled over independent rank assignments: the job's own, checked
  // bitwise against an in-memory reference, plus kExtraRankings more.
  double se_reach = 0, se_harm = 0;
  size_t pooled = 0;
  auto add_errors = [&](size_t i, double reach, double harm) {
    se_reach += std::pow((reach - exact_reach[i]) / exact_reach[i], 2);
    se_harm += std::pow((harm - exact_harm[i]) / exact_harm[i], 2);
    ++pooled;
  };
  for (size_t i = 0; i < probes.size(); ++i) {
    const NodeId v = probes[i];
    if (pq.answers[i].empty()) continue;
    add_errors(i, pq.answers[i][0], pq.answers[i][1]);
    const uint64_t off = reference.value().offsets[v];
    hipads::HipEstimator est(reference.value().of(v), reference.value().hip_tau.data() + off,
                             reference.value().hip_weight.data() + off);
    const std::vector<double> want = {est.ReachableCount(), est.HarmonicCentrality(),
                                      est.DistanceSum()};
    if (!SameBits(pq.answers[i], want)) ++failed;
  }
  for (int r = 0; r < kExtraRankings; ++r) {
    hipads::FlatAdsSet other = hipads::FlatAdsSet::FromAdsSet(
        hipads::BuildAdsPrunedDijkstraParallel(
            graph.value(), kK, hipads::SketchFlavor::kBottomK,
            hipads::RankAssignment::Uniform(Mix(config.seed, 100 + r)), 4));
    hipads::PrecomputeHipWeights(&other, 4);
    for (size_t i = 0; i < probes.size(); ++i) {
      const uint64_t off = other.offsets[probes[i]];
      hipads::HipEstimator est(other.of(probes[i]), other.hip_tau.data() + off,
                               other.hip_weight.data() + off);
      add_errors(i, est.ReachableCount(), est.HarmonicCentrality());
    }
  }
  attempted += probes.size();
  failed += pq.failed;
  const double nrmse_reach = std::sqrt(se_reach / static_cast<double>(pooled));
  const double nrmse_harm = std::sqrt(se_harm / static_cast<double>(pooled));
  const double bound = 1.5 / std::sqrt(2.0 * (kK - 1));
  std::printf("# oracle: NRMSE over %zu probes x %d rank assignments: reachable "
              "%.4f, harmonic %.4f (limit %.4f = 1.5/sqrt(2(k-1)))\n",
              probes.size(), 1 + kExtraRankings, nrmse_reach, nrmse_harm, bound);
  if (nrmse_reach > bound || nrmse_harm > bound) {
    ++failed;
    report->Fail("HIP estimates outside 1.5x the Theorem 5.1 bound");
  }
  report->attempted = attempted;
  report->failed = failed;
  if (failed > 0) report->Fail(std::to_string(failed) + " answers failed or were wrong");

  const double batch_median = Median(batch_untraced);
  std::printf("# batch_s median %.3f s over %zu untraced jobs\n", batch_median,
              batch_untraced.size());
  if (!config.trace) {
    PrintLatencies("local point queries", query_us);
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_rss_mb", Median(job_rss), "MB");
    report->Add("point_p50_us", Percentile(query_us, 50), "us");
    report->Add("work_per_s", static_cast<double>(last.arcs) / batch_median, "1/s");
    return true;
  }
  LayerValues layers;
  auto med = [&](double JobResult::*field) {
    std::vector<double> v;
    for (const JobResult& j : traced_jobs) v.push_back(j.*field);
    return Median(v);
  };
  std::vector<double> relax, bytes;
  for (const JobResult& j : traced_jobs) {
    relax.push_back(static_cast<double>(j.relaxations) /
                    (kK * static_cast<double>(j.arcs) * std::log(kBatchNodes)));
    bytes.push_back(static_cast<double>(j.file_bytes) / static_cast<double>(j.entries));
  }
  layers.Set("builders.build_ms", med(&JobResult::build_ms));
  layers.Set("builders.relax_per_kmlnn", Median(relax));
  layers.Set("hip.precompute_ms", med(&JobResult::hip_ms));
  layers.Set("serialize.write_ms", med(&JobResult::write_ms));
  layers.Set("serialize.bytes_per_entry", Median(bytes));
  layers.Set("backend.open_ms", med(&JobResult::open_ms));
  layers.Set("backend.range_ms", med(&JobResult::range_ms));
  layers.Set("sweep.map_ms", med(&JobResult::map_ms));
  layers.Set("sweep.reduce_ms", med(&JobResult::reduce_ms));
  layers.Set("sweep.partial_bytes", med(&JobResult::partial_bytes));
  layers.Set("backend.point_fetch_ns", last_queries.fetch_ns);
  layers.Set("estimators.point_ns", last_queries.estimator_ns);
  layers.Set("trace.overhead_frac", Median(batch_traced) / batch_median - 1);
  layers.Set("point_p99_us", Percentile(query_us, 99));
  // Sweep scaling: the job's stats sweep in process at 1 thread vs 4.
  double wall[2];
  for (int i = 0; i < 2; ++i) {
    hipads::SweepPlan plan;
    (void)hipads::BuildPlanFromSpec(BatchSpec(), &plan);
    const int64_t t = NowNs();
    (void)hipads::RunSweep(*last.backend, plan, i == 0 ? 1 : 4);
    wall[i] = static_cast<double>(NowNs() - t);
  }
  layers.Set("sweep.speedup_t4", wall[0] / wall[1]);
  layers.Set("failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  layers.Set("host.steal_frac", HostStealFraction());
  layers.EmitTo(report);
  return true;
}

}  // namespace

bool RunWorkload(const RunConfig& config, RunReport* report) {
  g_steal_at_start = StealTicks();
  g_run_start_ns = NowNs();
  bool ran = false;
  if (config.workload == "point-zipf") {
    ran = RunPointZipf(config, report);
  } else if (config.workload == "sweep-mixed") {
    ran = RunSweepMixed(config, report);
  } else if (config.workload == "batch-weighted") {
    ran = RunBatchWeighted(config, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", config.workload.c_str());
    return false;
  }
  std::printf("# host steal: %.1f%% of CPU time during the run\n",
              HostStealFraction() * 100);
  return ran;
}

}  // namespace perfbench

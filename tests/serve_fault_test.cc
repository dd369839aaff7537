// The fault-injection acceptance (serve/fault.h): every degradation the
// harness can script against the serving stack — dropped connections,
// stalls under a deadline, responses truncated / corrupted / shed, a
// killed TCP server — must end in a clean error or a correct
// retried/hedged result, never a hang and never silent corruption; and
// whenever a faulted request does succeed, its result is bitwise
// identical to the healthy path. The suite also pins the lock-free
// concurrency contract: an immutable backend serves interleaved sweeps
// and point lookups from many threads with results bitwise equal to the
// serial ones (run under -DHIPADS_SANITIZE=thread via the `tsan` label),
// and the connection contract: a routed point never waits behind a sweep
// on a shared connection, idle connections hold no server worker, and a
// failed accept or a lost response never wedges a server or a channel.

#include "serve/fault.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/shard.h"
#include "graph/generators.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"

namespace hipads {
namespace {

FlatAdsSet BuildFlat(uint32_t n, uint64_t graph_seed, uint32_t k) {
  Graph g = ErdosRenyi(n, 3ULL * n, true, graph_seed);
  return FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, k, SketchFlavor::kBottomK, RankAssignment::Uniform(graph_seed + 1)));
}

// The sketches of global nodes [begin, end) as a standalone set.
FlatAdsSet SliceSet(const FlatAdsSet& set, NodeId begin, NodeId end) {
  FlatAdsSet slice;
  slice.flavor = set.flavor;
  slice.k = set.k;
  slice.ranks = set.ranks;
  for (NodeId v = begin; v < end; ++v) {
    auto entries = set.of(v).entries();
    slice.AppendNode(std::vector<AdsEntry>(entries.begin(), entries.end()));
  }
  return slice;
}

std::vector<CollectorSpec> SmallSpec() {
  return {
      {CollectorKind::kDistanceHistogram, 0, 0, 0.0},
      {CollectorKind::kHarmonic, 0, 0, 0.0},
      {CollectorKind::kTopK, static_cast<uint32_t>(ScoreKind::kHarmonic), 3,
       0.0},
  };
}

// A Channel view over a shared channel, so a ChannelFactory can hand the
// router "fresh" connections that share one fault script and call
// counter across reconnects — the shape retry tests need.
class BorrowedChannel : public Channel {
 public:
  explicit BorrowedChannel(Channel* inner) : inner_(inner) {}
  using Channel::Call;
  Status Call(std::string_view request_frame, Frame* response,
              const Deadline& deadline) override {
    return inner_->Call(request_frame, response, deadline);
  }

 private:
  Channel* inner_;
};

// A two-range-server loopback fleet whose second server's transport is
// fault-scripted (one shared script across reconnects).
struct FaultyFleet {
  FlatAdsSet full;
  std::vector<FlatAdsSet> slices;
  std::vector<std::unique_ptr<FlatAdsBackend>> backends;
  std::vector<std::unique_ptr<AdsServerCore>> cores;
  std::vector<std::unique_ptr<LoopbackChannel>> loops;
  std::unique_ptr<FaultInjectionChannel> faulty;
  FleetManifest manifest;

  explicit FaultyFleet(std::vector<FaultRule> rules)
      : full(BuildFlat(120, 29, 4)) {
    const NodeId mid = 60;
    slices.push_back(SliceSet(full, 0, mid));
    slices.push_back(SliceSet(full, mid, 120));
    for (size_t i = 0; i < 2; ++i) {
      backends.push_back(std::make_unique<FlatAdsBackend>(&slices[i]));
      ServerOptions options;
      options.node_begin = i == 0 ? 0 : mid;
      cores.push_back(
          std::make_unique<AdsServerCore>(backends[i].get(), options));
      loops.push_back(std::make_unique<LoopbackChannel>(cores[i].get()));
    }
    faulty = std::make_unique<FaultInjectionChannel>(loops[1].get(),
                                                    std::move(rules));
    manifest.num_nodes = 120;
    manifest.servers = {{"loop:0", 0, mid}, {"loop:1", mid, 120}};
  }

  ChannelFactory Factory() {
    return [this](const std::string& address)
               -> StatusOr<std::unique_ptr<Channel>> {
      Channel* target =
          address == "loop:1" ? static_cast<Channel*>(faulty.get())
                              : static_cast<Channel*>(loops[0].get());
      return std::unique_ptr<Channel>(
          std::make_unique<BorrowedChannel>(target));
    };
  }
};

// The healthy-path sweep response payloads of a fleet, used as the
// bitwise reference for faulted-but-successful runs.
std::vector<std::string> SweepPartialPayloads(
    FleetRouter& router, const std::vector<CollectorSpec>& spec) {
  SweepPlan plan;
  auto built = BuildPlanFromSpec(spec, &plan);
  EXPECT_TRUE(built.ok());
  SweepRequestMsg request;
  request.collectors = spec;
  Status swept = router.ExecuteSweep(request, built.value());
  EXPECT_TRUE(swept.ok()) << swept.ToString();
  std::vector<std::string> out;
  for (SweepCollector* c : built.value()) {
    std::string partial;
    EXPECT_TRUE(
        c->EncodePartial(0, router.num_nodes(), &partial).ok());
    out.push_back(std::move(partial));
  }
  return out;
}

TEST(ServeFaultTest, MatchFaultSelectsRulesByCallIndex) {
  std::vector<FaultRule> rules = {
      {FaultKind::kDrop, 2, 2, 0},
      {FaultKind::kShed, 3, UINT64_MAX, 0},
  };
  EXPECT_EQ(MatchFault(rules, 0), nullptr);
  EXPECT_EQ(MatchFault(rules, 1), nullptr);
  ASSERT_NE(MatchFault(rules, 2), nullptr);
  EXPECT_EQ(MatchFault(rules, 2)->kind, FaultKind::kDrop);
  // First matching rule wins where ranges overlap.
  EXPECT_EQ(MatchFault(rules, 3)->kind, FaultKind::kDrop);
  // The forever rule catches everything past the drop window.
  EXPECT_EQ(MatchFault(rules, 4)->kind, FaultKind::kShed);
  EXPECT_EQ(MatchFault(rules, 1 << 20)->kind, FaultKind::kShed);
}

// Transient faults inside the retry budget: the sweep succeeds anyway and
// its result is bitwise identical to the healthy run. Call 0 on the
// faulty channel is the connect handshake; calls 1 and 2 are the first
// two sweep attempts.
TEST(ServeFaultTest, TransientDropsAndShedsAreRetriedToIdenticalResults) {
  std::vector<CollectorSpec> spec = SmallSpec();
  FaultyFleet healthy({});
  auto healthy_router =
      FleetRouter::Connect(healthy.manifest, healthy.Factory());
  ASSERT_TRUE(healthy_router.ok());
  std::vector<std::string> reference =
      SweepPartialPayloads(healthy_router.value(), spec);

  for (FaultKind kind : {FaultKind::kDrop, FaultKind::kShed}) {
    FaultyFleet fleet({{kind, 1, 2, 0}});
    RouterOptions options;
    options.retries = 2;
    options.backoff_base_ms = 1;
    options.backoff_max_ms = 2;
    auto router =
        FleetRouter::Connect(fleet.manifest, fleet.Factory(), options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    std::vector<std::string> faulted =
        SweepPartialPayloads(router.value(), spec);
    EXPECT_EQ(faulted, reference)
        << "fault kind " << static_cast<int>(kind);
    // Both scripted faults actually fired before the retry succeeded.
    EXPECT_GE(fleet.faulty->calls(), 4u);
  }
}

// A fault outlasting the retry budget fails closed, with an error that
// names the failing server and preserves the transport error code.
TEST(ServeFaultTest, ExhaustedRetryBudgetFailsClosedNamingTheServer) {
  FaultyFleet fleet({{FaultKind::kDrop, 1, UINT64_MAX, 0}});
  RouterOptions options;
  options.retries = 2;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 2;
  auto router =
      FleetRouter::Connect(fleet.manifest, fleet.Factory(), options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  SweepPlan plan;
  std::vector<CollectorSpec> spec = SmallSpec();
  auto built = BuildPlanFromSpec(spec, &plan);
  ASSERT_TRUE(built.ok());
  SweepRequestMsg request;
  request.collectors = spec;
  Status swept = router.value().ExecuteSweep(request, built.value());
  ASSERT_FALSE(swept.ok());
  EXPECT_EQ(swept.code(), Status::Code::kIOError);
  EXPECT_NE(swept.message().find("loop:1"), std::string::npos)
      << swept.ToString();

  // Point lookups owned by the dead server fail the same way; the healthy
  // server keeps answering.
  PointRequestMsg dead_side;
  dead_side.kind = PointKind::kNodeStats;
  dead_side.node = 90;
  auto dead = router.value().Point(dead_side);
  ASSERT_FALSE(dead.ok());
  EXPECT_NE(dead.status().message().find("loop:1"), std::string::npos);
  PointRequestMsg live_side;
  live_side.kind = PointKind::kNodeStats;
  live_side.node = 10;
  EXPECT_TRUE(router.value().Point(live_side).ok());
}

// A peer that stalls under a working connection: the request fails with
// DeadlineExceeded when its deadline expires — bounded by the deadline,
// not by the stall.
TEST(ServeFaultTest, StalledFrameUnderDeadlineFailsWithDeadlineExceeded) {
  // Client-side stall (wedged connection).
  {
    FaultyFleet fleet({{FaultKind::kStall, 1, UINT64_MAX, 0}});
    auto router =
        FleetRouter::Connect(fleet.manifest, fleet.Factory());
    ASSERT_TRUE(router.ok());
    PointRequestMsg request;
    request.kind = PointKind::kNodeStats;
    request.node = 90;
    auto start = std::chrono::steady_clock::now();
    auto response =
        router.value().Point(request, Deadline::AfterMs(150));
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), Status::Code::kDeadlineExceeded);
    EXPECT_LT(elapsed, 5000) << "stall was not bounded by the deadline";
  }
  // Server-side stall (handler wedged): the flaky handler honors the
  // frame's wire deadline, then drops the connection — the client sees a
  // clean error within the budget, never a hang.
  {
    FlatAdsSet set = BuildFlat(40, 31, 4);
    FlatAdsBackend backend(&set);
    AdsServerCore core(&backend, ServerOptions{});
    FlakyFrameHandler flaky(&core, {{FaultKind::kStall, 0, UINT64_MAX, 200}});
    LoopbackChannel channel(&flaky);
    AdsClient client(&channel, Deadline::AfterMs(100));
    auto start = std::chrono::steady_clock::now();
    auto info = client.Info();
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    EXPECT_FALSE(info.ok());
    EXPECT_LT(elapsed, 5000);
  }
}

// Responses corrupted in flight — by the channel or by the server — must
// surface as clean decode errors (the frame checksum's job), never as
// silently wrong values.
TEST(ServeFaultTest, CorruptedResponsesAreCaughtByTheChecksum) {
  FlatAdsSet set = BuildFlat(40, 37, 4);
  FlatAdsBackend backend(&set);
  AdsServerCore core(&backend, ServerOptions{});

  // Client-side corruption.
  {
    LoopbackChannel inner(&core);
    FaultInjectionChannel channel(&inner,
                                  {{FaultKind::kCorrupt, 0, UINT64_MAX, 0}});
    AdsClient client(&channel);
    auto info = client.Info();
    EXPECT_FALSE(info.ok());
  }
  // Server-side corruption and truncation.
  for (FaultKind kind : {FaultKind::kCorrupt, FaultKind::kCloseMidResponse}) {
    FlakyFrameHandler flaky(&core, {{kind, 0, UINT64_MAX, 0}});
    LoopbackChannel channel(&flaky);
    AdsClient client(&channel);
    auto info = client.Info();
    EXPECT_FALSE(info.ok()) << "fault kind " << static_cast<int>(kind);
  }
}

// Every client-side fault kind, scripted for exactly one call against a
// healthy core: the wrapped client either fails cleanly or returns bytes
// identical to the healthy response. No third outcome.
TEST(ServeFaultTest, EveryDegradationYieldsCleanErrorOrIdenticalResult) {
  FlatAdsSet set = BuildFlat(40, 41, 4);
  FlatAdsBackend backend(&set);
  AdsServerCore core(&backend, ServerOptions{});
  LoopbackChannel healthy(&core);
  Frame reference;
  std::string request =
      EncodeFrame(MessageType::kPointRequest,
                  EncodePointRequest(PointRequestMsg{}));
  ASSERT_TRUE(healthy.Call(request, &reference).ok());

  for (FaultKind kind :
       {FaultKind::kDrop, FaultKind::kDelay, FaultKind::kStall,
        FaultKind::kCloseMidResponse, FaultKind::kCorrupt, FaultKind::kShed}) {
    LoopbackChannel inner(&core);
    FaultInjectionChannel channel(&inner, {{kind, 0, 1, 20}});
    Frame response;
    Status s = channel.Call(request, &response, Deadline::AfterMs(100));
    if (s.ok()) {
      EXPECT_EQ(response.payload, reference.payload)
          << "fault kind " << static_cast<int>(kind)
          << ": success with different bytes";
    }
    // And the call after the scripted window is healthy and identical.
    Frame after;
    ASSERT_TRUE(channel.Call(request, &after, Deadline::AfterMs(5000)).ok())
        << "fault kind " << static_cast<int>(kind);
    EXPECT_EQ(after.payload, reference.payload);
  }
}

// Batch frames under every scripted degradation: the faulted call either
// fails cleanly or returns bytes identical to the healthy batch response
// — one entry is deliberately out of range, so a per-entry error rides
// through every fault too — and the call after the window is healthy.
TEST(ServeFaultTest, PointBatchDegradationsYieldCleanErrorOrIdenticalResult) {
  FlatAdsSet set = BuildFlat(40, 59, 4);
  FlatAdsBackend backend(&set);
  AdsServerCore core(&backend, ServerOptions{});
  LoopbackChannel healthy(&core);

  PointBatchRequestMsg batch;
  for (uint64_t node : {1ull, 17ull, 39ull, 1000ull}) {  // 1000: entry error
    PointRequestMsg r;
    r.kind = PointKind::kNodeStats;
    r.node = node;
    batch.entries.push_back(r);
  }
  const std::string request = EncodeFrame(MessageType::kPointBatchRequest,
                                          EncodePointBatchRequest(batch));
  Frame reference;
  ASSERT_TRUE(healthy.Call(request, &reference).ok());
  ASSERT_EQ(reference.type, MessageType::kPointBatchResponse);

  for (FaultKind kind :
       {FaultKind::kDrop, FaultKind::kDelay, FaultKind::kStall,
        FaultKind::kCloseMidResponse, FaultKind::kCorrupt, FaultKind::kShed}) {
    LoopbackChannel inner(&core);
    FaultInjectionChannel channel(&inner, {{kind, 0, 1, 20}});
    Frame response;
    Status s = channel.Call(request, &response, Deadline::AfterMs(100));
    if (s.ok()) {
      EXPECT_EQ(response.payload, reference.payload)
          << "fault kind " << static_cast<int>(kind)
          << ": success with different bytes";
    }
    Frame after;
    ASSERT_TRUE(channel.Call(request, &after, Deadline::AfterMs(5000)).ok())
        << "fault kind " << static_cast<int>(kind);
    EXPECT_EQ(after.payload, reference.payload);
  }
}

// Whole-batch transport faults inside the retry budget: the router
// retries the batch frame itself and every entry comes back identical to
// the healthy run.
TEST(ServeFaultTest, DroppedBatchFramesAreRetriedToIdenticalEntries) {
  FaultyFleet fleet({{FaultKind::kDrop, 1, 2, 0}});
  RouterOptions options;
  options.retries = 2;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 2;
  auto router =
      FleetRouter::Connect(fleet.manifest, fleet.Factory(), options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  FaultyFleet healthy({});
  auto healthy_router =
      FleetRouter::Connect(healthy.manifest, healthy.Factory());
  ASSERT_TRUE(healthy_router.ok());

  std::vector<PointRequestMsg> requests(6);
  for (int i = 0; i < 6; ++i) {
    requests[i].kind = PointKind::kNodeStats;
    requests[i].node = static_cast<NodeId>(60 + i * 9);  // the faulty range
  }
  std::vector<PointBatchResponseEntry> faulted =
      router.value().PointBatch(requests);
  std::vector<PointBatchResponseEntry> reference =
      healthy_router.value().PointBatch(requests);
  ASSERT_EQ(faulted.size(), reference.size());
  for (size_t i = 0; i < faulted.size(); ++i) {
    ASSERT_TRUE(faulted[i].status.ok()) << faulted[i].status.ToString();
    EXPECT_EQ(faulted[i].payload, reference[i].payload) << "entry " << i;
  }
  EXPECT_GE(fleet.faulty->calls(), 3u);  // the drops actually fired
}

// A handler shedding every entry of the first batch frames with a
// retryable Unavailable, mid-batch.
class BatchSheddingHandler : public FrameHandler {
 public:
  BatchSheddingHandler(FrameHandler* inner, int shed_batches)
      : inner_(inner), remaining_(shed_batches) {}

  std::string HandleFrame(std::string_view request,
                          bool* close_connection) override {
    auto frame = DecodeFrame(request);
    if (frame.ok() &&
        frame.value().type == MessageType::kPointBatchRequest &&
        remaining_.fetch_sub(1) > 0) {
      auto msg = DecodePointBatchRequest(frame.value().payload);
      PointBatchResponseMsg response;
      response.entries.resize(msg.value().entries.size());
      for (PointBatchResponseEntry& entry : response.entries) {
        entry.status = Status::Unavailable("point lookup shed, retry");
      }
      sheds_.fetch_add(1);
      *close_connection = false;
      return EncodeFrame(MessageType::kPointBatchResponse,
                         EncodePointBatchResponse(response),
                         /*deadline_ms=*/0, frame.value().version);
    }
    return inner_->HandleFrame(request, close_connection);
  }

  int sheds() const { return sheds_.load(); }

 private:
  FrameHandler* inner_;
  std::atomic<int> remaining_;
  std::atomic<int> sheds_{0};
};

// Per-entry sheds inside an otherwise successful batch response: every
// affected entry of a PointBatch call falls back to its own single-request
// call and ends with bytes identical to the healthy answer.
TEST(ServeFaultTest, ShedBatchEntriesFallBackToIdenticalSingleCalls) {
  FlatAdsSet set = BuildFlat(80, 61, 4);
  FlatAdsBackend backend(&set);
  AdsServerCore core(&backend, ServerOptions{});
  BatchSheddingHandler shedding(&core, 2);

  FleetManifest manifest;
  manifest.num_nodes = 80;
  manifest.servers = {{"loop:0", 0, 80}};
  auto factory = [&shedding](const std::string&)
      -> StatusOr<std::unique_ptr<Channel>> {
    return std::unique_ptr<Channel>(
        std::make_unique<LoopbackChannel>(&shedding));
  };
  LoopbackChannel direct(&core);
  AdsClient reference(&direct);

  std::vector<PointRequestMsg> requests(4);
  for (int i = 0; i < 4; ++i) {
    requests[i].kind = PointKind::kNodeStats;
    requests[i].node = static_cast<NodeId>((i * 19) % 80);
  }

  // The first batch frame is shed per entry.
  RouterOptions options;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 2;
  auto router = FleetRouter::Connect(manifest, factory, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  std::vector<PointBatchResponseEntry> entries =
      router.value().PointBatch(requests);
  ASSERT_EQ(entries.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(entries[i].status.ok()) << entries[i].status.ToString();
    auto expected = reference.Point(requests[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(entries[i].payload, EncodePointResponse(expected.value()))
        << "entry " << i;
  }
  EXPECT_GE(shedding.sheds(), 1);
}

// Hedging defeats a stalled primary connection: the delayed second
// attempt runs over a fresh channel and its answer — identical bytes by
// construction — is returned well before the primary's deadline stall
// resolves into an error.
TEST(ServeFaultTest, HedgingPicksTheSurvivorOfAStalledConnection) {
  FlatAdsSet set = BuildFlat(80, 43, 4);
  FlatAdsBackend backend(&set);
  AdsServerCore core(&backend, ServerOptions{});
  LoopbackChannel loop(&core);
  // Connection 0 (handshake + primary) stalls from its second call on;
  // every later connection is healthy.
  std::atomic<int> connections{0};
  auto stalling = std::make_unique<FaultInjectionChannel>(
      &loop, std::vector<FaultRule>{{FaultKind::kStall, 1, UINT64_MAX, 0}});
  FaultInjectionChannel* stalling_raw = stalling.get();
  auto factory = [&](const std::string&)
      -> StatusOr<std::unique_ptr<Channel>> {
    int id = connections.fetch_add(1);
    if (id == 0) {
      return std::unique_ptr<Channel>(
          std::make_unique<BorrowedChannel>(stalling_raw));
    }
    return std::unique_ptr<Channel>(std::make_unique<BorrowedChannel>(&loop));
  };

  FleetManifest manifest;
  manifest.num_nodes = 80;
  manifest.servers = {{"loop:0", 0, 80}};
  RouterOptions options;
  options.hedge = true;
  options.hedge_delay_ms = 10;
  options.retries = 0;
  auto router = FleetRouter::Connect(manifest, factory, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // The healthy answer, for comparison.
  AdsClient direct(&loop);
  PointRequestMsg request;
  request.kind = PointKind::kNodeStats;
  request.node = 7;
  auto expected = direct.Point(request);
  ASSERT_TRUE(expected.ok());

  auto hedged = router.value().Point(request, Deadline::AfterMs(1500));
  ASSERT_TRUE(hedged.ok()) << hedged.status().ToString();
  EXPECT_EQ(hedged.value().values, expected.value().values);
  EXPECT_GE(connections.load(), 2) << "hedge never opened its connection";
}

// A killed TCP server: the router's sweep fails closed within its
// deadline, with an error naming the dead server's address; after the
// server returns, the same router recovers by reconnecting.
TEST(ServeFaultTest, KilledTcpServerFailsClosedThenRecovers) {
  FlatAdsSet full = BuildFlat(120, 47, 4);
  FlatAdsSet lo = SliceSet(full, 0, 60);
  FlatAdsSet hi = SliceSet(full, 60, 120);
  FlatAdsBackend backend_lo(&lo);
  FlatAdsBackend backend_hi(&hi);
  ServerOptions hi_options;
  hi_options.node_begin = 60;
  AdsServerCore core_lo(&backend_lo, ServerOptions{});
  AdsServerCore core_hi(&backend_hi, hi_options);

  TcpServer server_lo(&core_lo, {0, 2});
  auto server_hi = std::make_unique<TcpServer>(&core_hi, TcpServerOptions{0, 2});
  ASSERT_TRUE(server_lo.Start().ok());
  ASSERT_TRUE(server_hi->Start().ok());
  uint16_t hi_port = server_hi->port();

  FleetManifest manifest;
  manifest.num_nodes = 120;
  manifest.servers = {
      {"127.0.0.1:" + std::to_string(server_lo.port()), 0, 60},
      {"127.0.0.1:" + std::to_string(hi_port), 60, 120}};
  RouterOptions options;
  options.timeout_ms = 5000;
  options.retries = 1;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 5;
  auto router =
      FleetRouter::Connect(manifest, TcpChannelFactory(), options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Kill the upper range server, then sweep: fail closed, name the server.
  server_hi->Stop();
  server_hi.reset();
  std::vector<CollectorSpec> spec = SmallSpec();
  {
    SweepPlan plan;
    auto built = BuildPlanFromSpec(spec, &plan);
    ASSERT_TRUE(built.ok());
    SweepRequestMsg request;
    request.collectors = spec;
    auto start = std::chrono::steady_clock::now();
    Status swept = router.value().ExecuteSweep(request, built.value());
    auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    ASSERT_FALSE(swept.ok());
    EXPECT_NE(swept.message().find(std::to_string(hi_port)),
              std::string::npos)
        << swept.ToString();
    EXPECT_LT(elapsed, 30) << "dead-server failure was not prompt";
  }

  // Restart on the same port: the next request reconnects and succeeds.
  TcpServerOptions revive;
  revive.port = hi_port;
  revive.num_workers = 2;
  TcpServer server_hi2(&core_hi, revive);
  ASSERT_TRUE(server_hi2.Start().ok());
  {
    SweepPlan plan;
    auto built = BuildPlanFromSpec(spec, &plan);
    ASSERT_TRUE(built.ok());
    SweepRequestMsg request;
    request.collectors = spec;
    Status swept = router.value().ExecuteSweep(request, built.value());
    EXPECT_TRUE(swept.ok()) << swept.ToString();
  }
  server_hi2.Stop();
  server_lo.Stop();
}

// The lock-free serving contract (tsan): every backend — the in-memory
// arena and a mapped shard directory alike — serves sweeps and point
// lookups from many threads concurrently — no mutex, no cache (disabled
// here so every request computes) — and every response is bitwise
// identical to its serial counterpart, which is the same on both engines.
TEST(ServeFaultTest, ConcurrentSweepsAndPointsAreBitwiseDeterministic) {
  FlatAdsSet set = BuildFlat(150, 53, 8);
  const std::string shard_dir =
      (std::filesystem::temp_directory_path() / "hipads_fault_concurrent")
          .string();
  std::filesystem::remove_all(shard_dir);
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 3).ok());
  auto sharded = ShardedAdsSet::Open(shard_dir);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  FlatAdsBackend flat(&set);

  SweepRequestMsg sweep;
  sweep.collectors = SmallSpec();
  sweep.num_threads = 2;
  const std::string sweep_frame =
      EncodeFrame(MessageType::kSweepRequest, EncodeSweepRequest(sweep));
  std::vector<std::string> point_frames;
  for (uint64_t node : {3ull, 77ull, 149ull}) {
    PointRequestMsg p;
    p.kind = PointKind::kNodeStats;
    p.node = node;
    point_frames.push_back(
        EncodeFrame(MessageType::kPointRequest, EncodePointRequest(p)));
  }

  std::string engine_refs;  // the first engine's serial responses
  for (const AdsBackend* backend :
       {static_cast<const AdsBackend*>(&flat),
        static_cast<const AdsBackend*>(&sharded.value())}) {
    ServerOptions options;
    options.point_cache_entries = 0;
    options.sweep_cache_entries = 0;
    options.num_threads = 2;
    AdsServerCore core(backend, options);

    // Serial references: one sweep frame, a few point frames.
    bool close_connection = false;
    const std::string sweep_ref =
        core.HandleFrame(sweep_frame, &close_connection);
    std::vector<std::string> point_refs;
    for (const std::string& f : point_frames) {
      point_refs.push_back(core.HandleFrame(f, &close_connection));
    }
    std::string refs = sweep_ref;
    for (const std::string& r : point_refs) refs += r;
    if (engine_refs.empty()) engine_refs = refs;
    EXPECT_EQ(refs, engine_refs) << "engines disagree";

    // Concurrent mixed load: sweeps and points overlap freely.
    constexpr int kSweepThreads = 3;
    constexpr int kPointThreads = 4;
    constexpr int kIters = 8;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kSweepThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kIters; ++i) {
          bool close = false;
          if (core.HandleFrame(sweep_frame, &close) != sweep_ref) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (int t = 0; t < kPointThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kIters * 4; ++i) {
          size_t which = (t + i) % point_frames.size();
          bool close = false;
          if (core.HandleFrame(point_frames[which], &close) !=
              point_refs[which]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0);
  }
  std::filesystem::remove_all(shard_dir);
}

// Forwards to a backend, but parks every Range() call until released, so
// a sweep can be held in flight while other requests run.
class GatedBackend : public AdsBackend {
 public:
  explicit GatedBackend(const AdsBackend* inner) : inner_(inner) {}

  SketchFlavor flavor() const override { return inner_->flavor(); }
  uint32_t k() const override { return inner_->k(); }
  const RankAssignment& ranks() const override { return inner_->ranks(); }
  size_t num_nodes() const override { return inner_->num_nodes(); }
  uint64_t TotalEntries() const override { return inner_->TotalEntries(); }
  uint32_t NumRanges() const override { return inner_->NumRanges(); }
  StatusOr<AdsArenaView> Range(uint32_t r) const override {
    entered_.store(true);
    while (!released_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return inner_->Range(r);
  }
  StatusOr<AdsView> ViewOf(NodeId v) const override {
    return inner_->ViewOf(v);
  }

  bool entered() const { return entered_.load(); }
  void Release() { released_.store(true); }

 private:
  const AdsBackend* inner_;
  mutable std::atomic<bool> entered_{false};
  std::atomic<bool> released_{false};
};

// Polls `done` every millisecond for up to `ms`; true once it holds.
bool WaitFor(const std::function<bool()>& done, int ms) {
  auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

FleetManifest OneServerManifest(uint64_t num_nodes, uint16_t port) {
  FleetManifest manifest;
  manifest.num_nodes = num_nodes;
  manifest.servers = {{"127.0.0.1:" + std::to_string(port), 0,
                       static_cast<NodeId>(num_nodes)}};
  return manifest;
}

// Head-of-line: a routed point sent while a sweep to the same server is in
// flight takes its own pooled connection (and a second server worker), so
// it answers at once instead of waiting out the sweep; the sweep's bytes
// are unaffected.
TEST(ServeFaultTest, RoutedPointDoesNotWaitOutASweepInFlight) {
  FlatAdsSet set = BuildFlat(80, 67, 4);
  FlatAdsBackend flat(&set);
  GatedBackend gated(&flat);
  AdsServerCore core(&gated, ServerOptions{});
  TcpServer server(&core, TcpServerOptions{0, 2});
  ASSERT_TRUE(server.Start().ok());
  auto router = FleetRouter::Connect(OneServerManifest(80, server.port()),
                                     TcpChannelFactory());
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // The healthy answers, from an ungated core over loopback.
  AdsServerCore reference_core(&flat, ServerOptions{});
  LoopbackChannel reference_loop(&reference_core);
  FleetManifest loop_manifest;
  loop_manifest.num_nodes = 80;
  loop_manifest.servers = {{"loop:0", 0, 80}};
  auto reference = FleetRouter::Connect(
      loop_manifest, [&reference_loop](const std::string&)
                         -> StatusOr<std::unique_ptr<Channel>> {
        return std::unique_ptr<Channel>(
            std::make_unique<BorrowedChannel>(&reference_loop));
      });
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::vector<CollectorSpec> spec = SmallSpec();
  const std::vector<std::string> expected_partials =
      SweepPartialPayloads(reference.value(), spec);
  PointRequestMsg point_request;
  point_request.kind = PointKind::kNodeStats;
  point_request.node = 41;
  auto expected_point = reference.value().Point(point_request);
  ASSERT_TRUE(expected_point.ok());

  SweepPlan plan;
  auto built = BuildPlanFromSpec(spec, &plan);
  ASSERT_TRUE(built.ok());
  SweepRequestMsg sweep;
  sweep.collectors = spec;
  Status swept = Status::Unavailable("pending");
  std::thread sweeper(
      [&] { swept = router.value().ExecuteSweep(sweep, built.value()); });
  const bool sweep_in_flight = WaitFor([&] { return gated.entered(); }, 10000);

  std::atomic<bool> answered{false};
  StatusOr<PointResponseMsg> point = Status::Unavailable("pending");
  std::thread pointer([&] {
    point = router.value().Point(point_request, Deadline::AfterMs(2000));
    answered.store(true);
  });
  const bool in_time = WaitFor([&] { return answered.load(); }, 2500);
  gated.Release();
  pointer.join();
  sweeper.join();

  ASSERT_TRUE(sweep_in_flight) << "the sweep never reached the backend";
  EXPECT_TRUE(in_time) << "the point waited out the sweep in flight";
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(EncodePointResponse(point.value()),
            EncodePointResponse(expected_point.value()));
  ASSERT_TRUE(swept.ok()) << swept.ToString();
  for (size_t i = 0; i < built.value().size(); ++i) {
    std::string partial;
    ASSERT_TRUE(built.value()[i]->EncodePartial(0, 80, &partial).ok());
    EXPECT_EQ(partial, expected_partials[i]) << "collector " << i;
  }
}

// Remembers the nice value of the last thread to read a range; released
// from the start, so it never parks a sweep.
class NiceRecordingBackend : public GatedBackend {
 public:
  explicit NiceRecordingBackend(const AdsBackend* inner)
      : GatedBackend(inner) {
    Release();
  }
  StatusOr<AdsArenaView> Range(uint32_t r) const override {
    nice_.store(getpriority(PRIO_PROCESS, 0));
    return GatedBackend::Range(r);
  }
  int nice() const { return nice_.load(); }

 private:
  mutable std::atomic<int> nice_{-100};
};

// A server runs each sweep at background CPU priority, so its point
// handlers preempt the sweep; the thread that handled the request keeps
// its own priority, and the sweep's bytes are unaffected.
TEST(ServeFaultTest, SweepsRunAtBackgroundPriority) {
  FlatAdsSet set = BuildFlat(60, 89, 4);
  FlatAdsBackend flat(&set);
  NiceRecordingBackend recording(&flat);
  AdsServerCore core(&recording, ServerOptions{});
  AdsServerCore reference_core(&flat, ServerOptions{});
  SweepRequestMsg sweep;
  sweep.collectors = SmallSpec();
  const std::string request =
      EncodeFrame(MessageType::kSweepRequest, EncodeSweepRequest(sweep));

  const int own_nice = getpriority(PRIO_PROCESS, 0);
  bool close = false;
  const std::string response = core.HandleFrame(request, &close);
  EXPECT_EQ(recording.nice(), std::min(own_nice + 10, 19));
  EXPECT_EQ(getpriority(PRIO_PROCESS, 0), own_nice);
  auto decoded = DecodeFrame(response);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, MessageType::kSweepResponse);
  EXPECT_EQ(response, reference_core.HandleFrame(request, &close));
}

// A restarted server leaves every pooled connection to it stale. The
// first failure drops them all, so one retry reconnects instead of
// failing on a second stale socket.
TEST(ServeFaultTest, RetryAfterServerRestartReconnectsPastStalePool) {
  FlatAdsSet set = BuildFlat(60, 83, 4);
  FlatAdsBackend flat(&set);
  GatedBackend gated(&flat);
  AdsServerCore core(&gated, ServerOptions{});
  auto server = std::make_unique<TcpServer>(&core, TcpServerOptions{0, 2});
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();
  RouterOptions options;
  options.retries = 1;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 2;
  auto router = FleetRouter::Connect(OneServerManifest(60, port),
                                     TcpChannelFactory(), options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Two pooled connections: a point runs while a held sweep keeps the
  // first one checked out, so it opens a second.
  SweepPlan plan;
  auto built = BuildPlanFromSpec(SmallSpec(), &plan);
  ASSERT_TRUE(built.ok());
  SweepRequestMsg sweep;
  sweep.collectors = SmallSpec();
  Status swept = Status::Unavailable("pending");
  std::thread sweeper(
      [&] { swept = router.value().ExecuteSweep(sweep, built.value()); });
  const bool sweep_in_flight = WaitFor([&] { return gated.entered(); }, 10000);
  PointRequestMsg request;
  request.kind = PointKind::kNodeStats;
  request.node = 9;
  auto before = router.value().Point(request, Deadline::AfterMs(5000));
  gated.Release();
  sweeper.join();
  ASSERT_TRUE(sweep_in_flight);
  ASSERT_TRUE(swept.ok()) << swept.ToString();
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  server->Stop();
  server.reset();
  TcpServerOptions revive;
  revive.port = port;
  revive.num_workers = 2;
  TcpServer revived(&core, revive);
  ASSERT_TRUE(revived.Start().ok());
  auto after = router.value().Point(request, Deadline::AfterMs(5000));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(EncodePointResponse(after.value()),
            EncodePointResponse(before.value()));
}

// Starvation: idle connections hold no server worker. A 2-worker server
// with 3 idle clients still answers a fourth one — and the idle ones too.
TEST(ServeFaultTest, IdleConnectionsDoNotStarveOtherClients) {
  FlatAdsSet set = BuildFlat(40, 71, 4);
  FlatAdsBackend backend(&set);
  AdsServerCore core(&backend, ServerOptions{});
  TcpServer server(&core, TcpServerOptions{0, 2});
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::unique_ptr<TcpChannel>> idle;
  for (int i = 0; i < 3; ++i) {
    auto channel = TcpChannel::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(channel.ok()) << channel.status().ToString();
    idle.push_back(std::move(channel).value());
  }
  // Let the server take the idle connections in before the fourth arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto fourth = TcpChannel::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(fourth.ok()) << fourth.status().ToString();
  auto info = AdsClient(fourth.value().get(), Deadline::AfterMs(2000)).Info();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().node_end, 40u);
  for (auto& channel : idle) {
    EXPECT_TRUE(AdsClient(channel.get(), Deadline::AfterMs(2000)).Info().ok());
  }
}

// Lowers this process's open-file soft limit until destruction.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    ok_ = ::getrlimit(RLIMIT_NOFILE, &saved_) == 0;
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    ok_ = ok_ && ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~ScopedFdLimit() {
    if (ok_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  ScopedFdLimit(const ScopedFdLimit&) = delete;
  ScopedFdLimit& operator=(const ScopedFdLimit&) = delete;

  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

// An accept that fails for lack of file descriptors (EMFILE) costs the
// server a pause, not a worker: once descriptors are free again the same
// 1-worker server accepts and answers.
TEST(ServeFaultTest, AcceptErrorsDoNotEndTheServer) {
  FlatAdsSet set = BuildFlat(40, 73, 4);
  FlatAdsBackend backend(&set);
  AdsServerCore core(&backend, ServerOptions{});
  TcpServer server(&core, TcpServerOptions{0, 1});
  ASSERT_TRUE(server.Start().ok());

  // Made before the limit drops: connecting it opens no descriptor here,
  // but accepting it needs one on the server side.
  int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  {
    // The lowest free descriptor number becomes the limit, so the next
    // descriptor this process opens — the server's accept — hits EMFILE.
    int lowest_free = ::dup(client);
    ASSERT_GE(lowest_free, 0);
    ::close(lowest_free);
    ScopedFdLimit limit(static_cast<rlim_t>(lowest_free));
    ASSERT_TRUE(limit.ok());
    EXPECT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  auto channel = TcpChannel::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  auto info = AdsClient(channel.value().get(), Deadline::AfterMs(2000)).Info();
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  ::close(client);
}

// Delays the first response only, so a call with a short deadline gives up
// on it while it is still on its way.
class SlowFirstResponseHandler : public FrameHandler {
 public:
  explicit SlowFirstResponseHandler(FrameHandler* inner) : inner_(inner) {}
  std::string HandleFrame(std::string_view request,
                          bool* close_connection) override {
    if (first_.exchange(false)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    return inner_->HandleFrame(request, close_connection);
  }

 private:
  FrameHandler* inner_;
  std::atomic<bool> first_{true};
};

// A call that gave up after its request went out leaves that request's
// response on its way; the channel is broken from then on, so the next
// call fails with IOError instead of reading the stale response as its own.
TEST(ServeFaultTest, TcpChannelFailsFastAfterACallLostItsResponse) {
  FlatAdsSet set = BuildFlat(60, 79, 4);
  FlatAdsBackend backend(&set);
  AdsServerCore core(&backend, ServerOptions{});
  SlowFirstResponseHandler slow(&core);
  TcpServer server(&slow, TcpServerOptions{0, 1});
  ASSERT_TRUE(server.Start().ok());
  auto channel = TcpChannel::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();

  PointRequestMsg first;
  first.kind = PointKind::kNodeStats;
  first.node = 3;
  auto late =
      AdsClient(channel.value().get(), Deadline::AfterMs(50)).Point(first);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), Status::Code::kDeadlineExceeded);

  PointRequestMsg second = first;
  second.node = 40;
  auto next = AdsClient(channel.value().get()).Point(second);
  ASSERT_FALSE(next.ok()) << "the second call read a response as its own";
  EXPECT_EQ(next.status().code(), Status::Code::kIOError)
      << next.status().ToString();
}

}  // namespace
}  // namespace hipads

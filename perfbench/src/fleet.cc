#include "fleet.h"

#include <sys/stat.h>

#include "ads/backend.h"
#include "ads/hip.h"
#include "ads/shard.h"
#include "util/parallel.h"

namespace perfbench {

using hipads::Status;
using hipads::StatusOr;

namespace {

double MsSince(int64_t begin_ns) {
  return static_cast<double>(NowNs() - begin_ns) / 1e6;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

}  // namespace

StatusOr<std::unique_ptr<Fleet>> Fleet::Start(const hipads::Graph& graph,
                                              uint32_t k, uint64_t seed,
                                              const std::string& dir,
                                              SpanRecorder* recorder,
                                              SetupTimes* times) {
  std::unique_ptr<Fleet> fleet(new Fleet());
  const int64_t t0 = NowNs();
  // `hipads_cli sketch` defaults: hardware thread count, uniform ranks,
  // bottom-k; the DP builder for unit-weight graphs.
  const uint32_t threads = hipads::HardwareThreads();
  int64_t t = NowNs();
  hipads::AdsBuildStats stats;
  hipads::AdsSet set = hipads::BuildAdsDpParallel(
      graph, k, hipads::SketchFlavor::kBottomK,
      hipads::RankAssignment::Uniform(seed), threads, &stats);
  times->build_ms = MsSince(t);
  times->relaxations = stats.relaxations;

  t = NowNs();
  fleet->sketches_ = hipads::FlatAdsSet::FromAdsSet(set);
  set = hipads::AdsSet();
  hipads::PrecomputeHipWeights(&fleet->sketches_, threads);
  times->hip_ms = MsSince(t);
  times->entries = fleet->sketches_.TotalEntries();

  t = NowNs();
  std::vector<hipads::NodeId> splits =
      hipads::BalancedShardSplits(fleet->sketches_, 2);
  Status written = hipads::WriteShardedAdsSet(fleet->sketches_, dir, splits);
  if (!written.ok()) return written;
  times->write_ms = MsSince(t);

  fleet->splits_ = std::move(splits);
  Status served = fleet->Serve(dir, graph.num_nodes(), recorder, times);
  if (!served.ok()) return served;
  times->total_s = static_cast<double>(NowNs() - t0) / 1e9;
  return fleet;
}

StatusOr<std::unique_ptr<Fleet>> Fleet::Restart(
    const std::string& dir, const std::vector<hipads::NodeId>& splits,
    hipads::NodeId n, SpanRecorder* recorder, SetupTimes* times) {
  std::unique_ptr<Fleet> fleet(new Fleet());
  const int64_t t0 = NowNs();
  fleet->splits_ = splits;
  Status served = fleet->Serve(dir, n, recorder, times);
  if (!served.ok()) return served;
  times->total_s = static_cast<double>(NowNs() - t0) / 1e9;
  return fleet;
}

Status Fleet::Serve(const std::string& dir, hipads::NodeId n,
                    SpanRecorder* recorder, SetupTimes* times) {
  hipads::FleetManifest manifest;
  manifest.num_nodes = n;
  double open_ms = 0;
  times->file_bytes = 0;
  for (size_t i = 0; i < splits_.size(); ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "/shard-%05zu.ads2", i);
    const std::string path = dir + name;
    times->file_bytes += FileBytes(path);
    int64_t t = NowNs();
    auto opened = hipads::OpenAdsBackend(path);  // CLI default: copy
    if (!opened.ok()) return opened.status();
    open_ms += MsSince(t);
    backends_.push_back(std::make_unique<TracedBackend>(
        std::move(opened).value(), static_cast<int32_t>(i), recorder));

    // `hipads_cli serve` defaults: ServerOptions with num_threads 0, and a
    // 4-worker TcpServer.
    hipads::ServerOptions options;
    options.node_begin = splits_[i];
    options.num_threads = 0;
    cores_.push_back(
        std::make_unique<hipads::AdsServerCore>(backends_.back().get(), options));
    server_handlers_.push_back(std::make_unique<TracedHandler>(
        cores_.back().get(), Layer::kServer, static_cast<int32_t>(i), recorder));
    hipads::TcpServerOptions tcp;
    tcp.port = 0;
    tcp.num_workers = 4;
    servers_.push_back(
        std::make_unique<hipads::TcpServer>(server_handlers_.back().get(), tcp));
  }
  times->open_ms = open_ms;

  const int64_t t = NowNs();
  for (size_t i = 0; i < servers_.size(); ++i) {
    Status started = servers_[i]->Start();
    if (!started.ok()) return started;
    hipads::FleetEntry entry;
    entry.address = "127.0.0.1:" + std::to_string(servers_[i]->port());
    entry.begin = splits_[i];
    entry.end = i + 1 < splits_.size() ? splits_[i + 1] : n;
    manifest.servers.push_back(entry);
  }
  // `hipads_cli route` defaults: RouterOptions{} (one retry, no hedging,
  // no coalescing) over TcpChannelFactory with default socket options.
  hipads::ChannelFactory factory = TracedChannelFactory(
      hipads::TcpChannelFactory(hipads::TcpChannelOptions{}), manifest,
      recorder);
  auto connected = hipads::FleetRouter::Connect(manifest, factory,
                                                hipads::RouterOptions{});
  if (!connected.ok()) return connected.status();
  router_ = std::make_unique<hipads::FleetRouter>(std::move(connected).value());
  router_core_ = std::make_unique<hipads::RouterCore>(router_.get());
  router_handler_ = std::make_unique<TracedHandler>(router_core_.get(),
                                                    Layer::kRouter, -1, recorder);
  hipads::TcpServerOptions tcp;
  tcp.port = 0;
  tcp.num_workers = 4;
  router_server_ = std::make_unique<hipads::TcpServer>(router_handler_.get(), tcp);
  Status started = router_server_->Start();
  if (!started.ok()) return started;
  router_port_ = router_server_->port();
  times->listen_ms = MsSince(t);
  return Status();
}

Fleet::~Fleet() {
  // Front to back: stop accepting at the router before its servers go.
  if (router_server_) router_server_->Stop();
  for (auto& server : servers_) server->Stop();
}

}  // namespace perfbench

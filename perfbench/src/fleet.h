// The system under test for the serving workloads, deployed in-process the
// way README's "Distributed serving" section deploys it with hipads_cli:
// sketches built from a graph (DP builder, HIP weights precomputed), split
// 2 ways by BalancedShardSplits into v2+HIP shard files, each served by an
// AdsServerCore over the copy backend behind a 4-worker TcpServer, and one
// FleetRouter/RouterCore with the CLI's defaults (one retry, no hedging,
// no coalescing) behind its own 4-worker TcpServer. Every hop is real TCP
// on the loopback interface.
//
// The span decorators of spans.h sit at every boundary; they only record
// while a request carries a trace id.

#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ads/builders.h"
#include "ads/flat_ads.h"
#include "graph/graph.h"
#include "serve/router.h"
#include "serve/server.h"
#include "spans.h"

namespace perfbench {

/// Where a fleet set-up spent its time, in ms, plus its work counters.
struct SetupTimes {
  double total_s = 0;  // graph in memory -> router connected and listening
  double build_ms = 0;
  double hip_ms = 0;
  double write_ms = 0;
  double open_ms = 0;  // both shard backends
  double listen_ms = 0;  // servers listening + router connected + listening
  uint64_t relaxations = 0;
  uint64_t entries = 0;
  uint64_t file_bytes = 0;  // both shard files
};

class Fleet {
 public:
  /// Builds and starts the fleet over `graph` (unit weights), writing the
  /// shard files under `dir`. `k`/`seed` are the sketch parameters.
  static hipads::StatusOr<std::unique_ptr<Fleet>> Start(
      const hipads::Graph& graph, uint32_t k, uint64_t seed,
      const std::string& dir, SpanRecorder* recorder, SetupTimes* times);

  /// Starts a fresh fleet — new servers, router and threads — over the
  /// shard files an earlier Start wrote under `dir` (`splits` and `n` as
  /// that fleet's). Its sketches() are empty.
  static hipads::StatusOr<std::unique_ptr<Fleet>> Restart(
      const std::string& dir, const std::vector<hipads::NodeId>& splits,
      hipads::NodeId n, SpanRecorder* recorder, SetupTimes* times);

  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  uint16_t router_port() const { return router_port_; }
  hipads::FleetRouter& router() { return *router_; }
  /// The in-memory sketches the shard files were written from: the
  /// oracle's reference copy.
  const hipads::FlatAdsSet& sketches() const { return sketches_; }
  const std::vector<hipads::NodeId>& splits() const { return splits_; }
  hipads::FlatAdsSet TakeSketches() { return std::move(sketches_); }

 private:
  Fleet() = default;

  // Opens the shard files and starts the servers and the router.
  hipads::Status Serve(const std::string& dir, hipads::NodeId n,
                       SpanRecorder* recorder, SetupTimes* times);

  hipads::FlatAdsSet sketches_;
  std::vector<hipads::NodeId> splits_;
  std::vector<std::unique_ptr<TracedBackend>> backends_;
  std::vector<std::unique_ptr<hipads::AdsServerCore>> cores_;
  std::vector<std::unique_ptr<TracedHandler>> server_handlers_;
  std::vector<std::unique_ptr<hipads::TcpServer>> servers_;
  std::unique_ptr<hipads::FleetRouter> router_;
  std::unique_ptr<hipads::RouterCore> router_core_;
  std::unique_ptr<TracedHandler> router_handler_;
  std::unique_ptr<hipads::TcpServer> router_server_;
  uint16_t router_port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_

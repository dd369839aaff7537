// The scatter/gather front end of the distributed serving subsystem.
//
// A fleet manifest maps each serving process to the contiguous global node
// range it holds:
//
//   hipads-fleet-v1
//   nodes <N>
//   server <begin> <end> <address>
//   server <begin> <end> <address>
//   ...
//
// Ranges must be sorted, contiguous and end exactly at N — the same
// contiguous-range discipline the shard manifest enforces on disk, lifted
// to hosts. A root fleet starts at 0; a fleet whose first range starts at
// B > 0 describes a *sub-fleet* serving global nodes [B, N) — the form an
// inner router of a multi-level tree is configured with.
//
// FleetRouter connects to every server (any Channel transport: TCP for a
// real fleet, loopback for deterministic tests/benches), validates that
// the fleet's reported ranges and sketch parameters are coherent, and then
// serves the two request families. Every in-flight call to a server owns
// one connection from that server's pool of idle channels (opened on
// demand, returned after any well-formed answer, dropped with the
// server's idle ones on a transport failure), so a point lookup never
// queues behind a sweep on a shared socket:
//
//   * Sweeps — scatter: the serialized SweepPlan goes to every range
//     server concurrently; each runs ONE fused pass over its backend
//     (ads/sweep.h) and returns its collectors' partial states. Gather:
//     partials are absorbed in node order (never completion order); the
//     histogram's exact per-distance sums make any absorb order land on
//     the same bits anyway — so every statistic is bitwise identical to a
//     single-process RunSweep over the same sketches, whatever the fleet
//     layout, transport, or per-server thread counts.
//   * Point queries — routed to the owning server by range; Jaccard pairs
//     that span two servers are evaluated by fetching both raw sketches
//     and running the same similarity estimator router-side.
//
// RouterCore wraps a FleetRouter in the wire protocol's FrameHandler
// surface, so a router process is itself just another protocol endpoint
// serving its fleet's [node_begin, N): clients cannot tell a router from a
// single big server, and routers stack on routers for multi-level fan-out
// — an outer manifest lists inner routers at their sub-fleet ranges
// (tested down to two levels in serve_test).

#ifndef HIPADS_SERVE_ROUTER_H_
#define HIPADS_SERVE_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/status.h"

namespace hipads {

/// One fleet member: the global node range [begin, end) served at
/// `address`.
struct FleetEntry {
  std::string address;
  NodeId begin = 0;
  NodeId end = 0;
};

struct FleetManifest {
  uint64_t num_nodes = 0;
  std::vector<FleetEntry> servers;
};

/// Magic first line of a fleet manifest file.
inline constexpr char kFleetManifestMagic[] = "hipads-fleet-v1";

std::string SerializeFleetManifest(const FleetManifest& manifest);
StatusOr<FleetManifest> ParseFleetManifest(const std::string& text);
StatusOr<FleetManifest> ReadFleetManifestFile(const std::string& path);

/// Structural check: at least one server, ranges sorted, non-empty,
/// contiguous, ending exactly at num_nodes (starting at 0 for a root
/// fleet, or at any B >= 0 for a sub-fleet).
Status ValidateFleetManifest(const FleetManifest& manifest);

/// Opens the transport to one fleet address. The default TCP factory
/// parses "host:port"; tests install loopback factories.
using ChannelFactory =
    std::function<StatusOr<std::unique_ptr<Channel>>(const std::string&)>;
ChannelFactory TcpChannelFactory();
/// A TCP factory whose channels carry the given socket options (connect /
/// per-call I/O timeouts).
ChannelFactory TcpChannelFactory(const TcpChannelOptions& options);

/// Robustness policy of a FleetRouter. Defaults are production-shaped:
/// one retry, no hedging, no implicit deadline.
struct RouterOptions {
  /// Default per-request deadline applied when the caller passes none
  /// (and an upper bound when it does). 0 = none.
  uint64_t timeout_ms = 0;
  /// Transport-failure retry budget per request: total attempts are
  /// retries + 1. Only transport-shaped failures (IOError, Unavailable —
  /// dead connections, shed lookups) are retried; semantic errors and
  /// expired deadlines never are. A transport failure drops the failed
  /// channel and the server's idle ones, so a retry reconnects.
  uint32_t retries = 1;
  /// Hedge point requests: if the owner has not answered within
  /// hedge_delay_ms, race a second attempt to the same server — on its
  /// own pooled connection, never the primary's — and take whichever
  /// succeeds first. Ranges tile the node space uniquely, so the hedge
  /// targets the same owner — it defeats a stalled connection or a wedged
  /// worker thread, not a dead process.
  /// Both attempts compute the same bytes, so the winner is
  /// indistinguishable from an unhedged call.
  bool hedge = false;
  uint64_t hedge_delay_ms = 50;
  /// Jittered exponential backoff between retries: attempt a sleeps a
  /// deterministic value in [b/2, b] where b = min(backoff_base_ms << a,
  /// backoff_max_ms), seeded per (server, attempt) so a fleet-wide
  /// failure does not resynchronize every client into a retry stampede.
  uint64_t backoff_base_ms = 10;
  uint64_t backoff_max_ms = 1000;
  uint64_t backoff_seed = 0;
};

/// A connected fleet. Movable, not copyable.
class FleetRouter {
 public:
  /// An empty router (no fleet); the state StatusOr needs. Use Connect.
  FleetRouter() = default;

  /// Connects to every manifest entry and validates the fleet: each
  /// server's reported range must equal its manifest range, and every
  /// server must agree on k, flavor and rank sup. A dead or mismatched
  /// server fails the whole fleet here, before any query runs. The
  /// factory is retained: it opens a server's further connections
  /// whenever its pool has no idle one (concurrent calls, reconnects
  /// after a dropped channel).
  static StatusOr<FleetRouter> Connect(FleetManifest manifest,
                                       const ChannelFactory& factory,
                                       const RouterOptions& options = {});

  /// Exclusive end of the served global range (== the global node count
  /// for a root fleet).
  uint64_t num_nodes() const { return manifest_.num_nodes; }
  /// First global node this fleet serves (0 for a root fleet).
  uint64_t node_begin() const {
    return manifest_.servers.empty() ? 0 : manifest_.servers.front().begin;
  }
  uint64_t total_entries() const { return total_entries_; }
  uint32_t k() const { return k_; }
  uint32_t flavor() const { return flavor_; }
  double rank_sup() const { return rank_sup_; }
  size_t num_servers() const { return manifest_.servers.size(); }

  /// Scatters `request` to every range server, gathers the partial states
  /// and absorbs them into `collectors` (built by the caller from the same
  /// spec; Begin is called here). Bitwise identical to a single-process
  /// RunSweep over the same sketches. `deadline` bounds the whole
  /// scatter/gather (each hop receives the remaining budget); per-server
  /// failures are retried within the retry budget, and the final error
  /// names the failing server. On failure the collectors are left
  /// partially filled and must be discarded, never read.
  Status ExecuteSweep(const SweepRequestMsg& request,
                      const std::vector<SweepCollector*>& collectors,
                      const Deadline& deadline = Deadline());

  /// Routes a point request to the owning range server (retried, and —
  /// when options.hedge is set — hedged; see RouterOptions). Cross-server
  /// Jaccard pairs are computed router-side from fetched sketches.
  StatusOr<PointResponseMsg> Point(const PointRequestMsg& request,
                                   const Deadline& deadline = Deadline());

  /// N point requests in as few downstream frames as possible: grouped by
  /// owning server, each group sent as kPointBatchRequest frames (split at
  /// kMaxPointBatchEntries). Returns one entry per request in request
  /// order. Entries a batch frame cannot express — cross-server Jaccard
  /// pairs — and entries whose batched answer came back retryable take the
  /// single-request Point path instead, so every entry's bytes match what
  /// a lone Point call would have produced. The call itself never fails;
  /// per-request errors live in the entry statuses.
  std::vector<PointBatchResponseEntry> PointBatch(
      const std::vector<PointRequestMsg>& requests,
      const Deadline& deadline = Deadline());

  /// Scrapes the whole fleet: this process's registry snapshot (labeled
  /// "router") followed by every server's, gathered over the wire and
  /// relabeled with the server's manifest address (nested routers keep
  /// their own labels as an "address/label" suffix, so a stacked tree
  /// scrape stays unambiguous). Pass kStatsFlagTraceSpans to also drain
  /// every process's trace buffer. An unreachable server fails the
  /// scrape — a fleet operator must never mistake a partial snapshot for
  /// the whole fleet.
  StatusOr<StatsResponseMsg> Stats(uint32_t flags,
                                   const Deadline& deadline = Deadline());

 private:
  /// A fleet member's idle connections. A call checks one out for its
  /// whole exchange, so no two calls ever share a channel.
  struct ServerSlot {
    Mutex mu;
    std::vector<std::unique_ptr<Channel>> idle HIPADS_GUARDED_BY(mu);
  };

  /// Index of the fleet entry owning global node v, or an error.
  StatusOr<size_t> OwnerOf(uint64_t v) const;
  StatusOr<std::vector<AdsEntry>> FetchSketch(uint64_t node,
                                              const Deadline& deadline);

  /// The caller's deadline tightened by the router's default timeout.
  Deadline EffectiveDeadline(const Deadline& deadline) const;
  /// An idle pooled channel of server `idx`, or a freshly opened one.
  StatusOr<std::unique_ptr<Channel>> CheckOut(size_t idx);
  /// Returns a channel whose last call ended in a well-formed frame.
  void CheckIn(size_t idx, std::unique_ptr<Channel> channel);
  /// One request to server `idx` with the full retry/backoff/reconnect
  /// policy. Transport errors come back naming the server's address.
  StatusOr<Frame> CallServer(size_t idx, MessageType type,
                             const std::string& payload,
                             MessageType expected_response,
                             const Deadline& deadline);
  /// A point call with the hedging race layered on top of CallServer.
  StatusOr<Frame> CallPoint(size_t idx, const std::string& payload,
                            const Deadline& deadline);

  FleetManifest manifest_;
  std::vector<std::unique_ptr<ServerSlot>> slots_;  // parallel to servers
  ChannelFactory factory_;
  RouterOptions options_;
  uint64_t total_entries_ = 0;
  uint32_t k_ = 0;
  uint32_t flavor_ = 0;
  double rank_sup_ = 1.0;
};

/// The wire surface of a router process: info reports the whole fleet's
/// [0, N); sweeps scatter/gather and respond with the merged state as a
/// single [0, N) partial (collector partial states are partition-
/// independent, so the re-encoded merge is exactly what a single server
/// covering the whole range would have sent). Request deadlines are
/// re-anchored and propagated to the fleet; expired requests are shed.
class RouterCore : public FrameHandler {
 public:
  explicit RouterCore(FleetRouter* router) : router_(router) {}

  std::string HandleFrame(std::string_view request,
                          bool* close_connection) override;

 private:
  StatusOr<Frame> Dispatch(const Frame& request, const Deadline& deadline);

  FleetRouter* router_;
};

}  // namespace hipads

#endif  // HIPADS_SERVE_ROUTER_H_

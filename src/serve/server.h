// The serving processes of the distributed subsystem.
//
// A range server owns an AdsBackend — any engine: in-memory arena, zero-
// copy mmap, mapped shard directory — holding the sketches of one
// contiguous global node range, and answers the wire protocol
// (serve/protocol.h) over it:
//
//   AdsServerCore  transport-free request dispatch: one request frame in,
//                  one response frame out. This is the piece the loopback
//                  transport, the fuzz suite and the TCP server all share,
//                  so the full protocol surface is testable deterministically
//                  without a socket in sight.
//   TcpServer      a thread-pooled TCP front end: N worker threads share
//                  one epoll set holding the listener and every idle
//                  connection, and each takes one ready frame at a time
//                  through a FrameHandler.
//
// Concurrency: every backend's reads are immutable (ads/backend.h), so the
// core runs LOCK-FREE: any number of point lookups and whole-range sweeps
// execute concurrently with no serialization at all (results are bitwise
// deterministic either way, so overlap is invisible), and a point lookup
// never waits behind a sweep. Sweeps run at background CPU priority, so
// when they keep every core busy a point handler still gets one at once.
// Small LRU response caches sit in front, so repeated cheap lookups never
// touch the backend at all.
//
// The node-id split: a range server launched with node_begin B serves
// global nodes [B, B + backend.num_nodes()). Shard files written by
// WriteShardedAdsSet are complete, independently loadable ADS files whose
// local node i is global node begin + i (entry target ids stay global), so
// a fleet is deployed by pointing each server at a shard file (or sharded
// subdirectory) with the matching --node-begin offset. Sweep responses are
// labeled with the global range; per-node statistics depend only on the
// node's own sketch, so the relabeling is exact.

#ifndef HIPADS_SERVE_SERVER_H_
#define HIPADS_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ads/backend.h"
#include "ads/estimators.h"
#include "serve/protocol.h"
#include "util/annotations.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"

namespace hipads {

/// Transport-free request endpoint: turns one request frame into one
/// response frame. Implementations must never crash on malformed input —
/// frames arrive from the network.
class FrameHandler {
 public:
  virtual ~FrameHandler();

  /// Handles one frame. Always returns a complete response frame (kError
  /// for anything invalid). Sets *close_connection when the byte stream
  /// can no longer be trusted (undecodable frame: once framing is lost,
  /// every subsequent byte is garbage), telling a streaming transport to
  /// drop the connection after sending the response.
  /// Safe to call from multiple threads concurrently.
  virtual std::string HandleFrame(std::string_view request,
                                  bool* close_connection) = 0;
};

/// Bounded, thread-safe LRU mapping request bytes to response bytes.
/// Every answer a serving backend can give is immutable (sketches never
/// change once loaded), so cached responses never go stale; the cache
/// exists so a repeated cheap lookup is served without touching the
/// backend. Capacity 0 disables it.
class ResponseCache {
 public:
  /// `metric_prefix` names this cache in the metrics registry: hits and
  /// misses surface as `<prefix>.hits` / `<prefix>.misses` in scrapes.
  ResponseCache(size_t capacity, std::string metric_prefix)
      : hits_(metric_prefix + ".hits"),
        misses_(metric_prefix + ".misses"),
        capacity_(capacity) {}

  /// Copies the cached response into *value and refreshes recency.
  bool Get(const std::string& key, std::string* value);
  void Put(const std::string& key, std::string value);

  /// Lifetime hit count — observability for tests asserting that batched
  /// and single-request paths share one cache. Backed by the registry
  /// counter, so a wire scrape and this accessor can never disagree.
  uint64_t hits() const { return hits_.value(); }

 private:
  using Entry = std::pair<std::string, std::string>;  // key, response

  Mutex mu_;
  RegisteredCounter hits_;
  RegisteredCounter misses_;
  // Immutable after construction: Put reads it before taking mu_ for its
  // capacity-0 fast path, which is only race-free because nothing ever
  // writes it again (const makes that a compiler guarantee, not a habit).
  const size_t capacity_;
  std::list<Entry> lru_ HIPADS_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      HIPADS_GUARDED_BY(mu_);
};

/// Serving options for AdsServerCore.
struct ServerOptions {
  /// Global node id of the backend's local node 0.
  NodeId node_begin = 0;
  /// Threads per sweep (0 = hardware count). Bitwise-neutral.
  uint32_t num_threads = 1;
  /// Entries in the point-result LRU, keyed by exact request payload
  /// bytes (0 disables).
  uint32_t point_cache_entries = 1024;
  /// Entries in the sweep-response LRU, keyed by the canonical spec
  /// encoding (SweepSpecCacheKey, thread-count excluded; 0 disables).
  uint32_t sweep_cache_entries = 4;
  /// Time source for deadline evaluation. Null = the real steady clock;
  /// tests inject a fake to exercise expired-deadline shedding
  /// deterministically.
  std::function<Deadline::Clock::time_point()> clock;
};

/// The request dispatcher of a range server. Borrows the backend, which
/// must outlive the core, and serves it lock-free (see the file comment).
/// Requests carrying an expired
/// deadline are shed with DeadlineExceeded before touching the backend,
/// and an in-flight sweep aborts between node ranges once its request's
/// deadline passes — a fleet under deadline pressure sheds load instead
/// of computing answers nobody is waiting for.
class AdsServerCore : public FrameHandler {
 public:
  AdsServerCore(const AdsBackend* backend, const ServerOptions& options);

  std::string HandleFrame(std::string_view request,
                          bool* close_connection) override;

  /// The info this server reports (also used by fleet validation).
  ServerInfoMsg Info() const;

  /// Lifetime point-cache hit count (batched and single requests share the
  /// same cache; tests assert cross-shape hits through this).
  uint64_t point_cache_hits() const { return point_cache_.hits(); }

 private:
  StatusOr<Frame> Dispatch(const Frame& request, const Deadline& deadline);
  StatusOr<Frame> HandlePoint(const PointRequestMsg& msg,
                              const std::string& payload);
  StatusOr<Frame> HandlePointBatch(const PointBatchRequestMsg& msg);
  StatusOr<Frame> HandleSweep(const SweepRequestMsg& msg,
                              const Deadline& deadline);
  /// Answers a kStatsRequest with this process's registry snapshot
  /// (labeled "server") and, when asked, the buffered trace spans.
  StatusOr<Frame> HandleStats(const StatsRequestMsg& msg) const;
  /// Maps a global node id into the served range (the NotFound here is THE
  /// out-of-range answer — single and batched paths must fail with
  /// identical bytes).
  StatusOr<NodeId> LocalIdOf(uint64_t node) const;
  /// The actual point computation.
  StatusOr<std::string> ComputePoint(const PointRequestMsg& msg) const;
  /// Point computation against an already-fetched view. `hip` carries the
  /// node's storage-resident HIP weights when the backend has them
  /// (estimator materialization is then a pointer wrap); when absent the
  /// scan fallback runs into a per-thread scratch — both produce byte-
  /// identical responses. `est` caches the node's HipEstimator across
  /// consecutive same-node entries of a sorted batch (one materialization
  /// per distinct node).
  StatusOr<std::string> ComputePointWithView(
      const PointRequestMsg& msg, const AdsView& view, const HipView& hip,
      std::optional<HipEstimator>* est) const;
  /// Computes the `order`-listed entries of a batch. `order` must be
  /// sorted by node: consecutive same-node entries then share one backend
  /// fetch and one estimator materialization, and consecutive *identical*
  /// entries reuse the previous result outright (responses are
  /// deterministic, so the copy is bitwise-equal to a recompute).
  void ComputeBatchEntries(const PointBatchRequestMsg& msg,
                           const std::vector<size_t>& order,
                           PointBatchResponseMsg* response) const;
  Deadline::Clock::time_point Now() const;

  const AdsBackend* backend_;
  ServerOptions options_;
  // Sweeps running right now; a registry gauge so a scrape sees them.
  RegisteredGauge active_sweeps_{"serve.active_sweeps"};
  ResponseCache point_cache_;
  ResponseCache sweep_cache_;
};

/// Options for TcpServer.
struct TcpServerOptions {
  /// Port to bind (0 = ephemeral; read the chosen one back via port()).
  uint16_t port = 0;
  /// Worker threads, which bound the frames in flight: a worker is held
  /// only while it reads, handles and answers one frame, so any number of
  /// connections (idle ones included) share them.
  uint32_t num_workers = 4;
  /// Mid-frame stall bound: once the first byte of a frame has arrived,
  /// the rest of it (and the response write) must complete within this
  /// budget or the connection is dropped — a client stalled mid-frame
  /// (or a slow-loris) cannot pin a worker forever. Idle time BETWEEN
  /// frames stays unbounded and holds no worker. 0 = no bound.
  uint64_t idle_timeout_ms = 0;
  /// TCP_NODELAY on accepted connections. Responses are single complete
  /// frames — Nagle only adds a stall before the final short segment — so
  /// this defaults on; the toggle exists for latency tests to pin either
  /// behavior.
  bool nodelay = true;
};

/// Thread-pooled TCP transport around a FrameHandler. Start() binds and
/// spawns the workers; Stop() (or destruction) shuts the listener down,
/// joins them and closes every connection. Workers hand out frames, not
/// connections: each waits on one shared epoll set in which the listener
/// and every idle connection are armed one-shot, so a ready connection
/// wakes exactly one worker. That worker serves one frame, then re-arms
/// the connection — one frame at a time per connection, answered in
/// order — until the peer closes or a handler reports loss of framing.
class TcpServer {
 public:
  TcpServer(FrameHandler* handler, const TcpServerOptions& options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  Status Start();
  void Stop();

  /// The bound port (valid after Start; resolves port 0 requests).
  uint16_t port() const { return port_; }

 private:
  void WorkerLoop();
  /// Accepts every pending connection into the epoll set. False on an
  /// accept error that an immediate retry cannot fix (EMFILE, ENOBUFS...).
  bool AcceptPending();
  /// Reads, handles and answers one frame; false when the connection
  /// must close (EOF, socket error, stall, lost framing).
  bool ServeFrame(int fd);
  /// Re-arms a one-shot registration; false if the fd could not be armed.
  bool Arm(int fd);
  void CloseConnection(int fd);
  /// False once Stop is signaled or the deadline passes.
  bool WaitReadable(int fd, const Deadline& deadline);

  FrameHandler* handler_;
  TcpServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  // never drained: wakes every waiter
  uint16_t port_ = 0;
  std::vector<std::thread> workers_;
  Mutex conns_mu_;
  std::set<int> conns_ HIPADS_GUARDED_BY(conns_mu_);  // closed by Stop
};

}  // namespace hipads

#endif  // HIPADS_SERVE_SERVER_H_

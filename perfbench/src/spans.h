// Per-layer timing from outside the program: span decorators over the
// library's public interfaces, and the arithmetic that turns one request's
// spans into per-layer self times.
//
// Every decorator forwards to the object it wraps and records a span only
// while the calling thread handles a traced request (a nonzero trace id:
// the wire-v4 id the load generator installs, which the router propagates
// to its scatter threads and servers install for their handlers), so the
// untraced path through a decorator is one virtual call and one
// thread-local read. Spans of one request share its trace id.
//
//   TracedHandler  around the FrameHandler each TcpServer is given
//                  (router and range servers)
//   TracedChannel  around the Channel the router's ChannelFactory returns
//   TracedBackend  around the AdsBackend each AdsServerCore borrows;
//                  forwards every virtual, including ImmutableReads,
//                  HipOf, HipResident and Prefetch, so the served path is
//                  the real lock-free, HIP-resident one
//   TimedCollector around a SweepCollector in in-process RunSweep replays;
//                  forwards NeedsReduce so the executor keeps its real
//                  Map-only or Reduce path

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ads/backend.h"
#include "ads/sweep.h"
#include "serve/client.h"
#include "serve/router.h"
#include "serve/server.h"

namespace perfbench {

/// Steady-clock nanoseconds (process-local origin).
int64_t NowNs();

enum class Layer : uint8_t {
  kRouter,        // router FrameHandler::HandleFrame
  kChannel,       // router-side Channel::Call to one range server
  kServer,        // range-server FrameHandler::HandleFrame
  kBackendFetch,  // AdsBackend::ViewOf / HipOf
  kBackendRange,  // AdsBackend::Range
};

enum class ReqKind : uint8_t { kPoint, kSweep, kOther };

/// Request kind of an encoded request frame (kOther when undecodable).
ReqKind KindOfFrame(std::string_view frame);

struct Span {
  uint64_t trace_lo = 0;  // the request's trace id (low word)
  Layer layer = Layer::kRouter;
  ReqKind kind = ReqKind::kOther;
  int32_t server = -1;  // fleet index for channel/server/backend spans
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;  // channel spans: request + response frame bytes
};

/// Thread-safe in-memory span store, drained when a phase ends.
class SpanRecorder {
 public:
  void Record(const Span& span);
  std::vector<Span> Take();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

class TracedHandler : public hipads::FrameHandler {
 public:
  TracedHandler(hipads::FrameHandler* inner, Layer layer, int32_t server,
                SpanRecorder* recorder)
      : inner_(inner), layer_(layer), server_(server), recorder_(recorder) {}

  std::string HandleFrame(std::string_view request,
                          bool* close_connection) override;

 private:
  hipads::FrameHandler* inner_;
  Layer layer_;
  int32_t server_;
  SpanRecorder* recorder_;
};

class TracedChannel : public hipads::Channel {
 public:
  TracedChannel(std::unique_ptr<hipads::Channel> inner, int32_t server,
                SpanRecorder* recorder)
      : inner_(std::move(inner)), server_(server), recorder_(recorder) {}

  using hipads::Channel::Call;
  hipads::Status Call(std::string_view request_frame, hipads::Frame* response,
                      const hipads::Deadline& deadline) override;

 private:
  std::unique_ptr<hipads::Channel> inner_;
  int32_t server_;
  SpanRecorder* recorder_;
};

/// Wraps `inner` so every channel it opens is a TracedChannel tagged with
/// the fleet index of its address in `manifest`.
hipads::ChannelFactory TracedChannelFactory(hipads::ChannelFactory inner,
                                            const hipads::FleetManifest& manifest,
                                            SpanRecorder* recorder);

class TracedBackend : public hipads::AdsBackend {
 public:
  TracedBackend(std::unique_ptr<hipads::AdsBackend> inner, int32_t server,
                SpanRecorder* recorder)
      : inner_(std::move(inner)), server_(server), recorder_(recorder) {}

  hipads::SketchFlavor flavor() const override { return inner_->flavor(); }
  uint32_t k() const override { return inner_->k(); }
  const hipads::RankAssignment& ranks() const override {
    return inner_->ranks();
  }
  size_t num_nodes() const override { return inner_->num_nodes(); }
  uint64_t TotalEntries() const override { return inner_->TotalEntries(); }
  uint32_t NumRanges() const override { return inner_->NumRanges(); }
  hipads::StatusOr<hipads::AdsArenaView> Range(uint32_t r) const override;
  hipads::StatusOr<hipads::AdsView> ViewOf(hipads::NodeId v) const override;
  hipads::StatusOr<hipads::HipView> HipOf(hipads::NodeId v) const override;
  bool HipResident() const override { return inner_->HipResident(); }
  void Prefetch(uint32_t r) const override { inner_->Prefetch(r); }
  bool ImmutableReads() const override { return inner_->ImmutableReads(); }

 private:
  void Record(Layer layer, int64_t begin_ns) const;

  std::unique_ptr<hipads::AdsBackend> inner_;
  int32_t server_;
  SpanRecorder* recorder_;
};

/// Times Map (summed over the executor's threads) and Reduce of the
/// wrapped collector; everything else is forwarded.
class TimedCollector : public hipads::SweepCollector {
 public:
  explicit TimedCollector(hipads::SweepCollector* inner) : inner_(inner) {}

  void Begin(size_t num_nodes) override { inner_->Begin(num_nodes); }
  void Map(hipads::NodeId v, const hipads::HipEstimator& est) override;
  void Reduce(hipads::NodeId first,
              std::span<const hipads::HipEstimator> ests) override;
  bool NeedsReduce() const override { return inner_->NeedsReduce(); }
  hipads::Status EncodePartial(hipads::NodeId begin, hipads::NodeId end,
                               std::string* out) const override {
    return inner_->EncodePartial(begin, end, out);
  }
  hipads::Status AbsorbPartial(hipads::NodeId begin, hipads::NodeId end,
                               std::string_view data) override {
    return inner_->AbsorbPartial(begin, end, data);
  }

  int64_t map_ns() const { return map_ns_.load(); }
  int64_t reduce_ns() const { return reduce_ns_; }

 private:
  hipads::SweepCollector* inner_;
  std::atomic<int64_t> map_ns_{0};
  int64_t reduce_ns_ = 0;  // Reduce runs sequentially
};

/// One request as its client saw it.
struct ClientRecord {
  uint64_t trace_lo = 0;
  ReqKind kind = ReqKind::kPoint;
  int64_t due_ns = 0;   // when the schedule said to send it
  int64_t send_ns = 0;  // when a sender actually started it
  int64_t done_ns = 0;
};

/// The critical-path decomposition of requests' latency, summed over the
/// requests (divide by `requests` for means). Per request:
///   e2e          = done - due
///   queue        = send - due (waiting for a free connection)
///   router_self  = router span - union of its channel spans
///   scatter_skew = union of channel spans - the last-ending channel span
///   wire_wait    = that channel span - the server span inside it
///   server_self  = that server span - union of its backend spans
///   backend      = union of that server span's backend spans
///   unattributed = e2e - all of the above (client socket I/O, the
///                  router's TCP framing outside HandleFrame)
/// so the rows add up to e2e exactly.
struct Breakdown {
  size_t requests = 0;
  size_t missing_spans = 0;  // requests without a router span
  double e2e = 0, queue = 0, router_self = 0, scatter_skew = 0,
         wire_wait = 0, server_self = 0, backend = 0, unattributed = 0;
};

/// Per-layer means over every span of a layer (not only critical ones),
/// for the per-layer metrics. Times in ns, per request or per span as
/// named; bytes per request.
struct LayerMeans {
  double router_self_ns = 0;     // per request
  double wire_wait_ns = 0;       // per request, summed over its channel calls
  double server_self_ns = 0;     // per server span
  double backend_ns = 0;         // per server span
  double frame_bytes = 0;        // per request, all channel frames
  size_t requests = 0;
};

struct TraceAnalysis {
  Breakdown breakdown;
  LayerMeans layers;
};

/// Decomposes the `kind` requests among `clients` using `spans`.
TraceAnalysis AnalyzeTrace(const std::vector<ClientRecord>& clients,
                           const std::vector<Span>& spans, ReqKind kind);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

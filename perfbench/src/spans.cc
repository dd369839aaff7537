#include "spans.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "serve/protocol.h"
#include "serve/trace.h"
#include "stats.h"

namespace perfbench {

using hipads::CurrentTraceId;
using hipads::MessageType;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ReqKind KindOfFrame(std::string_view frame) {
  hipads::FrameHeader header;
  if (!hipads::DecodeFrameHeaderPrefix(frame.data(), frame.size(), &header)
           .ok()) {
    return ReqKind::kOther;
  }
  switch (header.type) {
    case MessageType::kPointRequest:
    case MessageType::kPointBatchRequest:
      return ReqKind::kPoint;
    case MessageType::kSweepRequest:
      return ReqKind::kSweep;
    default:
      return ReqKind::kOther;
  }
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

std::string TracedHandler::HandleFrame(std::string_view request,
                                       bool* close_connection) {
  // The handler installs the frame's trace id itself, so read it from the
  // header here.
  hipads::FrameHeader header;
  if (!hipads::DecodeFrameHeader(request.data(), request.size(), &header)
           .ok() ||
      (header.trace_hi | header.trace_lo) == 0) {
    return inner_->HandleFrame(request, close_connection);
  }
  Span span;
  span.trace_lo = header.trace_lo;
  span.layer = layer_;
  span.kind = KindOfFrame(request);
  span.server = server_;
  span.begin_ns = NowNs();
  std::string response = inner_->HandleFrame(request, close_connection);
  span.end_ns = NowNs();
  recorder_->Record(span);
  return response;
}

hipads::Status TracedChannel::Call(std::string_view request_frame,
                                   hipads::Frame* response,
                                   const hipads::Deadline& deadline) {
  const hipads::TraceId trace = CurrentTraceId();
  if (!trace.active()) return inner_->Call(request_frame, response, deadline);
  Span span;
  span.trace_lo = trace.lo;
  span.layer = Layer::kChannel;
  span.kind = KindOfFrame(request_frame);
  span.server = server_;
  span.begin_ns = NowNs();
  hipads::Status status = inner_->Call(request_frame, response, deadline);
  span.end_ns = NowNs();
  span.bytes = request_frame.size() +
               hipads::FrameHeaderBytesForVersion(response->version) +
               response->payload.size();
  recorder_->Record(span);
  return status;
}

hipads::ChannelFactory TracedChannelFactory(
    hipads::ChannelFactory inner, const hipads::FleetManifest& manifest,
    SpanRecorder* recorder) {
  std::unordered_map<std::string, int32_t> index;
  for (size_t i = 0; i < manifest.servers.size(); ++i) {
    index[manifest.servers[i].address] = static_cast<int32_t>(i);
  }
  return [inner = std::move(inner), index = std::move(index), recorder](
             const std::string& address)
             -> hipads::StatusOr<std::unique_ptr<hipads::Channel>> {
    auto opened = inner(address);
    if (!opened.ok()) return opened.status();
    auto it = index.find(address);
    int32_t server = it == index.end() ? -1 : it->second;
    return std::unique_ptr<hipads::Channel>(new TracedChannel(
        std::move(opened).value(), server, recorder));
  };
}

void TracedBackend::Record(Layer layer, int64_t begin_ns) const {
  Span span;
  span.trace_lo = CurrentTraceId().lo;
  span.layer = layer;
  span.kind = layer == Layer::kBackendRange ? ReqKind::kSweep : ReqKind::kPoint;
  span.server = server_;
  span.begin_ns = begin_ns;
  span.end_ns = NowNs();
  recorder_->Record(span);
}

hipads::StatusOr<hipads::AdsArenaView> TracedBackend::Range(uint32_t r) const {
  if (!CurrentTraceId().active()) return inner_->Range(r);
  int64_t begin = NowNs();
  auto result = inner_->Range(r);
  Record(Layer::kBackendRange, begin);
  return result;
}

hipads::StatusOr<hipads::AdsView> TracedBackend::ViewOf(
    hipads::NodeId v) const {
  if (!CurrentTraceId().active()) return inner_->ViewOf(v);
  int64_t begin = NowNs();
  auto result = inner_->ViewOf(v);
  Record(Layer::kBackendFetch, begin);
  return result;
}

hipads::StatusOr<hipads::HipView> TracedBackend::HipOf(hipads::NodeId v) const {
  if (!CurrentTraceId().active()) return inner_->HipOf(v);
  int64_t begin = NowNs();
  auto result = inner_->HipOf(v);
  Record(Layer::kBackendFetch, begin);
  return result;
}

void TimedCollector::Map(hipads::NodeId v, const hipads::HipEstimator& est) {
  int64_t begin = NowNs();
  inner_->Map(v, est);
  map_ns_.fetch_add(NowNs() - begin, std::memory_order_relaxed);
}

void TimedCollector::Reduce(hipads::NodeId first,
                            std::span<const hipads::HipEstimator> ests) {
  int64_t begin = NowNs();
  inner_->Reduce(first, ests);
  reduce_ns_ += NowNs() - begin;
}

namespace {

Interval IntervalOf(const Span& span) {
  return Interval{static_cast<double>(span.begin_ns),
                  static_cast<double>(span.end_ns)};
}

bool Contains(const Span& outer, const Span& inner) {
  return inner.begin_ns >= outer.begin_ns && inner.end_ns <= outer.end_ns;
}

// The spans of one request, by layer.
struct RequestSpans {
  std::vector<const Span*> router, channel, server, backend;
};

// Backend spans inside server span `s` (same server).
std::vector<Interval> BackendChildren(const RequestSpans& rs, const Span& s) {
  std::vector<Interval> out;
  for (const Span* b : rs.backend) {
    if (b->server == s.server && Contains(s, *b)) out.push_back(IntervalOf(*b));
  }
  return out;
}

// The server span answering channel call `c`: same server, inside it.
const Span* ServerFor(const RequestSpans& rs, const Span& c) {
  for (const Span* s : rs.server) {
    if (s->server == c.server && Contains(c, *s)) return s;
  }
  return nullptr;
}

}  // namespace

TraceAnalysis AnalyzeTrace(const std::vector<ClientRecord>& clients,
                           const std::vector<Span>& spans, ReqKind kind) {
  std::unordered_map<uint64_t, RequestSpans> by_request;
  for (const Span& span : spans) {
    RequestSpans& rs = by_request[span.trace_lo];
    switch (span.layer) {
      case Layer::kRouter:
        rs.router.push_back(&span);
        break;
      case Layer::kChannel:
        rs.channel.push_back(&span);
        break;
      case Layer::kServer:
        rs.server.push_back(&span);
        break;
      case Layer::kBackendFetch:
      case Layer::kBackendRange:
        rs.backend.push_back(&span);
        break;
    }
  }

  TraceAnalysis out;
  Breakdown& bd = out.breakdown;
  LayerMeans& lm = out.layers;
  size_t server_spans = 0;
  for (const ClientRecord& client : clients) {
    if (client.kind != kind) continue;
    ++bd.requests;
    const double e2e = static_cast<double>(client.done_ns - client.due_ns);
    const double queue = static_cast<double>(client.send_ns - client.due_ns);
    bd.e2e += e2e;
    bd.queue += queue;
    auto found = by_request.find(client.trace_lo);
    if (found == by_request.end() || found->second.router.empty()) {
      ++bd.missing_spans;
      bd.unattributed += e2e - queue;
      continue;
    }
    const RequestSpans& rs = found->second;
    const Span& router = *rs.router.front();
    std::vector<Interval> channel_intervals;
    const Span* critical = nullptr;
    for (const Span* c : rs.channel) {
      channel_intervals.push_back(IntervalOf(*c));
      if (critical == nullptr || c->end_ns > critical->end_ns) critical = c;
    }
    const Interval router_iv = IntervalOf(router);
    const double router_self = SelfTime(router_iv, channel_intervals);
    const double channel_union = router_iv.length() - router_self;
    double skew = 0, wire = 0, server_self = 0, backend = 0;
    if (critical != nullptr) {
      const Interval crit_iv = IntervalOf(*critical);
      skew = channel_union - UnionLength({crit_iv}, router_iv);
      const Span* server = ServerFor(rs, *critical);
      if (server != nullptr) {
        const Interval server_iv = IntervalOf(*server);
        wire = SelfTime(crit_iv, {server_iv});
        server_self = SelfTime(server_iv, BackendChildren(rs, *server));
        backend = server_iv.length() - server_self;
      } else {
        wire = crit_iv.length();
      }
    }
    bd.router_self += router_self;
    bd.scatter_skew += skew;
    bd.wire_wait += wire;
    bd.server_self += server_self;
    bd.backend += backend;
    bd.unattributed += e2e - queue - router_self - skew - wire - server_self -
                       backend;

    // Layer means over every span, not only the critical path.
    ++lm.requests;
    lm.router_self_ns += router_self;
    for (const Span* c : rs.channel) {
      lm.frame_bytes += static_cast<double>(c->bytes);
      const Span* s = ServerFor(rs, *c);
      lm.wire_wait_ns += s ? SelfTime(IntervalOf(*c), {IntervalOf(*s)})
                           : IntervalOf(*c).length();
    }
    for (const Span* s : rs.server) {
      ++server_spans;
      const double self = SelfTime(IntervalOf(*s), BackendChildren(rs, *s));
      lm.server_self_ns += self;
      lm.backend_ns += IntervalOf(*s).length() - self;
    }
  }
  if (lm.requests > 0) {
    const double n = static_cast<double>(lm.requests);
    lm.router_self_ns /= n;
    lm.wire_wait_ns /= n;
    lm.frame_bytes /= n;
  }
  if (server_spans > 0) {
    lm.server_self_ns /= static_cast<double>(server_spans);
    lm.backend_ns /= static_cast<double>(server_spans);
  }
  return out;
}

}  // namespace perfbench

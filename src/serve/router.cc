#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "ads/similarity.h"
#include "serve/trace.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/mutex.h"

namespace hipads {

namespace {

// Instrument pointers resolved once (the registry lookup takes a mutex);
// per-server error counters are looked up on the failure path, where the
// lookup cost is noise.
struct RouterMetrics {
  MetricCounter* scatter_fanout;
  MetricCounter* retries;
  MetricCounter* hedge_fired;
  MetricCounter* hedge_won;
};

RouterMetrics& Metrics() {
  static RouterMetrics* m = [] {
    auto* mm = new RouterMetrics();
    MetricsRegistry& reg = MetricsRegistry::Get();
    mm->scatter_fanout = reg.Counter("router.scatter.fanout");
    mm->retries = reg.Counter("router.retries");
    mm->hedge_fired = reg.Counter("router.hedge.fired");
    mm->hedge_won = reg.Counter("router.hedge.won");
    return mm;
  }();
  return *m;
}

void CountServerError(const std::string& address) {
  MetricsRegistry::Get().Counter("router.server_errors." + address)->Add();
}

// Encodes a downstream request frame, lifting it to wire v4 when the
// handling thread carries a trace id — the hop that propagates a traced
// request's id across the fleet.
std::string EncodeDownstreamFrame(MessageType type, const std::string& payload,
                                  const Deadline& deadline) {
  const TraceId trace = CurrentTraceId();
  const uint32_t version =
      trace.active() ? kWireVersionTrace : kWireVersion;
  return EncodeFrame(type, payload, deadline.ToWireMs(), version, trace.hi,
                     trace.lo);
}

// Backoff jitter uses the deterministic Mix64 mixer (util/hash.h): same
// seed, server and attempt always back off the same amount, so fault
// tests are reproducible, while distinct servers/attempts decorrelate.

// Transport-shaped failures worth retrying: dead/broken connections and
// explicit shed responses. Semantic errors (bad request, missing node)
// and expired deadlines are final.
bool Retryable(const Status& s) {
  return s.code() == Status::Code::kIOError ||
         s.code() == Status::Code::kUnavailable;
}

// Rebuilds `s` with a new message, preserving the code for the codes the
// retry policy keys on (Status constructors are factory-only).
Status WithMessage(const Status& s, std::string msg) {
  switch (s.code()) {
    case Status::Code::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case Status::Code::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(msg));
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(msg));
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    default:
      return Status::IOError(std::move(msg));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Fleet manifest
// ---------------------------------------------------------------------------

std::string SerializeFleetManifest(const FleetManifest& manifest) {
  std::ostringstream os;
  os << kFleetManifestMagic << '\n';
  os << "nodes " << manifest.num_nodes << '\n';
  for (const FleetEntry& e : manifest.servers) {
    os << "server " << e.begin << ' ' << e.end << ' ' << e.address << '\n';
  }
  return os.str();
}

StatusOr<FleetManifest> ParseFleetManifest(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kFleetManifestMagic) {
    return Status::Corruption("missing hipads-fleet-v1 manifest header");
  }
  FleetManifest manifest;
  bool saw_nodes = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "nodes") {
      if (saw_nodes) {
        return Status::Corruption("duplicate nodes line in fleet manifest");
      }
      if (!(fields >> manifest.num_nodes)) {
        return Status::Corruption("bad nodes line in fleet manifest");
      }
      saw_nodes = true;
    } else if (keyword == "server") {
      FleetEntry e;
      if (!(fields >> e.begin >> e.end >> e.address)) {
        return Status::Corruption("bad server line in fleet manifest: " +
                                  line);
      }
      std::string extra;
      if (fields >> extra) {
        return Status::Corruption("trailing fields on server line: " + line);
      }
      manifest.servers.push_back(std::move(e));
    } else {
      return Status::Corruption("unknown fleet manifest line: " + line);
    }
  }
  if (!saw_nodes) {
    return Status::Corruption("fleet manifest missing nodes line");
  }
  Status s = ValidateFleetManifest(manifest);
  if (!s.ok()) return s;
  return manifest;
}

StatusOr<FleetManifest> ReadFleetManifestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open fleet manifest " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseFleetManifest(buffer.str());
}

Status ValidateFleetManifest(const FleetManifest& manifest) {
  if (manifest.servers.empty()) {
    return Status::InvalidArgument("fleet manifest lists no servers");
  }
  // A root fleet starts at 0; a sub-fleet (an inner tier of a stacked
  // router tree) may start at any B — either way the ranges must be
  // sorted, non-empty, contiguous, and end exactly at `nodes`.
  NodeId expected = manifest.servers.front().begin;
  for (const FleetEntry& e : manifest.servers) {
    if (e.begin != expected || e.end <= e.begin) {
      return Status::InvalidArgument(
          "fleet ranges must be sorted, non-empty and contiguous: "
          "server " + e.address + " covers [" + std::to_string(e.begin) +
          ", " + std::to_string(e.end) + ") but [" +
          std::to_string(expected) + ", ...) was expected");
    }
    expected = e.end;
  }
  if (expected != manifest.num_nodes) {
    return Status::InvalidArgument(
        "fleet ranges end at " + std::to_string(expected) +
        " but the manifest declares " + std::to_string(manifest.num_nodes) +
        " nodes");
  }
  return Status::Ok();
}

ChannelFactory TcpChannelFactory() {
  return TcpChannelFactory(TcpChannelOptions{});
}

ChannelFactory TcpChannelFactory(const TcpChannelOptions& options) {
  return [options](const std::string& address)
             -> StatusOr<std::unique_ptr<Channel>> {
    auto channel = TcpChannel::ConnectAddress(address, options);
    if (!channel.ok()) return channel.status();
    return std::unique_ptr<Channel>(std::move(channel).value());
  };
}

// ---------------------------------------------------------------------------
// FleetRouter
// ---------------------------------------------------------------------------

StatusOr<FleetRouter> FleetRouter::Connect(FleetManifest manifest,
                                           const ChannelFactory& factory,
                                           const RouterOptions& options) {
  Status s = ValidateFleetManifest(manifest);
  if (!s.ok()) return s;
  FleetRouter router;
  router.manifest_ = std::move(manifest);
  router.factory_ = factory;
  router.options_ = options;
  router.slots_.reserve(router.manifest_.servers.size());
  Deadline handshake_deadline = router.EffectiveDeadline(Deadline());
  for (size_t i = 0; i < router.manifest_.servers.size(); ++i) {
    const FleetEntry& entry = router.manifest_.servers[i];
    auto channel = factory(entry.address);
    if (!channel.ok()) {
      return Status::IOError("fleet server " + entry.address +
                             " is unreachable: " +
                             channel.status().ToString());
    }
    AdsClient client(channel.value().get(), handshake_deadline);
    auto info = client.Info();
    if (!info.ok()) {
      return Status::IOError("fleet server " + entry.address +
                             " failed the info handshake: " +
                             info.status().ToString());
    }
    const ServerInfoMsg& reported = info.value();
    if (reported.node_begin != entry.begin ||
        reported.node_end != entry.end) {
      return Status::InvalidArgument(
          "fleet server " + entry.address + " serves [" +
          std::to_string(reported.node_begin) + ", " +
          std::to_string(reported.node_end) +
          ") but the manifest assigns [" + std::to_string(entry.begin) +
          ", " + std::to_string(entry.end) + ")");
    }
    if (i == 0) {
      router.k_ = reported.k;
      router.flavor_ = reported.flavor;
      router.rank_sup_ = reported.rank_sup;
    } else if (reported.k != router.k_ ||
               reported.flavor != router.flavor_ ||
               reported.rank_sup != router.rank_sup_) {
      return Status::InvalidArgument(
          "fleet server " + entry.address +
          " disagrees on sketch parameters (k/flavor/rank sup)");
    }
    router.total_entries_ += reported.total_entries;
    // The handshake connection seeds the server's pool.
    router.slots_.push_back(std::make_unique<ServerSlot>());
    router.CheckIn(i, std::move(channel).value());
  }
  return router;
}

Deadline FleetRouter::EffectiveDeadline(const Deadline& deadline) const {
  if (options_.timeout_ms == 0) return deadline;
  return Deadline::Min(deadline, Deadline::AfterMs(options_.timeout_ms));
}

StatusOr<std::unique_ptr<Channel>> FleetRouter::CheckOut(size_t idx) {
  ServerSlot& slot = *slots_[idx];
  {
    MutexLock lock(slot.mu);
    if (!slot.idle.empty()) {
      std::unique_ptr<Channel> channel = std::move(slot.idle.back());
      slot.idle.pop_back();
      return channel;
    }
  }
  // Connect outside the lock: a slow connect must not hold up calls that
  // could take a channel another call is about to check in.
  auto created = factory_(manifest_.servers[idx].address);
  if (!created.ok()) {
    return WithMessage(created.status(),
                       "cannot connect to fleet server " +
                           manifest_.servers[idx].address + ": " +
                           created.status().message());
  }
  return created;
}

void FleetRouter::CheckIn(size_t idx, std::unique_ptr<Channel> channel) {
  ServerSlot& slot = *slots_[idx];
  MutexLock lock(slot.mu);
  slot.idle.push_back(std::move(channel));
}

StatusOr<Frame> FleetRouter::CallServer(size_t idx, MessageType type,
                                        const std::string& payload,
                                        MessageType expected_response,
                                        const Deadline& deadline) {
  const std::string& address = manifest_.servers[idx].address;
  Status last = Status::Unavailable("no attempt made");
  const uint32_t attempts = options_.retries + 1;
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      Metrics().retries->Add();
      // Jittered exponential backoff, never sleeping past the deadline.
      uint64_t shift = attempt - 1;
      uint64_t backoff = shift >= 63
                             ? options_.backoff_max_ms
                             : options_.backoff_base_ms << shift;
      if (backoff > options_.backoff_max_ms) backoff = options_.backoff_max_ms;
      uint64_t h = Mix64(options_.backoff_seed ^
                         (idx * 0x100000001b3ull) ^ attempt);
      uint64_t sleep_ms = backoff / 2 + (backoff ? h % (backoff / 2 + 1) : 0);
      if (deadline.has_deadline() && deadline.RemainingMs() <= sleep_ms) {
        return Status::DeadlineExceeded(
            "fleet server " + address + ": deadline expired after " +
            std::to_string(attempt) + " attempt(s): " + last.message());
      }
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
    }
    if (deadline.Expired()) {
      return Status::DeadlineExceeded(
          "fleet server " + address + ": deadline expired after " +
          std::to_string(attempt) + " attempt(s): " + last.message());
    }
    auto channel = CheckOut(idx);
    if (!channel.ok()) {
      CountServerError(address);
      last = channel.status();
      if (Retryable(last)) continue;
      return last;
    }
    Frame frame;
    Status s = channel.value()->Call(
        EncodeDownstreamFrame(type, payload, deadline), &frame, deadline);
    if (!s.ok()) {
      // The connection is suspect (half-written frame, dead socket) and
      // is dropped here. So are the server's idle ones: when the server
      // went away they are just as dead, and the next attempt must
      // reconnect rather than spend itself on another stale socket.
      {
        ServerSlot& slot = *slots_[idx];
        MutexLock lock(slot.mu);
        slot.idle.clear();
      }
      CountServerError(address);
      last = s;
      if (Retryable(s)) continue;
      return WithMessage(s, "fleet server " + address + ": " + s.message());
    }
    if (frame.type != MessageType::kError && frame.type != expected_response) {
      CountServerError(address);
      return Status::Corruption("fleet server " + address +
                                ": unexpected response frame type");
    }
    // A well-formed answer, error frames included: the connection is in
    // sync and goes back to the pool.
    CheckIn(idx, std::move(channel).value());
    if (frame.type == MessageType::kError) {
      Status err = DecodeError(frame.payload);
      if (Retryable(err)) {  // e.g. a shed point lookup: retry after backoff
        CountServerError(address);
        last = err;
        continue;
      }
      return err;  // semantic errors pass through as the server sent them
    }
    return frame;
  }
  return WithMessage(last, "fleet server " + address + " failed after " +
                               std::to_string(attempts) +
                               " attempt(s): " + last.message());
}

StatusOr<Frame> FleetRouter::CallPoint(size_t idx, const std::string& payload,
                                       const Deadline& deadline) {
  auto call = [&] {
    return CallServer(idx, MessageType::kPointRequest, payload,
                      MessageType::kPointResponse, deadline);
  };
  if (!options_.hedge) return call();
  // Hedged: the primary call races a delayed second call. The primary's
  // channel stays checked out while it runs, so the hedge always talks
  // on another connection. Both compute identical bytes, so whichever
  // succeeds is THE answer; the loser is joined (its cost is bounded by
  // the deadline) and discarded.
  Mutex mu;
  CondVar cv;
  bool primary_done = false;
  StatusOr<Frame> primary_result = Status::Unavailable("pending");
  std::thread primary([&] {
    auto result = call();
    MutexLock lock(mu);
    primary_result = std::move(result);
    primary_done = true;
    cv.NotifyAll();
  });
  bool fire_hedge = false;
  {
    auto hedge_at = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.hedge_delay_ms);
    MutexLock lock(mu);
    while (!primary_done) {
      if (cv.WaitUntil(mu, hedge_at) == std::cv_status::timeout) break;
    }
    fire_hedge = !primary_done;
  }
  StatusOr<Frame> hedge_result = Status::Unavailable("hedge not fired");
  if (fire_hedge) {
    Metrics().hedge_fired->Add();
    hedge_result = call();
  }
  primary.join();
  if (hedge_result.ok()) {
    Metrics().hedge_won->Add();
    return hedge_result;
  }
  // The primary's answer, or its error: that one carries the server's
  // address.
  return primary_result;
}

StatusOr<size_t> FleetRouter::OwnerOf(uint64_t v) const {
  if (v < node_begin() || v >= manifest_.num_nodes) {
    return Status::NotFound("node " + std::to_string(v) +
                            " outside the served range [" +
                            std::to_string(node_begin()) + ", " +
                            std::to_string(manifest_.num_nodes) + ")");
  }
  // Ranges are sorted and tile [0, N): binary search by begin.
  size_t lo = 0, hi = manifest_.servers.size();
  while (hi - lo > 1) {
    size_t mid = (lo + hi) / 2;
    if (manifest_.servers[mid].begin <= v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<std::vector<AdsEntry>> FleetRouter::FetchSketch(
    uint64_t node, const Deadline& deadline) {
  auto owner = OwnerOf(node);
  if (!owner.ok()) return owner.status();
  PointRequestMsg fetch;
  fetch.kind = PointKind::kFetchSketch;
  fetch.node = node;
  auto frame = CallPoint(owner.value(), EncodePointRequest(fetch), deadline);
  if (!frame.ok()) return frame.status();
  auto response = DecodePointResponse(frame.value().payload);
  if (!response.ok()) return response.status();
  return std::move(response).value().entries;
}

StatusOr<PointResponseMsg> FleetRouter::Point(const PointRequestMsg& request,
                                              const Deadline& deadline_in) {
  Deadline deadline = EffectiveDeadline(deadline_in);
  auto owner = OwnerOf(request.node);
  if (!owner.ok()) return owner.status();
  if (request.kind == PointKind::kJaccard) {
    auto other_owner = OwnerOf(request.other);
    if (!other_owner.ok()) return other_owner.status();
    if (other_owner.value() != owner.value()) {
      // The pair spans two servers: fetch both raw sketches and run the
      // same similarity estimator the servers run, router-side. Same
      // inputs, same function — same result to the last bit.
      auto u = FetchSketch(request.node, deadline);
      if (!u.ok()) return u.status();
      auto v = FetchSketch(request.other, deadline);
      if (!v.ok()) return v.status();
      AdsView u_view{std::span<const AdsEntry>(u.value())};
      AdsView v_view{std::span<const AdsEntry>(v.value())};
      PointResponseMsg response;
      response.values = {
          JaccardSimilarity(u_view, v_view, request.d, k_, rank_sup_),
          UnionCardinality(u_view, v_view, request.d, k_, rank_sup_)};
      return response;
    }
  }
  auto frame =
      CallPoint(owner.value(), EncodePointRequest(request), deadline);
  if (!frame.ok()) return frame.status();
  return DecodePointResponse(frame.value().payload);
}

std::vector<PointBatchResponseEntry> FleetRouter::PointBatch(
    const std::vector<PointRequestMsg>& requests,
    const Deadline& deadline_in) {
  Deadline deadline = EffectiveDeadline(deadline_in);
  std::vector<PointBatchResponseEntry> entries(requests.size());
  // Any entry the batched wire path cannot answer identically goes
  // through the single-request Point path — which is also the fallback
  // whenever a batched answer comes back retryable, so every entry's
  // bytes equal a lone Point call's.
  auto fill_single = [&](size_t i) {
    auto response = Point(requests[i], deadline_in);
    if (response.ok()) {
      entries[i].payload = EncodePointResponse(response.value());
    } else {
      entries[i].status = response.status();
    }
  };
  std::vector<std::vector<size_t>> groups(slots_.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const PointRequestMsg& request = requests[i];
    auto owner = OwnerOf(request.node);
    if (!owner.ok()) {
      entries[i].status = owner.status();
      continue;
    }
    if (request.kind == PointKind::kJaccard) {
      auto other_owner = OwnerOf(request.other);
      if (!other_owner.ok()) {
        entries[i].status = other_owner.status();
        continue;
      }
      if (other_owner.value() != owner.value()) {
        fill_single(i);  // cross-server pair: router-side similarity
        continue;
      }
    }
    groups[owner.value()].push_back(i);
  }
  for (size_t s = 0; s < groups.size(); ++s) {
    const std::vector<size_t>& group = groups[s];
    for (size_t begin = 0; begin < group.size();
         begin += kMaxPointBatchEntries) {
      size_t count = std::min(kMaxPointBatchEntries, group.size() - begin);
      std::vector<std::string> encoded;
      encoded.reserve(count);
      for (size_t j = 0; j < count; ++j) {
        encoded.push_back(EncodePointRequest(requests[group[begin + j]]));
      }
      auto frame = CallServer(s, MessageType::kPointBatchRequest,
                              EncodePointBatchRequestRaw(encoded),
                              MessageType::kPointBatchResponse, deadline);
      StatusOr<PointBatchResponseMsg> decoded =
          frame.ok() ? DecodePointBatchResponse(frame.value().payload)
                     : frame.status();
      if (!decoded.ok() || decoded.value().entries.size() != count) {
        for (size_t j = 0; j < count; ++j) fill_single(group[begin + j]);
        continue;
      }
      for (size_t j = 0; j < count; ++j) {
        PointBatchResponseEntry& entry = decoded.value().entries[j];
        size_t i = group[begin + j];
        if (entry.status.ok()) {
          entries[i].payload = std::move(entry.payload);
        } else if (Retryable(entry.status)) {
          fill_single(i);
        } else {
          entries[i].status = entry.status;
        }
      }
    }
  }
  return entries;
}

Status FleetRouter::ExecuteSweep(
    const SweepRequestMsg& request,
    const std::vector<SweepCollector*>& collectors,
    const Deadline& deadline_in) {
  Deadline deadline = EffectiveDeadline(deadline_in);
  size_t n = slots_.size();
  Metrics().scatter_fanout->Add(n);
  std::vector<Status> statuses(n, Status::Ok());
  std::vector<SweepResponseMsg> responses(n);
  const std::string payload = EncodeSweepRequest(request);
  // Scatter: every range server sweeps concurrently, each call carrying
  // the remaining deadline budget and the full retry policy. Results land
  // in per-server slots; nothing depends on completion order.
  std::vector<std::thread> calls;
  calls.reserve(n);
  // Scatter threads inherit the caller's trace id explicitly — the trace
  // context is thread-local, so a traced sweep's fan-out hops would
  // otherwise go out untraced.
  const TraceId trace = CurrentTraceId();
  for (size_t i = 0; i < n; ++i) {
    calls.emplace_back([this, i, &payload, &deadline, &statuses, &responses,
                        trace] {
      ScopedTraceContext trace_context(trace.hi, trace.lo);
      auto frame = CallServer(i, MessageType::kSweepRequest, payload,
                              MessageType::kSweepResponse, deadline);
      if (!frame.ok()) {
        statuses[i] = frame.status();
        return;
      }
      auto decoded = DecodeSweepResponse(frame.value().payload);
      if (!decoded.ok()) {
        statuses[i] = decoded.status();
      } else {
        responses[i] = std::move(decoded).value();
      }
    });
  }
  for (std::thread& t : calls) t.join();

  // Gather: absorb in node order. Per-node slices land at their own
  // offsets and histogram sums are exact, so the result is the
  // single-process sweep's whatever order the partials arrived in.
  for (SweepCollector* c : collectors) c->Begin(manifest_.num_nodes);
  for (size_t i = 0; i < n; ++i) {
    const FleetEntry& entry = manifest_.servers[i];
    if (!statuses[i].ok()) {
      return WithMessage(statuses[i],
                         "sweep failed on fleet server " + entry.address +
                             ": " + statuses[i].ToString());
    }
    if (responses[i].begin != entry.begin || responses[i].end != entry.end) {
      return Status::Corruption("fleet server " + entry.address +
                                " answered for the wrong node range");
    }
    Status s = AbsorbSweepResponse(responses[i], collectors);
    if (!s.ok()) {
      return Status::Corruption("bad partial from fleet server " +
                                entry.address + ": " + s.ToString());
    }
  }
  return Status::Ok();
}

StatusOr<StatsResponseMsg> FleetRouter::Stats(uint32_t flags,
                                              const Deadline& deadline_in) {
  Deadline deadline = EffectiveDeadline(deadline_in);
  StatsResponseMsg result;
  StatsSnapshotMsg own;
  own.label = "router";
  own.metrics = MetricsRegistry::Get().Snapshot();
  result.snapshots.push_back(std::move(own));
  if ((flags & kStatsFlagTraceSpans) != 0) {
    for (TraceSpan& span : TraceBuffer::Get().Snapshot()) {
      TraceSpanMsg out;
      out.label = "router";
      out.name = std::move(span.name);
      out.trace_hi = span.trace_hi;
      out.trace_lo = span.trace_lo;
      out.start_us = span.start_us;
      out.dur_us = span.dur_us;
      result.spans.push_back(std::move(out));
    }
  }
  const std::string payload = EncodeStatsRequest(StatsRequestMsg{flags});
  for (size_t i = 0; i < slots_.size(); ++i) {
    const std::string& address = manifest_.servers[i].address;
    auto frame = CallServer(i, MessageType::kStatsRequest, payload,
                            MessageType::kStatsResponse, deadline);
    if (!frame.ok()) return frame.status();
    auto decoded = DecodeStatsResponse(frame.value().payload);
    if (!decoded.ok()) {
      return Status::Corruption("bad stats response from fleet server " +
                                address + ": " +
                                decoded.status().ToString());
    }
    // A plain server answers one "server" snapshot: relabel it with the
    // address it came from. A nested router answers several; keep its
    // labels as a suffix so a stacked tree's scrape stays unambiguous.
    for (StatsSnapshotMsg& snap : decoded.value().snapshots) {
      snap.label = snap.label == "server" ? address
                                          : address + "/" + snap.label;
      result.snapshots.push_back(std::move(snap));
    }
    for (TraceSpanMsg& span : decoded.value().spans) {
      span.label = span.label == "server" ? address
                                          : address + "/" + span.label;
      result.spans.push_back(std::move(span));
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// RouterCore
// ---------------------------------------------------------------------------

std::string RouterCore::HandleFrame(std::string_view request,
                                    bool* close_connection) {
  *close_connection = false;
  auto frame = DecodeFrame(request);
  if (!frame.ok()) {
    *close_connection = true;
    return EncodeFrame(MessageType::kError, EncodeError(frame.status()));
  }
  // Respond in the request's wire version; re-anchor its deadline budget.
  // A v4 frame's trace id is installed for the handling thread (every
  // downstream hop then propagates it) and echoed on the response.
  const uint32_t version = frame.value().version;
  const uint64_t trace_hi = frame.value().trace_hi;
  const uint64_t trace_lo = frame.value().trace_lo;
  ScopedTraceContext trace_context(trace_hi, trace_lo);
  Deadline deadline = Deadline::FromWireMs(frame.value().deadline_ms);
  StatusOr<Frame> response = [&] {
    ScopedTraceSpan span("router.dispatch");
    return Dispatch(frame.value(), deadline);
  }();
  if (!response.ok()) {
    return EncodeFrame(MessageType::kError, EncodeError(response.status()),
                       /*deadline_ms=*/0, version, trace_hi, trace_lo);
  }
  return EncodeFrame(response.value().type, response.value().payload,
                     /*deadline_ms=*/0, version, trace_hi, trace_lo);
}

StatusOr<Frame> RouterCore::Dispatch(const Frame& request,
                                     const Deadline& deadline) {
  if (deadline.Expired()) {
    return Status::DeadlineExceeded("request deadline expired; shed");
  }
  switch (request.type) {
    case MessageType::kInfoRequest: {
      if (!request.payload.empty()) {
        return Status::Corruption("info request carries a payload");
      }
      ServerInfoMsg info;
      info.node_begin = router_->node_begin();
      info.node_end = router_->num_nodes();
      info.total_entries = router_->total_entries();
      info.k = router_->k();
      info.flavor = router_->flavor();
      info.rank_sup = router_->rank_sup();
      return Frame{MessageType::kInfoResponse, EncodeServerInfo(info)};
    }
    case MessageType::kPointRequest: {
      auto msg = DecodePointRequest(request.payload);
      if (!msg.ok()) return msg.status();
      auto response = router_->Point(msg.value(), deadline);
      if (!response.ok()) return response.status();
      return Frame{MessageType::kPointResponse,
                   EncodePointResponse(response.value())};
    }
    case MessageType::kPointBatchRequest: {
      auto msg = DecodePointBatchRequest(request.payload);
      if (!msg.ok()) return msg.status();
      PointBatchResponseMsg response;
      response.entries = router_->PointBatch(msg.value().entries, deadline);
      return Frame{MessageType::kPointBatchResponse,
                   EncodePointBatchResponse(response)};
    }
    case MessageType::kSweepRequest: {
      auto msg = DecodeSweepRequest(request.payload);
      if (!msg.ok()) return msg.status();
      SweepPlan plan;
      auto collectors = BuildPlanFromSpec(msg.value().collectors, &plan);
      if (!collectors.ok()) return collectors.status();
      Status swept =
          router_->ExecuteSweep(msg.value(), collectors.value(), deadline);
      if (!swept.ok()) return swept;
      SweepResponseMsg response;
      response.begin = router_->node_begin();
      response.end = router_->num_nodes();
      response.partials.resize(collectors.value().size());
      for (size_t i = 0; i < collectors.value().size(); ++i) {
        // Router collectors are globally indexed but only cover this
        // fleet's range: slice exactly [node_begin, N) so the next tier's
        // gather absorbs it at the same global offsets.
        Status s = collectors.value()[i]->EncodePartial(
            static_cast<NodeId>(router_->node_begin()),
            static_cast<NodeId>(router_->num_nodes()),
            &response.partials[i]);
        if (!s.ok()) return s;
      }
      return Frame{MessageType::kSweepResponse,
                   EncodeSweepResponse(response)};
    }
    case MessageType::kStatsRequest: {
      auto msg = DecodeStatsRequest(request.payload);
      if (!msg.ok()) return msg.status();
      auto stats = router_->Stats(msg.value().flags, deadline);
      if (!stats.ok()) return stats.status();
      return Frame{MessageType::kStatsResponse,
                   EncodeStatsResponse(stats.value())};
    }
    default:
      return Status::InvalidArgument("frame type is not a request");
  }
}

}  // namespace hipads

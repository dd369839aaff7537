#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ads/estimators.h"
#include "ads/similarity.h"
#include "serve/trace.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace hipads {

FrameHandler::~FrameHandler() = default;

namespace {

// How far a sweep's threads raise their nice value over the handler's
// (see HandleSweep): a waking point handler then preempts them, and a
// sweep thread weighs about a tenth of one at the handler's priority.
constexpr int kSweepNice = 10;

// Request kinds with dedicated request/latency instruments.
enum ServeReqKind {
  kReqInfo,
  kReqPoint,
  kReqBatch,
  kReqSweep,
  kReqStats,
  kReqOther,
  kNumReqKinds,
};

ServeReqKind ReqKindOf(MessageType type) {
  switch (type) {
    case MessageType::kInfoRequest:
      return kReqInfo;
    case MessageType::kPointRequest:
      return kReqPoint;
    case MessageType::kPointBatchRequest:
      return kReqBatch;
    case MessageType::kSweepRequest:
      return kReqSweep;
    case MessageType::kStatsRequest:
      return kReqStats;
    default:
      return kReqOther;
  }
}

// Instrument pointers resolved once: the registry lookup takes a mutex,
// so hot paths record through cached raw pointers (the registry owns the
// instruments and never frees them).
struct ServeMetrics {
  MetricCounter* requests[kNumReqKinds];
  MetricHistogram* latency_us[kNumReqKinds];
  MetricCounter* bytes_in;
  MetricCounter* bytes_out;
  MetricCounter* undecodable;
  MetricCounter* shed_deadline;
  MetricCounter* hip_resident;
  MetricCounter* hip_scan;
  MetricHistogram* batch_entries;
  MetricCounter* tcp_accepted;
};

ServeMetrics& Metrics() {
  static ServeMetrics* m = [] {
    static const char* const kNames[kNumReqKinds] = {
        "info", "point", "point_batch", "sweep", "stats", "other"};
    auto* mm = new ServeMetrics();
    MetricsRegistry& reg = MetricsRegistry::Get();
    for (int i = 0; i < kNumReqKinds; ++i) {
      mm->requests[i] =
          reg.Counter(std::string("serve.requests.") + kNames[i]);
      mm->latency_us[i] =
          reg.Histogram(std::string("serve.latency_us.") + kNames[i]);
    }
    mm->bytes_in = reg.Counter("serve.bytes_in");
    mm->bytes_out = reg.Counter("serve.bytes_out");
    mm->undecodable = reg.Counter("serve.undecodable_frames");
    mm->shed_deadline = reg.Counter("serve.shed.deadline");
    mm->hip_resident = reg.Counter("serve.point.hip_resident");
    mm->hip_scan = reg.Counter("serve.point.hip_scan");
    mm->batch_entries = reg.Histogram("serve.batch.entries");
    mm->tcp_accepted = reg.Counter("serve.tcp.accepted");
    return mm;
  }();
  return *m;
}

}  // namespace

// ---------------------------------------------------------------------------
// ResponseCache
// ---------------------------------------------------------------------------

bool ResponseCache::Get(const std::string& key, std::string* value) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.Add();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *value = it->second->second;
  hits_.Add();
  return true;
}

void ResponseCache::Put(const std::string& key, std::string value) {
  if (capacity_ == 0) return;  // capacity_ is const: lock-free fast path
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(value));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

// ---------------------------------------------------------------------------
// AdsServerCore
// ---------------------------------------------------------------------------

AdsServerCore::AdsServerCore(const AdsBackend* backend,
                             const ServerOptions& options)
    : backend_(backend),
      options_(options),
      point_cache_(options.point_cache_entries, "serve.cache.point"),
      sweep_cache_(options.sweep_cache_entries, "serve.cache.sweep") {}

Deadline::Clock::time_point AdsServerCore::Now() const {
  return options_.clock ? options_.clock() : Deadline::Clock::now();
}

ServerInfoMsg AdsServerCore::Info() const {
  ServerInfoMsg info;
  info.node_begin = options_.node_begin;
  info.node_end = options_.node_begin + backend_->num_nodes();
  info.total_entries = backend_->TotalEntries();
  info.k = backend_->k();
  info.flavor = static_cast<uint32_t>(backend_->flavor());
  info.rank_sup = backend_->ranks().sup();
  return info;
}

std::string AdsServerCore::HandleFrame(std::string_view request,
                                       bool* close_connection) {
  ServeMetrics& metrics = Metrics();
  metrics.bytes_in->Add(request.size());
  *close_connection = false;
  auto frame = DecodeFrame(request);
  if (!frame.ok()) {
    // Undecodable bytes: answer with the reason, then drop the stream —
    // after a framing failure there is no trustworthy record boundary.
    *close_connection = true;
    metrics.undecodable->Add();
    std::string err =
        EncodeFrame(MessageType::kError, EncodeError(frame.status()));
    metrics.bytes_out->Add(err.size());
    return err;
  }
  // Responses are encoded in the request's wire version, so a legacy (v1)
  // client talking to an upgraded server keeps decoding them. A v4 frame's
  // trace id is echoed back and installed for the handling thread, so the
  // instrumented sections below Dispatch record spans against it.
  const uint32_t version = frame.value().version;
  const uint64_t trace_hi = frame.value().trace_hi;
  const uint64_t trace_lo = frame.value().trace_lo;
  ScopedTraceContext trace_context(trace_hi, trace_lo);
  const ServeReqKind kind = ReqKindOf(frame.value().type);
  metrics.requests[kind]->Add();
  Deadline deadline = Deadline::FromWireMs(frame.value().deadline_ms, Now());
  StatusOr<Frame> response = [&] {
    ScopedLatencyTimer timer(metrics.latency_us[kind]);
    ScopedTraceSpan span("server.dispatch");
    return Dispatch(frame.value(), deadline);
  }();
  std::string encoded;
  {
    ScopedTraceSpan span("server.encode");
    encoded = response.ok()
                  ? EncodeFrame(response.value().type,
                                response.value().payload,
                                /*deadline_ms=*/0, version, trace_hi,
                                trace_lo)
                  : EncodeFrame(MessageType::kError,
                                EncodeError(response.status()),
                                /*deadline_ms=*/0, version, trace_hi,
                                trace_lo);
  }
  metrics.bytes_out->Add(encoded.size());
  return encoded;
}

StatusOr<Frame> AdsServerCore::Dispatch(const Frame& request,
                                        const Deadline& deadline) {
  if (deadline.Expired(Now())) {
    // Nobody is waiting for this answer anymore: shed before any compute.
    Metrics().shed_deadline->Add();
    return Status::DeadlineExceeded("request deadline expired; shed");
  }
  switch (request.type) {
    case MessageType::kInfoRequest:
      if (!request.payload.empty()) {
        return Status::Corruption("info request carries a payload");
      }
      return Frame{MessageType::kInfoResponse, EncodeServerInfo(Info())};
    case MessageType::kPointRequest: {
      auto msg = DecodePointRequest(request.payload);
      if (!msg.ok()) return msg.status();
      return HandlePoint(msg.value(), request.payload);
    }
    case MessageType::kPointBatchRequest: {
      auto msg = DecodePointBatchRequest(request.payload);
      if (!msg.ok()) return msg.status();
      return HandlePointBatch(msg.value());
    }
    case MessageType::kSweepRequest: {
      auto msg = DecodeSweepRequest(request.payload);
      if (!msg.ok()) return msg.status();
      return HandleSweep(msg.value(), deadline);
    }
    case MessageType::kStatsRequest: {
      auto msg = DecodeStatsRequest(request.payload);
      if (!msg.ok()) return msg.status();
      return HandleStats(msg.value());
    }
    default:
      return Status::InvalidArgument("frame type is not a request");
  }
}

StatusOr<Frame> AdsServerCore::HandleStats(const StatsRequestMsg& msg) const {
  StatsResponseMsg response;
  StatsSnapshotMsg snap;
  snap.label = "server";
  snap.metrics = MetricsRegistry::Get().Snapshot();
  response.snapshots.push_back(std::move(snap));
  if ((msg.flags & kStatsFlagTraceSpans) != 0) {
    for (TraceSpan& span : TraceBuffer::Get().Snapshot()) {
      TraceSpanMsg out;
      out.label = "server";
      out.name = std::move(span.name);
      out.trace_hi = span.trace_hi;
      out.trace_lo = span.trace_lo;
      out.start_us = span.start_us;
      out.dur_us = span.dur_us;
      response.spans.push_back(std::move(out));
    }
  }
  return Frame{MessageType::kStatsResponse, EncodeStatsResponse(response)};
}

StatusOr<Frame> AdsServerCore::HandlePoint(const PointRequestMsg& msg,
                                           const std::string& payload) {
  // The request payload is a canonical encoding of the question, so it is
  // the cache key; a hit bypasses the backend entirely.
  std::string cached;
  if (options_.point_cache_entries > 0 && point_cache_.Get(payload, &cached)) {
    return Frame{MessageType::kPointResponse, std::move(cached)};
  }
  StatusOr<std::string> result = ComputePoint(msg);
  if (!result.ok()) return result.status();
  if (options_.point_cache_entries > 0) {
    point_cache_.Put(payload, result.value());
  }
  return Frame{MessageType::kPointResponse, std::move(result).value()};
}

StatusOr<NodeId> AdsServerCore::LocalIdOf(uint64_t node) const {
  uint64_t begin = options_.node_begin;
  uint64_t end = begin + backend_->num_nodes();
  if (node < begin || node >= end) {
    return Status::NotFound("node " + std::to_string(node) +
                            " is outside the served range");
  }
  return static_cast<NodeId>(node - begin);
}

StatusOr<std::string> AdsServerCore::ComputePoint(
    const PointRequestMsg& msg) const {
  auto local = LocalIdOf(msg.node);
  if (!local.ok()) return local.status();
  auto view = [&] {
    ScopedTraceSpan span("server.backend_fetch");
    return backend_->ViewOf(local.value());
  }();
  if (!view.ok()) return view.status();
  // A HipOf failure is served by the scan fallback instead of erroring:
  // precomputed weights are an optimization, never an answer change.
  auto hip_or = backend_->HipOf(local.value());
  HipView hip = hip_or.ok() ? hip_or.value() : HipView{};
  std::optional<HipEstimator> est;
  return ComputePointWithView(msg, view.value(), hip, &est);
}

StatusOr<std::string> AdsServerCore::ComputePointWithView(
    const PointRequestMsg& msg, const AdsView& view, const HipView& hip,
    std::optional<HipEstimator>* est) const {
  uint64_t begin = options_.node_begin;
  uint64_t end = begin + backend_->num_nodes();
  PointResponseMsg response;
  switch (msg.kind) {
    case PointKind::kNodeStats: {
      if (!est->has_value()) {
        ScopedTraceSpan estimator_span("server.estimator");
        if (hip.present()) {
          // Storage-resident weights: materialization is a pointer wrap.
          Metrics().hip_resident->Add();
          est->emplace(view, hip.tau, hip.weight);
        } else {
          Metrics().hip_scan->Add();
          // Scan fallback into a per-thread arena — allocation-free once
          // warm. The estimator borrows the scratch, which is safe for
          // both request paths: a request's estimator never outlives the
          // dispatch call that created it, and the batch path resets the
          // cached estimator before the scratch is scanned again.
          thread_local HipScratch scratch;
          est->emplace(view, backend_->k(), backend_->flavor(),
                       backend_->ranks(), &scratch);
        }
      }
      if (std::isinf(msg.d)) {
        response.values = {(*est)->ReachableCount(),
                           (*est)->HarmonicCentrality(),
                           (*est)->DistanceSum()};
      } else {
        response.values = {(*est)->NeighborhoodCardinality(msg.d)};
      }
      break;
    }
    case PointKind::kLookup: {
      // Entry target ids are global, so lookups need no translation.
      AdsNodeIndex index(view);
      response.values.reserve(msg.targets.size());
      for (uint64_t target : msg.targets) {
        if (target > std::numeric_limits<NodeId>::max()) {
          response.values.push_back(-1.0);
        } else {
          response.values.push_back(
              index.DistanceOf(static_cast<NodeId>(target)));
        }
      }
      break;
    }
    case PointKind::kJaccard: {
      if (msg.other < begin || msg.other >= end) {
        return Status::NotFound(
            "similarity target " + std::to_string(msg.other) +
            " is outside the served range (route through a fleet router "
            "for cross-server pairs)");
      }
      auto other_view =
          backend_->ViewOf(static_cast<NodeId>(msg.other - begin));
      if (!other_view.ok()) return other_view.status();
      double sup = backend_->ranks().sup();
      double jaccard = JaccardSimilarity(view, other_view.value(), msg.d,
                                         backend_->k(), sup);
      double uni = UnionCardinality(view, other_view.value(), msg.d,
                                    backend_->k(), sup);
      response.values = {jaccard, uni};
      break;
    }
    case PointKind::kFetchSketch: {
      response.entries.assign(view.entries().begin(), view.entries().end());
      break;
    }
  }
  return EncodePointResponse(response);
}

namespace {

// Exact request equality — the dedup guard for reusing a computed batch
// entry. `d` compares with operator== (NaN never equals, so a NaN entry is
// simply recomputed; ±0.0 compare equal and yield identical responses since
// the payload never echoes d and every distance comparison treats them
// alike).
bool SamePointRequest(const PointRequestMsg& a, const PointRequestMsg& b) {
  return a.kind == b.kind && a.node == b.node && a.other == b.other &&
         a.d == b.d && a.targets == b.targets;
}

}  // namespace

void AdsServerCore::ComputeBatchEntries(const PointBatchRequestMsg& msg,
                                        const std::vector<size_t>& order,
                                        PointBatchResponseMsg* response) const {
  uint64_t current_node = 0;
  bool have_node = false;
  std::optional<AdsView> view;
  HipView hip;
  Status view_status;
  std::optional<HipEstimator> est;
  // Hot working sets repeat whole requests, not just nodes: after the
  // node-order sort, identical entries are adjacent, and responses are
  // deterministic, so the previous entry's result (payload or status) IS
  // this entry's result — one copy instead of a recomputed scan.
  size_t prev_idx = 0;
  bool have_prev = false;
  for (size_t idx : order) {
    const PointRequestMsg& entry = msg.entries[idx];
    PointBatchResponseEntry& out = response->entries[idx];
    if (have_prev && SamePointRequest(entry, msg.entries[prev_idx])) {
      out = response->entries[prev_idx];
      continue;
    }
    prev_idx = idx;
    have_prev = true;
    auto local = LocalIdOf(entry.node);
    if (!local.ok()) {
      out.status = local.status();
      continue;
    }
    if (!have_node || entry.node != current_node) {
      est.reset();
      view.reset();
      hip = HipView{};
      auto fetched = backend_->ViewOf(local.value());
      if (fetched.ok()) {
        view = fetched.value();
        view_status = Status::Ok();
        auto hip_or = backend_->HipOf(local.value());
        if (hip_or.ok()) hip = hip_or.value();
      } else {
        view_status = fetched.status();
      }
      current_node = entry.node;
      have_node = true;
    }
    if (!view.has_value()) {
      out.status = view_status;
      continue;
    }
    auto result = ComputePointWithView(entry, *view, hip, &est);
    if (result.ok()) {
      out.payload = std::move(result).value();
    } else {
      out.status = result.status();
    }
  }
}

StatusOr<Frame> AdsServerCore::HandlePointBatch(
    const PointBatchRequestMsg& msg) {
  const size_t n = msg.entries.size();
  Metrics().batch_entries->Record(n);
  PointBatchResponseMsg response;
  response.entries.resize(n);
  // Per-entry cache keys are the canonical single-request bytes: a batch
  // reads and fills exactly the cache lone kPointRequests use, so either
  // shape warms the other. With the cache disabled the keys are never
  // consulted, so skip the per-entry re-encode entirely.
  const bool use_cache = options_.point_cache_entries > 0;
  std::vector<std::string> keys;
  if (use_cache) keys.resize(n);
  std::vector<size_t> misses;
  misses.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (use_cache) {
      keys[i] = EncodePointRequest(msg.entries[i]);
      if (point_cache_.Get(keys[i], &response.entries[i].payload)) {
        continue;  // entry status defaults to Ok
      }
    }
    misses.push_back(i);
  }
  if (!misses.empty()) {
    // One pass in node order: consecutive same-node entries share one
    // backend fetch and one estimator materialization. stable_sort keeps
    // equal-node entries in request order; results land by original index
    // either way, so the reorder is invisible on the wire.
    std::stable_sort(misses.begin(), misses.end(),
                     [&msg](size_t a, size_t b) {
                       return msg.entries[a].node < msg.entries[b].node;
                     });
    ComputeBatchEntries(msg, misses, &response);
    if (use_cache) {
      for (size_t i : misses) {
        if (response.entries[i].status.ok()) {
          point_cache_.Put(keys[i], response.entries[i].payload);
        }
      }
    }
  }
  return Frame{MessageType::kPointBatchResponse,
               EncodePointBatchResponse(response)};
}

StatusOr<Frame> AdsServerCore::HandleSweep(const SweepRequestMsg& msg,
                                           const Deadline& deadline) {
  // Sweep results depend only on the spec (thread counts are bitwise
  // neutral), so the canonical spec encoding keys the response cache.
  const std::string cache_key = SweepSpecCacheKey(msg.collectors);
  std::string cached;
  if (options_.sweep_cache_entries > 0 && sweep_cache_.Get(cache_key, &cached)) {
    return Frame{MessageType::kSweepResponse, std::move(cached)};
  }
  SweepPlan plan;
  auto collectors = BuildPlanFromSpec(msg.collectors, &plan);
  if (!collectors.ok()) return collectors.status();
  // The thread count is wire-controlled: clamp it to this host's hardware
  // so a hostile request cannot drive ThreadPool into spawning billions of
  // workers (results are bitwise thread-count independent, so clamping is
  // invisible to the client).
  uint32_t threads =
      msg.num_threads != 0 ? msg.num_threads : options_.num_threads;
  threads = std::min(threads, HardwareThreads());
  // Between node ranges the sweep polls its request's deadline: once it
  // passes, the remaining compute would produce an answer nobody awaits.
  std::function<Status()> checkpoint;
  if (deadline.has_deadline()) {
    checkpoint = [this, deadline] {
      return deadline.Expired(Now())
                 ? Status::DeadlineExceeded(
                       "sweep aborted: request deadline expired")
                 : Status::Ok();
    };
  }
  // A sweep keeps every core busy for its whole run, while a point is a
  // few microseconds of work that waits for a core: the sweep runs on its
  // own thread at background CPU priority, which its pool workers
  // inherit, so point handlers preempt it instead of queueing behind it.
  active_sweeps_.Add(1);
  Status swept;
  const TraceId trace = CurrentTraceId();
  std::thread sweeper([&] {
    // On Linux the nice value is per thread; values past 19 clamp.
    setpriority(PRIO_PROCESS, 0, getpriority(PRIO_PROCESS, 0) + kSweepNice);
    ScopedTraceContext trace_context(trace.hi, trace.lo);
    swept = RunSweep(*backend_, plan, threads, checkpoint);
  });
  sweeper.join();
  active_sweeps_.Add(-1);
  if (!swept.ok()) return swept;

  SweepResponseMsg response;
  response.begin = options_.node_begin;
  response.end = options_.node_begin + backend_->num_nodes();
  response.partials.resize(collectors.value().size());
  for (size_t i = 0; i < collectors.value().size(); ++i) {
    // Collectors here are locally indexed: slice their whole [0, n).
    Status s = collectors.value()[i]->EncodePartial(
        0, static_cast<NodeId>(backend_->num_nodes()),
        &response.partials[i]);
    if (!s.ok()) return s;
  }
  std::string encoded = EncodeSweepResponse(response);
  if (options_.sweep_cache_entries > 0) {
    sweep_cache_.Put(cache_key, encoded);
  }
  return Frame{MessageType::kSweepResponse, std::move(encoded)};
}

// ---------------------------------------------------------------------------
// TcpServer
// ---------------------------------------------------------------------------

TcpServer::TcpServer(FrameHandler* handler, const TcpServerOptions& options)
    : handler_(handler), options_(options) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (listen_fd_ >= 0) return Status::InvalidArgument("server already started");
  int fd = -1;
  auto fail = [&](const std::string& what) {
    Status s = Status::IOError(what + " failed: " +
                               std::string(std::strerror(errno)));
    for (int* owned : {&fd, &epoll_fd_, &stop_pipe_[0], &stop_pipe_[1]}) {
      if (*owned >= 0) ::close(*owned);
      *owned = -1;
    }
    return s;
  };
  if (::pipe(stop_pipe_) != 0) return fail("pipe");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return fail("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname");
  }
  if (::listen(fd, 128) != 0) return fail("listen");
  // The stop pipe is level-triggered and never drained, so once Stop
  // writes it every worker's epoll_wait returns it. The listener is
  // one-shot like every connection: one worker accepts, then re-arms it.
  epoll_event stop{};
  stop.events = EPOLLIN;
  stop.data.fd = stop_pipe_[0];
  epoll_event listener{};
  listener.events = EPOLLIN | EPOLLONESHOT;
  listener.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_pipe_[0], &stop) != 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &listener) != 0) {
    return fail("epoll_ctl");
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  uint32_t workers = options_.num_workers == 0 ? 1 : options_.num_workers;
  workers_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void TcpServer::Stop() {
  if (listen_fd_ < 0) return;
  // Wake every worker out of epoll_wait (and out of any mid-frame poll);
  // they observe the stop pipe and exit.
  char byte = 's';
  [[maybe_unused]] ssize_t ignored = ::write(stop_pipe_[1], &byte, 1);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  {
    MutexLock lock(conns_mu_);
    for (int fd : conns_) ::close(fd);
    conns_.clear();
  }
  for (int* owned :
       {&listen_fd_, &epoll_fd_, &stop_pipe_[0], &stop_pipe_[1]}) {
    ::close(*owned);
    *owned = -1;
  }
}

void TcpServer::WorkerLoop() {
  // Pause after an accept error an immediate retry cannot fix (out of
  // file descriptors or buffers): the listener stays readable, so
  // re-arming at once would spin.
  constexpr int kAcceptBackoffMs = 50;
  for (;;) {
    epoll_event ev{};
    int n = ::epoll_wait(epoll_fd_, &ev, 1, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    const int fd = ev.data.fd;
    if (fd == stop_pipe_[0]) return;  // stop requested
    if (fd == listen_fd_) {
      if (!AcceptPending()) {
        pollfd stop{stop_pipe_[0], POLLIN, 0};
        if (::poll(&stop, 1, kAcceptBackoffMs) > 0) return;
      }
      Arm(listen_fd_);
      continue;
    }
    if (!ServeFrame(fd) || !Arm(fd)) CloseConnection(fd);
  }
}

bool TcpServer::Arm(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.fd = fd;
  // Under conns_mu_, like the close in CloseConnection: the sibling that
  // takes the re-armed event and then closes the fd is ordered after this
  // call by the lock (ThreadSanitizer sees no release in EPOLL_CTL_MOD).
  MutexLock lock(conns_mu_);
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

bool TcpServer::AcceptPending() {
  for (;;) {
    // Non-blocking connection fd: reads poll first, and response writes
    // can be bounded by the mid-frame deadline instead of parking in the
    // kernel against a stalled peer.
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    Metrics().tcp_accepted->Add();
    if (options_.nodelay) {
      // Responses are single complete frames; without this, Nagle holds
      // the final short segment hostage to the peer's delayed ACK.
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.fd = fd;
    MutexLock lock(conns_mu_);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.insert(fd);
  }
}

void TcpServer::CloseConnection(int fd) {
  // Erase and close under the lock: a sibling accepting the reused fd
  // number must find it absent from conns_.
  MutexLock lock(conns_mu_);
  conns_.erase(fd);
  ::close(fd);
}

bool TcpServer::WaitReadable(int fd, const Deadline& deadline) {
  // Blocks until `fd` has data (or EOF) — or until Stop signals or the
  // deadline passes, so a worker waiting for the rest of a frame never
  // wedges shutdown and a mid-frame stall costs bounded time.
  for (;;) {
    int timeout = -1;
    if (deadline.has_deadline()) {
      uint64_t remaining = deadline.RemainingMs();
      if (remaining == 0) return false;  // stalled mid-frame: drop it
      timeout = remaining > static_cast<uint64_t>(
                                std::numeric_limits<int>::max())
                    ? std::numeric_limits<int>::max()
                    : static_cast<int>(remaining);
    }
    pollfd fds[2];
    fds[0] = {fd, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    int rc = ::poll(fds, 2, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) continue;  // timeout: loop re-checks the deadline
    if (fds[1].revents != 0) return false;  // stop requested
    if (fds[0].revents != 0) return true;   // readable (or hup -> read 0)
  }
}

bool TcpServer::ServeFrame(int fd) {
  // A handler-reported framing loss, any socket error, or a mid-frame
  // stall past idle_timeout_ms ends the connection; the next client
  // simply reconnects.
  //
  // read_exact returns 1 when exactly n bytes were read, 0 on clean EOF
  // at a frame boundary, 2 when no byte of a new frame is there after all
  // (the connection goes back to the epoll set), -1 on error / stop /
  // deadline. Arms the frame deadline when the frame's first byte arrives.
  Deadline frame_deadline;
  auto read_exact = [&](char* buf, size_t n, bool at_frame_start) -> int {
    size_t done = 0;
    while (done < n) {
      ssize_t got = ::read(fd, buf + done, n - done);
      if (got == 0) return (at_frame_start && done == 0) ? 0 : -1;
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) return -1;
        if (at_frame_start && done == 0) return 2;
        if (!WaitReadable(fd, frame_deadline)) return -1;
        continue;
      }
      if (at_frame_start && done == 0 && options_.idle_timeout_ms > 0) {
        frame_deadline = Deadline::AfterMs(options_.idle_timeout_ms);
      }
      done += static_cast<size_t>(got);
    }
    return 1;
  };

  char raw[kMaxFrameHeaderBytes];
  int rc = read_exact(raw, kFrameHeaderBytes, /*at_frame_start=*/true);
  if (rc != 1) return rc == 2;  // nothing to serve, EOF, or failure

  FrameHeader header;
  std::string request;
  size_t header_bytes = kFrameHeaderBytes;
  Status s = DecodeFrameHeaderPrefix(raw, kFrameHeaderBytes, &header);
  if (s.ok() && header.header_bytes > kFrameHeaderBytes) {
    // v2+ frame: the prefix promises extension bytes (the deadline).
    size_t ext = header.header_bytes - kFrameHeaderBytes;
    if (read_exact(raw + kFrameHeaderBytes, ext,
                   /*at_frame_start=*/false) != 1) {
      return false;
    }
    header_bytes = header.header_bytes;
    s = DecodeFrameHeaderExt(raw + kFrameHeaderBytes, ext, &header);
  }
  if (s.ok()) {
    // Header is sane: the payload length can be trusted enough to read.
    std::string payload(header.payload_bytes, '\0');
    if (!payload.empty() &&
        read_exact(payload.data(), payload.size(),
                   /*at_frame_start=*/false) != 1) {
      return false;
    }
    request.assign(raw, header_bytes);
    request.append(payload);
  } else {
    // Bad header: hand the raw bytes to the handler so the client gets
    // the precise rejection, then close (framing is lost).
    request.assign(raw, header_bytes);
  }
  bool close_connection = false;
  std::string response = handler_->HandleFrame(request, &close_connection);
  Deadline write_deadline = options_.idle_timeout_ms > 0
                                ? Deadline::AfterMs(options_.idle_timeout_ms)
                                : Deadline();
  if (!WriteAllBytes(fd, response.data(), response.size(), write_deadline)
           .ok()) {
    return false;
  }
  return !close_connection;
}

}  // namespace hipads

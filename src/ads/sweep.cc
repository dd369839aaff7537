#include "ads/sweep.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/exact_sum.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/parallel.h"

namespace hipads {

namespace {

// Sweep volume counters (counts only — HL001/HL006 keep wall-clock
// instruments out of src/ads). Totals are thread-count invariant: nodes
// is added once per arena, entries accumulate per chunk but sum to the
// same per-node total under any chunk decomposition.
struct SweepCounters {
  MetricCounter* nodes;
  MetricCounter* entries;
};
SweepCounters& Counters() {
  static SweepCounters c{MetricsRegistry::Get().Counter("ads.sweep.nodes"),
                         MetricsRegistry::Get().Counter("ads.sweep.entries")};
  return c;
}

AdsView ViewOf(const AdsSet& set, NodeId v) { return set.of(v).view(); }
AdsView ViewOf(const FlatAdsSet& set, NodeId v) { return set.of(v); }

// Precomputed HIP weights of node v, when the set's storage carries them
// (absent HipView = run the scan). Only the flat arena and backend ranges
// can hold the aligned arrays; per-node-vector AdsSets never do.
HipView HipViewOf(const AdsSet& /*set*/, NodeId /*v*/) { return HipView{}; }
HipView HipViewOf(const FlatAdsSet& set, NodeId v) {
  if (!set.has_hip()) return HipView{};
  return HipView{set.hip_tau.data() + set.offsets[v],
                 set.hip_weight.data() + set.offsets[v]};
}

// Adapter presenting one backend range to the executor with the same
// member surface as AdsSet/FlatAdsSet (k/flavor/ranks + per-node views,
// node ids local to the range). Sharing the executor template is what
// makes backend results bitwise identical to the single-arena sweeps.
struct ArenaSet {
  AdsArenaView arena;
  SketchFlavor flavor;
  uint32_t k;
  const RankAssignment& ranks;
  size_t num_nodes() const { return arena.num_nodes(); }
};
AdsView ViewOf(const ArenaSet& set, NodeId v) { return set.arena.of_local(v); }
HipView HipViewOf(const ArenaSet& set, NodeId v) {
  return set.arena.hip_of_local(v);
}

// One node's estimator, cheapest mode first: wrap the storage-resident
// weights when present (no scan, no allocation), otherwise scan into the
// caller's reusable scratch (no allocation after warm-up). Both modes are
// bitwise identical to each other and to the old allocating constructor.
template <typename SetT>
HipEstimator MakeEstimator(const SetT& set, NodeId local,
                           HipScratch* scratch) {
  HipView hip = HipViewOf(set, local);
  if (hip.present()) {
    return HipEstimator(ViewOf(set, local), hip.tau, hip.weight);
  }
  return HipEstimator(ViewOf(set, local), set.k, set.flavor, set.ranks,
                      scratch);
}

// The fused sweep over one arena: each node's HipEstimator is constructed
// once, on the stack, fed to every collector's Map and discarded — so a
// sweep's peak memory is O(threads). Each chunk reuses one scratch (one
// per ParallelFor chunk, kept across the ranges of a backend sweep): the
// estimator is consumed by the Map calls before the next node's scan
// overwrites it. `global_begin` offsets the arena-local node ids so a
// sharded backend's ranges chain seamlessly.
template <typename SetT>
void SweepArena(const SetT& set, NodeId global_begin, SweepPlan& plan,
                ThreadPool& pool, std::vector<HipScratch>& chunk_scratch) {
  size_t n = set.num_nodes();
  Counters().nodes->Add(n);
  if (chunk_scratch.size() < pool.num_threads()) {
    chunk_scratch.resize(pool.num_threads());
  }
  pool.ParallelFor(n, [&](size_t begin, size_t end, uint32_t chunk) {
    HipScratch& scratch = chunk_scratch[chunk];
    uint64_t chunk_entries = 0;
    for (size_t i = begin; i < end; ++i) {
      NodeId local = static_cast<NodeId>(i);
      NodeId v = global_begin + local;
      chunk_entries += ViewOf(set, local).size();
      HipEstimator est = MakeEstimator(set, local, &scratch);
      for (SweepCollector* c : plan.collectors()) c->Map(v, est);
    }
    Counters().entries->Add(chunk_entries);
  });
}

template <typename SetT>
void RunSweepSingleArena(const SetT& set, SweepPlan& plan,
                         uint32_t num_threads) {
  for (SweepCollector* c : plan.collectors()) c->Begin(set.num_nodes());
  if (plan.empty()) return;
  ThreadPool pool(num_threads);
  std::vector<HipScratch> chunk_scratch;
  SweepArena(set, /*global_begin=*/0, plan, pool, chunk_scratch);
}

}  // namespace

SweepCollector::~SweepCollector() = default;
void SweepCollector::Begin(size_t /*num_nodes*/) {}
void SweepCollector::Map(NodeId /*v*/, const HipEstimator& /*est*/) {}
void SweepCollector::Reduce(NodeId /*first*/,
                            std::span<const HipEstimator> /*ests*/) {}
bool SweepCollector::NeedsReduce() const { return false; }

Status SweepCollector::EncodePartial(NodeId /*begin*/, NodeId /*end*/,
                                     std::string* /*out*/) const {
  return Status::InvalidArgument(
      "collector does not support distributed partial state");
}

Status SweepCollector::AbsorbPartial(NodeId /*begin*/, NodeId /*end*/,
                                     std::string_view /*data*/) {
  return Status::InvalidArgument(
      "collector does not support distributed partial state");
}

void PerNodeCollector::Begin(size_t num_nodes) {
  values_.assign(num_nodes, 0.0);
}

void PerNodeCollector::Map(NodeId v, const HipEstimator& est) {
  values_[v] = fn_(est);
}

Status PerNodeCollector::EncodePartial(NodeId begin, NodeId end,
                                       std::string* out) const {
  if (begin > end || end > values_.size()) {
    return Status::InvalidArgument("partial range outside collected nodes");
  }
  out->clear();
  if (begin < end) {
    out->assign(reinterpret_cast<const char*>(values_.data() + begin),
                (end - begin) * sizeof(double));
  }
  return Status::Ok();
}

Status PerNodeCollector::AbsorbPartial(NodeId begin, NodeId end,
                                       std::string_view data) {
  if (begin > end || end > values_.size()) {
    return Status::InvalidArgument("partial range outside collected nodes");
  }
  size_t count = end - begin;
  if (data.size() != count * sizeof(double)) {
    return Status::Corruption("per-node partial size does not match range");
  }
  if (!data.empty()) {
    std::memcpy(values_.data() + begin, data.data(), data.size());
  }
  return Status::Ok();
}

ClosenessCollector::ClosenessCollector(std::function<double(double)> alpha,
                                       std::function<double(NodeId)> beta)
    : PerNodeCollector(
          [alpha = std::move(alpha),
           beta = std::move(beta)](const HipEstimator& est) {
            return est.Closeness(alpha, beta);
          }) {}

DistanceSumCollector::DistanceSumCollector()
    : PerNodeCollector(
          [](const HipEstimator& est) { return est.DistanceSum(); }) {}

HarmonicCentralityCollector::HarmonicCentralityCollector()
    : PerNodeCollector([](const HipEstimator& est) {
        return est.HarmonicCentrality();
      }) {}

NeighborhoodSizeCollector::NeighborhoodSizeCollector(double d)
    : PerNodeCollector([d](const HipEstimator& est) {
        return est.NeighborhoodCardinality(d);
      }) {}

ReachableCountCollector::ReachableCountCollector()
    : PerNodeCollector(
          [](const HipEstimator& est) { return est.ReachableCount(); }) {}

DistanceQuantileCollector::DistanceQuantileCollector(double q)
    : PerNodeCollector([q](const HipEstimator& est) {
        return est.DistanceQuantile(q);
      }) {}

QgCollector::QgCollector(std::function<double(NodeId, double)> g)
    : PerNodeCollector([g = std::move(g)](const HipEstimator& est) {
        return est.Qg(g);
      }) {}

std::vector<NodeId> TopKNodes(const std::vector<double>& scores,
                              uint32_t count) {
  std::vector<NodeId> order(scores.size());
  for (NodeId v = 0; v < scores.size(); ++v) order[v] = v;
  uint32_t take = std::min<uint32_t>(count, order.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&scores](NodeId a, NodeId b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  order.resize(take);
  return order;
}

std::vector<NodeId> TopKCollector::TopNodes() const {
  return TopKNodes(values(), count_);
}

// ---------------------------------------------------------------------------
// DistanceHistogramCollector
// ---------------------------------------------------------------------------

namespace {

// One distance of a sealed histogram. `sum` is its estimated pair count:
// the exact sum of its HIP weights, correctly rounded. The exact sum
// itself is the canonical digit window digits[at, at + count) starting at
// layout digit `lo` (ExactSum::Digits) — or, when count is 0, exactly
// `sum` (a lone weight, or zero), whose window DigitsOf recomputes.
struct HistogramKey {
  double dist;
  double sum;
  uint64_t at;
  uint32_t lo;
  uint32_t count;
};

// A sealed histogram: distinct distances in ascending order.
struct HistogramRun {
  std::vector<HistogramKey> keys;
  std::vector<uint32_t> digits;

  // Appends a distance with the exact sum given by its canonical window.
  void Push(double dist, uint32_t lo, const uint32_t* d, uint32_t count) {
    keys.push_back(HistogramKey{dist, ExactSum::RoundDigits(lo, d, count),
                                digits.size(), lo, count});
    digits.insert(digits.end(), d, d + count);
  }

  // Appends a distance whose exact sum is the double `sum`.
  void PushExact(double dist, double sum) {
    keys.push_back(HistogramKey{dist, sum, 0, 0, 0});
  }

  void Copy(const HistogramRun& from, size_t i) {
    HistogramKey key = from.keys[i];
    const uint32_t* d = from.digits.data() + key.at;
    key.at = digits.size();
    digits.insert(digits.end(), d, d + key.count);
    keys.push_back(key);
  }

  // Key i's canonical window; `scratch` (3 digits) holds it when it has
  // to be derived from the double.
  uint32_t Window(size_t i, uint32_t* lo, uint32_t* scratch,
                  const uint32_t** d) const {
    const HistogramKey& key = keys[i];
    if (key.count == 0) {
      *d = scratch;
      return ExactSum::DigitsOf(key.sum, lo, scratch);
    }
    *lo = key.lo;
    *d = digits.data() + key.at;
    return key.count;
  }
};

// The union of two sealed histograms, distances present in both summed
// exactly. Linear in their sizes; the result does not depend on which
// side is which.
HistogramRun MergeRuns(const HistogramRun& a, const HistogramRun& b) {
  HistogramRun out;
  out.keys.reserve(a.keys.size() + b.keys.size());
  out.digits.reserve(a.digits.size() + b.digits.size());
  size_t i = 0, j = 0;
  while (i < a.keys.size() && j < b.keys.size()) {
    double da = a.keys[i].dist, db = b.keys[j].dist;
    if (da < db) {
      out.Copy(a, i++);
    } else if (db < da) {
      out.Copy(b, j++);
    } else {
      uint32_t lo_a, lo_b, lo, scratch_a[3], scratch_b[3];
      uint32_t sum[ExactSum::kDigits];
      const uint32_t *wa, *wb;
      uint32_t na = a.Window(i++, &lo_a, scratch_a, &wa);
      uint32_t nb = b.Window(j++, &lo_b, scratch_b, &wb);
      uint32_t n = ExactSum::AddDigits(lo_a, wa, na, lo_b, wb, nb, &lo, sum);
      out.Push(da, lo, sum, n);
    }
  }
  for (; i < a.keys.size(); ++i) out.Copy(a, i);
  for (; j < b.keys.size(); ++j) out.Copy(b, j);
  return out;
}

// One thread's share of a histogram sweep: an open-addressing table from
// distance to the exact sum of the weights this thread folded there. A
// slot's payload is the weight itself while the distance has been seen
// once (most distances, on real-valued weights); a second weight promotes
// it to an ExactWindow, and a sum that outgrows its window spills into a
// full ExactSum. Only ever touched by its own thread until sealed; the
// alignment keeps two threads' partials, written on every fold, off each
// other's cache lines.
class alignas(64) HistogramPartial {
 public:
  void Add(double dist, double weight) {
    // ExactSum's domain: other weights add nothing, but the distance
    // still appears (with a zero sum), as it always has.
    double w = weight > 0.0 && std::isfinite(weight) ? weight : 0.0;
    if (2 * (used_ + 1) > table_.size()) Grow();
    uint64_t key = std::bit_cast<uint64_t>(dist);
    size_t mask = table_.size() - 1;
    for (size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = table_[i];
      if (slot.key == key) {
        Accumulate(&slot.payload, w);
        return;
      }
      if (slot.key == kEmpty) {
        slot = Slot{key, std::bit_cast<uint64_t>(w)};
        ++used_;
        return;
      }
    }
  }

  size_t size() const { return used_; }

  // The partial as a sealed run (sorted by distance); empties the table.
  HistogramRun Seal() {
    size_t live = 0;
    for (const Slot& slot : table_) {
      if (slot.key != kEmpty) table_[live++] = slot;
    }
    table_.resize(live);
    used_ = 0;
    // Distances are positive, so their bit patterns sort like the values.
    std::sort(table_.begin(), table_.end(),
              [](const Slot& x, const Slot& y) { return x.key < y.key; });
    HistogramRun run;
    run.keys.reserve(live);
    uint32_t lo, d[ExactSum::kDigits];
    for (const Slot& slot : table_) {
      double dist = std::bit_cast<double>(slot.key);
      if (!(slot.payload & kPromoted)) {
        run.PushExact(dist, std::bit_cast<double>(slot.payload));
        continue;
      }
      size_t index = slot.payload & kIndexMask;
      uint32_t count = slot.payload & kSpilled ? spills_[index].Digits(&lo, d)
                                               : windows_[index].Digits(&lo, d);
      run.Push(dist, lo, d, count);
    }
    table_ = {};
    windows_ = {};
    spills_ = {};
    return run;
  }

 private:
  struct Slot {
    uint64_t key;      // the distance's bits; kEmpty marks a free slot
    uint64_t payload;  // a lone weight's bits, or kPromoted | index
  };
  static constexpr uint64_t kEmpty = 0;  // +0.0: never a folded distance
  static constexpr uint64_t kPromoted = uint64_t{1} << 63;  // > any weight
  static constexpr uint64_t kSpilled = uint64_t{1} << 62;   // into spills_
  static constexpr uint64_t kIndexMask = kSpilled - 1;

  void Grow() {
    std::vector<Slot> old = std::move(table_);
    table_.assign(std::max<size_t>(64, 2 * old.size()), Slot{kEmpty, 0});
    size_t mask = table_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.key == kEmpty) continue;
      size_t i = Mix64(slot.key) & mask;
      while (table_[i].key != kEmpty) i = (i + 1) & mask;
      table_[i] = slot;
    }
  }

  void Accumulate(uint64_t* payload, double w) {
    if (w == 0.0) return;
    if (!(*payload & kPromoted)) {
      double first = std::bit_cast<double>(*payload);
      if (first == 0.0) {  // 0 + w is w, exactly
        *payload = std::bit_cast<uint64_t>(w);
        return;
      }
      ExactWindow window;
      if (window.Start(first, w)) {
        windows_.push_back(window);
        *payload = kPromoted | (windows_.size() - 1);
      } else {
        spills_.emplace_back();
        spills_.back().Add(first);
        spills_.back().Add(w);
        *payload = kPromoted | kSpilled | (spills_.size() - 1);
      }
      return;
    }
    size_t index = *payload & kIndexMask;
    if (*payload & kSpilled) {
      spills_[index].Add(w);
      return;
    }
    if (windows_[index].TryAdd(w)) return;
    spills_.emplace_back();
    windows_[index].SpillTo(&spills_.back());
    spills_.back().Add(w);
    *payload = kPromoted | kSpilled | (spills_.size() - 1);
  }

  std::vector<Slot> table_;  // power-of-two size, at most half full
  size_t used_ = 0;
  std::vector<ExactWindow> windows_;
  std::vector<ExactSum> spills_;
};

// Identifies one collector's partials for one sweep. Drawn from a global
// counter, so a thread's cached partial can never be mistaken for one of
// another collector, or of an earlier sweep of the same collector.
uint64_t NextHistogramGeneration() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Each thread's most recently used partials, by generation (direct
// mapped, so a plan's histograms — consecutive generations — do not
// evict each other).
struct CachedPartial {
  uint64_t generation = 0;
  HistogramPartial* partial = nullptr;
};
thread_local std::array<CachedPartial, 4> t_partials;

// Partials above this many distances in total are sealed on a pool.
constexpr size_t kParallelSealKeys = size_t{1} << 15;

}  // namespace

struct DistanceHistogramCollector::State {
  // The current sweep's generation: Begin and each seal draw a new one,
  // so threads' cached pointers to dropped partials are never used again.
  std::atomic<uint64_t> generation{NextHistogramGeneration()};
  Mutex mu;
  std::vector<std::pair<std::thread::id, std::unique_ptr<HistogramPartial>>>
      partials HIPADS_GUARDED_BY(mu);
  // Everything sealed so far. Written only under `mu` by Sealed(), or by
  // the caller-serialized Begin/AbsorbPartial; read-only in between.
  HistogramRun run;

  HistogramPartial* ThreadPartial() {
    uint64_t gen = generation.load(std::memory_order_relaxed);
    CachedPartial& cached = t_partials[gen % t_partials.size()];
    if (cached.generation == gen) return cached.partial;
    std::thread::id self = std::this_thread::get_id();
    MutexLock lock(mu);
    HistogramPartial* partial = nullptr;
    for (const auto& [id, p] : partials) {
      if (id == self) partial = p.get();
    }
    if (partial == nullptr) {
      partials.emplace_back(self, std::make_unique<HistogramPartial>());
      partial = partials.back().second.get();
    }
    cached = CachedPartial{gen, partial};
    return partial;
  }

  // Folds any outstanding partials into `run` and returns it: each
  // partial sorted on its own, then merged pairwise, both in parallel
  // once there is enough to share. Exact merges make the result
  // independent of the pairing.
  const HistogramRun& Sealed() {
    MutexLock lock(mu);
    if (partials.empty()) return run;
    generation.store(NextHistogramGeneration(), std::memory_order_relaxed);
    std::vector<std::unique_ptr<HistogramPartial>> sealing;
    sealing.reserve(partials.size());
    size_t keys = 0;
    for (auto& entry : partials) {
      keys += entry.second->size();
      sealing.push_back(std::move(entry.second));
    }
    partials.clear();
    std::vector<HistogramRun> runs(sealing.size());
    ThreadPool pool(keys >= kParallelSealKeys ? sealing.size() : 1);
    pool.RunTasks(sealing.size(), [&](size_t i) {
      runs[i] = sealing[i]->Seal();
      sealing[i].reset();
    });
    if (!run.keys.empty()) runs.push_back(std::move(run));
    while (runs.size() > 1) {
      std::vector<HistogramRun> merged((runs.size() + 1) / 2);
      pool.RunTasks(merged.size(), [&](size_t i) {
        merged[i] = 2 * i + 1 < runs.size()
                        ? MergeRuns(runs[2 * i], runs[2 * i + 1])
                        : std::move(runs[2 * i]);
      });
      runs = std::move(merged);
    }
    run = std::move(runs[0]);
    return run;
  }
};

DistanceHistogramCollector::DistanceHistogramCollector()
    : state_(std::make_unique<State>()) {}
DistanceHistogramCollector::~DistanceHistogramCollector() = default;
DistanceHistogramCollector::DistanceHistogramCollector(
    DistanceHistogramCollector&&) noexcept = default;
DistanceHistogramCollector& DistanceHistogramCollector::operator=(
    DistanceHistogramCollector&&) noexcept = default;

void DistanceHistogramCollector::Begin(size_t /*num_nodes*/) {
  State& state = *state_;
  MutexLock lock(state.mu);
  state.partials.clear();
  state.run = HistogramRun();
  state.generation.store(NextHistogramGeneration(), std::memory_order_relaxed);
}

void DistanceHistogramCollector::Map(NodeId /*v*/, const HipEstimator& est) {
  HistogramPartial* partial = state_->ThreadPartial();
  est.ForEachEntry([partial](const HipEntry& e) {
    if (e.dist > 0.0) partial->Add(e.dist, e.weight);
  });
}

Status DistanceHistogramCollector::EncodePartial(NodeId /*begin*/,
                                                 NodeId /*end*/,
                                                 std::string* out) const {
  // u64 distance count, then per distance: f64 dist + the exact sum's
  // canonical digit window. O(distinct distances), not O(HIP entries).
  const HistogramRun& run = state_->Sealed();
  out->clear();
  out->reserve(sizeof(uint64_t) +
               run.keys.size() * (sizeof(double) + ExactSum::kWireHeaderBytes +
                                  3 * sizeof(uint32_t)));
  uint64_t count = run.keys.size();
  out->append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (size_t i = 0; i < run.keys.size(); ++i) {
    out->append(reinterpret_cast<const char*>(&run.keys[i].dist),
                sizeof(double));
    uint32_t lo, scratch[3];
    const uint32_t* d;
    uint32_t n = run.Window(i, &lo, scratch, &d);
    ExactSum::AppendWire(out, lo, d, n);
  }
  return Status::Ok();
}

Status DistanceHistogramCollector::AbsorbPartial(NodeId /*begin*/,
                                                 NodeId /*end*/,
                                                 std::string_view data) {
  if (data.size() < sizeof(uint64_t)) {
    return Status::Corruption("histogram partial shorter than its header");
  }
  uint64_t count;
  std::memcpy(&count, data.data(), sizeof(count));
  data.remove_prefix(sizeof(count));
  // Every entry needs at least the distance plus an empty digit window, so
  // an absurd count is rejected before any allocation.
  if (count > data.size() / (sizeof(double) + ExactSum::kWireHeaderBytes)) {
    return Status::Corruption("histogram partial count exceeds payload");
  }
  // The bytes come from the network: parse the whole partial into its own
  // sealed run — at most a small multiple of the bytes received — and
  // merge it in only once every entry has parsed, so a corrupt tail
  // cannot leave half-merged state behind.
  HistogramRun parsed;
  parsed.keys.reserve(count);
  double prev = 0.0;
  for (uint64_t i = 0; i < count; ++i) {
    if (data.size() < sizeof(double)) {
      return Status::Corruption("histogram partial entry truncated");
    }
    double dist;
    std::memcpy(&dist, data.data(), sizeof(double));
    data.remove_prefix(sizeof(double));
    if (!(dist > 0.0) || !std::isfinite(dist) || !(dist > prev)) {
      return Status::Corruption("histogram partial distance out of domain");
    }
    prev = dist;
    size_t consumed = 0;
    uint32_t lo, n, d[ExactSum::kDigits];
    if (!ExactSum::DecodeWire(data, &consumed, &lo, d, &n)) {
      return Status::Corruption("histogram partial accumulator malformed");
    }
    data.remove_prefix(consumed);
    parsed.Push(dist, lo, d, n);
  }
  if (!data.empty()) {
    return Status::Corruption("histogram partial has trailing bytes");
  }
  const HistogramRun& current = state_->Sealed();
  state_->run = current.keys.empty() ? std::move(parsed)
                                     : MergeRuns(current, parsed);
  return Status::Ok();
}

std::map<double, double> DistanceHistogramCollector::Distribution() const {
  std::map<double, double> hist;
  for (const HistogramKey& key : state_->Sealed().keys) {
    hist.emplace_hint(hist.end(), key.dist, key.sum);
  }
  return hist;
}

std::map<double, double> DistanceHistogramCollector::NeighborhoodFunction()
    const {
  std::map<double, double> nf;
  double running = 0.0;
  for (const HistogramKey& key : state_->Sealed().keys) {
    running += key.sum;
    nf.emplace_hint(nf.end(), key.dist, running);
  }
  return nf;
}

double DistanceHistogramCollector::EffectiveDiameter(double quantile) const {
  const std::vector<HistogramKey>& keys = state_->Sealed().keys;
  if (keys.empty()) return 0.0;
  double total = 0.0;
  for (const HistogramKey& key : keys) total += key.sum;
  double running = 0.0;
  for (const HistogramKey& key : keys) {
    running += key.sum;
    if (running >= quantile * total) return key.dist;
  }
  return keys.back().dist;
}

double DistanceHistogramCollector::MeanDistance() const {
  double weight = 0.0, weighted_dist = 0.0;
  for (const HistogramKey& key : state_->Sealed().keys) {
    weight += key.sum;
    weighted_dist += key.dist * key.sum;
  }
  return weight > 0.0 ? weighted_dist / weight : 0.0;
}

SweepPlan& SweepPlan::Add(SweepCollector* collector) {
  collectors_.push_back(collector);
  return *this;
}

void RunSweep(const AdsSet& set, SweepPlan& plan, uint32_t num_threads) {
  RunSweepSingleArena(set, plan, num_threads);
}

void RunSweep(const FlatAdsSet& set, SweepPlan& plan, uint32_t num_threads) {
  RunSweepSingleArena(set, plan, num_threads);
}

Status RunSweep(const AdsBackend& set, SweepPlan& plan, uint32_t num_threads,
                const std::function<Status()>& checkpoint) {
  for (SweepCollector* c : plan.collectors()) c->Begin(set.num_nodes());
  if (plan.empty()) return Status::Ok();
  ThreadPool pool(num_threads);
  std::vector<HipScratch> chunk_scratch;
  for (uint32_t r = 0; r < set.NumRanges(); ++r) {
    if (checkpoint) {
      Status abort = checkpoint();
      if (!abort.ok()) return abort;
    }
    auto range = set.Range(r);
    if (!range.ok()) return range.status();
    ArenaSet arena{range.value(), set.flavor(), set.k(), set.ranks()};
    SweepArena(arena, range.value().begin, plan, pool, chunk_scratch);
  }
  return Status::Ok();
}

}  // namespace hipads

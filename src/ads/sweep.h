// The fused sweep-execution engine: one backend pass for many estimators.
//
// Every workload that motivated ADSs (paper Section 1 — neighbourhood
// functions, closeness/harmonic centralities, distance statistics) is a
// per-node reduction over the same sketch data: visit each node once,
// build its HIP estimator, fold a value into a result. Running K such
// statistics as K separate whole-graph queries costs K backend sweeps
// (for a sharded set: K reads of every shard file) and K HIP scans per
// node. This engine fuses them — the operator-fusion idea of columnar
// query engines applied to sketch serving:
//
//   SweepPlan  — an ordered list of collectors (the statistics to fuse).
//   Collector  — a per-node visitor whose state comes out the same
//                whatever thread visits which node (SweepCollector below).
//   Executor   — RunSweep: ONE pass over any storage (AdsSet, FlatAdsSet,
//                or any AdsBackend — in-memory, mmap, sharded),
//                constructing each node's HipEstimator ONCE and feeding
//                every collector from it.
//
// So K statistics cost one shard sweep and one HIP scan per node instead
// of K of each. The whole-graph query functions in ads/queries.h are thin
// single-collector plans over this executor; multi-statistic callers (the
// CLI `stats`/`query` paths, examples/sketch_pipeline) build their own
// plans.
//
// Determinism contract: results are bitwise identical to running each
// statistic standalone, on every storage engine, for every thread count.
// It holds by construction —
//   * per-node outputs are written indexed by node (never by thread);
//   * accumulating statistics (the distance-distribution histogram) fold
//     exactly — error-free sums rounded once when read — so the fold
//     order, and with it the thread that folded each node, cannot change
//     a bit of the result;
//   * backends are swept one contiguous node range at a time in node
//     order, so the per-node visit order matches the single-arena sweep.

#ifndef HIPADS_ADS_SWEEP_H_
#define HIPADS_ADS_SWEEP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ads/ads.h"
#include "ads/backend.h"
#include "ads/estimators.h"
#include "ads/flat_ads.h"
#include "util/status.h"

namespace hipads {

/// One fused statistic: a per-node visitor with a mergeable state.
///
/// The executor calls Map(v, est) once per node, in parallel from pool
/// threads; `est` is node v's HipEstimator (shared by every collector in
/// the plan) and lives only for the call, so the executor's memory is
/// O(threads). A collector's state must come out the same under any
/// thread interleaving: per-node collectors write only state indexed by
/// v; accumulating collectors fold into per-thread partials whose merge
/// is exact, and so independent of which thread folded which node.
class SweepCollector {
 public:
  virtual ~SweepCollector();

  /// Called once before the sweep visits any node.
  virtual void Begin(size_t num_nodes);

  /// Called once per node, concurrently; see the class comment.
  virtual void Map(NodeId v, const HipEstimator& est);

  /// Inert: the executor has no Reduce phase and never calls these two.
  /// They remain only because perfbench's TimedCollector still overrides
  /// them; they go once it stops.
  virtual void Reduce(NodeId first, std::span<const HipEstimator> ests);
  virtual bool NeedsReduce() const;

  // --- Partial-state seam for distributed scatter/gather (src/serve/) ---
  //
  // A range server runs a sweep over its contiguous node range and ships
  // EncodePartial's bytes; the gathering router calls AbsorbPartial once
  // per range, in node order, on collectors that have absorbed every
  // earlier range. The contract: absorbing the partials of ranges [0,r1),
  // [r1,r2), ... in order must leave the collector in a state whose
  // results are exactly (bitwise) those of a single-process sweep over
  // [0, rk). Per-node collectors satisfy it trivially (values are
  // independent); accumulating collectors must make their reduction
  // partition-independent — the distance histogram keeps exact
  // (error-free) per-distance sums and rounds once at read time, so any
  // merge order reproduces the single-process result (see
  // DistanceHistogramCollector).

  /// Serializes this collector's state for the node slice [begin, end) of
  /// its own index space — (0, n) on a range server whose collectors are
  /// locally indexed; (B, N) on a gathering router whose collectors are
  /// globally indexed but only cover [B, N). The default fails: collectors
  /// without a partial encoding cannot be distributed.
  virtual Status EncodePartial(NodeId begin, NodeId end,
                               std::string* out) const;

  /// Merges the partial state of global node range [begin, end) into this
  /// collector. Called in node order across ranges; `begin`/`end` are the
  /// gather-side global ids of the range the bytes were produced on.
  /// Malformed bytes must fail cleanly (never crash) — partials arrive
  /// from the network.
  virtual Status AbsorbPartial(NodeId begin, NodeId end,
                               std::string_view data);
};

/// Collector for any statistic of the form result[v] = fn(estimator of v):
/// closeness, distance sum, harmonic centrality, neighborhood size,
/// reachable count, or any custom HIP reduction. Outputs are independent
/// per node, so everything happens in the parallel Map phase.
class PerNodeCollector : public SweepCollector {
 public:
  explicit PerNodeCollector(std::function<double(const HipEstimator&)> fn)
      : fn_(std::move(fn)) {}

  void Begin(size_t num_nodes) override;
  void Map(NodeId v, const HipEstimator& est) override;

  /// Partial state: the raw little-endian doubles of values_[begin, end)
  /// in node order. Absorb copies them back into values_[begin, end) —
  /// per-node values are independent, so the distributed gather is bitwise
  /// trivially.
  Status EncodePartial(NodeId begin, NodeId end,
                       std::string* out) const override;
  Status AbsorbPartial(NodeId begin, NodeId end,
                       std::string_view data) override;

  const std::vector<double>& values() const { return values_; }
  std::vector<double> TakeValues() { return std::move(values_); }

 private:
  std::function<double(const HipEstimator&)> fn_;
  std::vector<double> values_;
};

/// HIP estimates of C_{alpha,beta} for every node (Eq. 3).
class ClosenessCollector : public PerNodeCollector {
 public:
  ClosenessCollector(std::function<double(double)> alpha,
                     std::function<double(NodeId)> beta);
};

/// HIP estimates of the sum of distances for every node.
class DistanceSumCollector : public PerNodeCollector {
 public:
  DistanceSumCollector();
};

/// HIP estimates of harmonic centrality for every node.
class HarmonicCentralityCollector : public PerNodeCollector {
 public:
  HarmonicCentralityCollector();
};

/// HIP estimates of the d-neighborhood cardinality for every node.
class NeighborhoodSizeCollector : public PerNodeCollector {
 public:
  explicit NeighborhoodSizeCollector(double d);
};

/// HIP estimates of the reachable-set size for every node.
class ReachableCountCollector : public PerNodeCollector {
 public:
  ReachableCountCollector();
};

/// Per-node q-quantiles of the distance distribution: for each node the
/// smallest sketched distance within which an estimated q-fraction of its
/// reachable nodes lies (HipEstimator::DistanceQuantile; q = 0.5 is the
/// median distance). Requires 0 < q <= 1.
class DistanceQuantileCollector : public PerNodeCollector {
 public:
  explicit DistanceQuantileCollector(double q);
};

/// HIP estimates of an arbitrary Q_g statistic (Eq. 1/5) for every node:
/// values[v] ~ sum_{j reachable from v} g(j, d_vj). The paper's general
/// distance-decaying workload; harmonic centrality, neighborhood sizes and
/// distance sums are all special cases of g.
class QgCollector : public PerNodeCollector {
 public:
  explicit QgCollector(std::function<double(NodeId, double)> g);
};

/// Node ids of the `count` largest values in `scores`, descending; ties
/// broken by smaller node id. The selection utility behind TopKCollector
/// (and usable on any standalone score vector).
std::vector<NodeId> TopKNodes(const std::vector<double>& scores,
                              uint32_t count);

/// Per-node scores plus the ids of the `count` best nodes (descending
/// score, ties by id — the TopKNodes order).
class TopKCollector : public PerNodeCollector {
 public:
  TopKCollector(uint32_t count, std::function<double(const HipEstimator&)> fn)
      : PerNodeCollector(std::move(fn)), count_(count) {}

  /// The top `count` node ids by collected score; call after the sweep.
  std::vector<NodeId> TopNodes() const;

 private:
  uint32_t count_;
};

/// The ANF family in one collector: accumulates the HIP distance
/// distribution (number of ordered pairs at each exact distance), from
/// which the neighbourhood function, effective diameter and mean distance
/// all derive — one backend pass yields all four statistics.
/// Each distance's pair count is an exact (error-free) sum of HIP weights
/// (util/exact_sum.h) rounded once when read, so the result is independent
/// of fold order, thread count, and — crucially for the distributed
/// gather — of how node ranges were partitioned across servers.
///
/// Map folds each node's HIP entries into the calling thread's own
/// partial: a hash table from distance to a compact exact sum (a lone
/// weight stays a double; a repeated distance keeps only the few digits
/// its sum touches). The first read seals the partials — each sorted by
/// distance, then merged pairwise, in parallel when large — into one
/// sorted array of distances with their rounded sums and exact digit
/// windows, which every accessor reads. Begin starts fresh partials, so
/// a collector can be reused across sweeps and several can share a plan.
/// Reads (the const methods) may run concurrently with each other, not
/// with Begin, Map or AbsorbPartial. A moved-from collector may only be
/// destroyed or assigned to.
class DistanceHistogramCollector : public SweepCollector {
 public:
  DistanceHistogramCollector();
  ~DistanceHistogramCollector() override;
  DistanceHistogramCollector(DistanceHistogramCollector&&) noexcept;
  DistanceHistogramCollector& operator=(DistanceHistogramCollector&&) noexcept;

  void Begin(size_t num_nodes) override;
  void Map(NodeId v, const HipEstimator& est) override;

  /// Partial state for the distributed gather: O(distinct distances) —
  /// u64 count, then per ascending distance the f64 distance and its
  /// exact sum's canonical digit window (ExactSum::EncodeTo), so equal
  /// values encode to equal bytes whatever their fold history. Absorbing
  /// is a linear merge of two sorted lists, exact per distance, so a
  /// router merging any partition of ranges reproduces the single-process
  /// sweep bitwise; its memory is O(bytes received), and the collector is
  /// changed only once the whole partial has parsed.
  Status EncodePartial(NodeId begin, NodeId end,
                       std::string* out) const override;  // range-free state
  Status AbsorbPartial(NodeId begin, NodeId end,
                       std::string_view data) override;

  /// Estimated number of ordered pairs at each exact distance: the
  /// correctly rounded exact sums.
  std::map<double, double> Distribution() const;

  /// Cumulative form: N(d) = estimated pairs within distance d.
  std::map<double, double> NeighborhoodFunction() const;

  /// Smallest d at which the neighbourhood function reaches `quantile` of
  /// its final value (0 for an empty distribution).
  double EffectiveDiameter(double quantile = 0.9) const;

  /// Estimated mean distance between reachable ordered pairs.
  double MeanDistance() const;

 private:
  struct State;  // partials and the sealed histogram (sweep.cc)
  std::unique_ptr<State> state_;
};

/// An ordered list of collectors to fuse into one sweep. The plan does not
/// run anything itself — hand it to RunSweep. Collectors can be owned by
/// the plan (Emplace) or borrowed (Add); either way the caller reads
/// results off the collector objects after the sweep.
class SweepPlan {
 public:
  /// Adds a borrowed collector; the caller keeps ownership and must keep
  /// it alive through RunSweep.
  SweepPlan& Add(SweepCollector* collector);

  /// Constructs a collector owned by the plan; returns it typed so the
  /// caller can read results after the sweep.
  template <typename C, typename... Args>
  C* Emplace(Args&&... args) {
    auto owned = std::make_unique<C>(std::forward<Args>(args)...);
    C* raw = owned.get();
    owned_.push_back(std::move(owned));
    collectors_.push_back(raw);
    return raw;
  }

  const std::vector<SweepCollector*>& collectors() const {
    return collectors_;
  }
  bool empty() const { return collectors_.empty(); }
  size_t size() const { return collectors_.size(); }

 private:
  std::vector<SweepCollector*> collectors_;
  std::vector<std::unique_ptr<SweepCollector>> owned_;
};

/// Executes `plan` in one pass over the sketches: every node's
/// HipEstimator is constructed exactly once and fed to every collector.
/// `num_threads` = 0 uses the hardware count, 1 runs inline; results are
/// bitwise identical for every thread count. The single-arena overloads
/// cannot fail; the AdsBackend overload sweeps the backend's ranges in
/// node order (one pass over each shard, whatever plan.size() is) and
/// fails if the backend reports an error for a range — collectors are then
/// left partially filled and must be discarded. `checkpoint`, when set, is polled before each range; a
/// non-ok return aborts the sweep with that status (the serving layer
/// uses it to shed sweeps whose deadline has already passed instead of
/// finishing work nobody is waiting for).
void RunSweep(const AdsSet& set, SweepPlan& plan, uint32_t num_threads = 0);
void RunSweep(const FlatAdsSet& set, SweepPlan& plan,
              uint32_t num_threads = 0);
Status RunSweep(const AdsBackend& set, SweepPlan& plan,
                uint32_t num_threads = 0,
                const std::function<Status()>& checkpoint = {});

}  // namespace hipads

#endif  // HIPADS_ADS_SWEEP_H_

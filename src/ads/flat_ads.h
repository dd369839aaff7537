// Flat CSR storage for the ADSs of a whole graph.
//
// AdsSet keeps one heap-allocated std::vector<AdsEntry> per node — n + 1
// allocations and a pointer chase per node, which is what every whole-graph
// estimator loop (neighborhood function, centrality sweeps, HIP weighting)
// pays on its hot path. FlatAdsSet stores the same sketches as a single
// contiguous arena indexed CSR-style:
//
//   offsets[v] .. offsets[v+1]   the entries of ADS(v), canonical order
//
// so a whole-graph sweep is one linear pass over memory. Per-node access
// returns an AdsView (a span), which is the query surface shared with Ads;
// estimators, HIP weighting, serialization and the CLI all run off either
// storage, but the flat arena is the layout the scaling path uses.

#ifndef HIPADS_ADS_FLAT_ADS_H_
#define HIPADS_ADS_FLAT_ADS_H_

#include <cstdint>
#include <vector>

#include "ads/ads.h"

namespace hipads {

/// ADSs of all nodes of one graph in one contiguous arena, plus the
/// parameters that define them. The members mirror AdsSet so the two are
/// interchangeable behind the query/estimator templates.
struct FlatAdsSet {
  SketchFlavor flavor = SketchFlavor::kBottomK;
  uint32_t k = 0;
  RankAssignment ranks = RankAssignment::Uniform(0);
  std::vector<uint64_t> offsets{0};  // size num_nodes + 1
  std::vector<AdsEntry> entries;     // canonical order per node, contiguous
  // Optional precomputed HIP weights, aligned with `entries` (tau[i] /
  // weight[i] belong to entries[i]; k-mins runs store the group weight at
  // the first member, zeros at the rest — see hip.h). Either both empty or
  // both entries.size(); filled by PrecomputeHipWeights or loaded from a
  // file's HIP section, and serialized back out when present.
  std::vector<double> hip_tau;
  std::vector<double> hip_weight;

  size_t num_nodes() const { return offsets.size() - 1; }
  uint64_t TotalEntries() const { return entries.size(); }
  bool has_hip() const { return !hip_tau.empty(); }

  /// View of ADS(v).
  AdsView of(NodeId v) const {
    return AdsView({entries.data() + offsets[v],
                    entries.data() + offsets[v + 1]});
  }

  /// Appends the next node's ADS (builders emit nodes in id order).
  void AppendNode(const std::vector<AdsEntry>& node_entries) {
    entries.insert(entries.end(), node_entries.begin(), node_entries.end());
    offsets.push_back(entries.size());
  }

  /// Flattens a per-node-vector set into one arena. The entries are copied
  /// in node order; the source is left untouched.
  static FlatAdsSet FromAdsSet(const AdsSet& set);

  /// Expands back into the per-node-vector representation (compat shim for
  /// callers that still want owning Ads objects).
  AdsSet ToAdsSet() const;
};

}  // namespace hipads

#endif  // HIPADS_ADS_FLAT_ADS_H_

// Sharded ADS storage: a FlatAdsSet split into contiguous node ranges,
// one self-contained v2 binary file per shard plus a small text manifest.
//
// A billion-node sketch arena does not fit one file or one serving
// process. Sharding by contiguous node range keeps every whole-graph sweep
// a sequence of linear passes: a sweep visits the shards in order, and
// nodes in exactly the same order as the unsharded sweep, so every
// estimate — including the floating-point accumulation order of the
// distance-distribution histograms — is bitwise identical to the
// single-arena result. Point queries route ViewOf(v) to the owning shard
// via the manifest's range table.
//
// ShardedAdsSet implements AdsBackend (ads/backend.h), so it serves the
// same whole-graph queries as the in-memory and mmap single-arena engines.
// The sketches never change after they are built, so Open maps every shard
// once (MmapAdsSet: validated in place, zero-copy) and the set is
// immutable from then on: residency is the kernel page cache's job, reads
// are plain lookups, and any number of threads may read concurrently.
//
// On disk a sharded set is a directory:
//
//   MANIFEST            hipads-shards-v1: sketch params + range table
//   shard-00000.ads2    hipads-ads-v2 arena of nodes [begin_0, end_0)
//   shard-00001.ads2    ...
//
// Each shard file is a complete, independently loadable ADS file whose
// local node i is global node begin + i; entry target ids stay global.

#ifndef HIPADS_ADS_SHARD_H_
#define HIPADS_ADS_SHARD_H_

#include <functional>
#include <string>
#include <vector>

#include "ads/backend.h"
#include "ads/flat_ads.h"
#include "ads/serialize.h"
#include "util/status.h"

namespace hipads {

/// One shard's slice of the node space: the sketches of [begin, end).
struct ShardInfo {
  std::string file;  // filename, relative to the manifest's directory
  NodeId begin = 0;
  NodeId end = 0;  // exclusive
  uint64_t num_entries = 0;
};

/// Filename of the manifest inside a shard directory.
inline constexpr char kShardManifestName[] = "MANIFEST";

/// True iff `path` is a shard directory (contains a manifest) or a
/// manifest file itself — the dispatch test serving front ends use to pick
/// ShardedAdsSet::Open over ReadFlatAdsSetFile.
bool IsShardedAdsPath(const std::string& path);

/// Split points for `num_shards` contiguous shards balanced by entry count
/// (node counts can be wildly uneven when sketch sizes differ). Returns the
/// begin node of each shard; the first is always 0. Fewer shards come back
/// when the set has fewer nodes than requested shards.
std::vector<NodeId> BalancedShardSplits(const FlatAdsSet& set,
                                        uint32_t num_shards);

/// Writes `set` into `dir` (created if needed) as one v2 binary file per
/// shard plus the manifest; `split_begins` as from BalancedShardSplits
/// (sorted, unique, first element 0). Every file is published atomically
/// (WriteFileAtomically), and the manifest is written last, so a directory
/// with a manifest is complete and a live mapping of an older shard file
/// keeps serving the old bytes.
Status WriteShardedAdsSet(const FlatAdsSet& set, const std::string& dir,
                          const std::vector<NodeId>& split_begins);

/// Convenience overload: entry-balanced contiguous split into `num_shards`.
Status WriteShardedAdsSet(const FlatAdsSet& set, const std::string& dir,
                          uint32_t num_shards);

/// A sharded ADS set opened for serving: every shard file mapped and
/// validated at Open, then never mutated. All accessors are const over
/// non-mutable members, so concurrent reads need no synchronization, and
/// views stay valid for the set's lifetime.
class ShardedAdsSet : public AdsBackend {
 public:
  /// An empty set (no shards, no nodes); the state StatusOr needs to
  /// default-construct. Use Open to get a usable one.
  ShardedAdsSet() = default;

  /// Opens `path`, which may be the manifest file or its directory, and
  /// maps every shard it lists. A missing shard file fails with IOError; a
  /// truncated or corrupt one, or one that does not match its manifest
  /// entry, with Corruption — the message names the shard file. `beta` is
  /// required for exponential/priority rank kinds, as in ParseAdsSet.
  static StatusOr<ShardedAdsSet> Open(
      const std::string& path,
      const std::function<double(uint64_t)>& beta = nullptr);

  SketchFlavor flavor() const override { return flavor_; }
  uint32_t k() const override { return k_; }
  const RankAssignment& ranks() const override { return ranks_; }
  size_t num_nodes() const override { return num_nodes_; }
  uint64_t TotalEntries() const override;

  size_t num_shards() const { return shards_.size(); }
  const std::vector<ShardInfo>& shards() const { return shards_; }

  /// Index of the shard owning node v (v must be < num_nodes()).
  uint32_t ShardOf(NodeId v) const;

  // AdsBackend surface: one range per shard.
  uint32_t NumRanges() const override {
    return static_cast<uint32_t>(shards_.size());
  }
  StatusOr<AdsArenaView> Range(uint32_t r) const override;
  StatusOr<AdsView> ViewOf(NodeId v) const override;
  StatusOr<HipView> HipOf(NodeId v) const override;
  /// True iff EVERY shard file carries the HIP section. A mixed set
  /// reports false but still serves precomputed weights from the shards
  /// that have them — each range's arena view carries its own hip pointers.
  bool HipResident() const override;

 private:
  SketchFlavor flavor_ = SketchFlavor::kBottomK;
  uint32_t k_ = 0;
  RankAssignment ranks_ = RankAssignment::Uniform(0);
  uint64_t num_nodes_ = 0;
  std::vector<ShardInfo> shards_;
  // arenas_[s] serves shards_[s]; filled by Open, never touched again.
  std::vector<MmapAdsSet> arenas_;
};

}  // namespace hipads

#endif  // HIPADS_ADS_SHARD_H_

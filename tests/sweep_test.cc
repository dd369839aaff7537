// The fused sweep-execution engine (ads/sweep.h). The serving contract:
// a SweepPlan with K collectors produces results bitwise identical to
// running the K statistics as standalone queries — on every storage
// engine (in-memory arena, zero-copy mmap, mapped shard directory) and for
// every thread count — while costing exactly ONE backend pass (observable
// through a Range-counting decorator). Plus the failure contract: a
// truncated shard fails the open, before any plan runs.

#include "ads/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "ads/builders.h"
#include "ads/hip.h"
#include "ads/queries.h"
#include "ads/shard.h"
#include "graph/generators.h"

namespace hipads {
namespace {

FlatAdsSet BuildFlat(uint32_t n, uint64_t graph_seed, uint32_t k) {
  Graph g = ErdosRenyi(n, 3ULL * n, true, graph_seed);
  return FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, k, SketchFlavor::kBottomK, RankAssignment::Uniform(graph_seed + 1)));
}

// Unique scratch dir per test; removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string file(const std::string& name) const {
    return (std::filesystem::path(path) / name).string();
  }
  std::string path;
};

// Forwards to a backend and counts Range() calls: a sweep takes exactly
// one per range, so the count is the number of backend passes times
// NumRanges().
class RangeCountingBackend : public AdsBackend {
 public:
  explicit RangeCountingBackend(const AdsBackend* inner) : inner_(inner) {}

  SketchFlavor flavor() const override { return inner_->flavor(); }
  uint32_t k() const override { return inner_->k(); }
  const RankAssignment& ranks() const override { return inner_->ranks(); }
  size_t num_nodes() const override { return inner_->num_nodes(); }
  uint64_t TotalEntries() const override { return inner_->TotalEntries(); }
  uint32_t NumRanges() const override { return inner_->NumRanges(); }
  StatusOr<AdsArenaView> Range(uint32_t r) const override {
    ranges_.fetch_add(1);
    return inner_->Range(r);
  }
  StatusOr<AdsView> ViewOf(NodeId v) const override {
    return inner_->ViewOf(v);
  }
  StatusOr<HipView> HipOf(NodeId v) const override { return inner_->HipOf(v); }

  uint32_t ranges() const { return ranges_.load(); }

 private:
  const AdsBackend* inner_;
  mutable std::atomic<uint32_t> ranges_{0};
};

double AlphaFn(double d) { return 1.0 / (1.0 + d); }
double BetaFn(NodeId v) { return v % 2 == 0 ? 1.0 : 0.5; }

// The acceptance plan: six distinct statistics (and within the histogram
// collector, four derived ones) fused into one pass.
struct SixStatPlan {
  SweepPlan plan;
  DistanceHistogramCollector* hist;
  ClosenessCollector* closeness;
  DistanceSumCollector* distsum;
  HarmonicCentralityCollector* harmonic;
  NeighborhoodSizeCollector* nsize;
  ReachableCountCollector* reach;
  TopKCollector* top;

  SixStatPlan() {
    hist = plan.Emplace<DistanceHistogramCollector>();
    closeness = plan.Emplace<ClosenessCollector>(AlphaFn, BetaFn);
    distsum = plan.Emplace<DistanceSumCollector>();
    harmonic = plan.Emplace<HarmonicCentralityCollector>();
    nsize = plan.Emplace<NeighborhoodSizeCollector>(2.0);
    reach = plan.Emplace<ReachableCountCollector>();
    top = plan.Emplace<TopKCollector>(5, [](const HipEstimator& est) {
      return est.HarmonicCentrality();
    });
  }

  // Bitwise comparison of every collected statistic against the
  // standalone whole-graph queries on the reference arena.
  void ExpectMatchesStandalone(const FlatAdsSet& ref) const {
    EXPECT_EQ(hist->Distribution(), EstimateDistanceDistribution(ref, 1));
    EXPECT_EQ(hist->NeighborhoodFunction(),
              EstimateNeighborhoodFunction(ref, 1));
    EXPECT_EQ(hist->EffectiveDiameter(), EstimateEffectiveDiameter(ref));
    EXPECT_EQ(hist->MeanDistance(), EstimateMeanDistance(ref));
    EXPECT_EQ(closeness->values(),
              EstimateClosenessAll(ref, AlphaFn, BetaFn, 1));
    EXPECT_EQ(distsum->values(), EstimateDistanceSumAll(ref, 1));
    EXPECT_EQ(harmonic->values(), EstimateHarmonicCentralityAll(ref, 1));
    EXPECT_EQ(nsize->values(), EstimateNeighborhoodSizeAll(ref, 2.0, 1));
    EXPECT_EQ(reach->values(), EstimateReachableCountAll(ref, 1));
    EXPECT_EQ(top->TopNodes(),
              TopKNodes(EstimateHarmonicCentralityAll(ref, 1), 5));
  }
};

TEST(SweepTest, FusedPlanMatchesStandaloneOnSingleArenas) {
  FlatAdsSet flat = BuildFlat(180, 3, 8);
  AdsSet owning = flat.ToAdsSet();
  for (uint32_t threads : {1u, 2u, 4u}) {
    {
      SixStatPlan fused;
      RunSweep(flat, fused.plan, threads);
      fused.ExpectMatchesStandalone(flat);
    }
    {
      SixStatPlan fused;
      RunSweep(owning, fused.plan, threads);
      fused.ExpectMatchesStandalone(flat);
    }
  }
}

// The acceptance matrix: the fused plan over every backend engine at
// several thread counts, bitwise identical to the standalone queries.
TEST(SweepTest, FusedPlanBitwiseIdenticalAcrossBackends) {
  FlatAdsSet set = BuildFlat(230, 7, 8);
  ScratchDir dir("hipads_sweep_test_matrix");
  std::string file_path = dir.file("set.ads2");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteAdsSetFile(set, file_path, AdsFileFormat::kBinaryV2).ok());
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 5).ok());

  for (uint32_t threads : {1u, 2u, 4u}) {
    {
      FlatAdsBackend flat(&set);
      SixStatPlan fused;
      ASSERT_TRUE(RunSweep(flat, fused.plan, threads).ok());
      fused.ExpectMatchesStandalone(set);
    }
    {
      auto mapped = MmapAdsSet::Open(file_path);
      ASSERT_TRUE(mapped.ok());
      SixStatPlan fused;
      ASSERT_TRUE(RunSweep(mapped.value(), fused.plan, threads).ok());
      fused.ExpectMatchesStandalone(set);
    }
    {
      auto sharded = ShardedAdsSet::Open(shard_dir);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      SixStatPlan fused;
      ASSERT_TRUE(RunSweep(sharded.value(), fused.plan, threads).ok());
      fused.ExpectMatchesStandalone(set);
    }
  }
}

// Storage-resident HIP weights feed the same fused plan: every engine
// serving the precomputed section, at every thread count, stays bitwise
// identical to the standalone scan-path queries on the hip-less reference.
TEST(SweepTest, FusedPlanBitwiseIdenticalWithResidentHipWeights) {
  FlatAdsSet reference = BuildFlat(230, 7, 8);  // same set as the matrix test
  FlatAdsSet with_hip = BuildFlat(230, 7, 8);
  PrecomputeHipWeights(&with_hip, 2);
  ScratchDir dir("hipads_sweep_test_hip");
  std::string file_path = dir.file("set.ads2");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(
      WriteAdsSetFile(with_hip, file_path, AdsFileFormat::kBinaryV2).ok());
  ASSERT_TRUE(WriteShardedAdsSet(with_hip, shard_dir, 5).ok());

  for (uint32_t threads : {1u, 2u, 4u}) {
    {
      FlatAdsBackend flat(&with_hip);
      ASSERT_TRUE(flat.HipResident());
      SixStatPlan fused;
      ASSERT_TRUE(RunSweep(flat, fused.plan, threads).ok());
      fused.ExpectMatchesStandalone(reference);
    }
    {
      auto mapped = MmapAdsSet::Open(file_path);
      ASSERT_TRUE(mapped.ok());
      ASSERT_TRUE(mapped.value().HipResident());
      SixStatPlan fused;
      ASSERT_TRUE(RunSweep(mapped.value(), fused.plan, threads).ok());
      fused.ExpectMatchesStandalone(reference);
    }
    {
      auto sharded = ShardedAdsSet::Open(shard_dir);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ASSERT_TRUE(sharded.value().HipResident());
      SixStatPlan fused;
      ASSERT_TRUE(RunSweep(sharded.value(), fused.plan, threads).ok());
      fused.ExpectMatchesStandalone(reference);
    }
  }
}

// The fusion guarantee the engine exists for: K statistics over a sharded
// backend cost exactly ONE pass — each shard range is read once — where
// the standalone queries cost K passes.
TEST(SweepTest, SixStatisticPlanSweepsShardsExactlyOnce) {
  FlatAdsSet set = BuildFlat(200, 11, 8);
  ScratchDir dir("hipads_sweep_test_loads");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 5).ok());
  auto opened = ShardedAdsSet::Open(shard_dir);
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(opened.value().num_shards(), 5u);

  {
    RangeCountingBackend counted(&opened.value());
    SixStatPlan fused;
    ASSERT_TRUE(RunSweep(counted, fused.plan, 1).ok());
    EXPECT_EQ(counted.ranges(), 5u);
    fused.ExpectMatchesStandalone(set);
  }

  // The same six statistics as standalone queries: six full passes.
  {
    RangeCountingBackend counted(&opened.value());
    ASSERT_TRUE(EstimateDistanceDistribution(counted, 1).ok());
    ASSERT_TRUE(EstimateClosenessAll(counted, AlphaFn, BetaFn, 1).ok());
    ASSERT_TRUE(EstimateDistanceSumAll(counted, 1).ok());
    ASSERT_TRUE(EstimateHarmonicCentralityAll(counted, 1).ok());
    ASSERT_TRUE(EstimateNeighborhoodSizeAll(counted, 2.0, 1).ok());
    ASSERT_TRUE(EstimateReachableCountAll(counted, 1).ok());
    EXPECT_EQ(counted.ranges(), 30u);  // 6 statistics x 5 shards
  }
}

TEST(SweepTest, EmptyPlanTouchesNoShards) {
  FlatAdsSet set = BuildFlat(120, 13, 4);
  ScratchDir dir("hipads_sweep_test_empty");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 3).ok());
  auto opened = ShardedAdsSet::Open(shard_dir);
  ASSERT_TRUE(opened.ok());
  RangeCountingBackend counted(&opened.value());
  SweepPlan plan;
  ASSERT_TRUE(RunSweep(counted, plan, 1).ok());
  EXPECT_EQ(counted.ranges(), 0u);
}

// A truncated shard can never fail a plan halfway: the open maps and
// validates every shard, so the damage surfaces there — Corruption,
// naming the file — before any collector sees a node.
TEST(SweepTest, TruncatedShardFailsThePlan) {
  FlatAdsSet set = BuildFlat(160, 17, 4);
  ScratchDir dir("hipads_sweep_test_truncated");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 4).ok());
  std::string victim =
      (std::filesystem::path(shard_dir) / "shard-00002.ads2").string();
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(victim, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(victim, size - 24, ec);
  ASSERT_FALSE(ec);

  auto opened = ShardedAdsSet::Open(shard_dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), Status::Code::kCorruption);
  EXPECT_NE(opened.status().message().find("shard-00002.ads2"),
            std::string::npos)
      << opened.status().ToString();
}

// The collector-library additions: per-node distance quantiles and custom
// Q_g ride the fused pass and match per-node HipEstimator evaluation.
TEST(SweepTest, QuantileAndQgCollectorsMatchPerNodeEstimators) {
  FlatAdsSet set = BuildFlat(150, 31, 8);
  SweepPlan plan;
  auto* median = plan.Emplace<DistanceQuantileCollector>(0.5);
  auto* q90 = plan.Emplace<DistanceQuantileCollector>(0.9);
  auto g = [](NodeId, double d) { return std::pow(0.5, d); };
  auto* qg = plan.Emplace<QgCollector>(g);
  RunSweep(set, plan, 2);
  for (NodeId v = 0; v < set.num_nodes(); ++v) {
    HipEstimator est(set.of(v), set.k, set.flavor, set.ranks);
    EXPECT_EQ(median->values()[v], est.DistanceQuantile(0.5)) << v;
    EXPECT_EQ(q90->values()[v], est.DistanceQuantile(0.9)) << v;
    EXPECT_EQ(qg->values()[v], est.Qg(g)) << v;
  }
}

// The distributed partial-state seam at the collector level: sweeping a
// node-range split separately, encoding each range's partial and absorbing
// them in node order reproduces the single-process sweep bitwise —
// including the histogram fold, whose partial is the O(distinct distances)
// exact per-distance superaccumulator state merged without rounding.
TEST(SweepTest, EncodedPartialsReplayToTheSingleProcessResultBitwise) {
  FlatAdsSet set = BuildFlat(170, 37, 8);
  size_t n = set.num_nodes();

  SweepPlan full_plan;
  auto* full_hist = full_plan.Emplace<DistanceHistogramCollector>();
  auto* full_harmonic = full_plan.Emplace<HarmonicCentralityCollector>();
  RunSweep(set, full_plan, 1);

  for (std::vector<NodeId> splits :
       {std::vector<NodeId>{0, 85, 170}, {0, 40, 90, 170}}) {
    DistanceHistogramCollector merged_hist;
    HarmonicCentralityCollector merged_harmonic;
    merged_hist.Begin(n);
    merged_harmonic.Begin(n);
    for (size_t r = 0; r + 1 < splits.size(); ++r) {
      // One "range server": a standalone sweep over the slice.
      FlatAdsSet slice;
      slice.flavor = set.flavor;
      slice.k = set.k;
      slice.ranks = set.ranks;
      for (NodeId v = splits[r]; v < splits[r + 1]; ++v) {
        auto entries = set.of(v).entries();
        slice.AppendNode(
            std::vector<AdsEntry>(entries.begin(), entries.end()));
      }
      SweepPlan range_plan;
      auto* hist = range_plan.Emplace<DistanceHistogramCollector>();
      auto* harmonic = range_plan.Emplace<HarmonicCentralityCollector>();
      RunSweep(slice, range_plan, 2);

      NodeId slice_nodes = splits[r + 1] - splits[r];
      std::string hist_partial, harmonic_partial;
      ASSERT_TRUE(hist->EncodePartial(0, slice_nodes, &hist_partial).ok());
      ASSERT_TRUE(
          harmonic->EncodePartial(0, slice_nodes, &harmonic_partial).ok());
      ASSERT_TRUE(
          merged_hist.AbsorbPartial(splits[r], splits[r + 1], hist_partial)
              .ok());
      ASSERT_TRUE(merged_harmonic
                      .AbsorbPartial(splits[r], splits[r + 1],
                                     harmonic_partial)
                      .ok());
    }
    EXPECT_EQ(merged_hist.Distribution(), full_hist->Distribution());
    EXPECT_EQ(merged_harmonic.values(), full_harmonic->values());
  }

  // The superaccumulator partial is compact: its size is bounded by the
  // number of distinct distances, not by the number of HIP entries folded.
  std::string full_partial;
  ASSERT_TRUE(
      full_hist->EncodePartial(0, static_cast<NodeId>(n), &full_partial).ok());
  size_t distinct = full_hist->Distribution().size();
  EXPECT_LE(full_partial.size(),
            sizeof(uint64_t) + distinct * (sizeof(double) + 8 + 70 * 4));

  // A per-node slice outside the collected range must be rejected.
  std::string ignored;
  EXPECT_FALSE(full_harmonic
                   ->EncodePartial(0, static_cast<NodeId>(n + 1), &ignored)
                   .ok());

  // Malformed histogram partials fail cleanly and leave the collector's
  // state untouched (the bytes arrive from the network).
  DistanceHistogramCollector absorber;
  absorber.Begin(n);
  ASSERT_TRUE(
      absorber.AbsorbPartial(0, static_cast<NodeId>(n), full_partial).ok());
  auto before = absorber.Distribution();
  std::string truncated = full_partial.substr(0, full_partial.size() - 3);
  EXPECT_FALSE(
      absorber.AbsorbPartial(0, static_cast<NodeId>(n), truncated).ok());
  std::string trailing = full_partial + "xx";
  EXPECT_FALSE(
      absorber.AbsorbPartial(0, static_cast<NodeId>(n), trailing).ok());
  EXPECT_EQ(absorber.Distribution(), before);
}

// Borrowed collectors (Add) and owned collectors (Emplace) behave
// identically; a collector reused across sweeps resets in Begin.
TEST(SweepTest, CollectorsResetBetweenSweeps) {
  FlatAdsSet set = BuildFlat(100, 29, 4);
  DistanceHistogramCollector hist;
  HarmonicCentralityCollector harmonic;
  SweepPlan plan;
  plan.Add(&hist).Add(&harmonic);
  RunSweep(set, plan, 1);
  auto first_hist = hist.Distribution();
  auto first_harmonic = harmonic.values();
  RunSweep(set, plan, 2);  // rerun: Begin must clear, not accumulate
  EXPECT_EQ(hist.Distribution(), first_hist);
  EXPECT_EQ(harmonic.values(), first_harmonic);
}

}  // namespace
}  // namespace hipads

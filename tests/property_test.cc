// Property-based tests: structural invariants of ADSs and estimators that
// must hold for every graph family, seed, flavor and k. Parameterized
// sweeps play the role of a property-testing harness with reproducible
// cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/hip.h"
#include "ads/shard.h"
#include "graph/generators.h"
#include "graph/traversal.h"

namespace hipads {
namespace {

struct PropertyCase {
  int graph_kind;  // 0 ER, 1 BA, 2 grid, 3 directed RMAT, 4 weighted ER
  uint32_t k;
  uint64_t seed;
};

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

Graph MakeGraph(const PropertyCase& c) {
  switch (c.graph_kind) {
    case 0:
      return ErdosRenyi(70, 180, true, c.seed + 100);
    case 1:
      return BarabasiAlbert(70, 2, c.seed + 200);
    case 2:
      return Grid2D(8, 9);
    case 3:
      return Rmat(6, 3, c.seed + 300, false);
    default:
      return RandomizeWeights(ErdosRenyi(60, 160, true, c.seed + 400), 0.3,
                              2.5, c.seed + 1);
  }
}

class AdsPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(AdsPropertyTest, MembershipRuleHolds) {
  // Eq. (4): u in ADS(v) iff r(u) < kth smallest rank among nodes strictly
  // closer to v (with the (dist, rank) tie break).
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    auto dist = ShortestPathDistances(g, v);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (dist[u] == kInfDist) {
        EXPECT_FALSE(set.of(v).Contains(u));
        continue;
      }
      BottomKSketch closer(c.k);
      for (NodeId w = 0; w < g.num_nodes(); ++w) {
        if (dist[w] == kInfDist) continue;
        bool w_closer =
            dist[w] < dist[u] || (dist[w] == dist[u] && w < u);
        if (w_closer && w != u) closer.Update(ranks.rank(w));
      }
      EXPECT_EQ(set.of(v).Contains(u), ranks.rank(u) < closer.Threshold())
          << "v=" << v << " u=" << u;
    }
  }
}

TEST_P(AdsPropertyTest, EntriesSortedAndDistancesCorrect) {
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto dist = ShortestPathDistances(g, v);
    double prev = -1.0;
    for (const AdsEntry& e : set.of(v).entries()) {
      EXPECT_GE(e.dist, prev);
      prev = e.dist;
      EXPECT_DOUBLE_EQ(e.dist, dist[e.node]);
      EXPECT_DOUBLE_EQ(e.rank, ranks.rank(e.node));
    }
  }
}

TEST_P(AdsPropertyTest, KClosestAlwaysIncluded) {
  // The k nodes closest to v (under the tie-broken order) are always in
  // ADS(v).
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 11) {
    auto dist = ShortestPathDistances(g, v);
    std::vector<NodeId> reachable;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (dist[u] != kInfDist) reachable.push_back(u);
    }
    std::sort(reachable.begin(), reachable.end(), [&](NodeId a, NodeId b) {
      if (dist[a] != dist[b]) return dist[a] < dist[b];
      return a < b;
    });
    size_t take = std::min<size_t>(c.k, reachable.size());
    for (size_t i = 0; i < take; ++i) {
      EXPECT_TRUE(set.of(v).Contains(reachable[i]))
          << "v=" << v << " missing " << i << "-th closest";
    }
  }
}

TEST_P(AdsPropertyTest, HipWeightsSumBelowKIsExact) {
  // For d covering fewer than k nodes, the HIP estimate equals the exact
  // count — on any graph.
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 13) {
    auto dist = ShortestPathDistances(g, v);
    std::vector<double> finite;
    for (double d : dist) {
      if (d != kInfDist) finite.push_back(d);
    }
    std::sort(finite.begin(), finite.end());
    if (finite.size() < 2) continue;
    size_t take = std::min<size_t>(c.k, finite.size()) - 1;
    double d_small = finite[take > 0 ? take - 1 : 0];
    uint64_t exact = 0;
    for (double d : finite) {
      if (d <= d_small) ++exact;
    }
    if (exact > c.k) continue;  // ties can push past k; skip
    HipEstimator hip(set.of(v), c.k, SketchFlavor::kBottomK, ranks);
    EXPECT_DOUBLE_EQ(hip.NeighborhoodCardinality(d_small),
                     static_cast<double>(exact))
        << "v=" << v;
  }
}

TEST_P(AdsPropertyTest, MinHashExtractionMatchesDirectSketch) {
  // The bottom-k sketch extracted from the ADS at distance d equals the
  // sketch built directly from N_d(v).
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 17) {
    auto dist = ShortestPathDistances(g, v);
    for (double d : {1.0, 2.0, 4.0, 1e9}) {
      BottomKSketch direct(c.k);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (dist[u] <= d) direct.Update(ranks.rank(u));
      }
      BottomKSketch extracted = set.of(v).BottomKAt(d, c.k);
      EXPECT_EQ(extracted.ranks(), direct.ranks())
          << "v=" << v << " d=" << d;
    }
  }
}

TEST_P(AdsPropertyTest, SizeEstimatorMonotoneInDistance) {
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 19) {
    double prev = -1.0;
    for (double d = 0.0; d < 12.0; d += 0.5) {
      double e = AdsSizeCardinality(set.of(v), d, c.k);
      EXPECT_GE(e, prev);
      prev = e;
    }
  }
}

TEST_P(AdsPropertyTest, KMinsMembershipRuleHolds) {
  // k-mins ADS: node u is in ADS(v) under permutation p iff r_p(u) beats
  // the minimum r_p over nodes lex-closer to v.
  const PropertyCase& c = GetParam();
  if (c.k > 8) GTEST_SKIP() << "k-mins sweep capped for test time";
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kKMins, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 23) {
    auto dist = ShortestPathDistances(g, v);
    // Collect per-part membership.
    std::vector<std::vector<bool>> member(
        c.k, std::vector<bool>(g.num_nodes(), false));
    for (const AdsEntry& e : set.of(v).entries()) {
      member[e.part][e.node] = true;
    }
    for (uint32_t p = 0; p < c.k; ++p) {
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (dist[u] == kInfDist) {
          EXPECT_FALSE(member[p][u]);
          continue;
        }
        double closest = 2.0;  // above sup
        for (NodeId w = 0; w < g.num_nodes(); ++w) {
          if (w == u || dist[w] == kInfDist) continue;
          bool w_closer =
              dist[w] < dist[u] || (dist[w] == dist[u] && w < u);
          if (w_closer) closest = std::min(closest, ranks.rank(w, p));
        }
        EXPECT_EQ(member[p][u], ranks.rank(u, p) < closest)
            << "v=" << v << " u=" << u << " p=" << p;
      }
    }
  }
}

TEST_P(AdsPropertyTest, KPartitionMembershipRuleHolds) {
  // k-partition ADS: u in ADS(v) iff r(u) beats the minimum rank over
  // lex-closer nodes of u's own bucket.
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set =
      BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kKPartition, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 29) {
    auto dist = ShortestPathDistances(g, v);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (dist[u] == kInfDist) {
        EXPECT_FALSE(set.of(v).Contains(u));
        continue;
      }
      uint32_t bucket = BucketHash(ranks.seed(), u, c.k);
      double closest = 2.0;
      for (NodeId w = 0; w < g.num_nodes(); ++w) {
        if (w == u || dist[w] == kInfDist) continue;
        if (BucketHash(ranks.seed(), w, c.k) != bucket) continue;
        bool w_closer = dist[w] < dist[u] || (dist[w] == dist[u] && w < u);
        if (w_closer) closest = std::min(closest, ranks.rank(w));
      }
      EXPECT_EQ(set.of(v).Contains(u), ranks.rank(u) < closest)
          << "v=" << v << " u=" << u;
    }
  }
}

TEST_P(AdsPropertyTest, SelfLoopsAndParallelArcsAreHarmless) {
  // Adding self loops and duplicated arcs must not change any ADS.
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  std::vector<Edge> edges = g.ToEdgeList();
  size_t orig = edges.size();
  for (NodeId v = 0; v < g.num_nodes(); v += 5) {
    edges.push_back(Edge{v, v, 1.0});  // self loop
  }
  for (size_t i = 0; i < orig; i += 7) {
    edges.push_back(edges[i]);  // parallel arc
  }
  Graph noisy(g.num_nodes(), edges, /*undirected=*/false);
  // Rebuild the original as directed arcs too so both are comparable.
  Graph plain(g.num_nodes(), g.ToEdgeList(), /*undirected=*/false);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet a = BuildAdsPrunedDijkstra(plain, c.k, SketchFlavor::kBottomK,
                                    ranks);
  AdsSet b = BuildAdsPrunedDijkstra(noisy, c.k, SketchFlavor::kBottomK,
                                    ranks);
  ASSERT_EQ(a.TotalEntries(), b.TotalEntries());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(a.of(v).size(), b.of(v).size()) << "node " << v;
  }
}

TEST_P(AdsPropertyTest, IsolatedNodesSketchOnlyThemselves) {
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  // Append 3 isolated nodes.
  Graph with_isolated(g.num_nodes() + 3, g.ToEdgeList(),
                      /*undirected=*/false);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(with_isolated, c.k,
                                      SketchFlavor::kBottomK, ranks);
  for (NodeId v = g.num_nodes(); v < with_isolated.num_nodes(); ++v) {
    ASSERT_EQ(set.of(v).size(), 1u);
    EXPECT_EQ(set.of(v).entries()[0].node, v);
  }
}

TEST_P(AdsPropertyTest, ResidentHipSurvivesStorageBitwiseForEveryRankKind) {
  // The storage contract of the precomputed HIP section, across random
  // sketches and every servable rank kind (including the weighted
  // exponential/priority ranks, whose beta must round-trip consistently):
  // weights written once, mmapped back and served — from a plain file and
  // from a sharded directory with a hip-less shard mixed in — are bitwise
  // equal to a fresh per-node scan of the same sketch.
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto beta = [](uint64_t v) { return 0.5 + static_cast<double>(v % 5) * 0.4; };
  struct RankCase {
    const char* name;
    RankAssignment ranks;
  };
  const RankCase rank_cases[] = {
      {"uniform", RankAssignment::Uniform(c.seed)},
      {"exponential", RankAssignment::Exponential(c.seed, beta)},
      {"priority", RankAssignment::Priority(c.seed, beta)},
  };
  for (const RankCase& rc : rank_cases) {
    FlatAdsSet set = FlatAdsSet::FromAdsSet(
        BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, rc.ranks));
    PrecomputeHipWeights(&set, 2);

    ScratchDir dir(std::string("hipads_property_test_hip_") + rc.name + "_" +
                   std::to_string(c.seed) + "_" + std::to_string(c.graph_kind));
    std::string path = dir.file("set.ads2");
    std::string shard_dir = dir.file("shards");
    ASSERT_TRUE(WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2).ok());
    ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 3).ok());
    // Strip one shard's section: the mixed set must still serve the rest.
    std::string victim =
        (std::filesystem::path(shard_dir) / "shard-00002.ads2").string();
    auto loaded = ReadFlatAdsSetFile(victim, beta);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    loaded.value().hip_tau.clear();
    loaded.value().hip_weight.clear();
    ASSERT_TRUE(
        WriteAdsSetFile(loaded.value(), victim, AdsFileFormat::kBinaryV2)
            .ok());

    auto mapped = MmapAdsSet::Open(path, beta);
    ASSERT_TRUE(mapped.ok()) << rc.name << ": " << mapped.status().ToString();
    ASSERT_TRUE(mapped.value().HipResident()) << rc.name;
    auto sharded = ShardedAdsSet::Open(shard_dir, beta);
    ASSERT_TRUE(sharded.ok()) << rc.name << ": "
                              << sharded.status().ToString();
    EXPECT_FALSE(sharded.value().HipResident()) << rc.name;  // mixed

    HipScratch scratch;
    std::vector<double> tau, weight;
    for (NodeId v = 0; v < set.num_nodes(); ++v) {
      AdsView ads = set.of(v);
      tau.assign(ads.size(), -1.0);
      weight.assign(ads.size(), -1.0);
      ComputeHipWeightsAligned(ads, c.k, SketchFlavor::kBottomK, rc.ranks,
                               &scratch, tau.data(), weight.data());
      auto from_map = mapped.value().HipOf(v);
      ASSERT_TRUE(from_map.ok());
      ASSERT_TRUE(from_map.value().present()) << rc.name << " v=" << v;
      auto from_shards = sharded.value().HipOf(v);
      ASSERT_TRUE(from_shards.ok());
      const bool stripped = sharded.value().ShardOf(v) == 2;
      EXPECT_EQ(from_shards.value().present(), !stripped)
          << rc.name << " v=" << v;
      for (size_t i = 0; i < ads.size(); ++i) {
        EXPECT_EQ(from_map.value().tau[i], tau[i])
            << rc.name << " v=" << v << " i=" << i;
        EXPECT_EQ(from_map.value().weight[i], weight[i])
            << rc.name << " v=" << v << " i=" << i;
        if (!stripped) {
          EXPECT_EQ(from_shards.value().tau[i], tau[i])
              << rc.name << " v=" << v << " i=" << i;
          EXPECT_EQ(from_shards.value().weight[i], weight[i])
              << rc.name << " v=" << v << " i=" << i;
        }
      }
    }
  }
}

std::string PropertyCaseName(
    const ::testing::TestParamInfo<PropertyCase>& info) {
  static const char* const kKinds[] = {"ER", "BA", "Grid", "Rmat",
                                       "WeightedER"};
  return std::string(kKinds[info.param.graph_kind]) + "_k" +
         std::to_string(info.param.k) + "_s" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdsPropertyTest,
    ::testing::Values(PropertyCase{0, 1, 1}, PropertyCase{0, 4, 2},
                      PropertyCase{1, 2, 3}, PropertyCase{1, 8, 4},
                      PropertyCase{2, 3, 5}, PropertyCase{3, 4, 6},
                      PropertyCase{4, 2, 7}, PropertyCase{4, 6, 8},
                      PropertyCase{0, 16, 9}, PropertyCase{1, 5, 10}),
    PropertyCaseName);

}  // namespace
}  // namespace hipads

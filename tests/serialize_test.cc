#include "ads/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ads/builders.h"
#include "ads/estimators.h"
#include "graph/generators.h"

namespace hipads {
namespace {

void ExpectSameSet(const AdsSet& a, const AdsSet& b) {
  EXPECT_EQ(a.flavor, b.flavor);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.ranks.kind(), b.ranks.kind());
  EXPECT_EQ(a.ranks.seed(), b.ranks.seed());
  ASSERT_EQ(a.ads.size(), b.ads.size());
  for (NodeId v = 0; v < a.ads.size(); ++v) {
    const auto& ea = a.of(v).entries();
    const auto& eb = b.of(v).entries();
    ASSERT_EQ(ea.size(), eb.size()) << "node " << v;
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].node, eb[i].node);
      EXPECT_EQ(ea[i].part, eb[i].part);
      EXPECT_EQ(ea[i].rank, eb[i].rank);  // %.17g round-trips doubles
      EXPECT_EQ(ea[i].dist, eb[i].dist);
    }
  }
}

TEST(SerializeTest, RoundTripBottomK) {
  Graph g = ErdosRenyi(80, 240, true, 5);
  AdsSet set = BuildAdsPrunedDijkstra(g, 8, SketchFlavor::kBottomK,
                                      RankAssignment::Uniform(9));
  auto back = ParseAdsSet(SerializeAdsSet(set));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameSet(set, back.value());
}

TEST(SerializeTest, RoundTripAllFlavors) {
  Graph g = BarabasiAlbert(60, 2, 7);
  for (SketchFlavor flavor : {SketchFlavor::kBottomK, SketchFlavor::kKMins,
                              SketchFlavor::kKPartition}) {
    AdsSet set =
        BuildAdsDp(g, 4, flavor, RankAssignment::Uniform(11));
    auto back = ParseAdsSet(SerializeAdsSet(set));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectSameSet(set, back.value());
  }
}

TEST(SerializeTest, RoundTripBaseB) {
  Graph g = ErdosRenyi(50, 150, true, 13);
  AdsSet set = BuildAdsPrunedDijkstra(g, 4, SketchFlavor::kBottomK,
                                      RankAssignment::BaseB(3, 2.0));
  auto back = ParseAdsSet(SerializeAdsSet(set));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().ranks.base(), 2.0);
  ExpectSameSet(set, back.value());
}

TEST(SerializeTest, RoundTripWeightedGraphDistances) {
  Graph g = RandomizeWeights(ErdosRenyi(50, 150, true, 17), 0.3, 2.7, 3);
  AdsSet set = BuildAdsPrunedDijkstra(g, 4, SketchFlavor::kBottomK,
                                      RankAssignment::Uniform(21));
  auto back = ParseAdsSet(SerializeAdsSet(set));
  ASSERT_TRUE(back.ok());
  ExpectSameSet(set, back.value());
}

TEST(SerializeTest, LoadedSetAnswersSameQueries) {
  Graph g = BarabasiAlbert(150, 3, 23);
  AdsSet set = BuildAdsDp(g, 16, SketchFlavor::kBottomK,
                          RankAssignment::Uniform(31));
  auto back = ParseAdsSet(SerializeAdsSet(set));
  ASSERT_TRUE(back.ok());
  for (NodeId v : {0u, 50u, 149u}) {
    HipEstimator a(set.of(v), set.k, set.flavor, set.ranks);
    HipEstimator b(back.value().of(v), back.value().k, back.value().flavor,
                   back.value().ranks);
    EXPECT_DOUBLE_EQ(a.ReachableCount(), b.ReachableCount());
    EXPECT_DOUBLE_EQ(a.HarmonicCentrality(), b.HarmonicCentrality());
  }
}

TEST(SerializeTest, FileRoundTrip) {
  Graph g = ErdosRenyi(40, 120, true, 29);
  AdsSet set = BuildAdsPrunedDijkstra(g, 4, SketchFlavor::kBottomK,
                                      RankAssignment::Uniform(37));
  std::string path = "/tmp/hipads_serialize_test.ads";
  ASSERT_TRUE(WriteAdsSetFile(set, path).ok());
  auto back = ReadAdsSetFile(path);
  ASSERT_TRUE(back.ok());
  ExpectSameSet(set, back.value());
  std::remove(path.c_str());
}

TEST(SerializeTest, ExponentialNeedsBeta) {
  Graph g = ErdosRenyi(30, 90, true, 31);
  auto beta = [](uint64_t v) { return v % 2 ? 2.0 : 1.0; };
  AdsSet set = BuildAdsPrunedDijkstra(
      g, 4, SketchFlavor::kBottomK, RankAssignment::Exponential(5, beta));
  std::string text = SerializeAdsSet(set);
  auto without = ParseAdsSet(text);
  EXPECT_FALSE(without.ok());
  EXPECT_EQ(without.status().code(), Status::Code::kInvalidArgument);
  auto with = ParseAdsSet(text, beta);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with.value().ranks.kind(), RankKind::kExponential);
  EXPECT_EQ(with.value().TotalEntries(), set.TotalEntries());
}

TEST(SerializeTest, PriorityRoundTripWithBeta) {
  Graph g = ErdosRenyi(30, 90, true, 43);
  auto beta = [](uint64_t v) { return v % 3 == 0 ? 3.0 : 1.0; };
  AdsSet set = BuildAdsPrunedDijkstra(g, 4, SketchFlavor::kBottomK,
                                      RankAssignment::Priority(7, beta));
  std::string text = SerializeAdsSet(set);
  EXPECT_FALSE(ParseAdsSet(text).ok());  // beta required
  auto with = ParseAdsSet(text, beta);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with.value().ranks.kind(), RankKind::kPriority);
  ExpectSameSet(set, with.value());
}

TEST(SerializeTest, RejectsGarbage) {
  EXPECT_FALSE(ParseAdsSet("").ok());
  EXPECT_FALSE(ParseAdsSet("not-a-sketch\n").ok());
  EXPECT_FALSE(
      ParseAdsSet("hipads-ads-v1\nflavor nonsense\n").ok());
  EXPECT_FALSE(
      ParseAdsSet("hipads-ads-v1\nflavor bottom-k\nk 0\n").ok());
}

TEST(SerializeTest, RejectsTruncatedEntries) {
  Graph g = ErdosRenyi(20, 60, true, 41);
  AdsSet set = BuildAdsPrunedDijkstra(g, 2, SketchFlavor::kBottomK,
                                      RankAssignment::Uniform(1));
  std::string text = SerializeAdsSet(set);
  text.resize(text.size() / 2);
  auto result = ParseAdsSet(text);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
}

TEST(SerializeTest, RejectsOutOfRangePart) {
  std::string text =
      "hipads-ads-v1\nflavor bottom-k\nk 2\nranks uniform 1\nnodes 1\n"
      "0 1\n0 5 0.5 0\n";  // part 5 >= k 2
  EXPECT_FALSE(ParseAdsSet(text).ok());
}

TEST(SerializeTest, BothParsersRejectDuplicateNodeBlocks) {
  // Two blocks for node 0 (and none for node 1): historically the AdsSet
  // parser silently let the last block win while the flat parser rejected
  // it; both must reject so the two loaders accept identical file sets.
  std::string text =
      "hipads-ads-v1\nflavor bottom-k\nk 2\nranks uniform 1\nnodes 2\n"
      "0 1\n0 0 0.5 0\n"
      "0 1\n1 0 0.25 1\n";
  auto as_set = ParseAdsSet(text);
  EXPECT_FALSE(as_set.ok());
  EXPECT_EQ(as_set.status().code(), Status::Code::kCorruption);
  auto as_flat = ParseFlatAdsSet(text);
  EXPECT_FALSE(as_flat.ok());
  EXPECT_EQ(as_flat.status().code(), Status::Code::kCorruption);
}

TEST(SerializeTest, BothParsersRejectOutOfOrderNodeBlocks) {
  std::string text =
      "hipads-ads-v1\nflavor bottom-k\nk 2\nranks uniform 1\nnodes 2\n"
      "1 1\n1 0 0.25 0\n"
      "0 1\n0 0 0.5 0\n";
  EXPECT_FALSE(ParseAdsSet(text).ok());
  EXPECT_FALSE(ParseFlatAdsSet(text).ok());
}

TEST(SerializeTest, BothParsersRejectTrailingGarbage) {
  Graph g = ErdosRenyi(20, 60, true, 47);
  AdsSet set = BuildAdsPrunedDijkstra(g, 2, SketchFlavor::kBottomK,
                                      RankAssignment::Uniform(1));
  std::string text = SerializeAdsSet(set);
  ASSERT_TRUE(ParseAdsSet(text).ok());
  ASSERT_TRUE(ParseFlatAdsSet(text).ok());
  for (const char* junk : {"0", "garbage", "0 1\n0 0 0.5 0\n"}) {
    auto as_set = ParseAdsSet(text + junk);
    EXPECT_FALSE(as_set.ok()) << junk;
    EXPECT_EQ(as_set.status().code(), Status::Code::kCorruption);
    auto as_flat = ParseFlatAdsSet(text + junk);
    EXPECT_FALSE(as_flat.ok()) << junk;
    EXPECT_EQ(as_flat.status().code(), Status::Code::kCorruption);
  }
  // Trailing whitespace is not garbage.
  EXPECT_TRUE(ParseAdsSet(text + "\n \n").ok());
  EXPECT_TRUE(ParseFlatAdsSet(text + "\n \n").ok());
}

TEST(SerializeTest, ParsersAgreeOnAcceptance) {
  // The two v1 parsers must accept/reject the same inputs.
  Graph g = ErdosRenyi(25, 75, true, 53);
  AdsSet set = BuildAdsPrunedDijkstra(g, 4, SketchFlavor::kBottomK,
                                      RankAssignment::Uniform(2));
  std::string valid = SerializeAdsSet(set);
  for (size_t len : {valid.size(), valid.size() / 2, valid.size() - 1}) {
    std::string text = valid.substr(0, len);
    EXPECT_EQ(ParseAdsSet(text).ok(), ParseFlatAdsSet(text).ok())
        << "prefix length " << len;
  }
}

TEST(SerializeTest, ReadMissingFileFails) {
  auto result = ReadAdsSetFile("/nonexistent/sketches.ads");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIOError);
}

// WriteFileAtomically replaces the target whole, and a publish that fails
// (here: the target is a directory, so the rename is refused) reports
// IOError and leaves no temp file behind.
TEST(SerializeTest, AtomicWriteReplacesOrLeavesNoTrace) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "hipads_serialize_atomic";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "occupied");
  const std::string file = (dir / "file").string();
  ASSERT_TRUE(WriteFileAtomically(file, "first version, longer").ok());
  ASSERT_TRUE(WriteFileAtomically(file, "second").ok());
  std::ifstream in(file, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "second");

  Status refused = WriteFileAtomically((dir / "occupied").string(), "x");
  EXPECT_EQ(refused.code(), Status::Code::kIOError) << refused.ToString();
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"file", "occupied"}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hipads

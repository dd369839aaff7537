#include "ads/shard.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace hipads {

namespace {

constexpr char kManifestMagic[] = "hipads-shards-v1";

std::string ShardFileName(uint32_t s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%05u.ads2", s);
  return buf;
}

// The manifest references shard files relative to its own directory.
std::string JoinPath(const std::string& dir, const std::string& file) {
  return (std::filesystem::path(dir) / file).string();
}

// Names the failing shard file in an open error. A missing file stays an
// IOError; anything wrong with its bytes is Corruption.
Status ShardOpenError(const ShardInfo& info, const Status& status) {
  std::string message = "shard " + info.file + ": " + status.message();
  return status.code() == Status::Code::kIOError
             ? Status::IOError(std::move(message))
             : Status::Corruption(std::move(message));
}

}  // namespace

bool IsShardedAdsPath(const std::string& path) {
  std::error_code ec;
  std::string manifest_path = path;
  if (std::filesystem::is_directory(path, ec)) {
    manifest_path = JoinPath(path, kShardManifestName);
  }
  std::ifstream f(manifest_path, std::ios::binary);
  std::string line;
  return f && std::getline(f, line) && line == kManifestMagic;
}

std::vector<NodeId> BalancedShardSplits(const FlatAdsSet& set,
                                        uint32_t num_shards) {
  uint64_t n = set.num_nodes();
  if (num_shards == 0) num_shards = 1;
  if (num_shards > n) num_shards = n == 0 ? 1 : static_cast<uint32_t>(n);
  std::vector<NodeId> begins{0};
  // Greedy walk over the CSR offsets: cut whenever the running shard holds
  // its proportional share of the remaining entries. Every shard gets at
  // least one node, so there are never empty shards.
  uint64_t total = set.TotalEntries();
  uint64_t done_entries = 0;
  for (uint32_t s = 1; s < num_shards; ++s) {
    uint64_t remaining_shards = num_shards - s + 1;
    uint64_t target =
        done_entries + (total - done_entries) / remaining_shards;
    NodeId v = begins.back();
    // Advance at least one node, then until the shard reaches its target
    // share — but leave enough nodes for the remaining shards.
    NodeId max_begin = static_cast<NodeId>(n - (num_shards - s));
    NodeId cut = v + 1;
    while (cut < max_begin && set.offsets[cut] < target) ++cut;
    begins.push_back(cut);
    done_entries = set.offsets[cut];
  }
  return begins;
}

Status WriteShardedAdsSet(const FlatAdsSet& set, const std::string& dir,
                          const std::vector<NodeId>& split_begins) {
  uint64_t n = set.num_nodes();
  if (split_begins.empty() || split_begins.front() != 0) {
    return Status::InvalidArgument("split_begins must start at node 0");
  }
  for (size_t s = 1; s < split_begins.size(); ++s) {
    if (split_begins[s] <= split_begins[s - 1] || split_begins[s] > n) {
      return Status::InvalidArgument(
          "split_begins must be strictly increasing and within the node "
          "range");
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create shard directory " + dir + ": " +
                           ec.message());
  }

  std::vector<ShardInfo> shards;
  for (size_t s = 0; s < split_begins.size(); ++s) {
    ShardInfo info;
    info.begin = split_begins[s];
    info.end = s + 1 < split_begins.size()
                   ? split_begins[s + 1]
                   : static_cast<NodeId>(n);
    info.file = ShardFileName(static_cast<uint32_t>(s));

    FlatAdsSet slice;
    slice.flavor = set.flavor;
    slice.k = set.k;
    slice.ranks = set.ranks;
    uint64_t base = set.offsets[info.begin];
    slice.offsets.reserve(info.end - info.begin + 1);
    for (NodeId v = info.begin; v < info.end; ++v) {
      slice.offsets.push_back(set.offsets[v + 1] - base);
    }
    slice.entries.assign(
        set.entries.begin() + static_cast<int64_t>(base),
        set.entries.begin() + static_cast<int64_t>(set.offsets[info.end]));
    if (set.has_hip()) {
      // Slice the aligned HIP arrays along with the entry arena, so every
      // shard file carries its nodes' section (entries and weights use the
      // same CSR offsets).
      slice.hip_tau.assign(
          set.hip_tau.begin() + static_cast<int64_t>(base),
          set.hip_tau.begin() + static_cast<int64_t>(set.offsets[info.end]));
      slice.hip_weight.assign(
          set.hip_weight.begin() + static_cast<int64_t>(base),
          set.hip_weight.begin() +
              static_cast<int64_t>(set.offsets[info.end]));
    }
    info.num_entries = slice.entries.size();

    Status st = WriteAdsSetFile(slice, JoinPath(dir, info.file),
                                AdsFileFormat::kBinaryV2);
    if (!st.ok()) return st;
    shards.push_back(std::move(info));
  }

  // Manifest last: its presence marks the directory complete.
  std::ostringstream os;
  os << kManifestMagic << '\n'
     << SerializeAdsParams(set.flavor, set.k, set.ranks, n);
  os << "shards " << shards.size() << '\n';
  for (const ShardInfo& info : shards) {
    os << "shard " << info.begin << ' ' << info.end << ' '
       << info.num_entries << ' ' << info.file << '\n';
  }
  return WriteFileAtomically(JoinPath(dir, kShardManifestName), os.str());
}

Status WriteShardedAdsSet(const FlatAdsSet& set, const std::string& dir,
                          uint32_t num_shards) {
  return WriteShardedAdsSet(set, dir, BalancedShardSplits(set, num_shards));
}

StatusOr<ShardedAdsSet> ShardedAdsSet::Open(
    const std::string& path, const std::function<double(uint64_t)>& beta) {
  std::string manifest_path = path;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    manifest_path = JoinPath(path, kShardManifestName);
  }
  std::ifstream f(manifest_path, std::ios::binary);
  if (!f) return Status::IOError("cannot open " + manifest_path);

  std::string line;
  if (!std::getline(f, line) || line != kManifestMagic) {
    return Status::Corruption("missing hipads-shards-v1 manifest header");
  }
  ShardedAdsSet set;
  Status st = ParseAdsParams(f, beta, &set.flavor_, &set.k_, &set.ranks_,
                             &set.num_nodes_);
  if (!st.ok()) return st;

  std::string word;
  uint64_t num_shards = 0;
  if (!(f >> word >> num_shards) || word != "shards" || num_shards == 0) {
    return Status::Corruption("bad shards line in manifest");
  }
  NodeId expect_begin = 0;
  for (uint64_t s = 0; s < num_shards; ++s) {
    ShardInfo info;
    uint64_t begin, end;
    if (!(f >> word >> begin >> end >> info.num_entries >> info.file) ||
        word != "shard") {
      return Status::Corruption("bad shard line " + std::to_string(s));
    }
    if (begin != expect_begin || end < begin || end > set.num_nodes_) {
      return Status::Corruption(
          "shard ranges must tile [0, nodes) in order; bad range at shard " +
          std::to_string(s));
    }
    info.begin = static_cast<NodeId>(begin);
    info.end = static_cast<NodeId>(end);
    expect_begin = info.end;
    set.shards_.push_back(std::move(info));
  }
  if (expect_begin != set.num_nodes_) {
    return Status::Corruption("shard ranges do not cover all nodes");
  }
  if (f >> word) {
    return Status::Corruption("trailing garbage after shard table");
  }

  // Map every shard now: a bad file fails the open, never a later read.
  const std::string dir =
      std::filesystem::path(manifest_path).parent_path().string();
  set.arenas_.reserve(set.shards_.size());
  for (const ShardInfo& info : set.shards_) {
    auto opened = MmapAdsSet::Open(JoinPath(dir, info.file), beta);
    if (!opened.ok()) return ShardOpenError(info, opened.status());
    const MmapAdsSet& arena = opened.value();
    if (arena.flavor() != set.flavor_ || arena.k() != set.k_ ||
        arena.ranks().kind() != set.ranks_.kind() ||
        arena.ranks().seed() != set.ranks_.seed() ||
        arena.ranks().base() != set.ranks_.base() ||
        arena.num_nodes() != info.end - info.begin ||
        arena.TotalEntries() != info.num_entries) {
      return Status::Corruption("shard " + info.file +
                                " does not match its manifest entry");
    }
    set.arenas_.push_back(std::move(opened).value());
  }
  return set;
}

uint64_t ShardedAdsSet::TotalEntries() const {
  uint64_t total = 0;
  for (const ShardInfo& info : shards_) total += info.num_entries;
  return total;
}

uint32_t ShardedAdsSet::ShardOf(NodeId v) const {
  // Binary search over the range table: first shard with end > v.
  auto it = std::upper_bound(
      shards_.begin(), shards_.end(), v,
      [](NodeId node, const ShardInfo& info) { return node < info.end; });
  return static_cast<uint32_t>(it - shards_.begin());
}

bool ShardedAdsSet::HipResident() const {
  return !arenas_.empty() &&
         std::all_of(arenas_.begin(), arenas_.end(),
                     [](const MmapAdsSet& a) { return a.HipResident(); });
}

StatusOr<AdsArenaView> ShardedAdsSet::Range(uint32_t r) const {
  if (r >= shards_.size()) {
    return Status::InvalidArgument("shard range " + std::to_string(r) +
                                   " out of bounds");
  }
  auto view = arenas_[r].Range(0);
  if (!view.ok()) return view.status();
  AdsArenaView out = view.value();
  out.begin = shards_[r].begin;
  out.end = shards_[r].end;
  return out;
}

StatusOr<AdsView> ShardedAdsSet::ViewOf(NodeId v) const {
  if (v >= num_nodes_) {
    return Status::InvalidArgument("node " + std::to_string(v) +
                                   " out of range");
  }
  uint32_t s = ShardOf(v);
  return arenas_[s].ViewOf(v - shards_[s].begin);
}

StatusOr<HipView> ShardedAdsSet::HipOf(NodeId v) const {
  if (v >= num_nodes_) {
    return Status::InvalidArgument("node " + std::to_string(v) +
                                   " out of range");
  }
  uint32_t s = ShardOf(v);
  return arenas_[s].HipOf(v - shards_[s].begin);
}

}  // namespace hipads

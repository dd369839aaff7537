#include "ads/flat_ads.h"

namespace hipads {

FlatAdsSet FlatAdsSet::FromAdsSet(const AdsSet& set) {
  FlatAdsSet flat;
  flat.flavor = set.flavor;
  flat.k = set.k;
  flat.ranks = set.ranks;
  flat.offsets.reserve(set.ads.size() + 1);
  flat.entries.reserve(set.TotalEntries());
  for (const Ads& ads : set.ads) {
    flat.entries.insert(flat.entries.end(), ads.entries().begin(),
                        ads.entries().end());
    flat.offsets.push_back(flat.entries.size());
  }
  return flat;
}

AdsSet FlatAdsSet::ToAdsSet() const {
  AdsSet set;
  set.flavor = flavor;
  set.k = k;
  set.ranks = ranks;
  set.ads.reserve(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    auto span = of(v).entries();
    set.ads.emplace_back(
        std::vector<AdsEntry>(span.begin(), span.end()));
  }
  return set;
}

}  // namespace hipads

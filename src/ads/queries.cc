#include "ads/queries.h"

namespace hipads {

namespace {

// Every whole-graph query below is a thin single-collector SweepPlan over
// the fused sweep executor (ads/sweep.h) — the executor owns the one
// sweep implementation in the codebase (blocking, threading, range
// order), and these helpers collapse the former
// AdsSet/FlatAdsSet/AdsBackend overload triplication into one body each.
// Callers wanting several statistics from one pass should build their own
// SweepPlan instead of calling several of these.

template <typename SetT>
std::vector<double> PerNodeQuery(
    const SetT& set, uint32_t num_threads,
    std::function<double(const HipEstimator&)> fn) {
  SweepPlan plan;
  PerNodeCollector* c = plan.Emplace<PerNodeCollector>(std::move(fn));
  RunSweep(set, plan, num_threads);
  return c->TakeValues();
}

StatusOr<std::vector<double>> PerNodeQuery(
    const AdsBackend& set, uint32_t num_threads,
    std::function<double(const HipEstimator&)> fn) {
  SweepPlan plan;
  PerNodeCollector* c = plan.Emplace<PerNodeCollector>(std::move(fn));
  Status status = RunSweep(set, plan, num_threads);
  if (!status.ok()) return status;
  return c->TakeValues();
}

// One histogram sweep; the caller reads whichever derived statistic it
// wants off the collector.
template <typename SetT>
DistanceHistogramCollector HistogramSweep(const SetT& set,
                                          uint32_t num_threads) {
  DistanceHistogramCollector hist;
  SweepPlan plan;
  plan.Add(&hist);
  RunSweep(set, plan, num_threads);
  return hist;
}

StatusOr<DistanceHistogramCollector> HistogramSweep(const AdsBackend& set,
                                                    uint32_t num_threads) {
  DistanceHistogramCollector hist;
  SweepPlan plan;
  plan.Add(&hist);
  Status status = RunSweep(set, plan, num_threads);
  if (!status.ok()) return status;
  return hist;
}

}  // namespace

std::map<double, double> EstimateDistanceDistribution(const AdsSet& set,
                                                      uint32_t num_threads) {
  return HistogramSweep(set, num_threads).Distribution();
}

std::map<double, double> EstimateDistanceDistribution(const FlatAdsSet& set,
                                                      uint32_t num_threads) {
  return HistogramSweep(set, num_threads).Distribution();
}

StatusOr<std::map<double, double>> EstimateDistanceDistribution(
    const AdsBackend& set, uint32_t num_threads) {
  auto hist = HistogramSweep(set, num_threads);
  if (!hist.ok()) return hist.status();
  return hist.value().Distribution();
}

std::map<double, double> EstimateNeighborhoodFunction(const AdsSet& set,
                                                      uint32_t num_threads) {
  return HistogramSweep(set, num_threads).NeighborhoodFunction();
}

std::map<double, double> EstimateNeighborhoodFunction(const FlatAdsSet& set,
                                                      uint32_t num_threads) {
  return HistogramSweep(set, num_threads).NeighborhoodFunction();
}

StatusOr<std::map<double, double>> EstimateNeighborhoodFunction(
    const AdsBackend& set, uint32_t num_threads) {
  auto hist = HistogramSweep(set, num_threads);
  if (!hist.ok()) return hist.status();
  return hist.value().NeighborhoodFunction();
}

std::vector<double> EstimateClosenessAll(
    const AdsSet& set, const std::function<double(double)>& alpha,
    const std::function<double(NodeId)>& beta, uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [&](const HipEstimator& est) {
    return est.Closeness(alpha, beta);
  });
}

std::vector<double> EstimateClosenessAll(
    const FlatAdsSet& set, const std::function<double(double)>& alpha,
    const std::function<double(NodeId)>& beta, uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [&](const HipEstimator& est) {
    return est.Closeness(alpha, beta);
  });
}

StatusOr<std::vector<double>> EstimateClosenessAll(
    const AdsBackend& set, const std::function<double(double)>& alpha,
    const std::function<double(NodeId)>& beta, uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [&](const HipEstimator& est) {
    return est.Closeness(alpha, beta);
  });
}

std::vector<double> EstimateDistanceSumAll(const AdsSet& set,
                                           uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [](const HipEstimator& est) {
    return est.DistanceSum();
  });
}

std::vector<double> EstimateDistanceSumAll(const FlatAdsSet& set,
                                           uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [](const HipEstimator& est) {
    return est.DistanceSum();
  });
}

StatusOr<std::vector<double>> EstimateDistanceSumAll(const AdsBackend& set,
                                                     uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [](const HipEstimator& est) {
    return est.DistanceSum();
  });
}

std::vector<double> EstimateHarmonicCentralityAll(const AdsSet& set,
                                                  uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [](const HipEstimator& est) {
    return est.HarmonicCentrality();
  });
}

std::vector<double> EstimateHarmonicCentralityAll(const FlatAdsSet& set,
                                                  uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [](const HipEstimator& est) {
    return est.HarmonicCentrality();
  });
}

StatusOr<std::vector<double>> EstimateHarmonicCentralityAll(
    const AdsBackend& set, uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [](const HipEstimator& est) {
    return est.HarmonicCentrality();
  });
}

std::vector<double> EstimateNeighborhoodSizeAll(const AdsSet& set, double d,
                                                uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [d](const HipEstimator& est) {
    return est.NeighborhoodCardinality(d);
  });
}

std::vector<double> EstimateNeighborhoodSizeAll(const FlatAdsSet& set,
                                                double d,
                                                uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [d](const HipEstimator& est) {
    return est.NeighborhoodCardinality(d);
  });
}

StatusOr<std::vector<double>> EstimateNeighborhoodSizeAll(
    const AdsBackend& set, double d, uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [d](const HipEstimator& est) {
    return est.NeighborhoodCardinality(d);
  });
}

std::vector<double> EstimateReachableCountAll(const AdsSet& set,
                                              uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [](const HipEstimator& est) {
    return est.ReachableCount();
  });
}

std::vector<double> EstimateReachableCountAll(const FlatAdsSet& set,
                                              uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [](const HipEstimator& est) {
    return est.ReachableCount();
  });
}

StatusOr<std::vector<double>> EstimateReachableCountAll(
    const AdsBackend& set, uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [](const HipEstimator& est) {
    return est.ReachableCount();
  });
}

double EstimateEffectiveDiameter(const AdsSet& set, double quantile) {
  return HistogramSweep(set, 0).EffectiveDiameter(quantile);
}

double EstimateEffectiveDiameter(const FlatAdsSet& set, double quantile) {
  return HistogramSweep(set, 0).EffectiveDiameter(quantile);
}

StatusOr<double> EstimateEffectiveDiameter(const AdsBackend& set,
                                           double quantile) {
  auto hist = HistogramSweep(set, 0);
  if (!hist.ok()) return hist.status();
  return hist.value().EffectiveDiameter(quantile);
}

double EstimateMeanDistance(const AdsSet& set) {
  return HistogramSweep(set, 0).MeanDistance();
}

double EstimateMeanDistance(const FlatAdsSet& set) {
  return HistogramSweep(set, 0).MeanDistance();
}

StatusOr<double> EstimateMeanDistance(const AdsBackend& set) {
  auto hist = HistogramSweep(set, 0);
  if (!hist.ok()) return hist.status();
  return hist.value().MeanDistance();
}

}  // namespace hipads

// Bit-identity properties of the DensitySubstrate refactor: LOF through
// the substrate must produce the exact same bits on every thread count,
// on both substrate routes (materialized and re-query), in both neighbor
// modes, and across the memory-budget degradation path — plus agreement
// with an independent naive O(n^2) reference.

#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/linear_scan_index.h"
#include "lof/density_substrate.h"
#include "lof/lof_computer.h"
#include "lof/lof_sweep.h"
#include "requery_route.h"

namespace lofkit {
namespace {

// Tie-heavy workload: a Gaussian cluster, a pile of exact duplicates (so
// k-distance neighborhoods carry ties and the lrd path hits the infinity
// convention), and one planted outlier.
Dataset MakeTieHeavyDataset() {
  Rng rng(29);
  auto ds = Dataset::Create(2);
  EXPECT_TRUE(ds.ok());
  const double center[2] = {0.0, 0.0};
  EXPECT_TRUE(
      generators::AppendGaussianCluster(*ds, rng, center, 1.0, 70).ok());
  const double pile[2] = {2.5, 2.5};
  EXPECT_TRUE(generators::AppendDuplicates(*ds, pile, 12).ok());
  const double planted[2] = {9.0, -9.0};
  EXPECT_TRUE(generators::AppendPoint(*ds, planted, "planted").ok());
  return std::move(ds).value();
}

using testing_requery::ComputeRequeried;
using testing_requery::RequerySweep;

// Independent naive LOF: full pairwise distances, the Definition-4
// k-distance neighborhood (ties included, (distance, index) order), and
// the lrd/lof sums accumulated in exactly that neighbor order.
struct NaiveLof {
  std::vector<double> k_distance;
  std::vector<double> lrd;
  std::vector<double> lof;
};

NaiveLof NaiveReference(const Dataset& data, const Metric& metric,
                        size_t k) {
  const size_t n = data.size();
  std::vector<std::vector<std::pair<double, uint32_t>>> neighborhoods(n);
  NaiveLof naive;
  naive.k_distance.resize(n);
  naive.lrd.resize(n);
  naive.lof.resize(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::pair<double, uint32_t>> all;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      all.emplace_back(metric.Distance(data.point(i), data.point(j)),
                       static_cast<uint32_t>(j));
    }
    std::sort(all.begin(), all.end());
    const double k_dist = all[k - 1].first;
    naive.k_distance[i] = k_dist;
    for (const auto& entry : all) {
      if (entry.first > k_dist) break;
      neighborhoods[i].push_back(entry);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (const auto& [dist, j] : neighborhoods[i]) {
      sum += std::max(naive.k_distance[j], dist);
    }
    naive.lrd[i] = sum > 0.0
                       ? static_cast<double>(neighborhoods[i].size()) / sum
                       : std::numeric_limits<double>::infinity();
  }
  for (size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (const auto& [dist, j] : neighborhoods[i]) {
      if (std::isinf(naive.lrd[j]) && std::isinf(naive.lrd[i])) {
        sum += 1.0;
      } else {
        sum += naive.lrd[j] / naive.lrd[i];
      }
    }
    naive.lof[i] = sum / static_cast<double>(neighborhoods[i].size());
  }
  return naive;
}

class ScorerSubstrateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_.emplace(MakeTieHeavyDataset());
    ASSERT_TRUE(index_.Build(*data_, Euclidean()).ok());
    auto m = NeighborhoodMaterializer::Materialize(*data_, index_, 15);
    ASSERT_TRUE(m.ok());
    m_.emplace(std::move(m).value());
  }

  std::optional<Dataset> data_;
  LinearScanIndex index_;
  std::optional<NeighborhoodMaterializer> m_;
};

TEST_F(ScorerSubstrateTest, RoutesAndThreadCountsBitIdentical) {
  const size_t min_pts = 10;
  LofComputeOptions baseline_options;
  auto baseline = LofComputer::Compute(*m_, min_pts, baseline_options);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(baseline->has_infinite_lrd);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    LofComputeOptions options;
    options.threads = threads;
    auto materialized = LofComputer::Compute(*m_, min_pts, options);
    auto requery = ComputeRequeried(*data_, index_, min_pts, options);
    ASSERT_TRUE(materialized.ok());
    ASSERT_TRUE(requery.ok());
    for (size_t i = 0; i < data_->size(); ++i) {
      // EXPECT_EQ on doubles is exact comparison: bit-identity, not
      // tolerance.
      EXPECT_EQ(materialized->lof[i], baseline->lof[i])
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(materialized->lrd[i], baseline->lrd[i]);
      EXPECT_EQ(requery->lof[i], baseline->lof[i])
          << "requery threads=" << threads << " i=" << i;
      EXPECT_EQ(requery->lrd[i], baseline->lrd[i]);
    }
    EXPECT_EQ(materialized->has_infinite_lrd, baseline->has_infinite_lrd);
    EXPECT_EQ(requery->has_infinite_lrd, baseline->has_infinite_lrd);
  }
}

TEST_F(ScorerSubstrateTest, SubstrateEntryPointMatchesWrappers) {
  auto materialized_substrate = DensitySubstrate::OverMaterialization(
      *m_, &*data_, &Euclidean());
  auto requery_substrate = DensitySubstrate::OverIndex(*data_, index_);
  ASSERT_TRUE(materialized_substrate.ok());
  ASSERT_TRUE(requery_substrate.ok());
  EXPECT_TRUE(materialized_substrate->materialized());
  EXPECT_FALSE(requery_substrate->materialized());
  EXPECT_TRUE(materialized_substrate->has_coordinates());
  EXPECT_FALSE(requery_substrate->has_coordinates());
  auto wrapper = LofComputer::Compute(*m_, 8);
  auto over_m = LofComputer::ComputeOverSubstrate(*materialized_substrate, 8);
  auto over_index = LofComputer::ComputeOverSubstrate(*requery_substrate, 8);
  ASSERT_TRUE(wrapper.ok());
  ASSERT_TRUE(over_m.ok());
  ASSERT_TRUE(over_index.ok());
  for (size_t i = 0; i < data_->size(); ++i) {
    EXPECT_EQ(over_m->lof[i], wrapper->lof[i]);
    EXPECT_EQ(over_index->lof[i], wrapper->lof[i]);
  }
}

TEST_F(ScorerSubstrateTest, MatchesNaiveReference) {
  const size_t min_pts = 7;
  const NaiveLof naive = NaiveReference(*data_, Euclidean(), min_pts);
  auto scores = LofComputer::Compute(*m_, min_pts);
  ASSERT_TRUE(scores.ok());
  for (size_t i = 0; i < data_->size(); ++i) {
    EXPECT_DOUBLE_EQ(scores->lrd[i], naive.lrd[i]) << "i=" << i;
    EXPECT_DOUBLE_EQ(scores->lof[i], naive.lof[i]) << "i=" << i;
  }
}

TEST_F(ScorerSubstrateTest, DistinctModeBitIdenticalAcrossThreads) {
  auto distinct =
      NeighborhoodMaterializer::Materialize(*data_, index_, 8,
                                            /*distinct_neighbors=*/true);
  ASSERT_TRUE(distinct.ok());
  auto baseline = LofComputer::Compute(*distinct, 8);
  ASSERT_TRUE(baseline.ok());
  // Distinct-distance counting defuses the duplicate pile: no infinities.
  EXPECT_FALSE(baseline->has_infinite_lrd);
  for (size_t threads : {size_t{2}, size_t{7}}) {
    LofComputeOptions options;
    options.threads = threads;
    auto scores = LofComputer::Compute(*distinct, 8, options);
    ASSERT_TRUE(scores.ok());
    for (size_t i = 0; i < data_->size(); ++i) {
      EXPECT_EQ(scores->lof[i], baseline->lof[i]);
    }
  }
}

TEST_F(ScorerSubstrateTest, BudgetDegradationBitIdentical) {
  LofComputeOptions options;
  options.threads = 3;
  auto full = LofComputer::ComputeFromScratch(*data_, Euclidean(), 10,
                                              IndexKind::kLinearScan,
                                              /*distinct_neighbors=*/false,
                                              options);
  options.memory_budget_bytes = 1;  // forces the re-query route
  auto degraded = LofComputer::ComputeFromScratch(*data_, Euclidean(), 10,
                                                  IndexKind::kLinearScan,
                                                  false, options);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(degraded.ok());
  EXPECT_FALSE(full->degraded_to_requery);
  EXPECT_TRUE(degraded->degraded_to_requery);
  for (size_t i = 0; i < data_->size(); ++i) {
    EXPECT_EQ(degraded->lof[i], full->lof[i]);
  }
}

TEST_F(ScorerSubstrateTest, SweepRoutesAndThreadCountsBitIdentical) {
  auto baseline = LofSweep::Run(*m_, 5, 12);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {size_t{2}, size_t{7}}) {
    auto sweep = LofSweep::Run(*m_, 5, 12, LofAggregation::kMax,
                               /*keep_per_min_pts=*/false, threads);
    auto requery = RequerySweep(*data_, index_, 5, 12, threads);
    ASSERT_TRUE(sweep.ok());
    ASSERT_TRUE(requery.ok());
    EXPECT_TRUE(requery->degraded_to_requery);
    for (size_t i = 0; i < data_->size(); ++i) {
      EXPECT_EQ(sweep->aggregated[i], baseline->aggregated[i]);
      EXPECT_EQ(requery->aggregated[i], baseline->aggregated[i]);
    }
  }
}

TEST_F(ScorerSubstrateTest, ValidateMinPtsKeepsHistoricalErrors) {
  auto materialized = DensitySubstrate::OverMaterialization(*m_);
  auto requery = DensitySubstrate::OverIndex(*data_, index_);
  ASSERT_TRUE(materialized.ok());
  ASSERT_TRUE(requery.ok());
  EXPECT_EQ(materialized->ValidateMinPts(0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(materialized->ValidateMinPts(16).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(materialized->ValidateMinPts(15).ok());
  EXPECT_EQ(requery->ValidateMinPts(0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(requery->ValidateMinPts(data_->size()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(requery->ValidateMinPts(data_->size() - 1).ok());
  // Mismatched dataset/materializer sizes are rejected at construction.
  auto tiny = Dataset::Create(2);
  ASSERT_TRUE(tiny.ok());
  const double p[2] = {0.0, 0.0};
  ASSERT_TRUE(generators::AppendPoint(*tiny, p).ok());
  EXPECT_EQ(DensitySubstrate::OverMaterialization(*m_, &*tiny, &Euclidean())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ScorerSubstrateTest, RequeryStatsFoldDeterministically) {
  const size_t n = data_->size();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    QueryStats stats;
    LofComputeOptions options;
    options.threads = threads;
    options.observer.query_stats = &stats;
    auto scores = ComputeRequeried(*data_, index_, 9, options);
    ASSERT_TRUE(scores.ok());
    // Three scans (k-distance, lrd, lof), one query per point each.
    EXPECT_EQ(stats.queries, 3 * n) << "threads=" << threads;
  }
  // The materialized route runs no queries at all.
  QueryStats stats;
  LofComputeOptions options;
  options.observer.query_stats = &stats;
  ASSERT_TRUE(LofComputer::Compute(*m_, 9, options).ok());
  EXPECT_EQ(stats.queries, 0u);
}

}  // namespace
}  // namespace lofkit

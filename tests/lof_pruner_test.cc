#include "lof/lof_pruner.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/fail_point.h"
#include "common/random.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/linear_scan_index.h"
#include "lof/lof_computer.h"
#include "lof/lof_sweep.h"

namespace lofkit {
namespace {

struct Pipeline {
  Dataset data;
  LinearScanIndex index;
  std::optional<NeighborhoodMaterializer> m;
};

std::unique_ptr<Pipeline> MakePipeline(Dataset data, size_t k_max) {
  auto pipeline = std::make_unique<Pipeline>(Pipeline{std::move(data), {}, {}});
  EXPECT_TRUE(pipeline->index.Build(pipeline->data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(pipeline->data,
                                                 pipeline->index, k_max);
  EXPECT_TRUE(m.ok());
  pipeline->m.emplace(std::move(m).value());
  return pipeline;
}

// Mixed-density clusters, a handful of pronounced outliers, and — the part
// the bound fallbacks get wrong when unsafe — a pile of exact duplicates.
Dataset MixedWorkload(Rng& rng, bool with_duplicates) {
  auto ds = Dataset::Create(2);
  EXPECT_TRUE(ds.ok());
  const double c1[2] = {0, 0};
  const double c2[2] = {30, 0};
  EXPECT_TRUE(
      generators::AppendGaussianCluster(*ds, rng, c1, 1.0, 120, "c1").ok());
  EXPECT_TRUE(
      generators::AppendGaussianCluster(*ds, rng, c2, 3.0, 120, "c2").ok());
  const double far1[2] = {15, 20};
  const double far2[2] = {-12, -15};
  EXPECT_TRUE(ds->Append(far1, "outlier").ok());
  EXPECT_TRUE(ds->Append(far2, "outlier").ok());
  if (with_duplicates) {
    const double pile[2] = {15, -10};
    for (int copy = 0; copy < 10; ++copy) {
      EXPECT_TRUE(ds->Append(pile, "dup").ok());
    }
  }
  return std::move(ds).value();
}

TEST(LofPrunerTest, BoundsMatchReferenceTheorem1Bitwise) {
  Rng rng(41);
  auto pipeline = MakePipeline(MixedWorkload(rng, /*with_duplicates=*/true), 8);
  for (size_t min_pts : {1u, 4u, 8u}) {
    auto fast = LofPruner::ComputeBounds(*pipeline->m, min_pts);
    ASSERT_TRUE(fast.ok()) << fast.status().message();
    for (size_t i = 0; i < pipeline->data.size(); ++i) {
      auto stats = ComputeNeighborhoodStats(*pipeline->m, i, min_pts);
      ASSERT_TRUE(stats.ok());
      const LofBoundEstimate reference = Theorem1Bounds(*stats);
      // Bit-equality, not approximate: the pruner folds the same extremes
      // through the same CombineGroupBounds arithmetic.
      EXPECT_EQ((*fast)[i].lower, reference.lower)
          << "min_pts " << min_pts << " point " << i;
      EXPECT_EQ((*fast)[i].upper, reference.upper)
          << "min_pts " << min_pts << " point " << i;
    }
  }
}

TEST(LofPrunerTest, PartitionedBoundsMatchReferenceTheorem2Bitwise) {
  Rng rng(42);
  Dataset data = MixedWorkload(rng, /*with_duplicates=*/true);
  std::vector<int> partition(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    partition[i] = data.label(i) == "c1"   ? 0
                   : data.label(i) == "c2" ? 1
                   : data.label(i) == "dup" ? 2
                                            : 3;
  }
  auto pipeline = MakePipeline(std::move(data), 8);
  const size_t min_pts = 6;
  LofPrunerOptions options;
  options.partition = partition;
  auto fast = LofPruner::ComputeBounds(*pipeline->m, min_pts, options);
  ASSERT_TRUE(fast.ok());
  for (size_t i = 0; i < pipeline->data.size(); ++i) {
    auto reference = Theorem2Bounds(*pipeline->m, i, min_pts, partition);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ((*fast)[i].lower, reference->lower) << "point " << i;
    EXPECT_EQ((*fast)[i].upper, reference->upper) << "point " << i;
  }
}

TEST(LofPrunerTest, BoundsBracketExactLofOnRandomizedData) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    Rng rng(seed);
    auto pipeline =
        MakePipeline(MixedWorkload(rng, /*with_duplicates=*/true), 8);
    for (size_t min_pts : {2u, 5u, 8u}) {
      auto bounds = LofPruner::ComputeBounds(*pipeline->m, min_pts);
      auto scores = LofComputer::Compute(*pipeline->m, min_pts);
      ASSERT_TRUE(bounds.ok() && scores.ok());
      for (size_t i = 0; i < pipeline->data.size(); ++i) {
        EXPECT_FALSE(std::isnan((*bounds)[i].lower)) << i;
        EXPECT_FALSE(std::isnan((*bounds)[i].upper)) << i;
        EXPECT_LE((*bounds)[i].lower, scores->lof[i])
            << "seed " << seed << " min_pts " << min_pts << " point " << i;
        EXPECT_GE((*bounds)[i].upper, scores->lof[i])
            << "seed " << seed << " min_pts " << min_pts << " point " << i;
      }
    }
  }
}

TEST(LofPrunerTest, BoundsAreBitIdenticalAcrossThreadCounts) {
  Rng rng(43);
  auto pipeline = MakePipeline(MixedWorkload(rng, /*with_duplicates=*/true), 8);
  auto serial = LofPruner::ComputeBounds(*pipeline->m, 6);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 7u}) {
    LofPrunerOptions options;
    options.threads = threads;
    auto parallel = LofPruner::ComputeBounds(*pipeline->m, 6, options);
    ASSERT_TRUE(parallel.ok());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*serial)[i].lower, (*parallel)[i].lower) << i;
      EXPECT_EQ((*serial)[i].upper, (*parallel)[i].upper) << i;
    }
  }
}

TEST(LofPrunerTest, RangeBoundsBracketEveryStep) {
  Rng rng(44);
  auto pipeline = MakePipeline(MixedWorkload(rng, /*with_duplicates=*/true), 8);
  const size_t lb = 2, ub = 8;
  auto range = LofPruner::ComputeRangeBounds(*pipeline->m, lb, ub);
  ASSERT_TRUE(range.ok()) << range.status().message();
  for (size_t min_pts = lb; min_pts <= ub; ++min_pts) {
    auto scores = LofComputer::Compute(*pipeline->m, min_pts);
    ASSERT_TRUE(scores.ok());
    for (size_t i = 0; i < pipeline->data.size(); ++i) {
      EXPECT_FALSE(std::isnan((*range)[i].lower)) << i;
      EXPECT_FALSE(std::isnan((*range)[i].upper)) << i;
      EXPECT_LE((*range)[i].lower, scores->lof[i])
          << "min_pts " << min_pts << " point " << i;
      EXPECT_GE((*range)[i].upper, scores->lof[i])
          << "min_pts " << min_pts << " point " << i;
    }
  }
}

TEST(LofPrunerTest, DegenerateRangeEqualsPerStepBoundsOutsideDuplicates) {
  // With lb == ub the range reach-dists collapse to the exact ones, so the
  // non-degenerate bounds must agree bitwise with the per-step routine.
  Rng rng(45);
  auto pipeline = MakePipeline(MixedWorkload(rng, /*with_duplicates=*/true), 8);
  const size_t min_pts = 6;
  auto range = LofPruner::ComputeRangeBounds(*pipeline->m, min_pts, min_pts);
  auto step = LofPruner::ComputeBounds(*pipeline->m, min_pts);
  ASSERT_TRUE(range.ok() && step.ok());
  for (size_t i = 0; i < pipeline->data.size(); ++i) {
    if (std::isinf((*step)[i].lower)) {
      // The all-zero-indirect degeneration: the per-step routine can prove
      // +inf from exact extremes; the range routine deliberately reports
      // the conservative 1 (LOF can be 1 at one step and +inf at another).
      EXPECT_DOUBLE_EQ((*range)[i].lower, 1.0) << i;
      continue;
    }
    EXPECT_EQ((*range)[i].lower, (*step)[i].lower) << i;
    EXPECT_EQ((*range)[i].upper, (*step)[i].upper) << i;
  }
}

TEST(LofPrunerTest, RangeBoundsRejectPartitionsAndBadRanges) {
  Rng rng(46);
  auto pipeline =
      MakePipeline(MixedWorkload(rng, /*with_duplicates=*/false), 8);
  const std::vector<int> partition(pipeline->data.size(), 0);
  LofPrunerOptions options;
  options.partition = partition;
  EXPECT_EQ(
      LofPruner::ComputeRangeBounds(*pipeline->m, 2, 8, options).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(LofPruner::ComputeRangeBounds(*pipeline->m, 0, 8).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(LofPruner::ComputeRangeBounds(*pipeline->m, 5, 2).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(LofPruner::ComputeRangeBounds(*pipeline->m, 2, 9).status().code(),
            StatusCode::kOutOfRange);
}

TEST(LofPrunerTest, Lemma1CertificatesStayValidAndNeverLoosen) {
  // For a deep point, every reach-dist entering the Theorem-1 extremes is
  // a cluster-pair reach-dist, so the per-point theorem bounds always lie
  // inside Lemma 1's [1/(1+eps), 1+eps] — the lemma certifies, it cannot
  // tighten bounds that were computed per point (it beats only the
  // paper's cheaper cluster-level bounds). Intersecting must therefore
  // change nothing, and the result must still bracket the exact LOF.
  Rng rng(47);
  Dataset data = MixedWorkload(rng, /*with_duplicates=*/false);
  std::vector<int> partition(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    partition[i] = data.label(i) == "c1" ? 0 : (data.label(i) == "c2" ? 1 : 2);
  }
  auto pipeline = MakePipeline(std::move(data), 8);
  const size_t min_pts = 6;
  LofPrunerOptions options;
  options.partition = partition;
  auto bounds = LofPruner::ComputeBounds(*pipeline->m, min_pts, options);
  ASSERT_TRUE(bounds.ok());
  const std::vector<LofBoundEstimate> before = *bounds;
  auto tightened = LofPruner::TightenWithLemma1(
      pipeline->data, Euclidean(), *pipeline->m, min_pts, partition, *bounds);
  ASSERT_TRUE(tightened.ok()) << tightened.status().message();
  EXPECT_EQ(*tightened, 0u);
  auto scores = LofComputer::Compute(*pipeline->m, min_pts);
  ASSERT_TRUE(scores.ok());
  for (size_t i = 0; i < pipeline->data.size(); ++i) {
    EXPECT_EQ((*bounds)[i].lower, before[i].lower) << i;
    EXPECT_EQ((*bounds)[i].upper, before[i].upper) << i;
    EXPECT_LE((*bounds)[i].lower, scores->lof[i]) << i;
    EXPECT_GE((*bounds)[i].upper, scores->lof[i]) << i;
  }
}

TEST(LofPrunerTest, SelectTopNEdgeCases) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<LofBoundEstimate> bounds = {
      {3.0, 5.0},   // strong outlier candidate
      {0.5, 0.9},   // prunable once the threshold passes 0.9
      {1.0, 4.0},   // wide bounds, must survive
      {kNaN, kNaN}, // no evidence either way: never raises the threshold,
                    // never pruned
      {2.0, 2.5},
  };

  // top_n == 0 and top_n >= n: nothing can be discarded.
  for (size_t top_n : {0u, 5u, 9u}) {
    const auto all = LofPruner::SelectTopN(bounds, top_n);
    EXPECT_EQ(all.survivors.size(), bounds.size()) << top_n;
    EXPECT_EQ(all.threshold, -kInf) << top_n;
  }

  // top_n == 2: threshold = 2nd largest lower = 2.0; only upper < 2.0 is
  // discarded (index 1). The NaN row survives.
  const auto selection = LofPruner::SelectTopN(bounds, 2);
  EXPECT_DOUBLE_EQ(selection.threshold, 2.0);
  EXPECT_EQ(selection.survivors,
            (std::vector<uint32_t>{0, 2, 3, 4}));
  EXPECT_TRUE(std::is_sorted(selection.survivors.begin(),
                             selection.survivors.end()));

  // Upper exactly at the threshold is kept: pruning needs strict evidence.
  const std::vector<LofBoundEstimate> tie = {{2.0, 5.0}, {1.0, 3.0},
                                             {0.1, 1.0}};
  const auto tied = LofPruner::SelectTopN(tie, 2);
  EXPECT_DOUBLE_EQ(tied.threshold, 1.0);
  EXPECT_EQ(tied.survivors, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(LofPrunerTest, CancellationAndFailPointsPropagate) {
  Rng rng(48);
  auto pipeline =
      MakePipeline(MixedWorkload(rng, /*with_duplicates=*/false), 8);

  StopSource source;
  source.RequestStop();
  LofPrunerOptions cancelled;
  cancelled.stop = source.token();
  EXPECT_EQ(
      LofPruner::ComputeBounds(*pipeline->m, 6, cancelled).status().code(),
      StatusCode::kCancelled);
  EXPECT_EQ(LofPruner::ComputeRangeBounds(*pipeline->m, 2, 8, cancelled)
                .status()
                .code(),
            StatusCode::kCancelled);

  FailPoints::Arm("pruner.bounds", Status::IoError("injected"));
  EXPECT_EQ(LofPruner::ComputeBounds(*pipeline->m, 6).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(LofPruner::ComputeRangeBounds(*pipeline->m, 2, 8).status().code(),
            StatusCode::kIoError);
  FailPoints::DisarmAll();
}

TEST(LofComputerTest, ComputeForCandidatesMatchesFullComputeBitwise) {
  Rng rng(49);
  auto pipeline = MakePipeline(MixedWorkload(rng, /*with_duplicates=*/true), 8);
  const size_t min_pts = 6;
  const std::vector<uint32_t> candidates = {0, 7, 119, 120, 240,
                                            static_cast<uint32_t>(
                                                pipeline->data.size() - 1)};
  auto full = LofComputer::Compute(*pipeline->m, min_pts);
  ASSERT_TRUE(full.ok());
  for (size_t threads : {1u, 2u, 7u}) {
    LofComputeOptions options;
    options.threads = threads;
    auto sparse = LofComputer::ComputeForCandidates(*pipeline->m, min_pts,
                                                    candidates, options);
    ASSERT_TRUE(sparse.ok()) << sparse.status().message();
    size_t next = 0;
    for (size_t i = 0; i < pipeline->data.size(); ++i) {
      if (next < candidates.size() && candidates[next] == i) {
        EXPECT_EQ(sparse->lof[i], full->lof[i]) << "point " << i;
        EXPECT_EQ(sparse->lrd[i], full->lrd[i]) << "point " << i;
        ++next;
      } else {
        EXPECT_TRUE(std::isnan(sparse->lof[i])) << "point " << i;
      }
    }
  }
}

TEST(LofComputerTest, ComputeForCandidatesValidatesItsInput) {
  Rng rng(50);
  auto pipeline =
      MakePipeline(MixedWorkload(rng, /*with_duplicates=*/false), 8);
  const std::vector<uint32_t> out_of_range = {
      0, static_cast<uint32_t>(pipeline->data.size())};
  EXPECT_EQ(LofComputer::ComputeForCandidates(*pipeline->m, 6, out_of_range)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  const std::vector<uint32_t> unsorted = {5, 3};
  EXPECT_EQ(LofComputer::ComputeForCandidates(*pipeline->m, 6, unsorted)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const std::vector<uint32_t> repeated = {3, 3};
  EXPECT_EQ(LofComputer::ComputeForCandidates(*pipeline->m, 6, repeated)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(RunPrunedTest, RunPrunedPreservesTheExactTopN) {
  Rng rng(51);
  auto pipeline = MakePipeline(MixedWorkload(rng, /*with_duplicates=*/true), 8);
  const size_t lb = 2, ub = 8, top_n = 5;
  for (LofAggregation aggregation :
       {LofAggregation::kMax, LofAggregation::kMin, LofAggregation::kMean}) {
    auto full = LofSweep::Run(*pipeline->m, lb, ub, aggregation);
    ASSERT_TRUE(full.ok());
    const auto full_rank = RankDescending(full->aggregated, top_n);
    for (size_t threads : {1u, 2u, 7u}) {
      LofSweep::PruneOptions prune;
      prune.top_n = top_n;
      auto pruned = LofSweep::RunPruned(*pipeline->m, lb, ub, prune,
                                        aggregation, threads);
      ASSERT_TRUE(pruned.ok()) << pruned.status().message();
      EXPECT_TRUE(pruned->prune.applied);
      EXPECT_GE(pruned->prune.survivors, top_n);
      EXPECT_EQ(pruned->prune.survivors + pruned->prune.pruned_evaluations /
                                              (ub - lb + 1),
                pipeline->data.size());
      const auto pruned_rank = RankDescending(pruned->aggregated, top_n);
      ASSERT_EQ(pruned_rank.size(), full_rank.size());
      for (size_t r = 0; r < full_rank.size(); ++r) {
        EXPECT_EQ(pruned_rank[r].index, full_rank[r].index)
            << "aggregation " << LofAggregationName(aggregation) << " rank "
            << r;
        // Bit-equality: survivor slots reuse the full pipeline arithmetic.
        EXPECT_EQ(pruned_rank[r].score, full_rank[r].score)
            << "aggregation " << LofAggregationName(aggregation) << " rank "
            << r;
      }
    }
  }
}

TEST(RunPrunedTest, RunPrunedBlockWidthsAllPreserveTheTopN) {
  Rng rng(52);
  auto pipeline = MakePipeline(MixedWorkload(rng, /*with_duplicates=*/true), 8);
  const size_t lb = 2, ub = 8, top_n = 4;
  auto full = LofSweep::Run(*pipeline->m, lb, ub);
  ASSERT_TRUE(full.ok());
  const auto full_rank = RankDescending(full->aggregated, top_n);
  for (size_t width : {1u, 2u, 3u, 7u, 100u}) {
    LofSweep::PruneOptions prune;
    prune.top_n = top_n;
    prune.bounds_block_width = width;
    auto pruned = LofSweep::RunPruned(*pipeline->m, lb, ub, prune);
    ASSERT_TRUE(pruned.ok());
    const auto pruned_rank = RankDescending(pruned->aggregated, top_n);
    ASSERT_EQ(pruned_rank.size(), full_rank.size());
    for (size_t r = 0; r < full_rank.size(); ++r) {
      EXPECT_EQ(pruned_rank[r].index, full_rank[r].index)
          << "width " << width << " rank " << r;
      EXPECT_EQ(pruned_rank[r].score, full_rank[r].score)
          << "width " << width << " rank " << r;
    }
  }
}

TEST(RunPrunedTest, RunPrunedPartitionPathPreservesTheTopN) {
  Rng rng(53);
  Dataset data = MixedWorkload(rng, /*with_duplicates=*/true);
  std::vector<int> partition(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    partition[i] = data.label(i) == "c1"   ? 0
                   : data.label(i) == "c2" ? 1
                   : data.label(i) == "dup" ? 2
                                            : 3;
  }
  auto pipeline = MakePipeline(std::move(data), 8);
  const size_t lb = 2, ub = 8, top_n = 5;
  auto full = LofSweep::Run(*pipeline->m, lb, ub);
  ASSERT_TRUE(full.ok());
  const auto full_rank = RankDescending(full->aggregated, top_n);
  LofSweep::PruneOptions prune;
  prune.top_n = top_n;
  prune.partition = partition;
  auto pruned = LofSweep::RunPruned(*pipeline->m, lb, ub, prune);
  ASSERT_TRUE(pruned.ok()) << pruned.status().message();
  const auto pruned_rank = RankDescending(pruned->aggregated, top_n);
  ASSERT_EQ(pruned_rank.size(), full_rank.size());
  for (size_t r = 0; r < full_rank.size(); ++r) {
    EXPECT_EQ(pruned_rank[r].index, full_rank[r].index) << "rank " << r;
    EXPECT_EQ(pruned_rank[r].score, full_rank[r].score) << "rank " << r;
  }
}

TEST(RunPrunedTest, RunPrunedRequiresAConcreteTopN) {
  Rng rng(54);
  auto pipeline =
      MakePipeline(MixedWorkload(rng, /*with_duplicates=*/false), 8);
  LofSweep::PruneOptions prune;  // top_n left at 0
  EXPECT_EQ(LofSweep::RunPruned(*pipeline->m, 2, 8, prune).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lofkit

// The LocalScorer registry and the scorers built on the DensitySubstrate:
// LOF (must match LofComputer bit for bit), LDOF, the KDE density scorer,
// and the kNN-distance / DB baselines — plus the generic ScorerSweep.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/linear_scan_index.h"
#include "lof/local_scorer.h"
#include "lof/lof_computer.h"
#include "lof/scorer_sweep.h"

namespace lofkit {
namespace {

// A dense cluster, a sparse cluster, and one planted local outlier sitting
// just off the dense cluster — the paper's local-outlier shape, which
// every density-comparing scorer should rank first.
Dataset MakeLocalOutlierDataset() {
  Rng rng(41);
  auto ds = Dataset::Create(2);
  EXPECT_TRUE(ds.ok());
  const double dense[2] = {0.0, 0.0};
  EXPECT_TRUE(
      generators::AppendGaussianCluster(*ds, rng, dense, 0.15, 120).ok());
  const double sparse[2] = {8.0, 8.0};
  EXPECT_TRUE(
      generators::AppendGaussianCluster(*ds, rng, sparse, 1.5, 80).ok());
  const double planted[2] = {1.2, 1.2};
  EXPECT_TRUE(generators::AppendPoint(*ds, planted, "planted").ok());
  return std::move(ds).value();
}

constexpr uint32_t kPlanted = 200;

class LocalScorerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_.emplace(MakeLocalOutlierDataset());
    ASSERT_TRUE(index_.Build(*data_, Euclidean()).ok());
    auto m = NeighborhoodMaterializer::Materialize(*data_, index_, 20);
    ASSERT_TRUE(m.ok());
    m_.emplace(std::move(m).value());
    auto substrate =
        DensitySubstrate::OverMaterialization(*m_, &*data_, &Euclidean());
    ASSERT_TRUE(substrate.ok());
    substrate_.emplace(std::move(substrate).value());
  }

  DensitySubstrate RequerySubstrate() {
    auto substrate =
        DensitySubstrate::OverIndex(*data_, index_, &Euclidean());
    EXPECT_TRUE(substrate.ok());
    return std::move(substrate).value();
  }

  std::optional<Dataset> data_;
  LinearScanIndex index_;
  std::optional<NeighborhoodMaterializer> m_;
  std::optional<DensitySubstrate> substrate_;
};

TEST(ScorerRegistryTest, NamesRoundTripThroughTheFactory) {
  for (ScorerKind kind : AllScorerKinds()) {
    std::unique_ptr<LocalScorer> scorer = CreateScorer(kind);
    ASSERT_NE(scorer, nullptr);
    EXPECT_EQ(scorer->kind(), kind);
    EXPECT_EQ(scorer->name(), ScorerKindName(kind));
    auto by_name = CreateScorerByName(ScorerKindName(kind));
    ASSERT_TRUE(by_name.ok()) << ScorerKindName(kind);
    EXPECT_EQ((*by_name)->kind(), kind);
  }
}

TEST(ScorerRegistryTest, UnknownNameListsEveryRegisteredScorer) {
  auto result = CreateScorerByName("zscore");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("zscore"), std::string::npos);
  for (ScorerKind kind : AllScorerKinds()) {
    EXPECT_NE(message.find(std::string(ScorerKindName(kind))),
              std::string::npos)
        << "missing " << ScorerKindName(kind) << " in: " << message;
  }
}

TEST_F(LocalScorerTest, LofScorerMatchesLofComputerBitForBit) {
  std::unique_ptr<LocalScorer> scorer = CreateScorer(ScorerKind::kLof);
  auto scores = scorer->Score(*substrate_, 12);
  auto reference = LofComputer::Compute(*m_, 12);
  ASSERT_TRUE(scores.ok());
  ASSERT_TRUE(reference.ok());
  for (size_t i = 0; i < data_->size(); ++i) {
    EXPECT_EQ(scores->score[i], reference->lof[i]);
    EXPECT_EQ(scores->density[i], reference->lrd[i]);
  }
  EXPECT_EQ(scores->has_infinite_density, reference->has_infinite_lrd);
  ASSERT_EQ(scores->phases.size(), 3u);
  EXPECT_EQ(scores->phases[0].name, "k_distance");
  EXPECT_EQ(scores->phases[1].name, "lrd");
  EXPECT_EQ(scores->phases[2].name, "lof");
}

TEST_F(LocalScorerTest, KnnDistanceScorerIsTheKDistance) {
  std::unique_ptr<LocalScorer> scorer =
      CreateScorer(ScorerKind::kKnnDistance);
  auto scores = scorer->Score(*substrate_, 10);
  ASSERT_TRUE(scores.ok());
  for (size_t i = 0; i < data_->size(); ++i) {
    auto view = m_->View(i, 10);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(scores->score[i], view->k_distance);
    EXPECT_EQ(scores->density[i], 1.0 / view->k_distance);
  }
  EXPECT_DOUBLE_EQ(scores->PhaseSeconds("k_distance"),
                   scores->phases[0].seconds);
  EXPECT_EQ(scores->PhaseSeconds("no_such_phase"), 0.0);
}

TEST_F(LocalScorerTest, DensityScorersRankThePlantedLocalOutlierFirst) {
  // The planted point is globally unremarkable (closer to the dense
  // cluster than the sparse cluster's own members are to each other) but
  // locally outlying — the density-comparing scorers must rank it first.
  for (ScorerKind kind :
       {ScorerKind::kLof, ScorerKind::kLdof, ScorerKind::kKde}) {
    std::unique_ptr<LocalScorer> scorer = CreateScorer(kind);
    auto scores = scorer->Score(*substrate_, 15);
    ASSERT_TRUE(scores.ok()) << ScorerKindName(kind);
    auto ranked = RankDescending(scores->score, 1);
    ASSERT_EQ(ranked.size(), 1u);
    EXPECT_EQ(ranked[0].index, kPlanted) << ScorerKindName(kind);
  }
}

TEST_F(LocalScorerTest, RequeryRouteBitIdenticalPerScorer) {
  const DensitySubstrate requery = RequerySubstrate();
  for (ScorerKind kind :
       {ScorerKind::kLof, ScorerKind::kLdof, ScorerKind::kKde,
        ScorerKind::kKnnDistance}) {
    std::unique_ptr<LocalScorer> scorer = CreateScorer(kind);
    for (size_t threads : {size_t{1}, size_t{7}}) {
      LocalScorerOptions options;
      options.threads = threads;
      auto materialized = scorer->Score(*substrate_, 11, options);
      auto requeried = scorer->Score(requery, 11, options);
      ASSERT_TRUE(materialized.ok()) << ScorerKindName(kind);
      ASSERT_TRUE(requeried.ok()) << ScorerKindName(kind);
      for (size_t i = 0; i < data_->size(); ++i) {
        EXPECT_EQ(materialized->score[i], requeried->score[i])
            << ScorerKindName(kind) << " threads=" << threads
            << " i=" << i;
        EXPECT_EQ(materialized->density[i], requeried->density[i]);
      }
    }
  }
}

TEST_F(LocalScorerTest, LdofDuplicatePileConventions) {
  // 12 exact duplicates: for a pile member both the mean neighbor
  // distance and the mean pairwise neighbor distance are 0, so LDOF
  // scores it 1 (densest possible, mirroring LOF's inf/inf convention)
  // with infinite density.
  auto ds = Dataset::Create(2);
  ASSERT_TRUE(ds.ok());
  const double pile[2] = {1.0, 1.0};
  ASSERT_TRUE(generators::AppendDuplicates(*ds, pile, 12).ok());
  const double lone[2] = {5.0, 5.0};
  ASSERT_TRUE(generators::AppendPoint(*ds, lone).ok());
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(*ds, Euclidean()).ok());
  auto substrate = DensitySubstrate::OverIndex(*ds, index, &Euclidean());
  ASSERT_TRUE(substrate.ok());
  std::unique_ptr<LocalScorer> scorer = CreateScorer(ScorerKind::kLdof);
  auto scores = scorer->Score(*substrate, 5);
  ASSERT_TRUE(scores.ok());
  EXPECT_TRUE(scores->has_infinite_density);
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(scores->score[i], 1.0) << "pile member " << i;
    EXPECT_TRUE(std::isinf(scores->density[i]));
  }
  // The lone point's neighbors are all duplicates of each other: positive
  // mean distance over zero neighborhood spread = infinite LDOF.
  EXPECT_TRUE(std::isinf(scores->score[12]));
  // Nothing in the output is NaN.
  for (double score : scores->score) EXPECT_FALSE(std::isnan(score));
}

TEST_F(LocalScorerTest, LdofNeedsCoordinates) {
  auto bare = DensitySubstrate::OverMaterialization(*m_);
  ASSERT_TRUE(bare.ok());
  std::unique_ptr<LocalScorer> scorer = CreateScorer(ScorerKind::kLdof);
  EXPECT_TRUE(scorer->requires_coordinates());
  auto scores = scorer->Score(*bare, 10);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LocalScorerTest, KdeDuplicatePileConventions) {
  auto ds = Dataset::Create(2);
  ASSERT_TRUE(ds.ok());
  const double pile[2] = {1.0, 1.0};
  ASSERT_TRUE(generators::AppendDuplicates(*ds, pile, 12).ok());
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(*ds, Euclidean()).ok());
  auto substrate = DensitySubstrate::OverIndex(*ds, index, &Euclidean());
  ASSERT_TRUE(substrate.ok());
  std::unique_ptr<LocalScorer> scorer = CreateScorer(ScorerKind::kKde);
  auto scores = scorer->Score(*substrate, 5);
  ASSERT_TRUE(scores.ok());
  EXPECT_TRUE(scores->has_infinite_density);
  for (size_t i = 0; i < 12; ++i) {
    // inf/inf := 1: a pile member is in the densest possible region.
    EXPECT_EQ(scores->score[i], 1.0);
    EXPECT_TRUE(std::isinf(scores->density[i]));
    EXPECT_FALSE(std::isnan(scores->score[i]));
  }
}

TEST_F(LocalScorerTest, KdeRejectsNonPositiveBandwidthScale) {
  std::unique_ptr<LocalScorer> scorer = CreateScorer(ScorerKind::kKde);
  LocalScorerOptions options;
  options.kde_bandwidth_scale = 0.0;
  EXPECT_EQ(scorer->Score(*substrate_, 10, options).status().code(),
            StatusCode::kInvalidArgument);
  options.kde_bandwidth_scale = -1.0;
  EXPECT_EQ(scorer->Score(*substrate_, 10, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LocalScorerTest, DbOutlierScorerIsBinaryAndAutoDerivesRadius) {
  std::unique_ptr<LocalScorer> scorer = CreateScorer(ScorerKind::kDbOutlier);
  EXPECT_TRUE(scorer->requires_coordinates());
  LocalScorerOptions options;
  options.db_pct = 97.0;
  auto scores = scorer->Score(*substrate_, 10, options);
  ASSERT_TRUE(scores.ok());
  size_t outliers = 0;
  for (size_t i = 0; i < data_->size(); ++i) {
    EXPECT_TRUE(scores->score[i] == 0.0 || scores->score[i] == 1.0);
    outliers += scores->score[i] == 1.0;
  }
  // The auto-derived dmin (2x median MinPts-distance) is calibrated by the
  // dense cluster, so the global-radius baseline flags the planted point
  // and the whole sparse cluster -- the bimodal-density blind spot that
  // motivates LOF -- but never the dense majority.
  EXPECT_EQ(scores->score[kPlanted], 1.0);
  EXPECT_GT(outliers, 0u);
  EXPECT_LT(outliers, data_->size() / 2);
  // Negative radii are rejected.
  options.db_dmin = -0.5;
  EXPECT_EQ(scorer->Score(*substrate_, 10, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LocalScorerTest, CancellationPropagates) {
  StopSource source;
  source.RequestStop();
  LocalScorerOptions options;
  options.stop = source.token();
  for (ScorerKind kind : AllScorerKinds()) {
    std::unique_ptr<LocalScorer> scorer = CreateScorer(kind);
    auto scores = scorer->Score(*substrate_, 10, options);
    EXPECT_FALSE(scores.ok()) << ScorerKindName(kind);
  }
}

TEST_F(LocalScorerTest, ScorerSweepAggregatesLikeTheLofSweep) {
  std::unique_ptr<LocalScorer> scorer = CreateScorer(ScorerKind::kKde);
  auto sweep = ScorerSweep::Run(*substrate_, *scorer, 8, 14,
                                LofAggregation::kMax,
                                /*keep_per_min_pts=*/true);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->per_min_pts.size(), 7u);
  for (size_t i = 0; i < data_->size(); ++i) {
    double expected = -INFINITY;
    for (const LocalScores& scores : sweep->per_min_pts) {
      expected = std::max(expected, scores.score[i]);
    }
    EXPECT_EQ(sweep->aggregated[i], expected);
  }
  // Multi-step sweeps shard over threads with bit-identical aggregates.
  for (size_t threads : {size_t{2}, size_t{7}}) {
    LocalScorerOptions options;
    options.threads = threads;
    auto parallel = ScorerSweep::Run(*substrate_, *scorer, 8, 14,
                                     LofAggregation::kMax,
                                     /*keep_per_min_pts=*/false, options);
    ASSERT_TRUE(parallel.ok());
    for (size_t i = 0; i < data_->size(); ++i) {
      EXPECT_EQ(parallel->aggregated[i], sweep->aggregated[i]);
    }
  }
  // Phases merge by name over the steps.
  EXPECT_GT(sweep->phases.size(), 0u);
  EXPECT_GE(sweep->PhaseSeconds("kde_density"), 0.0);
}

TEST_F(LocalScorerTest, ScorerSweepValidatesTheRange) {
  std::unique_ptr<LocalScorer> scorer = CreateScorer(ScorerKind::kLof);
  EXPECT_EQ(ScorerSweep::Run(*substrate_, *scorer, 0, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ScorerSweep::Run(*substrate_, *scorer, 9, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ScorerSweep::Run(*substrate_, *scorer, 5, 21).status().code(),
            StatusCode::kOutOfRange);
  const DensitySubstrate requery = RequerySubstrate();
  EXPECT_EQ(ScorerSweep::Run(requery, *scorer, 5, data_->size())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LocalScorerTest, RankOutliersWorksForEveryScorerWithBudgets) {
  // A private spill directory, so "nothing left behind" is an exact census.
  const std::filesystem::path spill_dir =
      std::filesystem::path(::testing::TempDir()) / "lofkit_scorer_spill";
  std::filesystem::remove_all(spill_dir);
  ASSERT_TRUE(std::filesystem::create_directory(spill_dir));
  for (ScorerKind kind : AllScorerKinds()) {
    std::unique_ptr<LocalScorer> scorer = CreateScorer(kind);
    ScorerPipelineOptions pipeline;
    bool degraded = false;
    bool spilled = false;
    pipeline.degraded_to_requery = &degraded;
    pipeline.spilled_to_disk = &spilled;
    auto full = ScorerSweep::RankOutliers(*data_, Euclidean(), *scorer, 8,
                                          12, 5, IndexKind::kLinearScan,
                                          LofAggregation::kMax, {},
                                          pipeline);
    ASSERT_TRUE(full.ok()) << ScorerKindName(kind);
    EXPECT_FALSE(degraded);
    EXPECT_EQ(full->size(), 5u);
    pipeline.memory_budget_bytes = 1;
    auto tight = ScorerSweep::RankOutliers(*data_, Euclidean(), *scorer, 8,
                                           12, 5, IndexKind::kLinearScan,
                                           LofAggregation::kMax, {},
                                           pipeline);
    ASSERT_TRUE(tight.ok()) << ScorerKindName(kind);
    EXPECT_TRUE(degraded);
    for (size_t i = 0; i < full->size(); ++i) {
      EXPECT_EQ((*tight)[i].index, (*full)[i].index) << ScorerKindName(kind);
      EXPECT_EQ((*tight)[i].score, (*full)[i].score) << ScorerKindName(kind);
    }
    // The same budget with a spill directory takes the spill rung instead.
    pipeline.spill_directory = spill_dir.string();
    auto spill = ScorerSweep::RankOutliers(*data_, Euclidean(), *scorer, 8,
                                           12, 5, IndexKind::kLinearScan,
                                           LofAggregation::kMax, {},
                                           pipeline);
    ASSERT_TRUE(spill.ok()) << ScorerKindName(kind) << ": " << spill.status();
    EXPECT_TRUE(spilled) << ScorerKindName(kind);
    EXPECT_FALSE(degraded) << ScorerKindName(kind);
    ASSERT_EQ(spill->size(), full->size()) << ScorerKindName(kind);
    for (size_t i = 0; i < full->size(); ++i) {
      EXPECT_EQ((*spill)[i].index, (*full)[i].index) << ScorerKindName(kind);
      const double a = (*spill)[i].score;
      const double b = (*full)[i].score;
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << ScorerKindName(kind) << " rank " << i;
    }
    EXPECT_TRUE(std::filesystem::is_empty(spill_dir)) << ScorerKindName(kind);
  }
  std::filesystem::remove(spill_dir);
}

}  // namespace
}  // namespace lofkit

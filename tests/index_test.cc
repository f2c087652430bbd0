#include "index/index_factory.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataset/generators.h"
#include "index/grid_index.h"
#include "index/kd_tree_index.h"
#include "index/linear_scan_index.h"
#include "index/m_tree_index.h"
#include "index/neighborhood_materializer.h"
#include "index/rkd_forest_index.h"
#include "index/rstar_tree_index.h"
#include "index/va_file_index.h"

namespace lofkit {
namespace {

Dataset MakeRandomClustered(Rng& rng, size_t dim, size_t n) {
  auto ds = generators::MakePerformanceWorkload(rng, dim, n, 5);
  EXPECT_TRUE(ds.ok()) << ds.status();
  return std::move(ds).value();
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(IndexFactoryTest, CreatesEveryKind) {
  for (IndexKind kind : AllIndexKinds()) {
    auto index = CreateIndex(kind);
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->name(), IndexKindName(kind));
  }
}

TEST(IndexFactoryTest, CreateByName) {
  auto index = CreateIndexByName("kd_tree");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->name(), "kd_tree");
  EXPECT_FALSE(CreateIndexByName("btree").ok());
}

TEST(IndexFactoryTest, CreateByNameRoundTripsEveryRegisteredName) {
  for (IndexKind kind : AllIndexKinds()) {
    const std::string name(IndexKindName(kind));
    auto index = CreateIndexByName(name);
    ASSERT_TRUE(index.ok()) << name;
    EXPECT_EQ((*index)->name(), name);
  }
}

TEST(IndexFactoryTest, UnknownNameErrorListsEveryValidEngine) {
  auto index = CreateIndexByName("btree");
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kNotFound);
  const std::string message = index.status().ToString();
  EXPECT_NE(message.find("btree"), std::string::npos) << message;
  for (IndexKind kind : AllIndexKinds()) {
    EXPECT_NE(message.find(std::string(IndexKindName(kind))),
              std::string::npos)
        << "error message must list " << IndexKindName(kind) << ": "
        << message;
  }
}

TEST(IndexFactoryTest, AnnOptionsReachTheForest) {
  AnnIndexOptions ann;
  ann.trees = 3;
  ann.seed = 99;
  ann.search.checks = 64;
  ann.search.eps = 0.5;
  auto index = CreateIndexByName("rkd_forest", ann);
  ASSERT_TRUE(index.ok());
  auto* forest = dynamic_cast<RkdForestIndex*>(index->get());
  ASSERT_NE(forest, nullptr);
  EXPECT_EQ(forest->options().trees, 3u);
  EXPECT_EQ(forest->options().seed, 99u);
  EXPECT_EQ(forest->options().search.checks, 64u);
  EXPECT_DOUBLE_EQ(forest->options().search.eps, 0.5);
}

TEST(IndexFactoryTest, RecommendationCoversAllRegimes) {
  EXPECT_EQ(RecommendIndexKind(2), IndexKind::kGrid);
  EXPECT_EQ(RecommendIndexKind(5), IndexKind::kRStarTree);
  EXPECT_EQ(RecommendIndexKind(20), IndexKind::kKdTree);
  EXPECT_EQ(RecommendIndexKind(64), IndexKind::kKdTree);
}

// ---------------------------------------------------------------------------
// Shared engine conformance suite: every engine must agree exactly with the
// linear scan on k-distance neighborhoods (ties included) and radius
// queries, per Definitions 3 and 4.
// ---------------------------------------------------------------------------

struct EngineCase {
  IndexKind kind;
  size_t dim;
  const Metric* metric;
};

std::string EngineCaseName(
    const ::testing::TestParamInfo<EngineCase>& info) {
  return std::string(IndexKindName(info.param.kind)) + "_d" +
         std::to_string(info.param.dim) + "_" +
         std::string(info.param.metric->name());
}

class IndexConformanceTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(IndexConformanceTest, KnnMatchesLinearScan) {
  const EngineCase& param = GetParam();
  Rng rng(1000 + param.dim);
  Dataset data = MakeRandomClustered(rng, param.dim, 400);

  LinearScanIndex reference;
  ASSERT_TRUE(reference.Build(data, *param.metric).ok());
  auto engine = CreateIndex(param.kind);
  ASSERT_TRUE(engine->Build(data, *param.metric).ok());

  for (size_t trial = 0; trial < 30; ++trial) {
    const size_t q = rng.UniformU64(data.size());
    const size_t k = 1 + rng.UniformU64(20);
    auto expected = reference.Query(data.point(q), k,
                                    static_cast<uint32_t>(q));
    auto actual = engine->Query(data.point(q), k, static_cast<uint32_t>(q));
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status();
    ASSERT_EQ(actual->size(), expected->size())
        << "engine " << engine->name() << " k=" << k;
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ((*actual)[i].index, (*expected)[i].index);
      EXPECT_DOUBLE_EQ((*actual)[i].distance, (*expected)[i].distance);
    }
  }
}

TEST_P(IndexConformanceTest, RadiusMatchesLinearScan) {
  const EngineCase& param = GetParam();
  Rng rng(2000 + param.dim);
  Dataset data = MakeRandomClustered(rng, param.dim, 300);

  LinearScanIndex reference;
  ASSERT_TRUE(reference.Build(data, *param.metric).ok());
  auto engine = CreateIndex(param.kind);
  ASSERT_TRUE(engine->Build(data, *param.metric).ok());

  for (size_t trial = 0; trial < 20; ++trial) {
    const size_t q = rng.UniformU64(data.size());
    const double radius = rng.Uniform(0.0, 30.0);
    auto expected = reference.QueryRadius(data.point(q), radius);
    auto actual = engine->QueryRadius(data.point(q), radius);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status();
    ASSERT_EQ(actual->size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ((*actual)[i].index, (*expected)[i].index);
    }
  }
}

TEST_P(IndexConformanceTest, ContextReuseMatchesWrapper) {
  // One KnnSearchContext reused across many kNN and radius queries must be
  // bit-identical to the allocating wrappers: same accumulation, same tie
  // order, same doubles.
  const EngineCase& param = GetParam();
  Rng rng(5000 + param.dim);
  Dataset data = MakeRandomClustered(rng, param.dim, 350);

  auto engine = CreateIndex(param.kind);
  ASSERT_TRUE(engine->Build(data, *param.metric).ok());

  KnnSearchContext ctx;
  for (size_t trial = 0; trial < 25; ++trial) {
    const size_t q = rng.UniformU64(data.size());
    const size_t k = 1 + rng.UniformU64(15);
    auto expected = engine->Query(data.point(q), k,
                                  static_cast<uint32_t>(q));
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(engine->Query(data.point(q), k, static_cast<uint32_t>(q),
                              ctx).ok());
    const std::span<const Neighbor> actual = ctx.results();
    ASSERT_EQ(actual.size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ(actual[i].index, (*expected)[i].index);
      EXPECT_EQ(actual[i].distance, (*expected)[i].distance);  // bitwise
    }

    const double radius = rng.Uniform(0.0, 25.0);
    auto expected_ball = engine->QueryRadius(data.point(q), radius);
    ASSERT_TRUE(expected_ball.ok());
    ASSERT_TRUE(
        engine->QueryRadius(data.point(q), radius, std::nullopt, ctx).ok());
    const std::span<const Neighbor> ball = ctx.results();
    ASSERT_EQ(ball.size(), expected_ball->size());
    for (size_t i = 0; i < expected_ball->size(); ++i) {
      EXPECT_EQ(ball[i].index, (*expected_ball)[i].index);
      EXPECT_EQ(ball[i].distance, (*expected_ball)[i].distance);
    }
  }
}

TEST_P(IndexConformanceTest, QueryBatchMatchesWrapper) {
  // The batched self-query path (including engine overrides such as the
  // linear scan's tiled kernel) must reproduce the single-query wrapper
  // exactly for every point, at several batch shapes.
  const EngineCase& param = GetParam();
  Rng rng(6000 + param.dim);
  Dataset data = MakeRandomClustered(rng, param.dim, 300);

  auto engine = CreateIndex(param.kind);
  ASSERT_TRUE(engine->Build(data, *param.metric).ok());

  KnnSearchContext ctx;
  // Batch sizes straddle the tile width used by blocked kernels.
  for (size_t batch : {size_t{1}, size_t{7}, size_t{16}, size_t{61}}) {
    std::vector<uint32_t> ids;
    for (size_t begin = 0; begin < data.size(); begin += batch) {
      const size_t end = std::min(begin + batch, data.size());
      ids.resize(end - begin);
      for (size_t j = 0; j < ids.size(); ++j) {
        ids[j] = static_cast<uint32_t>(begin + j);
      }
      ASSERT_TRUE(engine->QueryBatch(ids, 9, ctx).ok());
      ASSERT_EQ(ctx.batch_size(), ids.size());
      for (size_t j = 0; j < ids.size(); ++j) {
        auto expected = engine->Query(data.point(ids[j]), 9, ids[j]);
        ASSERT_TRUE(expected.ok());
        const std::span<const Neighbor> actual = ctx.batch_results(j);
        ASSERT_EQ(actual.size(), expected->size())
            << "batch " << batch << " id " << ids[j];
        for (size_t i = 0; i < expected->size(); ++i) {
          EXPECT_EQ(actual[i].index, (*expected)[i].index);
          EXPECT_EQ(actual[i].distance, (*expected)[i].distance);
        }
      }
    }
  }
}

TEST_P(IndexConformanceTest, QueryBatchRejectsBadIds) {
  const EngineCase& param = GetParam();
  Rng rng(6500 + param.dim);
  Dataset data = MakeRandomClustered(rng, param.dim, 50);
  auto engine = CreateIndex(param.kind);
  ASSERT_TRUE(engine->Build(data, *param.metric).ok());
  KnnSearchContext ctx;
  const uint32_t bad[] = {0, static_cast<uint32_t>(data.size())};
  EXPECT_EQ(engine->QueryBatch(bad, 3, ctx).code(),
            StatusCode::kInvalidArgument);
}

TEST_P(IndexConformanceTest, RadiusBoundaryExcludeAndOrder) {
  // Definition 1 uses a closed ball: a point at exactly the query radius is
  // part of the neighborhood. Pick the radius as the *exact* distance of a
  // mid-ranked point so the boundary case is always exercised, then check
  // inclusivity, exclude semantics, and (distance, index) ordering.
  const EngineCase& param = GetParam();
  Rng rng(7000 + param.dim);
  Dataset data = MakeRandomClustered(rng, param.dim, 250);

  auto engine = CreateIndex(param.kind);
  ASSERT_TRUE(engine->Build(data, *param.metric).ok());

  for (size_t trial = 0; trial < 10; ++trial) {
    const size_t q = rng.UniformU64(data.size());
    std::vector<double> dist(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      dist[i] = param.metric->Distance(data.point(q), data.point(i));
    }
    std::vector<double> sorted = dist;
    std::sort(sorted.begin(), sorted.end());
    const double radius = sorted[data.size() / 3];  // an exact distance
    size_t expected_count = 0;
    for (double d : dist) {
      if (d <= radius) ++expected_count;
    }

    auto ball = engine->QueryRadius(data.point(q), radius);
    ASSERT_TRUE(ball.ok()) << ball.status();
    // Closed-ball inclusivity: the boundary point itself must be present.
    ASSERT_EQ(ball->size(), expected_count);
    bool boundary_seen = false;
    for (const Neighbor& n : *ball) {
      EXPECT_LE(n.distance, radius);
      if (n.distance == radius) boundary_seen = true;
    }
    EXPECT_TRUE(boundary_seen);
    // Sorted by (distance, index), and the self point (distance 0) present.
    for (size_t i = 1; i < ball->size(); ++i) {
      const Neighbor& a = (*ball)[i - 1];
      const Neighbor& b = (*ball)[i];
      EXPECT_TRUE(a.distance < b.distance ||
                  (a.distance == b.distance && a.index < b.index));
    }
    // Exclude semantics: dropping q removes exactly that one entry.
    auto excl = engine->QueryRadius(data.point(q), radius,
                                    static_cast<uint32_t>(q));
    ASSERT_TRUE(excl.ok());
    EXPECT_EQ(excl->size(), ball->size() - 1);
    for (const Neighbor& n : *excl) {
      EXPECT_NE(n.index, static_cast<uint32_t>(q));
    }
  }
}

TEST_P(IndexConformanceTest, ExternalQueryPointWorks) {
  // Query coordinates that are not part of the dataset (and no exclusion).
  const EngineCase& param = GetParam();
  Rng rng(3000 + param.dim);
  Dataset data = MakeRandomClustered(rng, param.dim, 200);

  LinearScanIndex reference;
  ASSERT_TRUE(reference.Build(data, *param.metric).ok());
  auto engine = CreateIndex(param.kind);
  ASSERT_TRUE(engine->Build(data, *param.metric).ok());

  std::vector<double> q(param.dim);
  for (size_t trial = 0; trial < 10; ++trial) {
    for (size_t d = 0; d < param.dim; ++d) q[d] = rng.Uniform(-20, 120);
    auto expected = reference.Query(q, 7);
    auto actual = engine->Query(q, 7);
    ASSERT_TRUE(expected.ok() && actual.ok());
    ASSERT_EQ(actual->size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ((*actual)[i].index, (*expected)[i].index);
    }
  }
}

TEST_P(IndexConformanceTest, TiesAreAllReturned) {
  // Definition 4: the k-distance neighborhood holds every point tied at the
  // k-distance, and lattices tie massively.
  const EngineCase& param = GetParam();
  if (param.dim == 2) {
    auto data_or = Dataset::Create(2);
    ASSERT_TRUE(data_or.ok());
    Dataset data = std::move(data_or).value();
    for (int x = 0; x < 10; ++x) {
      for (int y = 0; y < 10; ++y) {
        const double p[2] = {static_cast<double>(x), static_cast<double>(y)};
        ASSERT_TRUE(data.Append(p).ok());
      }
    }
    auto engine = CreateIndex(param.kind);
    ASSERT_TRUE(engine->Build(data, *param.metric).ok());
    // The four axis neighbors of an interior point are all at distance 1:
    // querying k=2 must return all 4 (|N_k| > k).
    const size_t center = 5 * 10 + 5;
    auto result = engine->Query(data.point(center), 2,
                                static_cast<uint32_t>(center));
    ASSERT_TRUE(result.ok());
    size_t at_k_distance = 0;
    const double k_distance = (*result)[1].distance;
    for (const Neighbor& n : *result) {
      EXPECT_LE(n.distance, k_distance);
      if (n.distance == k_distance) ++at_k_distance;
    }
    EXPECT_EQ(result->size(), 4u);
    EXPECT_EQ(at_k_distance, 4u);
  }

  // At every dimension: 400 points with coordinates drawn from {1, 2, 3}.
  // For every point and k = 1..7 the engine's tie-extended list must equal
  // the linear scan's, in index and in distance bits.
  Rng rng(8000 + param.dim);
  auto lattice_or = Dataset::Create(param.dim);
  ASSERT_TRUE(lattice_or.ok());
  Dataset lattice = std::move(lattice_or).value();
  std::vector<double> p(param.dim);
  for (size_t i = 0; i < 400; ++i) {
    for (double& c : p) c = static_cast<double>(1 + rng.UniformU64(3));
    ASSERT_TRUE(lattice.Append(p).ok());
  }
  LinearScanIndex reference;
  ASSERT_TRUE(reference.Build(lattice, *param.metric).ok());
  auto engine = CreateIndex(param.kind);
  ASSERT_TRUE(engine->Build(lattice, *param.metric).ok());
  for (uint32_t q = 0; q < lattice.size(); ++q) {
    for (size_t k = 1; k <= 7; ++k) {
      auto expected = reference.Query(lattice.point(q), k, q);
      auto actual = engine->Query(lattice.point(q), k, q);
      ASSERT_TRUE(expected.ok() && actual.ok());
      ASSERT_EQ(actual->size(), expected->size())
          << "query " << q << ", k " << k;
      for (size_t i = 0; i < expected->size(); ++i) {
        ASSERT_EQ((*actual)[i].index, (*expected)[i].index)
            << "query " << q << ", k " << k << ", rank " << i;
        ASSERT_EQ(std::memcmp(&(*actual)[i].distance,
                              &(*expected)[i].distance, sizeof(double)),
                  0)
            << "query " << q << ", k " << k << ", rank " << i;
      }
    }
  }
}

TEST_P(IndexConformanceTest, LargeKReturnsAllEligible) {
  const EngineCase& param = GetParam();
  Rng rng(4000 + param.dim);
  Dataset data = MakeRandomClustered(rng, param.dim, 50);
  auto engine = CreateIndex(param.kind);
  ASSERT_TRUE(engine->Build(data, *param.metric).ok());
  auto result = engine->Query(data.point(0), 100, uint32_t{0});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 49u);  // everything but the excluded point
}

TEST_P(IndexConformanceTest, ErrorsOnMisuse) {
  const EngineCase& param = GetParam();
  auto engine = CreateIndex(param.kind);
  std::vector<double> q(param.dim, 0.0);
  // Query before build.
  EXPECT_EQ(engine->Query(q, 3).status().code(),
            StatusCode::kFailedPrecondition);
  // Empty dataset.
  auto empty = Dataset::Create(param.dim);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(engine->Build(*empty, *param.metric).code(),
            StatusCode::kInvalidArgument);
  // Build properly, then misuse queries.
  Rng rng(1);
  Dataset data = MakeRandomClustered(rng, param.dim, 60);
  ASSERT_TRUE(engine->Build(data, *param.metric).ok());
  EXPECT_EQ(engine->Query(q, 0).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<double> wrong_dim(param.dim + 1, 0.0);
  EXPECT_EQ(engine->Query(wrong_dim, 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->QueryRadius(q, -1.0).status().code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, IndexConformanceTest,
    ::testing::Values(
        EngineCase{IndexKind::kGrid, 2, &Euclidean()},
        EngineCase{IndexKind::kGrid, 2, &Manhattan()},
        EngineCase{IndexKind::kGrid, 5, &Euclidean()},
        EngineCase{IndexKind::kKdTree, 2, &Euclidean()},
        EngineCase{IndexKind::kKdTree, 5, &Euclidean()},
        EngineCase{IndexKind::kKdTree, 5, &Chebyshev()},
        EngineCase{IndexKind::kKdTree, 10, &Euclidean()},
        EngineCase{IndexKind::kRStarTree, 2, &Euclidean()},
        EngineCase{IndexKind::kRStarTree, 5, &Euclidean()},
        EngineCase{IndexKind::kRStarTree, 5, &Manhattan()},
        EngineCase{IndexKind::kRStarTree, 10, &Euclidean()},
        EngineCase{IndexKind::kVaFile, 2, &Euclidean()},
        EngineCase{IndexKind::kVaFile, 10, &Euclidean()},
        EngineCase{IndexKind::kVaFile, 20, &Chebyshev()},
        EngineCase{IndexKind::kMTree, 2, &Euclidean()},
        EngineCase{IndexKind::kMTree, 5, &Manhattan()},
        EngineCase{IndexKind::kMTree, 5, &Angular()},
        EngineCase{IndexKind::kMTree, 10, &Euclidean()},
        // The forest's default SearchParams are exact (unbounded checks,
        // zero eps), so it must clear the same bar as the exact engines.
        EngineCase{IndexKind::kRkdForest, 2, &Euclidean()},
        EngineCase{IndexKind::kRkdForest, 5, &Euclidean()},
        EngineCase{IndexKind::kRkdForest, 5, &Manhattan()},
        EngineCase{IndexKind::kRkdForest, 10, &Euclidean()},
        EngineCase{IndexKind::kRkdForest, 10, &Chebyshev()},
        EngineCase{IndexKind::kLinearScan, 3, &Euclidean()}),
    EngineCaseName);

// ---------------------------------------------------------------------------
// Engine-specific structure checks
// ---------------------------------------------------------------------------

TEST(GridIndexTest, ChoosesReasonableResolution) {
  Rng rng(55);
  Dataset data = MakeRandomClustered(rng, 2, 400);
  GridIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  EXPECT_GE(index.cells_per_dimension(), 2u);
  EXPECT_LE(index.cells_per_dimension(), 64u);
}

TEST(GridIndexTest, DegeneratesGracefullyInHighDimensions) {
  Rng rng(56);
  Dataset data = MakeRandomClustered(rng, 40, 100);
  GridIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto result = index.Query(data.point(0), 5, uint32_t{0});
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->size(), 5u);
}

TEST(KdTreeIndexTest, BuildsBalancedTree) {
  Rng rng(57);
  Dataset data = MakeRandomClustered(rng, 3, 1000);
  KdTreeIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  EXPECT_GT(index.node_count(), 60u);  // 1000/16 leaves plus internals
}

TEST(RStarTreeIndexTest, TreeStructureIsSane) {
  Rng rng(58);
  Dataset data = MakeRandomClustered(rng, 4, 2000);
  RStarTreeIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  EXPECT_GE(index.height(), 2u);
  EXPECT_GT(index.node_count(), 10u);
}

TEST(RStarTreeIndexTest, HighDimensionalDataGrowsSupernodes) {
  // In 30-d, directory splits become overlap-heavy; the X-tree rule should
  // kick in at least occasionally on clustered data.
  Rng rng(59);
  Dataset data = MakeRandomClustered(rng, 30, 3000);
  RStarTreeIndex index(RStarTreeIndex::BuildMode::kInsert);
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  // The structure stays queryable either way; supernodes are expected but
  // we only assert the tree did not degenerate into an error.
  auto result = index.Query(data.point(0), 10, uint32_t{0});
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->size(), 10u);
}

TEST(RStarTreeIndexTest, RebuildReplacesContent) {
  Rng rng(60);
  Dataset small = MakeRandomClustered(rng, 2, 50);
  Dataset large = MakeRandomClustered(rng, 2, 500);
  RStarTreeIndex index;
  ASSERT_TRUE(index.Build(small, Euclidean()).ok());
  ASSERT_TRUE(index.Build(large, Euclidean()).ok());
  auto all = index.QueryRadius(large.point(0), 1e9);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 500u);
}

TEST(RStarTreeIndexTest, InvariantsHoldAfterInsertionBuild) {
  Rng rng(160);
  Dataset data = MakeRandomClustered(rng, 3, 3000);
  RStarTreeIndex index(RStarTreeIndex::BuildMode::kInsert);
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  EXPECT_TRUE(index.CheckInvariants().ok()) << index.CheckInvariants();
}

TEST(RStarTreeIndexTest, InvariantsHoldAfterBulkLoad) {
  Rng rng(161);
  Dataset data = MakeRandomClustered(rng, 3, 3000);
  RStarTreeIndex index(RStarTreeIndex::BuildMode::kBulkLoadStr);
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  EXPECT_TRUE(index.CheckInvariants().ok()) << index.CheckInvariants();
  EXPECT_EQ(index.supernode_count(), 0u);  // STR packing never overflows
}

TEST(RStarTreeIndexTest, BulkLoadMatchesLinearScan) {
  Rng rng(162);
  Dataset data = MakeRandomClustered(rng, 4, 800);
  LinearScanIndex reference;
  ASSERT_TRUE(reference.Build(data, Euclidean()).ok());
  RStarTreeIndex bulk(RStarTreeIndex::BuildMode::kBulkLoadStr);
  ASSERT_TRUE(bulk.Build(data, Euclidean()).ok());
  for (size_t trial = 0; trial < 25; ++trial) {
    const size_t q = rng.UniformU64(data.size());
    auto expected = reference.Query(data.point(q), 15,
                                    static_cast<uint32_t>(q));
    auto actual = bulk.Query(data.point(q), 15, static_cast<uint32_t>(q));
    ASSERT_TRUE(expected.ok() && actual.ok());
    ASSERT_EQ(actual->size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ((*actual)[i].index, (*expected)[i].index);
    }
  }
}

TEST(RStarTreeIndexTest, BulkLoadUsesFewerNodes) {
  // STR packs nodes nearly full, so it needs no more (usually far fewer)
  // nodes than one-by-one insertion.
  Rng rng(163);
  Dataset data = MakeRandomClustered(rng, 2, 4000);
  RStarTreeIndex inserted(RStarTreeIndex::BuildMode::kInsert);
  RStarTreeIndex bulk(RStarTreeIndex::BuildMode::kBulkLoadStr);
  ASSERT_TRUE(inserted.Build(data, Euclidean()).ok());
  ASSERT_TRUE(bulk.Build(data, Euclidean()).ok());
  EXPECT_LE(bulk.node_count(), inserted.node_count());
}

// Both builds pack the same query layout, so step 1 must yield the same M
// as the linear scan: same tie-extended lists, same distance bits. The
// integer lattices have exact ties at every k; {1..10}^3 is large enough
// that a child box at exactly tau is met after tau has settled, so a
// strict `<` in the push-time bound test would drop tied neighbors there.
TEST(RStarTreeIndexTest, BuildsMaterializeIdenticalM) {
  std::vector<std::pair<std::string, Dataset>> sets;
  for (size_t dim : {2, 5, 10}) {
    Rng rng(170 + dim);
    sets.emplace_back("clustered_d" + std::to_string(dim),
                      MakeRandomClustered(rng, dim, 500));
  }
  for (const auto& [dim, side] : {std::pair{5, 3}, std::pair{3, 10}}) {
    Dataset lattice = std::move(Dataset::Create(dim)).value();
    int count = 1;
    for (int d = 0; d < dim; ++d) count *= side;
    std::vector<double> p(dim);
    for (int code = 0; code < count; ++code) {
      for (int d = 0, rest = code; d < dim; ++d, rest /= side) {
        p[d] = 1 + rest % side;
      }
      ASSERT_TRUE(lattice.Append(p).ok());
    }
    sets.emplace_back("lattice_" + std::to_string(side) + "^" +
                          std::to_string(dim),
                      std::move(lattice));
  }

  const Metric* metrics[] = {&Euclidean(), &Manhattan(), &Chebyshev()};
  for (const auto& [set_name, data] : sets) {
    for (const Metric* metric : metrics) {
      const std::string label = set_name + "/" + std::string(metric->name());
      LinearScanIndex scan;
      RStarTreeIndex inserted(RStarTreeIndex::BuildMode::kInsert);
      RStarTreeIndex bulk;
      ASSERT_TRUE(scan.Build(data, *metric).ok());
      ASSERT_TRUE(inserted.Build(data, *metric).ok());
      ASSERT_TRUE(bulk.Build(data, *metric).ok());
      EXPECT_TRUE(inserted.CheckInvariants().ok())
          << label << ": " << inserted.CheckInvariants();
      EXPECT_TRUE(bulk.CheckInvariants().ok())
          << label << ": " << bulk.CheckInvariants();
      for (size_t threads : {1, 3}) {
        auto expected =
            NeighborhoodMaterializer::MaterializeParallel(data, scan, 12,
                                                          threads);
        ASSERT_TRUE(expected.ok()) << expected.status();
        for (const RStarTreeIndex* tree : {&inserted, &bulk}) {
          auto actual = NeighborhoodMaterializer::MaterializeParallel(
              data, *tree, 12, threads);
          ASSERT_TRUE(actual.ok()) << actual.status();
          ASSERT_EQ(actual->size(), expected->size()) << label;
          for (size_t i = 0; i < expected->size(); ++i) {
            const auto want = expected->neighbors(i);
            const auto got = actual->neighbors(i);
            ASSERT_EQ(got.size(), want.size())
                << label << " threads " << threads << " point " << i;
            for (size_t j = 0; j < want.size(); ++j) {
              ASSERT_EQ(got[j].index, want[j].index)
                  << label << " point " << i << " rank " << j;
              ASSERT_EQ(std::memcmp(&got[j].distance, &want[j].distance,
                                    sizeof(double)),
                        0)
                  << label << " point " << i << " rank " << j;
            }
          }
        }
      }
    }
  }
}

TEST(VaFileIndexTest, RejectsBadBitWidth) {
  Rng rng(61);
  Dataset data = MakeRandomClustered(rng, 2, 50);
  VaFileIndex index(0);
  EXPECT_FALSE(index.Build(data, Euclidean()).ok());
  VaFileIndex index9(9);
  EXPECT_FALSE(index9.Build(data, Euclidean()).ok());
}

class VaFileBitsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(VaFileBitsTest, ExactAtEveryBitWidth) {
  // The approximation granularity changes the candidate set, never the
  // result: every bit width must reproduce the linear scan exactly.
  Rng rng(180);
  Dataset data = MakeRandomClustered(rng, 6, 300);
  LinearScanIndex reference;
  ASSERT_TRUE(reference.Build(data, Euclidean()).ok());
  VaFileIndex va(GetParam());
  ASSERT_TRUE(va.Build(data, Euclidean()).ok());
  for (int trial = 0; trial < 15; ++trial) {
    const size_t q = rng.UniformU64(data.size());
    auto expected = reference.Query(data.point(q), 12,
                                    static_cast<uint32_t>(q));
    auto actual = va.Query(data.point(q), 12, static_cast<uint32_t>(q));
    ASSERT_TRUE(expected.ok() && actual.ok());
    ASSERT_EQ(actual->size(), expected->size()) << "bits " << GetParam();
    for (size_t i = 0; i < expected->size(); ++i) {
      ASSERT_EQ((*actual)[i].index, (*expected)[i].index);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, VaFileBitsTest,
                         ::testing::Values(1, 2, 4, 6, 8),
                         [](const auto& info) {
                           return "bits" + std::to_string(info.param);
                         });

TEST(VaFileIndexTest, IntervalsMatchBits) {
  VaFileIndex index(4);
  EXPECT_EQ(index.intervals(), 16u);
}

TEST(MTreeIndexTest, InvariantsHoldOnClusteredData) {
  Rng rng(170);
  Dataset data = MakeRandomClustered(rng, 3, 2500);
  MTreeIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  EXPECT_TRUE(index.CheckInvariants().ok()) << index.CheckInvariants();
  EXPECT_GE(index.height(), 2u);
}

TEST(MTreeIndexTest, InvariantsHoldUnderAngularMetric) {
  // The M-tree is the only engine whose pruning works natively for
  // non-coordinate metrics; verify its structure under one.
  Rng rng(171);
  auto data_or = Dataset::Create(8);
  ASSERT_TRUE(data_or.ok());
  Dataset data = std::move(data_or).value();
  std::vector<double> p(8);
  for (int i = 0; i < 800; ++i) {
    for (auto& x : p) x = rng.Uniform(0.01, 1.0);
    ASSERT_TRUE(data.Append(p).ok());
  }
  MTreeIndex index;
  ASSERT_TRUE(index.Build(data, Angular()).ok());
  EXPECT_TRUE(index.CheckInvariants().ok()) << index.CheckInvariants();
}

TEST(MTreeIndexTest, AngularKnnMatchesLinearScan) {
  Rng rng(172);
  auto data_or = Dataset::Create(16);
  ASSERT_TRUE(data_or.ok());
  Dataset data = std::move(data_or).value();
  std::vector<double> p(16);
  for (int i = 0; i < 500; ++i) {
    for (auto& x : p) x = rng.Uniform(0.01, 1.0);
    ASSERT_TRUE(data.Append(p).ok());
  }
  LinearScanIndex reference;
  MTreeIndex tree;
  ASSERT_TRUE(reference.Build(data, Angular()).ok());
  ASSERT_TRUE(tree.Build(data, Angular()).ok());
  for (int trial = 0; trial < 20; ++trial) {
    const size_t q = rng.UniformU64(data.size());
    auto expected = reference.Query(data.point(q), 10,
                                    static_cast<uint32_t>(q));
    auto actual = tree.Query(data.point(q), 10, static_cast<uint32_t>(q));
    ASSERT_TRUE(expected.ok() && actual.ok());
    ASSERT_EQ(actual->size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ((*actual)[i].index, (*expected)[i].index);
    }
  }
}

// ---------------------------------------------------------------------------
// Chunked QueryBatch sweep for the hierarchical engines. The TEST_P batch
// conformance above runs on 300 points; the metric-tree engines (M-tree,
// R*-tree) have depth- and split-dependent traversal states that only
// exercise at larger scale, so this sweep drives materializer-shaped
// chunked batches (fixed-size chunks through one long-lived context, k
// spanning the leaf capacity) against the linear-scan reference.
// ---------------------------------------------------------------------------

class HierarchicalBatchSweepTest
    : public ::testing::TestWithParam<IndexKind> {};

TEST_P(HierarchicalBatchSweepTest, ChunkedBatchesMatchLinearScan) {
  Rng rng(7700);
  Dataset data = MakeRandomClustered(rng, 6, 1200);

  LinearScanIndex reference;
  ASSERT_TRUE(reference.Build(data, Euclidean()).ok());
  auto engine = CreateIndex(GetParam());
  ASSERT_TRUE(engine->Build(data, Euclidean()).ok());

  KnnSearchContext engine_ctx;
  KnnSearchContext reference_ctx;
  constexpr size_t kChunk = 64;  // the materializer's batching shape
  for (const size_t k : {size_t{3}, size_t{17}, size_t{40}}) {
    std::vector<uint32_t> ids;
    for (size_t begin = 0; begin < data.size(); begin += kChunk) {
      const size_t end = std::min(begin + kChunk, data.size());
      ids.resize(end - begin);
      for (size_t j = 0; j < ids.size(); ++j) {
        ids[j] = static_cast<uint32_t>(begin + j);
      }
      ASSERT_TRUE(engine->QueryBatch(ids, k, engine_ctx).ok());
      ASSERT_TRUE(reference.QueryBatch(ids, k, reference_ctx).ok());
      ASSERT_EQ(engine_ctx.batch_size(), ids.size());
      for (size_t j = 0; j < ids.size(); ++j) {
        const std::span<const Neighbor> expected =
            reference_ctx.batch_results(j);
        const std::span<const Neighbor> actual =
            engine_ctx.batch_results(j);
        ASSERT_EQ(actual.size(), expected.size())
            << "engine " << engine->name() << " k=" << k << " id " << ids[j];
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(actual[i].index, expected[i].index);
          EXPECT_DOUBLE_EQ(actual[i].distance, expected[i].distance);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, HierarchicalBatchSweepTest,
    ::testing::Values(IndexKind::kMTree, IndexKind::kRStarTree),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      return std::string(IndexKindName(info.param));
    });

TEST(KnnCollectorTest, KeepsTiesAndFiltersStaleAccepts) {
  KnnSearchContext ctx;
  internal_index::KnnCollector collector(2, ctx);
  collector.Offer(0, 5.0);
  collector.Offer(1, 4.0);
  collector.Offer(2, 1.0);  // pushes tau down to 4.0
  collector.Offer(3, 4.0);  // tie at tau stays
  collector.Offer(4, 6.0);  // above tau, rejected
  std::vector<Neighbor> result;
  collector.TakeInto(result);
  ASSERT_EQ(result.size(), 3u);  // 1.0, 4.0, 4.0 — 5.0 filtered as stale
  EXPECT_EQ(result[0].index, 2u);
  EXPECT_EQ(result[1].index, 1u);
  EXPECT_EQ(result[2].index, 3u);
}

}  // namespace
}  // namespace lofkit

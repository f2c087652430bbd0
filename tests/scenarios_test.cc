#include "dataset/scenarios.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "dataset/metric.h"

namespace lofkit {
namespace {

using scenarios::Scenario;

double NearestOtherDistance(const Dataset& ds, size_t i) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < ds.size(); ++j) {
    if (j == i) continue;
    best = std::min(best, Euclidean().Distance(ds.point(i), ds.point(j)));
  }
  return best;
}

TEST(ScenariosTest, Ds1HasPaperCardinalities) {
  Rng rng(1);
  auto s = scenarios::MakeDs1(rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->data.size(), 502u);  // 400 + 100 + o1 + o2
  size_t c1 = 0, c2 = 0;
  for (size_t i = 0; i < s->data.size(); ++i) {
    if (s->data.label(i) == "C1") ++c1;
    if (s->data.label(i) == "C2") ++c2;
  }
  EXPECT_EQ(c1, 400u);
  EXPECT_EQ(c2, 100u);
  EXPECT_TRUE(s->Find("o1").ok());
  EXPECT_TRUE(s->Find("o2").ok());
  EXPECT_FALSE(s->Find("o3").ok());
}

TEST(ScenariosTest, Ds1HasTheSection3Geometry) {
  // The property the section 3 argument needs: d(o2, C2) is smaller than
  // the nearest-neighbor distance of every object in C1.
  Rng rng(2);
  auto s = scenarios::MakeDs1(rng);
  ASSERT_TRUE(s.ok());
  const Dataset& ds = s->data;
  const size_t o2 = s->named.at("o2");
  double d_o2_c2 = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds.label(i) != "C2") continue;
    d_o2_c2 = std::min(d_o2_c2,
                       Euclidean().Distance(ds.point(o2), ds.point(i)));
  }
  double min_c1_nn = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds.label(i) != "C1") continue;
    min_c1_nn = std::min(min_c1_nn, NearestOtherDistance(ds, i));
  }
  EXPECT_LT(d_o2_c2, min_c1_nn);
  EXPECT_GT(d_o2_c2, 0.0);
}

TEST(ScenariosTest, GaussianBlobSize) {
  Rng rng(3);
  auto s = scenarios::MakeGaussianBlob(rng, 321);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->data.size(), 321u);
}

TEST(ScenariosTest, Fig8ClusterSizesMatchPaper) {
  Rng rng(4);
  auto s = scenarios::MakeFig8Clusters(rng);
  ASSERT_TRUE(s.ok());
  size_t s1 = 0, s2 = 0, s3 = 0;
  for (size_t i = 0; i < s->data.size(); ++i) {
    if (s->data.label(i) == "S1") ++s1;
    if (s->data.label(i) == "S2") ++s2;
    if (s->data.label(i) == "S3") ++s3;
  }
  EXPECT_EQ(s1, 10u);
  EXPECT_EQ(s2, 35u);
  EXPECT_EQ(s3, 500u);
  // Representatives carry the right labels.
  EXPECT_EQ(s->data.label(s->named.at("s1_rep")), "S1");
  EXPECT_EQ(s->data.label(s->named.at("s2_rep")), "S2");
  EXPECT_EQ(s->data.label(s->named.at("s3_rep")), "S3");
}

TEST(ScenariosTest, Fig9HasFourClustersAndSevenOutliers) {
  Rng rng(5);
  auto s = scenarios::MakeFig9Dataset(rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->data.size(), 200u + 500u + 500u + 500u + 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(s->Find("outlier_" + std::to_string(i)).ok());
  }
}

TEST(ScenariosTest, HockeySubspace1PlantsAreExtreme) {
  Rng rng(6);
  auto s = scenarios::MakeHockeySubspace1(rng);
  ASSERT_TRUE(s.ok());
  const Dataset& ds = s->data;
  const size_t konstantinov = s->named.at("konstantinov");
  const size_t barnaby = s->named.at("barnaby");
  // Konstantinov's plus-minus and Barnaby's penalty minutes exceed the
  // whole field.
  for (size_t i = 0; i < ds.size(); ++i) {
    if (i == konstantinov || i == barnaby) continue;
    EXPECT_LT(ds.point(i)[1], ds.point(konstantinov)[1]);
    EXPECT_LT(ds.point(i)[2], ds.point(barnaby)[2]);
  }
}

TEST(ScenariosTest, HockeySubspace2PlantsPresent) {
  Rng rng(7);
  auto s = scenarios::MakeHockeySubspace2(rng);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->Find("osgood").ok());
  EXPECT_TRUE(s->Find("lemieux").ok());
  EXPECT_TRUE(s->Find("poapst").ok());
  const Dataset& ds = s->data;
  const size_t osgood = s->named.at("osgood");
  const size_t lemieux = s->named.at("lemieux");
  // Osgood's shooting percentage and Lemieux's goal count top the field.
  for (size_t i = 0; i < ds.size(); ++i) {
    if (i == osgood || i == lemieux) continue;
    EXPECT_LT(ds.point(i)[2], ds.point(osgood)[2]);
    EXPECT_LT(ds.point(i)[1], ds.point(lemieux)[1]);
  }
}

TEST(ScenariosTest, SoccerHas375PlayersAndTable3Plants) {
  Rng rng(8);
  auto s = scenarios::MakeSoccerLike(rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->data.size(), 375u);
  for (const char* name :
       {"preetz", "schjoenberg", "butt", "kirsten", "elber"}) {
    EXPECT_TRUE(s->Find(name).ok()) << name;
  }
  // Preetz mirrors the Table 3 row: 34 games, 23 goals -> 23/34 per game.
  const size_t preetz = s->named.at("preetz");
  EXPECT_DOUBLE_EQ(s->data.point(preetz)[0], 34.0);
  EXPECT_NEAR(s->data.point(preetz)[1], 23.0 / 34.0, 1e-12);
}

TEST(ScenariosTest, Histograms64AreNormalizedAndNamed) {
  Rng rng(9);
  auto s = scenarios::Make64DHistograms(rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->data.dimension(), 64u);
  EXPECT_EQ(s->data.size(), 605u);
  for (size_t i = 0; i < s->data.size(); ++i) {
    double sum = 0;
    for (size_t d = 0; d < 64; ++d) sum += s->data.point(i)[d];
    ASSERT_NEAR(sum, 1.0, 1e-9) << "point " << i;
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(s->Find("hist_outlier_" + std::to_string(i)).ok());
  }
}

using ScenarioFactory = Result<Scenario> (*)(Rng&);

// A scenario factory under its name. gtest prints the name after the
// listed test name; printing a pair of pointers put their addresses
// there, so each build registered the tests under new names.
struct ScenarioCase {
  const char* name;
  ScenarioFactory make;

  friend void PrintTo(const ScenarioCase& c, std::ostream* os) {
    *os << c.name;
  }
};

class ScenarioDeterminismTest : public ::testing::TestWithParam<ScenarioCase> {
};

TEST_P(ScenarioDeterminismTest, SameSeedSameBytes) {
  Rng rng1(10);
  Rng rng2(10);
  auto a = GetParam().make(rng1);
  auto b = GetParam().make(rng2);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->data.size(), b->data.size());
  ASSERT_EQ(a->data.dimension(), b->data.dimension());
  ASSERT_EQ(a->named, b->named);
  for (size_t i = 0; i < a->data.size(); ++i) {
    for (size_t d = 0; d < a->data.dimension(); ++d) {
      ASSERT_DOUBLE_EQ(a->data.point(i)[d], b->data.point(i)[d])
          << "point " << i << " dim " << d;
    }
    ASSERT_EQ(a->data.label(i), b->data.label(i));
  }
}

Result<Scenario> MakeBlobAdapter(Rng& rng) {
  return scenarios::MakeGaussianBlob(rng, 200);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, ScenarioDeterminismTest,
    ::testing::Values(
        ScenarioCase{"ds1", &scenarios::MakeDs1},
        ScenarioCase{"blob", &MakeBlobAdapter},
        ScenarioCase{"fig8", &scenarios::MakeFig8Clusters},
        ScenarioCase{"fig9", &scenarios::MakeFig9Dataset},
        ScenarioCase{"hockey1", &scenarios::MakeHockeySubspace1},
        ScenarioCase{"hockey2", &scenarios::MakeHockeySubspace2},
        ScenarioCase{"soccer", &scenarios::MakeSoccerLike},
        ScenarioCase{"hist64", &scenarios::Make64DHistograms}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace lofkit

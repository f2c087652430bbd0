// Ablation (DESIGN.md): the kNN-engine choice of section 7.4. Same LOF
// pipeline, one dataset per dimension, every engine plus the R*-tree's
// insertion build (the paper's X-tree, next to the STR default) —
// identical rankings by construction, very different build and
// materialization costs across dimensionality. This reproduces the paper's
// engine guidance as a measurement: grid wins at d=2, the tree family in
// the middle dimensions, and everything collapses toward the scan in high
// d. Build and materialize are timed apart, so the table shows what the
// STR default saves per dimension.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/index_factory.h"
#include "index/neighborhood_materializer.h"
#include "index/rstar_tree_index.h"

using namespace lofkit;          // NOLINT
using namespace lofkit::bench;   // NOLINT

namespace {

struct Engine {
  std::string name;
  std::function<std::unique_ptr<KnnIndex>()> make;
};

std::vector<Engine> Engines() {
  std::vector<Engine> engines;
  for (IndexKind kind : AllIndexKinds()) {
    engines.push_back({std::string(IndexKindName(kind)),
                       [kind] { return CreateIndex(kind); }});
    if (kind == IndexKind::kRStarTree) {
      engines.push_back({"rstar_tree (insert)", [] {
                           return std::make_unique<RStarTreeIndex>(
                               RStarTreeIndex::BuildMode::kInsert);
                         }});
    }
  }
  return engines;
}

}  // namespace

int main() {
  const std::vector<size_t> dims = {2, 5, 10, 20};
  std::vector<Dataset> datasets;
  for (size_t d : dims) {
    Rng rng(42 + d);
    datasets.push_back(CheckOk(
        generators::MakePerformanceWorkload(rng, d, 4000, 10), "workload"));
  }

  PrintHeader("Ablation: kNN engine x dimensionality",
              "build / materialize time (s), n = 4000, MinPtsUB = 50");
  std::printf("%-20s", "engine");
  for (size_t d : dims) {
    std::printf("  %-5s %6s %6s", ("d=" + std::to_string(d)).c_str(),
                "build", "mat");
  }
  std::printf("\n");
  for (const Engine& engine : Engines()) {
    std::printf("%-20s", engine.name.c_str());
    for (const Dataset& data : datasets) {
      auto index = engine.make();
      Stopwatch watch;
      CheckOk(index->Build(data, Euclidean()), "Build");
      const double build_seconds = watch.ElapsedSeconds();
      watch.Reset();
      auto m = CheckOk(
          NeighborhoodMaterializer::Materialize(data, *index, 50),
          "Materialize");
      (void)m;
      std::printf("  %5s %6.3f %6.3f", "", build_seconds,
                  watch.ElapsedSeconds());
    }
    std::printf("\n");
  }
  std::printf("\nRecommended engine per dimension (RecommendIndexKind): "
              "d=2 -> %s, d=5 -> %s,\nd=16 -> %s, d=64 -> %s.\n",
              std::string(IndexKindName(RecommendIndexKind(2))).c_str(),
              std::string(IndexKindName(RecommendIndexKind(5))).c_str(),
              std::string(IndexKindName(RecommendIndexKind(16))).c_str(),
              std::string(IndexKindName(RecommendIndexKind(64))).c_str());
  return 0;
}

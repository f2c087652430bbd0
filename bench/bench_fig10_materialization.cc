// Reproduces Figure 10: wall-clock time of the materialization step (one
// 50-NN query per point, X-tree-variant index, including index build time,
// exactly as the paper's times "include the time to build the index") as a
// function of n for dimensions 2, 5, 10 and 20. The R*-tree builds by
// one-by-one insertion with X-tree supernodes, the paper's structure, not
// by the library's default STR bulk load. Expected shape: near-linear
// growth for d in {2, 5}, visible degradation for d in {10, 20} — the
// classic index-effectivity decay with dimension. A sequential-scan column
// shows the O(n^2) alternative for reference.
//
// Besides the stdout table, the run writes BENCH_fig10.json (see
// common/bench_report.h). LOFKIT_BENCH_SMOKE=1 shrinks everything to one
// tiny repetition for CI.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/bench_report.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/kd_tree_index.h"
#include "index/linear_scan_index.h"
#include "index/neighborhood_materializer.h"
#include "index/rstar_tree_index.h"

using namespace lofkit;          // NOLINT
using namespace lofkit::bench;   // NOLINT

namespace {

// Times the build + materialization and, when `stats` is given, collects
// the engine's query-cost counters alongside — the paper argues Figure 10
// in page accesses, so the JSON rows carry both views of the same run.
double MaterializeSeconds(const Dataset& data, KnnIndex& index, size_t k,
                          QueryStats* stats = nullptr) {
  Stopwatch watch;
  CheckOk(index.Build(data, Euclidean()), "Build");
  PipelineObserver observer;
  observer.query_stats = stats;
  auto m = CheckOk(NeighborhoodMaterializer::Materialize(
                       data, index, k, /*distinct_neighbors=*/false, observer),
                   "Materialize");
  (void)m;
  return watch.ElapsedSeconds();
}

// Counter columns shared by every JSON row: exact distance evaluations and
// the paper's node/page-access quantity (internal node expansions plus
// leaf/block scans, so sequential scans report their block count here).
std::vector<std::pair<std::string, double>> CounterMetrics(
    double seconds, const QueryStats& stats) {
  return {{"seconds", seconds},
          {"distance_evals", static_cast<double>(stats.distance_evals)},
          {"node_visits", static_cast<double>(stats.page_accesses())}};
}

std::string Case(size_t n, size_t d) {
  return "n=" + std::to_string(n) + "_d=" + std::to_string(d);
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const size_t k = smoke ? 5 : 50;
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{200} : std::vector<size_t>{1000, 2000, 4000, 8000};
  const std::vector<size_t> dims = smoke ? std::vector<size_t>{2, 5}
                                         : std::vector<size_t>{2, 5, 10, 20};
  BenchReport report("fig10");
  report.SetManifest("dataset", "performance_workload");
  report.SetManifest("k", static_cast<double>(k));
  report.SetManifest("index", "rstar_tree");
  report.SetManifest("threads", 1.0);

  PrintHeader("Figure 10",
              "materialization time vs n, MinPtsUB = 50, per dimension");
  std::printf("%-8s", "n");
  for (size_t d : dims) std::printf("  d=%-2zu (s) ", d);
  std::printf("  scan d=5 (s)\n");

  double first_d2 = 0.0, last_d2 = 0.0;
  for (size_t n : sizes) {
    std::printf("%-8zu", n);
    for (size_t d : dims) {
      Rng rng(1000 + d);
      auto data = CheckOk(generators::MakePerformanceWorkload(rng, d, n, 10),
                          "workload");
      RStarTreeIndex tree(RStarTreeIndex::BuildMode::kInsert);
      QueryStats stats;
      const double seconds = MaterializeSeconds(data, tree, k, &stats);
      report.Add(Case(n, d), CounterMetrics(seconds, stats));
      std::printf("  %-9.3f", seconds);
      if (d == 2 && n == sizes.front()) first_d2 = seconds;
      if (d == 2 && n == sizes.back()) last_d2 = seconds;
    }
    {
      Rng rng(1005);
      auto data = CheckOk(generators::MakePerformanceWorkload(rng, 5, n, 10),
                          "workload");
      LinearScanIndex scan;
      QueryStats stats;
      const double seconds = MaterializeSeconds(data, scan, k, &stats);
      report.Add(Case(n, 5) + "_scan", CounterMetrics(seconds, stats));
      std::printf("  %-9.3f", seconds);
    }
    std::printf("\n");
  }
  std::printf("\nShape check: %zux the points cost %.1fx the time at d=2 "
              "(near-linear, paper's low-d\nbehavior); higher dimensions "
              "degrade toward the sequential scan, as in figure 10.\n",
              sizes.back() / sizes.front(),
              first_d2 > 0 ? last_d2 / first_d2 : 0.0);

  // Threads axis: the n queries of step 1 are embarrassingly parallel, so
  // MaterializeParallel should scale with the worker count while producing
  // bit-identical neighborhoods (property-tested in parallel_test.cc).
  PrintHeader("Figure 10 / threads axis",
              "materialization time vs threads, Gaussian workload, "
              "d=5, n=8000, MinPtsUB=50");
  const size_t thread_n = smoke ? 200 : 8000;
  Rng rng(1005);
  auto data = CheckOk(generators::MakePerformanceWorkload(rng, 5, thread_n, 10),
                      "workload");
  RStarTreeIndex tree(RStarTreeIndex::BuildMode::kInsert);
  CheckOk(tree.Build(data, Euclidean()), "Build");
  std::printf("%-8s %-10s %s\n", "threads", "time (s)", "speedup");
  double serial_seconds = 0.0;
  const std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};
  for (unsigned threads : thread_counts) {
    QueryStats stats;
    PipelineObserver observer;
    observer.query_stats = &stats;
    Stopwatch watch;
    auto m = CheckOk(NeighborhoodMaterializer::MaterializeParallel(
                         data, tree, k, threads,
                         /*distinct_neighbors=*/false, observer),
                     "MaterializeParallel");
    (void)m;
    const double seconds = watch.ElapsedSeconds();
    if (threads == 1) serial_seconds = seconds;
    // The counter columns double as a determinism witness: per-worker
    // shards are summed after the join, so every row reports the same
    // distance_evals / node_visits regardless of the thread count.
    auto metrics = CounterMetrics(seconds, stats);
    metrics.emplace_back("speedup",
                         seconds > 0 ? serial_seconds / seconds : 0.0);
    report.Add("threads=" + std::to_string(threads), std::move(metrics));
    std::printf("%-8u %-10.3f %.2fx\n", threads, seconds,
                seconds > 0 ? serial_seconds / seconds : 0.0);
  }
  // Context axis: the same kNN-per-point query workload through the
  // allocating per-query wrappers versus one reused KnnSearchContext
  // versus the chunked QueryBatch path the materializer actually uses.
  // Index build is excluded so the delta isolates the query paths.
  //
  // Two shapes: the paper's MinPtsUB = 50 (per-query compute dominates, so
  // removing the handful of mallocs per query yields a single-digit
  // saving) and k = 5 (per-query work is small and the allocation share is
  // the largest part of the wrapper overhead). The JSON sidecar records
  // both deltas so regressions in either regime are visible.
  PrintHeader("Figure 10 / context axis",
              "per-query wrapper vs reused context vs batched queries, "
              "kd-tree, d=5, n=50000");
  const size_t ctx_n = smoke ? 200 : 50000;
  Rng ctx_rng(1005);
  auto ctx_data = CheckOk(
      generators::MakePerformanceWorkload(ctx_rng, 5, ctx_n, 10), "workload");
  KdTreeIndex kd;
  CheckOk(kd.Build(ctx_data, Euclidean()), "Build");

  double checksum = 0.0;  // consumes results so nothing is optimized away
  std::printf("%-8s %-22s %-10s\n", "k", "path", "time (s)");
  const std::vector<size_t> ctx_ks =
      smoke ? std::vector<size_t>{5} : std::vector<size_t>{50, 5};
  for (size_t ctx_k : ctx_ks) {
    double wrapper_seconds = 0.0;
    {
      Stopwatch watch;
      for (size_t i = 0; i < ctx_n; ++i) {
        auto r = CheckOk(
            kd.Query(ctx_data.point(i), ctx_k, static_cast<uint32_t>(i)),
            "Query");
        checksum += r.back().distance;
      }
      wrapper_seconds = watch.ElapsedSeconds();
    }
    double context_seconds = 0.0;
    {
      KnnSearchContext ctx;
      Stopwatch watch;
      for (size_t i = 0; i < ctx_n; ++i) {
        CheckOk(
            kd.Query(ctx_data.point(i), ctx_k, static_cast<uint32_t>(i), ctx),
            "Query(ctx)");
        checksum -= ctx.results().back().distance;
      }
      context_seconds = watch.ElapsedSeconds();
    }
    double batch_seconds = 0.0;
    {
      KnnSearchContext ctx;
      std::vector<uint32_t> ids;
      Stopwatch watch;
      constexpr size_t kChunk = 64;
      for (size_t begin = 0; begin < ctx_n; begin += kChunk) {
        const size_t end = std::min(begin + kChunk, ctx_n);
        ids.resize(end - begin);
        for (size_t j = 0; j < ids.size(); ++j) {
          ids[j] = static_cast<uint32_t>(begin + j);
        }
        CheckOk(kd.QueryBatch(ids, ctx_k, ctx), "QueryBatch");
        for (size_t j = 0; j < ids.size(); ++j) {
          checksum += ctx.batch_results(j).back().distance;
        }
      }
      batch_seconds = watch.ElapsedSeconds();
    }
    const double best = std::min(context_seconds, batch_seconds);
    const double reduction_pct =
        wrapper_seconds > 0
            ? 100.0 * (wrapper_seconds - best) / wrapper_seconds
            : 0.0;
    std::printf("%-8zu %-22s %-10.3f\n", ctx_k, "allocating wrapper",
                wrapper_seconds);
    std::printf("%-8s %-22s %-10.3f\n", "", "reused context",
                context_seconds);
    std::printf("%-8s %-22s %-10.3f\n", "", "batched (chunk=64)",
                batch_seconds);
    std::printf("%-8s best context path saves %.1f%% over the wrapper\n",
                "", reduction_pct);
    const std::string prefix = "ctx_axis_k=" + std::to_string(ctx_k);
    report.Add(prefix + "_wrapper", {{"seconds", wrapper_seconds}});
    report.Add(prefix + "_context", {{"seconds", context_seconds}});
    report.Add(prefix + "_batch", {{"seconds", batch_seconds}});
    report.Add(prefix + "_delta", {{"wrapper_seconds", wrapper_seconds},
                                   {"best_context_seconds", best},
                                   {"reduction_pct", reduction_pct}});
  }
  std::printf("(checksum %.3g)\nAt k=50 the query is compute-bound — the "
              "block-distance scans dominate and\nremoving per-query "
              "allocation trims single-digit percent; at k=5 the\n"
              "allocation share is far larger and the context path shows "
              "its full effect.\n", checksum);

  CheckOk(report.Write(), "BenchReport::Write");
  return 0;
}

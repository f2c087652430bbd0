// End-to-end observability wiring: span-name parity between the
// materialized and re-query sweep routes, flight-recorder capture on both
// query sites, progress accounting, and the bit-identity guarantee —
// arming every observer sink must never change a score bit at any thread
// count.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/random.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/linear_scan_index.h"
#include "lof/lof_sweep.h"
#include "requery_route.h"

namespace lofkit {
namespace {

Dataset MakeData(size_t n) {
  Rng rng(77);
  auto ds = generators::MakePerformanceWorkload(rng, 3, n, 4);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

using testing_requery::RequerySweep;

// Span names matching `prefix`, sorted (the trace interleaving is
// thread-dependent; the name set is not).
std::vector<std::string> SpanNames(const TraceRecorder& trace,
                                   const std::string& prefix) {
  const std::string json = trace.ToJson();
  std::vector<std::string> names;
  const std::string marker = "\"name\": \"";
  for (size_t at = json.find(marker); at != std::string::npos;
       at = json.find(marker, at + 1)) {
    const size_t start = at + marker.size();
    const size_t end = json.find('"', start);
    const std::string name = json.substr(start, end - start);
    if (name.compare(0, prefix.size(), prefix) == 0) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

// Satellite parity requirement: a dashboard built against the materialized
// route's span names must keep working when a memory budget degrades the
// run to the re-query route.
TEST(PipelineObservabilityTest, SweepStepSpanNamesMatchAcrossRoutes) {
  constexpr size_t kLb = 3, kUb = 7;
  Dataset data = MakeData(250);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());

  TraceRecorder materialized_trace;
  {
    PipelineObserver observer;
    observer.trace = &materialized_trace;
    auto m = NeighborhoodMaterializer::MaterializeParallel(
        data, index, kUb, /*threads=*/2, /*distinct_neighbors=*/false,
        observer);
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(LofSweep::Run(*m, kLb, kUb, LofAggregation::kMax,
                              /*keep_per_min_pts=*/false, /*threads=*/2,
                              observer)
                    .ok());
  }

  TraceRecorder requery_trace;
  {
    PipelineObserver observer;
    observer.trace = &requery_trace;
    ASSERT_TRUE(
        RequerySweep(data, index, kLb, kUb, /*threads=*/2, observer).ok());
  }

  const auto materialized = SpanNames(materialized_trace, "sweep.min_pts_");
  const auto requery = SpanNames(requery_trace, "sweep.min_pts_");
  EXPECT_EQ(materialized.size(), kUb - kLb + 1);
  EXPECT_EQ(materialized, requery);
}

TEST(PipelineObservabilityTest, FlightRecorderCapturesBothSites) {
  constexpr size_t kLb = 3, kUb = 6;
  Dataset data = MakeData(200);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());

  // Materialize path: one timed unit per batch chunk, one query per point.
  {
    QueryStats stats;
    QueryFlightRecorder flight;
    PipelineObserver observer;
    observer.query_stats = &stats;
    observer.flight = &flight;
    ASSERT_TRUE(NeighborhoodMaterializer::MaterializeParallel(
                    data, index, kUb, /*threads=*/2,
                    /*distinct_neighbors=*/false, observer)
                    .ok());
    const auto report = flight.Merge();
    ASSERT_EQ(report.sites.size(), 1u);
    EXPECT_EQ(report.sites[0].site, QueryFlightRecorder::Site::kMaterialize);
    EXPECT_EQ(report.sites[0].engine, "linear_scan");
    EXPECT_EQ(report.sites[0].sampled_queries, data.size());
    EXPECT_FALSE(report.slowest.empty());
  }

  // Re-query path: every per-point k-distance/lrd/lof lookup is a unit.
  {
    QueryStats stats;
    QueryFlightRecorder flight;
    PipelineObserver observer;
    observer.query_stats = &stats;
    observer.flight = &flight;
    ASSERT_TRUE(
        RequerySweep(data, index, kLb, kUb, /*threads=*/2, observer).ok());
    const auto report = flight.Merge();
    ASSERT_EQ(report.sites.size(), 1u);
    EXPECT_EQ(report.sites[0].site, QueryFlightRecorder::Site::kSweep);
    EXPECT_GT(report.sites[0].sampled_queries, 0u);
    const auto& latency = report.sites[0].latency;
    EXPECT_EQ(latency.total_count, report.sites[0].sampled_queries);
    EXPECT_LE(latency.Quantile(0.50), latency.Quantile(0.99));
  }
}

TEST(PipelineObservabilityTest, ProgressCountsMaterializeAndSweepUnits) {
  constexpr size_t kLb = 2, kUb = 5;
  Dataset data = MakeData(150);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());

  ProgressTracker progress;
  PipelineObserver observer;
  observer.progress = &progress;
  auto m = NeighborhoodMaterializer::MaterializeParallel(
      data, index, kUb, /*threads=*/2, /*distinct_neighbors=*/false,
      observer);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(progress.units_done(), data.size());
  ASSERT_TRUE(LofSweep::Run(*m, kLb, kUb, LofAggregation::kMax,
                            /*keep_per_min_pts=*/false, /*threads=*/2,
                            observer)
                  .ok());
  const size_t steps = kUb - kLb + 1;
  EXPECT_EQ(progress.units_done(), data.size() * (1 + steps));
}

// The hard acceptance bar: scores are bit-identical with and without the
// full observer complement, at every thread count, on both routes.
TEST(PipelineObservabilityTest, ArmedObserverNeverChangesScoreBits) {
  constexpr size_t kLb = 3, kUb = 6;
  Dataset data = MakeData(220);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto plain_m = NeighborhoodMaterializer::Materialize(
      data, index, kUb, /*distinct_neighbors=*/false);
  ASSERT_TRUE(plain_m.ok());
  auto baseline = LofSweep::Run(*plain_m, kLb, kUb);
  ASSERT_TRUE(baseline.ok());

  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    QueryStats stats;
    TraceRecorder trace;
    QueryFlightRecorder flight;
    ProgressTracker progress;
    PipelineObserver observer;
    observer.query_stats = &stats;
    observer.trace = &trace;
    observer.flight = &flight;
    observer.progress = &progress;

    auto m = NeighborhoodMaterializer::MaterializeParallel(
        data, index, kUb, threads, /*distinct_neighbors=*/false, observer);
    ASSERT_TRUE(m.ok());
    auto sweep = LofSweep::Run(*m, kLb, kUb, LofAggregation::kMax,
                               /*keep_per_min_pts=*/false, threads, observer);
    ASSERT_TRUE(sweep.ok());
    ASSERT_EQ(sweep->aggregated.size(), baseline->aggregated.size());
    for (size_t i = 0; i < baseline->aggregated.size(); ++i) {
      EXPECT_EQ(sweep->aggregated[i], baseline->aggregated[i])
          << "threads=" << threads << " point " << i;
    }

    auto requery = RequerySweep(data, index, kLb, kUb, threads, observer);
    ASSERT_TRUE(requery.ok());
    for (size_t i = 0; i < baseline->aggregated.size(); ++i) {
      EXPECT_EQ(requery->aggregated[i], baseline->aggregated[i])
          << "requery threads=" << threads << " point " << i;
    }
  }
}

TEST(PipelineObservabilityTest, StepSecondsMatchTheRange) {
  constexpr size_t kLb = 2, kUb = 6;
  Dataset data = MakeData(150);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(
      data, index, kUb, /*distinct_neighbors=*/false);
  ASSERT_TRUE(m.ok());
  auto sweep = LofSweep::Run(*m, kLb, kUb, LofAggregation::kMax,
                             /*keep_per_min_pts=*/false, /*threads=*/3);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->step_seconds.size(), kUb - kLb + 1);
  for (double seconds : sweep->step_seconds) EXPECT_GE(seconds, 0.0);
}

}  // namespace
}  // namespace lofkit

// bench_e2e — the CSV-to-top-N benchmark. It runs lofkit_cli's pipeline,
// in the CLI's order, over a seeded CSV file and times every call into a
// public layer API from outside:
//
//   load         DatasetFromCsvFile
//   index_build  CreateIndex / CreateIndexByName + KnnIndex::Build
//   materialize  NeighborhoodMaterializer::MaterializeParallel, or
//                internal_lof::SpillMaterialize on the spill workload
//   sweep        LofSweep::Run, or LofSweep::RunPruned on the prune workload
//   rank         RankDescending (top 10)
//   write        WriteCsvFile of every aggregated score
//
// Usage:
//   bench_e2e --seed S                    every workload, one after another
//   bench_e2e --workload NAME --seed S [--seconds T] [--trace 0|1]
//   bench_e2e --workload NAME --seed S --export-csv PATH
//
// A workload first prepares, untimed: it generates the seeded dataset,
// writes it as CSV into --workdir and ranks it once on the workload's
// reference route. It then re-executes itself with --measure, so that
// peak_rss_mb is the resident peak of the measured runs alone. The child
// runs one warm-up, then timed runs until --seconds have passed (and at
// least two), with counters and spans off. run_s and setup_s are medians
// over samples of at least one second of consecutive runs, each sample the
// mean of its runs. With --trace 1 every other run is traced: the query
// counters are armed and each layer call is recorded as a span. The
// per-layer metrics come from the traced runs, and trace.overhead_pct
// compares them with the untraced ones. The memory-bandwidth and
// distance-kernel floors are measured afterwards in this process.
//
// Every run's top 10 (index and score) is checked against the reference,
// and the bench exits non-zero when a check or a call fails. It prints
// `name value unit` for every metric, writes BENCH_e2e.json (BenchReport
// format) and, for a single workload, ends with one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). LOFKIT_BENCH_SMOKE=1 shrinks every workload to 2000 points
// and two timed runs.
//
// --export-csv writes the workload's CSV to PATH, the equivalent
// lofkit_cli flags to PATH.args and the bench's top 10, formatted as the
// CLI prints it, to PATH.top10 (see cli_parity_test.cmake).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "common/bench_report.h"
#include "common/crc32c.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "dataset/generators.h"
#include "dataset/loaders.h"
#include "dataset/metric.h"
#include "dataset/point_block.h"
#include "index/index_factory.h"
#include "index/neighborhood_materializer.h"
#include "lof/lof_sweep.h"
#include "lof/spill.h"

using namespace lofkit;         // NOLINT
using namespace lofkit::bench;  // NOLINT

namespace {

constexpr size_t kMinPtsLb = 10;
constexpr size_t kMinPtsUb = 50;
constexpr size_t kTopN = 10;
constexpr size_t kSmokePoints = 2000;
constexpr size_t kClusters = 100;
constexpr size_t kMinUntracedRuns = 2;
constexpr double kSampleSeconds = 1.0;
// The spill workload's memory budget for M: 64 MiB puts the 320 MB M of
// 400k points on the spill rung; the smoke dataset's 1.6 MB M needs 1 MiB.
constexpr size_t kSpillBudgetMb = 64;
constexpr size_t kSmokeSpillBudgetMb = 1;

// The metrics BENCHMARK.json declares, in the order the final line lists
// them.
constexpr std::string_view kEndToEnd[] = {"run_s", "setup_s", "peak_rss_mb"};
constexpr std::string_view kPerLayer[] = {
    "load.s",
    "load.mb_per_s",
    "index_build.s",
    "materialize.s",
    "materialize.distance_evals",
    "materialize.node_visits",
    "materialize.leaf_visits",
    "materialize.heap_pushes",
    "materialize.rank_prune_hits",
    "materialize.evals_per_query",
    "materialize.m_bytes",
    "sweep.s",
    "sweep.k_distance_s",
    "sweep.lrd_s",
    "sweep.lof_s",
    "sweep.idle_frac",
    "sweep.bytes_computed",
    "prune.survivor_fraction",
    "prune.evaluations_avoided",
    "spill.file_bytes",
    "rank.s",
    "write.s",
    "write.bytes",
    "trace.overhead_pct",
    "floor.stream_gb_per_s",
    "floor.kernel_gevals_per_s",
    "sweep.bandwidth_efficiency",
    "materialize.kernel_efficiency",
};

enum class Generator { kMixture, kPruneGrid };
enum class Route { kInRam, kPrune, kSpill };

// One benchmark workload. Its reference route ranks the same CSV on
// `reference_engine`, in RAM, with the full sweep; `tolerance` is the
// relative score difference allowed against it (0 = bit-identical).
// README.md records why each workload was chosen.
struct Workload {
  std::string_view name;
  Generator generator;
  size_t dimension;
  size_t points;
  std::string_view engine;  // "auto" or a CreateIndexByName name
  Route route;
  std::string_view reference_engine;
  double tolerance;
};

constexpr Workload kWorkloads[] = {
    {"gauss2d_sweep", Generator::kMixture, 2, 100000, "kd_tree",
     Route::kInRam, "grid", 1e-9},
    {"gauss5d_auto", Generator::kMixture, 5, 50000, "auto", Route::kInRam,
     "kd_tree", 1e-9},
    {"prune_top10", Generator::kPruneGrid, 2, 100000, "kd_tree",
     Route::kPrune, "kd_tree", 0.0},
    {"spill_400k", Generator::kMixture, 2, 400000, "kd_tree", Route::kSpill,
     "kd_tree", 0.0},
};

enum Layer { kLoad, kIndexBuild, kMaterialize, kSweep, kRank, kWrite,
             kLayerCount };
constexpr const char* kLayerNames[kLayerCount] = {
    "load", "index_build", "materialize", "sweep", "rank", "write"};

size_t PointCount(const Workload& w) {
  return SmokeMode() ? kSmokePoints : w.points;
}

size_t SpillBudgetBytes() {
  return (SmokeMode() ? kSmokeSpillBudgetMb : kSpillBudgetMb) << 20;
}

Result<const Workload*> WorkloadByName(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return Status::NotFound("unknown workload: " + std::string(name));
}

// --- Inputs ---------------------------------------------------------------

// The fig11 prune-axis dataset: ten sigma-1 clusters on a grid plus ten
// planted outliers in the empty rows between them, pairwise >= 25 apart so
// no outlier sits in another's MinPts-neighborhood. This is the regime
// where the section-5 bounds certify the cluster mass as inliers.
Result<Dataset> MakePruneGrid(Rng& rng, size_t n) {
  std::vector<generators::GaussianSpec> specs;
  for (size_t c = 0; c < 10; ++c) {
    generators::GaussianSpec spec;
    spec.center = {10.0 + 20.0 * static_cast<double>(c % 5),
                   c < 5 ? 25.0 : 75.0};
    spec.stddev = 1.0;
    spec.count = (n - kTopN) / 10 + (c < (n - kTopN) % 10 ? 1 : 0);
    specs.push_back(spec);
  }
  LOFKIT_ASSIGN_OR_RETURN(Dataset data,
                          generators::MakeGaussianMixture(rng, 2, specs));
  for (size_t o = 0; o < kTopN; ++o) {
    const double coords[2] = {
        25.0 * static_cast<double>(o % 5) + rng.Uniform(-1.0, 1.0),
        (o < 5 ? 12.0 : 62.0) + rng.Uniform(-1.0, 1.0)};
    LOFKIT_RETURN_IF_ERROR(generators::AppendPoint(data, coords));
  }
  return data;
}

// Generates the workload's dataset from `seed` and writes it as a
// headerless CSV of full-precision coordinates — the program's input.
Status WriteWorkloadCsv(const Workload& w, uint64_t seed,
                        const std::string& path) {
  Rng rng(seed);
  const size_t n = PointCount(w);
  LOFKIT_ASSIGN_OR_RETURN(
      Dataset data,
      w.generator == Generator::kPruneGrid
          ? MakePruneGrid(rng, n)
          : generators::MakePerformanceWorkload(rng, w.dimension, n,
                                                kClusters));
  CsvTable table;
  table.rows.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    const auto point = data.point(i);
    table.rows.emplace_back(point.begin(), point.end());
  }
  return WriteCsvFile(path, table);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// --- The pipeline -----------------------------------------------------------

struct RunSpec {
  std::string csv_path;
  std::string scores_path;
  std::string spill_dir;
  std::string_view engine;
  Route route = Route::kInRam;
  size_t threads = 4;
};

struct RunResult {
  double layer_s[kLayerCount] = {};
  double wall_s = 0.0;
  std::vector<RankedOutlier> top;
  // Read only from the traced runs; `stats` counts only there.
  QueryStats stats;
  size_t points = 0;
  size_t m_entries = 0;
  bool spilled = false;
  LofPhaseTimes phases;
  double step_seconds_sum = 0.0;
  LofSweepResult::PruneSummary prune;
  uint64_t write_bytes = 0;

  double setup_s() const {
    return layer_s[kLoad] + layer_s[kIndexBuild];
  }
};

// Runs one layer call, storing its wall time in run.layer_s[layer]; with
// `trace` armed the call is also recorded as a span named after the layer.
template <typename Fn>
auto TimeLayer(TraceRecorder* trace, Layer layer, RunResult& run, Fn&& fn) {
  TraceRecorder::Span span(trace, kLayerNames[layer]);
  Stopwatch watch;
  auto result = fn();
  run.layer_s[layer] = watch.ElapsedSeconds();
  return result;
}

// One run from CSV file to written scores and ranked top 10, in the order
// lofkit_cli makes the same calls. `count` arms the query-cost counters.
Result<RunResult> RunPipeline(const RunSpec& spec, TraceRecorder* trace,
                              bool count) {
  RunResult run;
  PipelineObserver observer;
  if (count) observer.query_stats = &run.stats;
  Stopwatch wall;

  LOFKIT_ASSIGN_OR_RETURN(
      Dataset data, TimeLayer(trace, kLoad, run, [&] {
        return DatasetFromCsvFile(spec.csv_path);
      }));
  run.points = data.size();

  std::unique_ptr<KnnIndex> index;
  LOFKIT_RETURN_IF_ERROR(
      TimeLayer(trace, kIndexBuild, run, [&]() -> Status {
        if (spec.engine == "auto") {
          index = CreateIndex(RecommendIndexKind(data.dimension()));
        } else {
          LOFKIT_ASSIGN_OR_RETURN(index, CreateIndexByName(spec.engine));
        }
        return index->Build(data, Euclidean());
      }));

  // The CLI's budget test: spill only when the projected M overflows it.
  run.spilled = spec.route == Route::kSpill &&
                NeighborhoodMaterializer::ProjectedBytes(
                    data.size(), kMinPtsUb) > SpillBudgetBytes();
  LOFKIT_ASSIGN_OR_RETURN(
      NeighborhoodMaterializer m, TimeLayer(trace, kMaterialize, run, [&] {
        return run.spilled
                   ? internal_lof::SpillMaterialize(
                         data, *index, kMinPtsUb, spec.threads,
                         /*distinct_neighbors=*/false, spec.spill_dir,
                         observer)
                   : NeighborhoodMaterializer::MaterializeParallel(
                         data, *index, kMinPtsUb, spec.threads,
                         /*distinct_neighbors=*/false, observer);
      }));
  run.m_entries = m.total_neighbor_count();

  LOFKIT_ASSIGN_OR_RETURN(
      LofSweepResult sweep, TimeLayer(trace, kSweep, run, [&] {
        if (spec.route == Route::kPrune) {
          LofSweep::PruneOptions prune;
          prune.top_n = kTopN;
          return LofSweep::RunPruned(m, kMinPtsLb, kMinPtsUb, prune,
                                     LofAggregation::kMax, spec.threads,
                                     observer);
        }
        return LofSweep::Run(m, kMinPtsLb, kMinPtsUb, LofAggregation::kMax,
                             /*keep_per_min_pts=*/false, spec.threads,
                             observer);
      }));
  run.phases = sweep.phase_times;
  for (double s : sweep.step_seconds) run.step_seconds_sum += s;
  run.prune = sweep.prune;

  run.top = TimeLayer(trace, kRank, run, [&] {
    return RankDescending(sweep.aggregated, kTopN);
  });

  LOFKIT_RETURN_IF_ERROR(TimeLayer(trace, kWrite, run, [&] {
    CsvTable table;
    table.header = {"point", "score"};
    for (size_t i = 0; i < sweep.aggregated.size(); ++i) {
      table.rows.push_back({static_cast<double>(i), sweep.aggregated[i]});
    }
    return WriteCsvFile(spec.scores_path, table);
  }));
  run.wall_s = wall.ElapsedSeconds();
  std::error_code ec;
  run.write_bytes = std::filesystem::file_size(spec.scores_path, ec);
  return run;
}

// --- Reference top 10 -----------------------------------------------------

Status WriteTop(const std::string& path,
                const std::vector<RankedOutlier>& top) {
  std::ofstream out(path);
  for (const RankedOutlier& r : top) {
    out << r.index << ' ' << StrFormat("%.17g", r.score) << '\n';
  }
  out.close();
  return out ? Status::OK() : Status::IoError("cannot write " + path);
}

Result<std::vector<RankedOutlier>> ReadTop(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<RankedOutlier> top;
  RankedOutlier r;
  while (in >> r.index >> r.score) top.push_back(r);
  if (!in.eof()) return Status::InvalidArgument("malformed " + path);
  return top;
}

// Number of top entries whose index and score agree with the reference
// (scores within `tolerance` relative difference; 0 = bit-identical).
size_t MatchingEntries(const std::vector<RankedOutlier>& top,
                       const std::vector<RankedOutlier>& reference,
                       double tolerance) {
  size_t matches = 0;
  for (size_t i = 0; i < std::min(top.size(), reference.size()); ++i) {
    const double a = top[i].score;
    const double b = reference[i].score;
    const bool score_ok =
        tolerance == 0.0
            ? a == b
            : std::abs(a - b) <= tolerance * std::max(std::abs(a),
                                                      std::abs(b));
    if (top[i].index == reference[i].index && score_ok) ++matches;
  }
  return matches;
}

// --- Statistics and output ------------------------------------------------

// Linearly interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

struct Measurement {
  std::string name;
  double value;
  std::string unit;
};

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  // A timing's median over `samples`, with its quartiles and the sample
  // count beside it.
  void AddTiming(const std::string& name, const std::vector<double>& samples) {
    Add(name, Median(samples), "s");
    Add(name + ".p25", Quantile(samples, 0.25), "s");
    Add(name + ".p75", Quantile(samples, 0.75), "s");
    Add(name + ".samples", static_cast<double>(samples.size()), "count");
  }

  const Measurement* Find(std::string_view name) const {
    for (const Measurement& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  double Value(std::string_view name) const {
    const Measurement* m = Find(name);
    return m != nullptr ? m->value : std::nan("");
  }

  const std::vector<Measurement>& all() const { return metrics_; }

  void Print() const {
    for (const Measurement& m : metrics_) {
      std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  // Reads back the `name value unit` lines Print() wrote.
  static MetricList Parse(const std::string& text) {
    MetricList list;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      std::istringstream fields(line);
      Measurement m;
      if (fields >> m.name >> m.value >> m.unit) list.metrics_.push_back(m);
    }
    return list;
  }

 private:
  std::vector<Measurement> metrics_;
};

// --- The measured child (--measure) ---------------------------------------

// Splits consecutive timed runs into samples of at least kSampleSeconds of
// run time each and returns, per sample, the mean of `values` over its runs
// (a trailing partial sample is dropped when a full one exists). On a
// shared host a core can switch between a fast and a much slower state
// within seconds, which makes a single-threaded phase's time bimodal from
// run to run; averaging inside a sample keeps the median of the samples
// from jumping between the two modes.
std::vector<double> SampleMeans(const std::vector<double>& run_s,
                                const std::vector<double>& values) {
  std::vector<double> samples;
  double span = 0.0;
  double sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < run_s.size(); ++i) {
    span += run_s[i];
    sum += values[i];
    ++count;
    if (span >= kSampleSeconds) {
      samples.push_back(sum / static_cast<double>(count));
      span = sum = 0.0;
      count = 0;
    }
  }
  if (samples.empty() && count > 0) {
    samples.push_back(sum / static_cast<double>(count));
  }
  return samples;
}

struct WorkPaths {
  std::string dir;
  std::string csv() const { return dir + "/data.csv"; }
  std::string reference() const { return dir + "/reference_top10.txt"; }
  std::string scores() const { return dir + "/scores.csv"; }
  std::string spill() const { return dir + "/spill"; }
  std::string trace() const { return dir + "/trace.json"; }
};

RunSpec BenchSpec(const Workload& w, const WorkPaths& paths, size_t threads) {
  return {paths.csv(), paths.scores(), paths.spill(), w.engine, w.route,
          threads};
}

// Per-layer metrics from the traced runs; `untraced_run_s` are the wall
// times of the untraced runs measured alongside them.
void AddLayerMetrics(const std::vector<RunResult>& traced_runs,
                     const std::vector<double>& untraced_run_s,
                     const WorkPaths& paths, size_t threads,
                     MetricList& out) {
  auto median_of = [&](auto&& field) {
    std::vector<double> values;
    for (const RunResult& r : traced_runs) values.push_back(field(r));
    return Median(values);
  };
  auto layer = [&](Layer l) {
    return median_of([l](const RunResult& r) { return r.layer_s[l]; });
  };
  const RunResult& run = traced_runs.front();
  const double n = static_cast<double>(run.points);
  const double csv_bytes =
      static_cast<double>(std::filesystem::file_size(paths.csv()));
  const double m_bytes = static_cast<double>(
      run.m_entries * sizeof(Neighbor) + (run.points + 1) * sizeof(size_t));
  // Bytes the full sweep's two neighbor passes read per MinPts step k:
  // each of the n * k neighbor records plus one gathered double (the
  // neighbor's k-distance, then its lrd) per record. Computed from the
  // sizes, ties ignored; cache misses are not counted.
  double sweep_bytes = 0.0;
  for (size_t k = kMinPtsLb; k <= kMinPtsUb; ++k) {
    sweep_bytes += 2.0 * n * static_cast<double>(k) *
                   static_cast<double>(sizeof(Neighbor) + sizeof(double));
  }
  const QueryStats& stats = run.stats;
  const double traced_wall =
      median_of([](const RunResult& r) { return r.wall_s; });

  out.Add("load.s", layer(kLoad), "s");
  out.Add("load.mb_per_s", csv_bytes / 1e6 / layer(kLoad), "MB/s");
  out.Add("index_build.s", layer(kIndexBuild), "s");
  out.Add("materialize.s", layer(kMaterialize), "s");
  out.Add("materialize.distance_evals",
          static_cast<double>(stats.distance_evals), "count");
  out.Add("materialize.node_visits", static_cast<double>(stats.node_visits),
          "count");
  out.Add("materialize.leaf_visits", static_cast<double>(stats.leaf_visits),
          "count");
  out.Add("materialize.heap_pushes", static_cast<double>(stats.heap_pushes),
          "count");
  out.Add("materialize.rank_prune_hits",
          static_cast<double>(stats.rank_prune_hits), "count");
  out.Add("materialize.evals_per_query",
          static_cast<double>(stats.distance_evals) /
              static_cast<double>(std::max<uint64_t>(stats.queries, 1)),
          "count");
  out.Add("materialize.m_bytes", m_bytes, "bytes");
  out.Add("sweep.s", layer(kSweep), "s");
  out.Add("sweep.k_distance_s", median_of([](const RunResult& r) {
            return r.phases.k_distance_seconds;
          }),
          "s");
  out.Add("sweep.lrd_s",
          median_of([](const RunResult& r) { return r.phases.lrd_seconds; }),
          "s");
  out.Add("sweep.lof_s",
          median_of([](const RunResult& r) { return r.phases.lof_seconds; }),
          "s");
  out.Add("sweep.idle_frac", median_of([&](const RunResult& r) {
            return 1.0 - r.step_seconds_sum / (static_cast<double>(threads) *
                                               r.layer_s[kSweep]);
          }),
          "fraction");
  out.Add("sweep.bytes_computed", sweep_bytes, "bytes");
  out.Add("prune.survivor_fraction",
          run.prune.applied ? run.prune.survivor_fraction() : 1.0,
          "fraction");
  out.Add("prune.survivors",
          static_cast<double>(run.prune.applied ? run.prune.survivors
                                                : run.points),
          "count");
  out.Add("prune.evaluations_avoided",
          static_cast<double>(run.prune.pruned_evaluations), "count");
  out.Add("spill.file_bytes", run.spilled ? m_bytes : 0.0, "bytes");
  out.Add("rank.s", layer(kRank), "s");
  out.Add("write.s", layer(kWrite), "s");
  out.Add("write.bytes", static_cast<double>(run.write_bytes), "bytes");
  out.Add("trace.run_s", traced_wall, "s");
  out.Add("trace.overhead_pct",
          100.0 * (traced_wall / Median(untraced_run_s) - 1.0), "%");
  out.Add("trace.span_coverage", median_of([](const RunResult& r) {
            double spans = 0.0;
            for (double s : r.layer_s) spans += s;
            return spans / r.wall_s;
          }),
          "fraction");
}

// The exact counters of a traced run; they must repeat run after run.
std::vector<uint64_t> ExactCounters(const RunResult& run) {
  return {run.stats.queries,     run.stats.distance_evals,
          run.stats.node_visits, run.stats.leaf_visits,
          run.stats.heap_pushes, run.stats.rank_prune_hits,
          run.m_entries,         run.prune.survivors};
}

// Runs the warm-up and the timed runs and prints their metrics. Returns
// the process exit code: non-zero when a call failed, a top 10 differed
// from the reference or the traced runs' counters did not repeat.
int MeasureChild(const Workload& w, const WorkPaths& paths, double seconds,
                 bool traced, size_t threads) {
  auto reference = ReadTop(paths.reference());
  if (!reference.ok() || reference->size() != kTopN) {
    std::fprintf(stderr, "error: bad reference file %s\n",
                 paths.reference().c_str());
    return 1;
  }
  const RunSpec spec = BenchSpec(w, paths, threads);
  TraceRecorder recorder;
  size_t attempted = 0;
  size_t failed = 0;
  size_t matched = 0;
  // Spans and counters are armed only on traced runs.
  auto run_once = [&](bool trace) -> std::optional<RunResult> {
    ++attempted;
    auto run = RunPipeline(spec, trace ? &recorder : nullptr, trace);
    if (!run.ok()) {
      ++failed;
      std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
      return std::nullopt;
    }
    matched += MatchingEntries(run->top, *reference, w.tolerance);
    return std::move(run).value();
  };

  // After one warm-up, runs are timed until --seconds have passed and at
  // least kMinUntracedRuns untraced runs were made. With --trace 1 every
  // other run is traced, so traced and untraced runs see the same machine
  // conditions.
  std::vector<double> run_s;
  std::vector<double> setup_s;
  std::vector<RunResult> traced_runs;
  bool ok = run_once(false).has_value();
  Stopwatch window;
  while (ok && (run_s.size() < kMinUntracedRuns ||
                (!SmokeMode() && window.ElapsedSeconds() < seconds))) {
    const bool trace = traced && traced_runs.size() < run_s.size();
    auto run = run_once(trace);
    ok = run.has_value();
    if (!ok) break;
    if (trace) {
      traced_runs.push_back(std::move(*run));
    } else {
      run_s.push_back(run->wall_s);
      setup_s.push_back(run->setup_s());
    }
  }
  bool deterministic = true;
  for (const RunResult& r : traced_runs) {
    deterministic &= ExactCounters(r) == ExactCounters(traced_runs.front());
  }

  MetricList out;
  out.AddTiming("run_s", SampleMeans(run_s, run_s));
  out.AddTiming("setup_s", SampleMeans(run_s, setup_s));
  out.Add("runs", static_cast<double>(run_s.size()), "count");
  out.Add("peak_rss_mb",
          static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0), "MiB");
  out.Add("topn_match",
          static_cast<double>(matched) /
              static_cast<double>(attempted * kTopN),
          "fraction");
  out.Add("failed_frac",
          static_cast<double>(failed) / static_cast<double>(attempted),
          "fraction");
  out.Add("attempted", static_cast<double>(attempted), "count");
  out.Add("failed", static_cast<double>(failed), "count");
  out.Add("counters_repeat", deterministic ? 1.0 : 0.0, "bool");
  if (ok && !traced_runs.empty()) {
    AddLayerMetrics(traced_runs, run_s, paths, threads, out);
    if (Status status = recorder.WriteJson(paths.trace()); !status.ok()) {
      std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
    }
  }
  out.Print();
  return ok && matched == attempted * kTopN && deterministic ? 0 : 1;
}

// --- Floors (traced runs only) ----------------------------------------------

volatile double g_sink = 0.0;  // keeps the floor loops from being elided

// The reported L3 size, or 32 MiB where the platform does not report one.
size_t LastLevelCacheBytes() {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return llc > 0 ? static_cast<size_t>(llc) : size_t{32} << 20;
}

// Read bandwidth of `threads` workers each summing its own slice of an
// array four times the last-level cache (the sweep only reads M); the best
// of three passes, in GB/s. Smoke mode shrinks the array to 64 MiB.
double StreamFloorGbPerS(size_t threads, size_t array_bytes) {
  std::vector<double> array(array_bytes / sizeof(double), 1.0);
  const size_t len = array.size();
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<double> sums(threads, 0.0);
    Stopwatch watch;
    (void)ParallelFor(threads, threads, [&](size_t t) -> Status {
      double sum = 0.0;
      for (size_t i = len * t / threads; i < len * (t + 1) / threads; ++i) {
        sum += array[i];
      }
      sums[t] = sum;
      return Status::OK();
    });
    const double seconds = watch.ElapsedSeconds();
    g_sink = std::accumulate(sums.begin(), sums.end(), 0.0);
    best = std::max(best, static_cast<double>(array_bytes) / seconds / 1e9);
  }
  return best;
}

// Distance evaluations per second of the blocked Euclidean kernel at
// dimension `d` (Metric::kernels().rank_block over an in-cache SoA set of
// 4096 points), summed over `threads` workers running for ~0.2 s each.
double KernelFloorEvalsPerS(size_t d, size_t threads) {
  auto data = Dataset::Create(d);
  if (!data.ok()) return std::nan("");
  Rng rng(7);
  std::vector<double> point(d);
  for (size_t i = 0; i < 4096; ++i) {
    for (double& c : point) c = rng.Uniform(0.0, 100.0);
    (void)data->Append(point);
  }
  const auto view = data->blocks();
  const DistanceKernels kern = Euclidean().kernels();
  std::vector<double> rates(threads, 0.0);
  std::vector<double> sums(threads, 0.0);
  (void)ParallelFor(threads, threads, [&](size_t t) -> Status {
    std::vector<double> query(d, 50.0 + static_cast<double>(t));
    double out[kKernelLanes];
    double sum = 0.0;
    size_t evals = 0;
    Stopwatch watch;
    do {
      for (size_t b = 0; b < view->num_blocks(); ++b) {
        kern.rank_block(kern.ctx, query.data(), view->block(b), d, out);
        sum += out[0];
      }
      evals += view->num_blocks() * kKernelLanes;
    } while (watch.ElapsedSeconds() < 0.2);
    rates[t] = static_cast<double>(evals) / watch.ElapsedSeconds();
    sums[t] = sum;
    return Status::OK();
  });
  g_sink = std::accumulate(sums.begin(), sums.end(), 0.0);
  double total = 0.0;
  for (double r : rates) total += r;
  return total;
}

void AddFloors(const Workload& w, size_t threads, MetricList& metrics) {
  const size_t llc = LastLevelCacheBytes();
  const size_t array_bytes = SmokeMode() ? size_t{64} << 20 : 4 * llc;
  const double stream = StreamFloorGbPerS(threads, array_bytes);
  const double kernel = KernelFloorEvalsPerS(w.dimension, threads);
  metrics.Add("floor.llc_bytes", static_cast<double>(llc), "bytes");
  metrics.Add("floor.stream_array_bytes", static_cast<double>(array_bytes),
              "bytes");
  metrics.Add("floor.stream_gb_per_s", stream, "GB/s");
  metrics.Add("floor.kernel_gevals_per_s", kernel / 1e9, "Gevals/s");
  // Efficiency = the floor's time for the layer's work / the layer's time.
  metrics.Add("sweep.bandwidth_efficiency",
              metrics.Value("sweep.bytes_computed") / (stream * 1e9) /
                  metrics.Value("sweep.s"),
              "fraction");
  metrics.Add("materialize.kernel_efficiency",
              metrics.Value("materialize.distance_evals") / kernel /
                  metrics.Value("materialize.s"),
              "fraction");
}

// --- The parent: prepare, measure in a child, report ------------------------

std::string ShellQuote(const std::string& s) {
  std::string quoted = "'";
  for (char c : s) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  return quoted + "'";
}

struct Options {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t threads = 4;
  std::string workdir;

  WorkPaths PathsFor(const Workload& w) const {
    return {workdir + "/" + std::string(w.name)};
  }
};

// Untimed: writes the seeded CSV and the reference route's top 10.
Status Prepare(const Workload& w, const Options& opt, const WorkPaths& paths,
               MetricList& metrics) {
  std::error_code ec;
  std::filesystem::create_directories(paths.spill(), ec);
  if (ec) return Status::IoError("cannot create " + paths.spill());
  LOFKIT_RETURN_IF_ERROR(WriteWorkloadCsv(w, opt.seed, paths.csv()));
  LOFKIT_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(paths.csv()));
  metrics.Add("dataset.points", static_cast<double>(PointCount(w)), "count");
  metrics.Add("dataset.dimension", static_cast<double>(w.dimension),
              "count");
  metrics.Add("dataset.crc32c",
              static_cast<double>(Crc32c::Value(bytes.data(), bytes.size())),
              "hash");
  RunSpec reference = BenchSpec(w, paths, opt.threads);
  reference.engine = w.reference_engine;
  reference.route = Route::kInRam;
  LOFKIT_ASSIGN_OR_RETURN(RunResult run,
                          RunPipeline(reference, nullptr, false));
  return WriteTop(paths.reference(), run.top);
}

// Prepares one workload, measures it in a child process and collects the
// child's metrics (plus the floors when traced). Returns false when any
// step or output check failed.
bool MeasureWorkload(const Workload& w, const Options& opt,
                     MetricList& metrics) {
  const WorkPaths paths = opt.PathsFor(w);
  if (Status status = Prepare(w, opt, paths, metrics); !status.ok()) {
    std::fprintf(stderr, "error: prepare %s: %s\n",
                 std::string(w.name).c_str(), status.ToString().c_str());
    return false;
  }
  const std::string command = StrFormat(
      "%s --measure --workload %s --workdir %s --seconds %.17g --trace %d "
      "--threads %zu",
      ShellQuote(std::filesystem::read_symlink("/proc/self/exe").string())
          .c_str(),
      std::string(w.name).c_str(), ShellQuote(opt.workdir).c_str(),
      opt.seconds, opt.trace ? 1 : 0, opt.threads);
  std::fflush(stdout);
  FILE* child = popen(command.c_str(), "r");
  if (child == nullptr) {
    std::fprintf(stderr, "error: cannot start %s\n", command.c_str());
    return false;
  }
  std::string text;
  char buffer[4096];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), child)) > 0) {
    text.append(buffer, got);
  }
  const int child_status = pclose(child);
  const MetricList measured = MetricList::Parse(text);
  for (const Measurement& m : measured.all()) {
    metrics.Add(m.name, m.value, m.unit);
  }
  if (opt.trace && measured.Find("materialize.s") != nullptr) {
    AddFloors(w, opt.threads, metrics);
  }
  // The child exits non-zero when a call failed, a top 10 differed from the
  // reference or the traced runs' counters did not repeat.
  const bool correct = child_status == 0 && measured.Find("run_s") != nullptr;
  metrics.Add("correct", correct ? 1.0 : 0.0, "bool");
  return correct;
}

// The last stdout line: the metrics BENCHMARK.json declares for this mode.
void PrintResultLine(const MetricList& metrics, bool trace) {
  // A child that died before reporting counts as one failed attempt.
  const bool reported = std::isfinite(metrics.Value("attempted"));
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, "
      "\"metrics\": {",
      metrics.Value("correct") == 1.0 ? "true" : "false",
      reported ? metrics.Value("attempted") : 1.0,
      reported ? metrics.Value("failed") : 1.0);
  const auto names = trace ? std::span<const std::string_view>(kPerLayer)
                           : std::span<const std::string_view>(kEndToEnd);
  bool first = true;
  for (std::string_view name : names) {
    const Measurement* m = metrics.Find(name);
    if (m == nullptr) continue;
    const double v = m->value;
    json += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      first ? "" : ", ", m->name.c_str(),
                      std::isfinite(v) ? StrFormat("%.17g", v).c_str()
                                       : "null",
                      m->unit.c_str());
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
}

// --export-csv: the workload's CSV, the equivalent lofkit_cli flags and the
// bench route's top 10 rows as the CLI prints them.
int ExportCsv(const Workload& w, const Options& opt, const std::string& path) {
  const WorkPaths paths = opt.PathsFor(w);
  std::error_code ec;
  std::filesystem::create_directories(paths.spill(), ec);
  RunSpec spec = BenchSpec(w, paths, opt.threads);
  spec.csv_path = path;
  if (Status status = WriteWorkloadCsv(w, opt.seed, path); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  auto run = RunPipeline(spec, nullptr, false);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  std::ofstream args(path + ".args");
  args << "--index " << w.engine << " --minpts-lb " << kMinPtsLb
       << " --minpts-ub " << kMinPtsUb << " --threads " << opt.threads
       << " --top " << kTopN;
  if (w.route == Route::kPrune) args << " --prune";
  if (w.route == Route::kSpill) {
    args << " --memory-budget-mb " << (SpillBudgetBytes() >> 20)
         << " --spill-dir " << paths.spill();
  }
  args << '\n';
  std::ofstream top(path + ".top10");
  for (size_t i = 0; i < run->top.size(); ++i) {
    top << StrFormat("%-6zu %-10u %-10.4f \n", i + 1, run->top[i].index,
                     run->top[i].score);
  }
  args.close();
  top.close();
  return args && top ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("workload", "",
                  "workload to run (empty = every workload): "
                  "gauss2d_sweep, gauss5d_auto, prune_top10 or spill_400k");
  flags.AddU64("seed", 1, "seed of the generated datasets");
  flags.AddDouble("seconds", 10.0,
                  "how long the timed runs of one workload last (at least "
                  "two untraced runs are timed)");
  flags.AddU64("trace", 0,
               "1 = trace every other timed run and report the per-layer "
               "metrics");
  flags.AddU64("threads", 4, "worker threads of every pipeline call");
  flags.AddString("workdir", "bench_e2e_work",
                  "directory for the generated CSVs, references, scores "
                  "and spill files");
  flags.AddString("export-csv", "",
                  "write the workload's CSV here, with .args and .top10 "
                  "beside it, and exit");
  flags.AddBool("measure", false,
                "internal: run the measured runs of a prepared workload");
  if (Status status = flags.Parse(argc - 1, argv + 1); !status.ok()) {
    std::fprintf(stderr, "%s\n\nusage: %s [flags]\n%s",
                 status.ToString().c_str(), argv[0], flags.Help().c_str());
    return 2;
  }
  Options opt;
  opt.seed = flags.GetU64("seed");
  opt.seconds = flags.GetDouble("seconds");
  opt.trace = flags.GetU64("trace") != 0;
  opt.threads = std::max<size_t>(1, flags.GetU64("threads"));
  opt.workdir = flags.GetString("workdir");

  std::vector<const Workload*> selected;
  if (flags.GetString("workload").empty()) {
    for (const Workload& w : kWorkloads) selected.push_back(&w);
  } else {
    auto w = WorkloadByName(flags.GetString("workload"));
    if (!w.ok()) {
      std::fprintf(stderr, "error: %s\n", w.status().ToString().c_str());
      return 2;
    }
    selected.push_back(*w);
  }
  if (flags.GetBool("measure") || !flags.GetString("export-csv").empty()) {
    if (selected.size() != 1) {
      std::fprintf(stderr, "error: --measure and --export-csv need "
                           "--workload\n");
      return 2;
    }
    return flags.GetBool("measure")
               ? MeasureChild(*selected[0], opt.PathsFor(*selected[0]),
                              opt.seconds, opt.trace, opt.threads)
               : ExportCsv(*selected[0], opt, flags.GetString("export-csv"));
  }

  BenchReport report("e2e");
  report.SetManifest("seed", static_cast<double>(opt.seed));
  report.SetManifest("threads", static_cast<double>(opt.threads));
  report.SetManifest("seconds", opt.seconds);
  report.SetManifest("trace", opt.trace ? 1.0 : 0.0);
  report.SetManifest("min_pts", StrFormat("[%zu, %zu]", kMinPtsLb,
                                          kMinPtsUb));
  bool all_correct = true;
  MetricList last;
  for (const Workload* w : selected) {
    MetricList metrics;
    all_correct &= MeasureWorkload(*w, opt, metrics);
    std::printf("# workload %s\n", std::string(w->name).c_str());
    metrics.Print();
    std::vector<std::pair<std::string, double>> row;
    for (const Measurement& m : metrics.all()) {
      row.emplace_back(m.name, m.value);
    }
    report.Add(std::string(w->name), std::move(row));
    last = std::move(metrics);
  }
  if (Status status = report.Write(); !status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  }
  if (selected.size() == 1) PrintResultLine(last, opt.trace);
  return all_correct ? 0 : 1;
}

// lofkit_cli — score a CSV dataset with a local-outlier scorer from the
// command line.
//
// The tool drives the full paper pipeline: load -> (optionally normalize)
// -> choose a kNN engine -> materialize neighborhoods (step 1, optionally
// persisted/reloaded) -> score sweep over a MinPts range (step 2, LOF by
// default; --scorer picks LDOF, the KDE density scorer, or the
// kNN-distance / DB baselines on the same substrate) -> rank by the
// section-6.2 aggregate -> print the top outliers, optionally with
// per-dimension explanations, and optionally dump all scores as CSV.
//
// Examples:
//   lofkit_cli --input points.csv --top 10
//   lofkit_cli --input points.csv --top 10 --scorer kde
//   lofkit_cli --input big.csv --top 10 --prune
//   lofkit_cli --input games.csv --has-header --label-column 0
//       --normalize --minpts-lb 30 --minpts-ub 50 --explain
//   lofkit_cli --input big.csv --save-materialization m.bin
//   lofkit_cli --input big.csv --load-materialization m.bin --top 20
//   lofkit_cli --input points.csv --stats-json stats.json
//       --trace-json trace.json
//   lofkit_cli --input big.csv --metrics-text metrics.prom
//       --stats-interval-ms 1000 --flight-json flight.json

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "common/cancellation.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/metrics_publisher.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "dataset/loaders.h"
#include "dataset/metric.h"
#include "index/index_factory.h"
#include "index/rkd_forest_index.h"
#include "lof/explain.h"
#include "lof/local_scorer.h"
#include "lof/scorer_sweep.h"
#include "lof/spill.h"
#include "lof/subspace.h"
#include "lof/lof_sweep.h"

using namespace lofkit;  // NOLINT

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<LofAggregation> AggregationByName(const std::string& name) {
  if (name == "max") return LofAggregation::kMax;
  if (name == "min") return LofAggregation::kMin;
  if (name == "mean") return LofAggregation::kMean;
  return Status::InvalidArgument("unknown aggregation: " + name +
                                 " (use max, min or mean)");
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("input", "", "input CSV file of numeric columns (required)");
  flags.AddBool("has-header", false, "first CSV line is a header");
  flags.AddU64("label-column", 0, "0-based column used as point label");
  flags.AddBool("use-label-column", false,
                "treat --label-column as labels, not coordinates");
  flags.AddBool("normalize", false,
                "rescale every dimension to [0,1] before computing "
                "distances (recommended for mixed units)");
  flags.AddString("metric", "euclidean",
                  "distance: euclidean, manhattan, chebyshev or angular");
  flags.AddString("index", "auto",
                  "knn engine: auto, linear_scan, grid, kd_tree, "
                  "rstar_tree, va_file, m_tree or rkd_forest "
                  "(approximate; see the --ann-* flags)");
  flags.AddU64("ann-trees", 8,
               "rkd_forest: number of randomized trees in the forest");
  flags.AddU64("ann-checks", 256,
               "rkd_forest: candidate budget per kNN query (0 = unbounded "
               "= exact); lower is faster, higher is more accurate — see "
               "docs/tuning_guide.md for the measured recall dial");
  flags.AddDouble("ann-eps", 0.0,
                  "rkd_forest: branch-pruning slack; a branch is skipped "
                  "when it cannot improve the k-distance by more than a "
                  "(1+eps) factor (0 = admissible best-bin-first)");
  flags.AddU64("ann-seed", RkdForestIndex::kDefaultSeed,
               "rkd_forest: seed for the randomized splits; equal seeds "
               "give bit-identical forests and scores on every thread "
               "count");
  flags.AddString("scorer", "lof",
                  "outlier scorer on the shared neighborhood substrate: "
                  "lof, ldof, kde, knn_distance or db_outlier");
  flags.AddDouble("kde-bandwidth-scale", 1.0,
                  "kde scorer: per-neighbor bandwidth h = scale * "
                  "k-distance (must be > 0; larger smooths more)");
  flags.AddDouble("db-pct", 95.0,
                  "db_outlier scorer: the pct of DB(pct, dmin)");
  flags.AddDouble("db-dmin", 0.0,
                  "db_outlier scorer: the dmin radius (0 = derive 2x the "
                  "median MinPts-distance from the data)");
  flags.AddU64("minpts-lb", 10, "lower bound of the MinPts range");
  flags.AddU64("minpts-ub", 20, "upper bound of the MinPts range");
  flags.AddString("aggregation", "max",
                  "score aggregation over the range: max, min or mean");
  flags.AddBool("distinct", false,
                "use k-distinct-distance neighborhoods (duplicate-safe)");
  flags.AddU64("threads", 0,
               "worker threads for materialization and the LOF sweep "
               "(0 = one per hardware thread, 1 = sequential; the scores "
               "are identical for every value)");
  flags.AddU64("top", 10, "number of outliers to print (0 = all)");
  flags.AddBool("prune", false,
                "prune-first top-N ranking (paper section 5): certify "
                "inliers with LOF bound estimates and run the full "
                "evaluation only on the survivors; needs --top >= 1, "
                "ranking identical to the full sweep");
  flags.AddBool("explain", false,
                "print the dominant deviating attribute per outlier");
  flags.AddString("explain-json", "",
                  "write per-dimension explanations of the printed "
                  "outliers as JSON (non-finite scores serialize as null, "
                  "so the file always parses)");
  flags.AddBool("subspaces", false,
                "search minimal outlying attribute subspaces per printed "
                "outlier (exhaustive up to 2 dims; d <= 30)");
  flags.AddString("output", "", "write per-point aggregated scores as CSV");
  flags.AddString("save-materialization", "",
                  "persist the neighborhood database (step 1) to this file");
  flags.AddString("load-materialization", "",
                  "reuse a previously saved neighborhood database");
  flags.AddBool("map-materialization", false,
                "serve --load-materialization zero-copy via mmap instead of "
                "copying it into RAM (container-format files only; scores "
                "are bit-identical either way)");
  flags.AddString("spill-dir", "",
                  "directory for the memory-budget spill rung (empty = "
                  "disabled): when the projected neighborhood database "
                  "exceeds --memory-budget-mb, stream it into a temporary "
                  "file here and serve it via mmap instead of degrading to "
                  "the re-query path; identical scores, and --prune stays "
                  "available");
  flags.AddU64("deadline-ms", 0,
               "abort the run with deadline_exceeded after this many "
               "milliseconds (0 = no deadline); checked cooperatively at "
               "chunk boundaries, so long runs stop within milliseconds");
  flags.AddU64("memory-budget-mb", 0,
               "memory budget for the neighborhood database in MiB (0 = "
               "unlimited); when the projected size exceeds it the run "
               "spills to disk (with --spill-dir) or degrades to the slower "
               "bounded-memory re-query path, with identical scores either "
               "way; a --load-materialization file is mapped, as with "
               "--map-materialization");
  flags.AddString("stats-json", "",
                  "write run metrics (query-cost counters, phase seconds, "
                  "score/neighborhood histograms) as JSON to this file");
  flags.AddString("trace-json", "",
                  "write pipeline trace spans as Chrome trace-event JSON "
                  "(chrome://tracing, Perfetto) to this file");
  flags.AddString("metrics-text", "",
                  "write run metrics in the OpenMetrics text exposition "
                  "(the Prometheus scrape format) to this file");
  flags.AddString("flight-json", "",
                  "write the flight recorder's slow-query report (per-site "
                  "latency quantiles, the slowest sampled queries, the "
                  "recent-query rings) as JSON to this file");
  flags.AddU64("flight-sample-stride", 1,
               "flight recorder: time every Nth query unit (1 = all); "
               "skipped units pay no clock reads or counter snapshots");
  flags.AddU64("stats-interval-ms", 0,
               "rewrite --metrics-text with a progress heartbeat every N "
               "milliseconds while the run is in flight (0 = write only "
               "the final snapshot; requires --metrics-text)");
  flags.AddBool("help", false, "show this help");

  if (Status status = flags.Parse(argc - 1, argv + 1); !status.ok()) {
    std::fprintf(stderr, "%s\n\nusage: %s --input data.csv [flags]\n%s",
                 status.ToString().c_str(), argv[0], flags.Help().c_str());
    return 2;
  }
  if (flags.GetBool("help") || flags.GetString("input").empty()) {
    std::printf("usage: %s --input data.csv [flags]\n%s", argv[0],
                flags.Help().c_str());
    return flags.GetBool("help") ? 0 : 2;
  }

  // Observability: every sink is armed only when an output flag wants it,
  // so the default run carries no counting, timing or tracing overhead.
  // The latency quantiles in --stats-json/--metrics-text come from the
  // flight recorder, so those flags arm it too (and timing needs the
  // counters, so the flight recorder arms query_stats).
  const std::string stats_path = flags.GetString("stats-json");
  const std::string trace_path = flags.GetString("trace-json");
  const std::string metrics_text_path = flags.GetString("metrics-text");
  const std::string flight_path = flags.GetString("flight-json");
  const uint64_t stats_interval_ms = flags.GetU64("stats-interval-ms");
  if (stats_interval_ms > 0 && metrics_text_path.empty()) {
    return Fail(Status::InvalidArgument(
        "--stats-interval-ms needs --metrics-text: the periodic heartbeat "
        "is published as OpenMetrics text to that file"));
  }
  const bool want_stats = !stats_path.empty() || !metrics_text_path.empty();
  TraceRecorder trace;
  QueryStats materialize_stats;
  QueryFlightRecorder::Options flight_options;
  flight_options.sample_stride = flags.GetU64("flight-sample-stride");
  QueryFlightRecorder flight(flight_options);
  ProgressTracker progress;
  PipelineObserver observer;
  if (want_stats || !flight_path.empty()) {
    observer.query_stats = &materialize_stats;
    observer.flight = &flight;
  }
  if (!trace_path.empty()) observer.trace = &trace;
  observer.progress = &progress;

  // Heartbeat publisher: while armed, rewrites --metrics-text atomically
  // every interval with liveness gauges; the full snapshot replaces the
  // heartbeat once the run completes.
  Stopwatch run_watch;
  progress.SetPhase("load");
  std::optional<SnapshotPublisher> publisher;
  if (stats_interval_ms > 0) {
    publisher.emplace(
        metrics_text_path, std::chrono::milliseconds(stats_interval_ms),
        [&progress, &run_watch]() {
          MetricsRegistry heartbeat;
          heartbeat.Set(heartbeat.Gauge("progress.fraction"),
                        progress.FractionComplete());
          heartbeat.Set(heartbeat.Gauge("progress.units_done"),
                        static_cast<double>(progress.units_done()));
          heartbeat.Set(heartbeat.Gauge("progress.units_total"),
                        static_cast<double>(progress.units_total()));
          heartbeat.Set(heartbeat.Gauge(
                            StrFormat("progress.phase.%s", progress.phase())),
                        1.0);
          heartbeat.Set(heartbeat.Gauge("pipeline.uptime_seconds"),
                        run_watch.ElapsedSeconds());
          heartbeat.Set(heartbeat.Gauge("pipeline.peak_rss_bytes"),
                        static_cast<double>(PeakRssBytes()));
          return heartbeat.Aggregate().ToOpenMetrics();
        });
  }

  // Load.
  Stopwatch load_watch;
  TraceRecorder::Span load_span(observer.trace, "load");
  DatasetLoadOptions load_options;
  load_options.csv.has_header = flags.GetBool("has-header");
  if (flags.GetBool("use-label-column")) {
    load_options.label_column =
        static_cast<int>(flags.GetU64("label-column"));
  }
  auto data_or = DatasetFromCsvFile(flags.GetString("input"), load_options);
  if (!data_or.ok()) return Fail(data_or.status());
  Dataset data = std::move(data_or).value();
  const Dataset* working = &data;
  std::optional<Dataset> normalized;
  if (flags.GetBool("normalize")) {
    normalized.emplace(data.NormalizedToUnitBox());
    working = &*normalized;
  }
  load_span.End();
  const double load_seconds = load_watch.ElapsedSeconds();
  std::fprintf(stderr, "loaded %zu points of dimension %zu\n", data.size(),
               data.dimension());

  auto metric_or = MetricByName(flags.GetString("metric"));
  if (!metric_or.ok()) return Fail(metric_or.status());
  const Metric& metric = **metric_or;

  const size_t lb = flags.GetU64("minpts-lb");
  const size_t ub = flags.GetU64("minpts-ub");
  const size_t threads = flags.GetU64("threads");

  // Approximate-engine knobs. They only take effect with
  // --index rkd_forest; `approximate` records whether the dial actually
  // left exactness (checks=0 eps=0 is plain best-bin-first).
  AnnIndexOptions ann;
  ann.trees = flags.GetU64("ann-trees");
  ann.seed = flags.GetU64("ann-seed");
  ann.search.checks = flags.GetU64("ann-checks");
  ann.search.eps = flags.GetDouble("ann-eps");
  const bool approximate =
      flags.GetString("index") == "rkd_forest" &&
      (ann.search.checks != 0 || ann.search.eps > 0.0);
  if (flags.GetBool("prune") && approximate) {
    return Fail(Status::InvalidArgument(
        "--prune requires exact neighborhoods: the section-5 bound "
        "certificates are unsound over approximate kNN results; drop "
        "--prune, use an exact engine, or set --ann-checks 0 --ann-eps 0"));
  }

  // Scorer selection. Every scorer sweeps through ScorerSweep over the
  // same substrate; only --prune (LOF-specific) takes LofSweep::RunPruned.
  auto scorer_or = CreateScorerByName(flags.GetString("scorer"));
  if (!scorer_or.ok()) return Fail(scorer_or.status());
  const std::unique_ptr<LocalScorer>& scorer = *scorer_or;
  const std::string scorer_name(scorer->name());
  const bool is_lof = scorer->kind() == ScorerKind::kLof;
  if (flags.GetBool("prune") && !is_lof) {
    return Fail(Status::InvalidArgument(
        "--prune is specific to the LOF scorer: the section-5 bound "
        "certificates bound LOF values, not " + scorer_name +
        " scores; drop --prune or use --scorer lof"));
  }

  // Robustness knobs: a wall-clock deadline for the whole pipeline and a
  // memory budget for M. An unset deadline keeps the token empty, so the
  // hot loops pay only a null-pointer test.
  const uint64_t deadline_ms = flags.GetU64("deadline-ms");
  const size_t memory_budget_bytes =
      static_cast<size_t>(flags.GetU64("memory-budget-mb")) << 20;
  std::optional<StopSource> stop_source;
  StopToken stop;
  if (deadline_ms > 0) {
    stop_source.emplace(
        StopSource::AfterTimeout(std::chrono::milliseconds(deadline_ms)));
    stop = stop_source->token();
  }

  // Step 1: materialize (or reload) M. Under a memory budget the ladder
  // may instead spill M to disk or skip it, leaving the sweep to re-query
  // the index (internal_lof::MaterializeWithinBudget).
  Stopwatch watch;
  std::optional<NeighborhoodMaterializer> m;
  std::unique_ptr<KnnIndex> index;
  internal_lof::BudgetRung rung = internal_lof::BudgetRung::kInRam;
  double index_build_seconds = 0.0;
  const size_t projected_bytes =
      NeighborhoodMaterializer::ProjectedBytes(working->size(), ub);
  if (!flags.GetString("load-materialization").empty()) {
    TraceRecorder::Span span(observer.trace, "load_materialization");
    // Under a memory budget a reloaded M is mapped, never copied: mapped
    // pages are file cache the kernel can reclaim, not anonymous memory.
    const bool map =
        flags.GetBool("map-materialization") || memory_budget_bytes > 0;
    if (map && !flags.GetBool("map-materialization")) {
      std::fprintf(stderr,
                   "--memory-budget-mb set: mapping the loaded "
                   "materialization instead of copying it into RAM\n");
    }
    auto loaded =
        map ? NeighborhoodMaterializer::MapFromFile(
                  flags.GetString("load-materialization"), working)
            : NeighborhoodMaterializer::LoadFromFile(
                  flags.GetString("load-materialization"), working);
    if (!loaded.ok()) return Fail(loaded.status());
    m.emplace(std::move(loaded).value());
    span.End();
    std::fprintf(stderr, "%s materialization (k_max=%zu) in %.3fs\n",
                 map ? "mapped" : "reloaded", m->k_max(),
                 watch.ElapsedSeconds());
  } else {
    progress.SetPhase("index_build");
    if (flags.GetString("index") == "auto") {
      index = CreateIndex(RecommendIndexKind(working->dimension()));
    } else {
      auto by_name = CreateIndexByName(flags.GetString("index"), ann);
      if (!by_name.ok()) return Fail(by_name.status());
      index = std::move(by_name).value();
    }
    {
      TraceRecorder::Span span(observer.trace, "index_build");
      if (Status status = index->Build(*working, metric); !status.ok()) {
        return Fail(status);
      }
    }
    index_build_seconds = watch.ElapsedSeconds();
    watch.Reset();
    progress.SetPhase("materialize");
    progress.SetTotal(working->size());
    auto built = internal_lof::MaterializeWithinBudget(
        *working, *index, ub, threads, flags.GetBool("distinct"),
        memory_budget_bytes, flags.GetString("spill-dir"), observer, stop);
    if (!built.ok()) return Fail(built.status());
    rung = built->rung;
    m = std::move(built->m);
    if (m) {
      std::fprintf(stderr,
                   rung == internal_lof::BudgetRung::kSpilled
                       ? "spilled %zu neighborhoods to disk (%s index, "
                         "mmap-served) in %.3fs\n"
                       : "materialized %zu neighborhoods (%s index) in "
                         "%.3fs\n",
                   m->size(), index->name().data(), watch.ElapsedSeconds());
    }
  }
  const bool degraded_to_requery =
      rung == internal_lof::BudgetRung::kRequery;
  const double materialize_seconds = watch.ElapsedSeconds();
  if (!flags.GetString("save-materialization").empty()) {
    if (!m) {
      std::fprintf(stderr,
                   "--save-materialization skipped: no neighborhood "
                   "database was built on the re-query path\n");
    } else if (Status status =
                   m->SaveToFile(flags.GetString("save-materialization"));
               !status.ok()) {
      return Fail(status);
    }
  }

  // Step 2: sweep and rank.
  auto aggregation = AggregationByName(flags.GetString("aggregation"));
  if (!aggregation.ok()) return Fail(aggregation.status());
  const size_t top_n = flags.GetU64("top");
  bool prune = flags.GetBool("prune");
  if (prune && top_n == 0) {
    return Fail(Status::InvalidArgument(
        "--prune needs --top >= 1: pruning discards against the top-N "
        "threshold, which an unbounded ranking does not have"));
  }
  if (prune && degraded_to_requery) {
    // The re-query path has no materialization for the bound stage to
    // read; the full evaluation produces identical ranking bits.
    prune = false;
    std::fprintf(stderr,
                 "--prune skipped: the memory budget degraded the run to "
                 "the re-query path, which has no neighborhood database to "
                 "compute bounds from\n");
  }
  watch.Reset();
  progress.SetPhase("sweep");
  // Progress units accumulate across phases: the sweep adds n units per
  // MinPts step on top of whatever materialization already contributed.
  const size_t sweep_steps = ub >= lb ? ub - lb + 1 : 0;
  progress.SetTotal(progress.units_done() + working->size() * sweep_steps);
  TraceRecorder::Span sweep_span(observer.trace, "sweep");
  std::vector<double> aggregated;
  std::vector<ScorerPhase> phases;
  std::vector<double> step_seconds;
  LofSweepResult::PruneSummary prune_summary;
  if (prune) {
    LofSweep::PruneOptions prune_options;
    prune_options.top_n = top_n;
    auto sweep = LofSweep::RunPruned(*m, lb, ub, prune_options, *aggregation,
                                     threads, observer, stop);
    if (!sweep.ok()) return Fail(sweep.status());
    aggregated = std::move(sweep->aggregated);
    phases = {{"k_distance", sweep->phase_times.k_distance_seconds},
              {"lrd", sweep->phase_times.lrd_seconds},
              {"lof", sweep->phase_times.lof_seconds}};
    step_seconds = std::move(sweep->step_seconds);
    prune_summary = sweep->prune;
  } else {
    LocalScorerOptions scorer_options;
    scorer_options.threads = threads;
    scorer_options.observer = observer;
    scorer_options.stop = stop;
    scorer_options.kde_bandwidth_scale =
        flags.GetDouble("kde-bandwidth-scale");
    scorer_options.db_pct = flags.GetDouble("db-pct");
    scorer_options.db_dmin = flags.GetDouble("db-dmin");
    auto sweep = [&]() -> Result<ScorerSweepResult> {
      LOFKIT_ASSIGN_OR_RETURN(
          DensitySubstrate substrate,
          m ? DensitySubstrate::OverMaterialization(*m, working, &metric)
            : DensitySubstrate::OverIndex(*working, *index, &metric));
      return ScorerSweep::Run(substrate, *scorer, lb, ub, *aggregation,
                              /*keep_per_min_pts=*/false, scorer_options);
    }();
    if (!sweep.ok()) return Fail(sweep.status());
    aggregated = std::move(sweep->aggregated);
    phases = std::move(sweep->phases);
    step_seconds = std::move(sweep->step_seconds);
  }
  sweep_span.End();
  if (is_lof) {
    std::fprintf(stderr, "computed LOF for MinPts in [%zu, %zu] in %.3fs\n",
                 lb, ub, watch.ElapsedSeconds());
  } else {
    std::fprintf(stderr,
                 "computed %s scores for MinPts in [%zu, %zu] in %.3fs\n",
                 scorer_name.c_str(), lb, ub, watch.ElapsedSeconds());
  }
  if (prune_summary.applied) {
    std::fprintf(stderr,
                 "prune stage: %zu of %zu points survived the bound "
                 "threshold %.4f (%.1f%%); %zu LOF evaluations avoided\n",
                 prune_summary.survivors, prune_summary.total_points,
                 prune_summary.threshold,
                 100.0 * prune_summary.survivor_fraction(),
                 prune_summary.pruned_evaluations);
  }
  // Per-phase breakdown, in the scorer's own phase vocabulary (each phase
  // is summed over the MinPts steps, so they read like CPU seconds when
  // the sweep ran in parallel).
  std::string phase_line = StrFormat(
      "phase seconds: load=%.3f index_build=%.3f materialize=%.3f",
      load_seconds, index_build_seconds, materialize_seconds);
  for (const ScorerPhase& phase : phases) {
    phase_line += StrFormat(" %s=%.3f", phase.name.c_str(), phase.seconds);
  }
  std::fprintf(stderr, "%s\n", phase_line.c_str());

  const std::string explain_json_path = flags.GetString("explain-json");
  if ((flags.GetBool("explain") || !explain_json_path.empty()) &&
      degraded_to_requery) {
    std::fprintf(stderr,
                 "--explain skipped: explanations need the materialized "
                 "neighborhood database, which the memory budget ruled "
                 "out\n");
  }
  progress.SetPhase("rank");
  TraceRecorder::Span rank_span(observer.trace, "rank");
  auto ranked = RankDescending(aggregated, top_n);
  rank_span.End();
  std::vector<std::string> explanation_json;
  std::printf("%-6s %-10s %-10s %s\n", "rank", "point", "score", "label");
  for (size_t i = 0; i < ranked.size(); ++i) {
    std::printf("%-6zu %-10u %-10.4f %s", i + 1, ranked[i].index,
                ranked[i].score, data.label(ranked[i].index).c_str());
    if ((flags.GetBool("explain") || !explain_json_path.empty()) && m) {
      auto explanation =
          ExplainOutlier(*working, *m, ranked[i].index, lb);
      if (explanation.ok()) {
        if (flags.GetBool("explain")) {
          const size_t dim = explanation->ranked_dimensions[0];
          std::printf("  [dim %zu: %.0f%% of deviation]", dim,
                      100.0 * explanation->contribution[dim]);
        }
        if (!explain_json_path.empty()) {
          explanation_json.push_back(ExplanationToJson(
              *explanation, ranked[i].index, ranked[i].score));
        }
      }
    }
    if (flags.GetBool("subspaces")) {
      auto subspaces = FindOutlyingSubspaces(
          *working, ranked[i].index,
          {.min_pts = lb, .max_dimensions = 2, .lof_threshold = 1.5,
           .normalize = true});
      if (subspaces.ok() && !subspaces->empty()) {
        std::printf("  [outlying in:");
        for (size_t s = 0; s < std::min<size_t>(3, subspaces->size()); ++s) {
          std::printf(" {");
          for (size_t d = 0; d < (*subspaces)[s].dimensions.size(); ++d) {
            std::printf("%s%zu", d ? "," : "",
                        (*subspaces)[s].dimensions[d]);
          }
          std::printf("}");
        }
        std::printf("]");
      }
    }
    std::printf("\n");
  }

  if (!explain_json_path.empty() && m) {
    std::ofstream out(explain_json_path);
    if (!out) {
      return Fail(Status::IoError("cannot open explanation output file: " +
                                  explain_json_path));
    }
    out << "[\n";
    for (size_t i = 0; i < explanation_json.size(); ++i) {
      out << "  " << explanation_json[i]
          << (i + 1 < explanation_json.size() ? ",\n" : "\n");
    }
    out << "]\n";
    std::fprintf(stderr, "wrote %zu explanations to %s\n",
                 explanation_json.size(), explain_json_path.c_str());
  }

  double write_seconds = 0.0;
  if (!flags.GetString("output").empty()) {
    Stopwatch write_watch;
    CsvTable table;
    table.header = {"point", "score"};
    for (size_t i = 0; i < aggregated.size(); ++i) {
      table.rows.push_back(
          {static_cast<double>(i), aggregated[i]});
    }
    if (Status status = WriteCsvFile(flags.GetString("output"), table);
        !status.ok()) {
      return Fail(status);
    }
    write_seconds = write_watch.ElapsedSeconds();
    std::fprintf(stderr, "wrote scores to %s\n",
                 flags.GetString("output").c_str());
  }

  // The flight recorder's deterministic fold feeds both the slow-query
  // report and the latency histograms spliced into the stats snapshot.
  QueryFlightRecorder::Report flight_report;
  if (observer.flight != nullptr) flight_report = flight.Merge();

  if (want_stats) {
    MetricsRegistry registry;
    registry.AddQueryStats("materialize", materialize_stats);
    registry.Set(registry.Gauge("dataset.points"),
                 static_cast<double>(data.size()));
    registry.Set(registry.Gauge("dataset.dimension"),
                 static_cast<double>(data.dimension()));
    registry.Set(registry.Gauge("sweep.min_pts_lb"),
                 static_cast<double>(lb));
    registry.Set(registry.Gauge("sweep.min_pts_ub"),
                 static_cast<double>(ub));
    registry.Set(registry.Gauge("pipeline.degraded_to_requery"),
                 degraded_to_requery ? 1.0 : 0.0);
    registry.Set(registry.Gauge("pipeline.spilled_to_disk"),
                 rung == internal_lof::BudgetRung::kSpilled ? 1.0 : 0.0);
    registry.Set(registry.Gauge("pipeline.prune_applied"),
                 prune_summary.applied ? 1.0 : 0.0);
    if (prune_summary.applied) {
      registry.Add(registry.Counter("pipeline.prune_survivors"),
                   prune_summary.survivors);
      registry.Add(registry.Counter("pipeline.prune_pruned"),
                   prune_summary.total_points - prune_summary.survivors);
      registry.Add(registry.Counter("pipeline.prune_evaluations_avoided"),
                   prune_summary.pruned_evaluations);
      registry.Set(registry.Gauge("pipeline.prune_survivor_fraction"),
                   prune_summary.survivor_fraction());
      registry.Set(registry.Gauge("pipeline.prune_threshold"),
                   prune_summary.threshold);
    }
    registry.Set(registry.Gauge("pipeline.ann_enabled"),
                 approximate ? 1.0 : 0.0);
    if (flags.GetString("index") == "rkd_forest") {
      registry.Set(registry.Gauge("pipeline.ann_trees"),
                   static_cast<double>(ann.trees));
      registry.Set(registry.Gauge("pipeline.ann_checks"),
                   static_cast<double>(ann.search.checks));
      registry.Set(registry.Gauge("pipeline.ann_eps"), ann.search.eps);
      registry.Set(registry.Gauge("pipeline.ann_seed"),
                   static_cast<double>(ann.seed));
    }
    registry.Set(registry.Gauge("materialize.projected_bytes"),
                 static_cast<double>(projected_bytes));
    registry.Set(registry.Gauge("pipeline.memory_budget_bytes"),
                 static_cast<double>(memory_budget_bytes));
    registry.Set(registry.Gauge("pipeline.deadline_ms"),
                 static_cast<double>(deadline_ms));
    if (m) {
      registry.Set(registry.Gauge("materialize.k_max"),
                   static_cast<double>(m->k_max()));
    }
    registry.Set(registry.Gauge("phase.load_seconds"), load_seconds);
    registry.Set(registry.Gauge("phase.index_build_seconds"),
                 index_build_seconds);
    registry.Set(registry.Gauge("phase.materialize_seconds"),
                 materialize_seconds);
    registry.Set(registry.Gauge("phase.write_seconds"), write_seconds);
    // Phase gauges in the scorer's own vocabulary — phase.k_distance_seconds
    // / phase.lrd_seconds / phase.lof_seconds for LOF, phase.ldof_seconds
    // for LDOF, and so on.
    for (const ScorerPhase& phase : phases) {
      registry.Set(
          registry.Gauge(StrFormat("phase.%s_seconds", phase.name.c_str())),
          phase.seconds);
    }
    if (m) {
      const MetricsRegistry::MetricId size_hist = registry.Histogram(
          "materialize.neighborhood_size", 1.0, 65536.0, 32);
      for (size_t i = 0; i < m->size(); ++i) {
        registry.Record(size_hist,
                        static_cast<double>(m->neighbors(i).size()));
      }
    }
    const MetricsRegistry::MetricId score_hist = registry.Histogram(
        StrFormat("%s.aggregated_score", scorer_name.c_str()), 0.0625, 64.0,
        40);
    for (double score : aggregated) {
      // Pruned points carry NaN placeholders instead of scores.
      if (!std::isnan(score)) registry.Record(score_hist, score);
    }
    registry.Set(registry.Gauge("pipeline.threads"),
                 static_cast<double>(threads));
    registry.Set(registry.Gauge("pipeline.peak_rss_bytes"),
                 static_cast<double>(PeakRssBytes()));
    if (!step_seconds.empty()) {
      const MetricsRegistry::MetricId step_hist =
          registry.Histogram("sweep.step_seconds", 1e-6, 1e4, 40);
      for (double s : step_seconds) registry.Record(step_hist, s);
    }
    for (const QueryFlightRecorder::SiteReport& site : flight_report.sites) {
      registry.Add(
          registry.Counter(StrFormat(
              "flight.%s.sampled_units",
              std::string(QueryFlightRecorder::SiteName(site.site)).c_str())),
          site.sampled_units);
      registry.Add(
          registry.Counter(StrFormat(
              "flight.%s.sampled_queries",
              std::string(QueryFlightRecorder::SiteName(site.site)).c_str())),
          site.sampled_queries);
    }
    MetricsRegistry::Snapshot snapshot = registry.Aggregate();
    // Splice the merged per-site latency histograms in: they carry the
    // p50/p95/p99 tail view that the work counters alone cannot.
    for (const QueryFlightRecorder::SiteReport& site : flight_report.sites) {
      snapshot.histograms.push_back(site.latency);
    }
    auto write_text = [](const std::string& path,
                         const std::string& text) -> Status {
      std::ofstream out(path);
      if (!out) {
        return Status::IoError("cannot open " + path + " for writing");
      }
      out << text;
      out.close();
      if (!out) return Status::IoError("failed writing " + path);
      return Status::OK();
    };
    if (!stats_path.empty()) {
      if (Status status = write_text(stats_path, snapshot.ToJson());
          !status.ok()) {
        return Fail(status);
      }
      std::fprintf(stderr, "wrote run metrics to %s\n", stats_path.c_str());
    }
    if (!metrics_text_path.empty()) {
      // Retire the heartbeat first so its final publish cannot overwrite
      // the terminal snapshot.
      progress.SetPhase("done");
      publisher.reset();
      if (Status status =
              write_text(metrics_text_path, snapshot.ToOpenMetrics());
          !status.ok()) {
        return Fail(status);
      }
      std::fprintf(stderr, "wrote OpenMetrics exposition to %s\n",
                   metrics_text_path.c_str());
    }
  }
  if (!flight_path.empty()) {
    if (Status status = flight_report.WriteJson(flight_path); !status.ok()) {
      return Fail(status);
    }
    std::fprintf(stderr,
                 "wrote flight report (%zu slow, %zu recent) to %s\n",
                 flight_report.slowest.size(), flight_report.recent.size(),
                 flight_path.c_str());
  }
  if (!trace_path.empty()) {
    if (Status status = trace.WriteJson(trace_path); !status.ok()) {
      return Fail(status);
    }
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 trace.event_count(), trace_path.c_str());
  }
  return 0;
}

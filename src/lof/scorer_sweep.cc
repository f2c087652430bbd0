#include "lof/scorer_sweep.h"

#include <algorithm>
#include <chrono>

#include "common/parallel.h"
#include "common/string_util.h"
#include "lof/spill.h"

namespace lofkit {

namespace {

// Accumulates one step's phase times into the sweep's merged vector,
// matching by name (first-seen order). Every scorer reports the same phase
// vocabulary at every step, so the merged vector mirrors one step's shape.
void MergePhases(std::vector<ScorerPhase>& merged,
                 const std::vector<ScorerPhase>& step) {
  for (const ScorerPhase& phase : step) {
    auto it = std::find_if(
        merged.begin(), merged.end(),
        [&](const ScorerPhase& p) { return p.name == phase.name; });
    if (it != merged.end()) {
      it->seconds += phase.seconds;
    } else {
      merged.push_back(phase);
    }
  }
}

}  // namespace

double ScorerSweepResult::PhaseSeconds(std::string_view name) const {
  for (const ScorerPhase& phase : phases) {
    if (phase.name == name) return phase.seconds;
  }
  return 0.0;
}

Result<ScorerSweepResult> ScorerSweep::Run(const DensitySubstrate& substrate,
                                           const LocalScorer& scorer,
                                           size_t min_pts_lb,
                                           size_t min_pts_ub,
                                           LofAggregation aggregation,
                                           bool keep_per_min_pts,
                                           const LocalScorerOptions& options) {
  LOFKIT_RETURN_IF_ERROR(ValidateSweepRange(min_pts_lb, min_pts_ub));
  if (substrate.materialized()) {
    if (min_pts_ub > substrate.k_max()) {
      return Status::OutOfRange(
          StrFormat("MinPtsUB (%zu) exceeds the materialized k_max (%zu)",
                    min_pts_ub, substrate.k_max()));
    }
  } else if (min_pts_ub >= substrate.size()) {
    return Status::InvalidArgument(
        StrFormat("MinPtsUB (%zu) must be smaller than the dataset size "
                  "(%zu)",
                  min_pts_ub, substrate.size()));
  }
  const size_t n = substrate.size();
  const size_t steps = min_pts_ub - min_pts_lb + 1;
  ScorerSweepResult result;
  result.min_pts_lb = min_pts_lb;
  result.min_pts_ub = min_pts_ub;
  result.aggregation = aggregation;
  result.degraded_to_requery = !substrate.materialized();
  std::vector<double> aggregated = MakeAggregationIdentity(aggregation, n);

  result.step_seconds.assign(steps, 0.0);

  if (substrate.materialized()) {
    // The per-MinPts computations are independent (each reads only the
    // substrate's backend), so they shard over the step axis; a
    // single-step sweep has no step parallelism, so the threads go into
    // the scorer's scans instead. Aggregating afterwards in ascending
    // MinPts order keeps the floating-point accumulation order — and thus
    // the result bits — identical to the sequential path.
    std::vector<LocalScores> per_step(steps);
    LOFKIT_RETURN_IF_ERROR(ParallelForWorker(
        steps, options.threads, options.stop,
        [&](size_t worker, size_t step) -> Status {
          // Span naming matches the re-query route step for step. A
          // multi-step sweep redirects the step span and the scorer's
          // nested phase spans (via trace_tid) onto the step worker's
          // track, so concurrent steps never pile onto one tid; the
          // single-step case stays on the caller's track.
          const uint32_t tid =
              steps == 1 ? options.observer.trace_tid
                         : static_cast<uint32_t>(worker + 1);
          TraceRecorder::Span span(
              options.observer.trace,
              StrFormat("sweep.min_pts_%zu", min_pts_lb + step), tid);
          LocalScorerOptions step_options = options;
          step_options.threads = steps == 1 ? options.threads : 1;
          step_options.observer.trace_tid = tid;
          if (steps != 1) {
            // Concurrent steps may not share the caller's plain-counter
            // sinks; on this (materialized) route the scorers run no kNN
            // queries anyway, so dropping them loses nothing.
            step_options.observer.query_stats = nullptr;
            step_options.observer.flight = nullptr;
          }
          const auto step_start = std::chrono::steady_clock::now();
          // Each concurrent step scores its own cursor-pool copy; the
          // single-step case keeps the caller's substrate so its pool
          // stays warm.
          const DensitySubstrate local(substrate);
          LOFKIT_ASSIGN_OR_RETURN(
              per_step[step],
              scorer.Score(steps == 1 ? substrate : local,
                           min_pts_lb + step, step_options));
          result.step_seconds[step] =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            step_start)
                  .count();
          if (options.observer.progress != nullptr) {
            options.observer.progress->Add(n);
          }
          return Status::OK();
        }));
    for (LocalScores& scores : per_step) {
      MergePhases(result.phases, scores.phases);
      result.has_infinite_density |= scores.has_infinite_density;
      AggregateStep(aggregation, steps, scores.score, aggregated);
      if (keep_per_min_pts) {
        result.per_min_pts.push_back(std::move(scores));
      }
    }
  } else {
    // Bounded-memory route: sequential ascending steps, threads and
    // observer inside each step — so peak memory stays at a few n-sized
    // arrays regardless of the range width, and the aggregation order
    // (and every aggregated bit) matches the materialized branch.
    for (size_t step = 0; step < steps; ++step) {
      TraceRecorder::Span span(
          options.observer.trace,
          StrFormat("sweep.min_pts_%zu", min_pts_lb + step),
          options.observer.trace_tid);
      const auto step_start = std::chrono::steady_clock::now();
      LOFKIT_ASSIGN_OR_RETURN(
          LocalScores scores,
          scorer.Score(substrate, min_pts_lb + step, options));
      span.End();
      result.step_seconds[step] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        step_start)
              .count();
      if (options.observer.progress != nullptr) {
        options.observer.progress->Add(n);
      }
      MergePhases(result.phases, scores.phases);
      result.has_infinite_density |= scores.has_infinite_density;
      AggregateStep(aggregation, steps, scores.score, aggregated);
      if (keep_per_min_pts) {
        result.per_min_pts.push_back(std::move(scores));
      }
    }
  }
  result.aggregated = std::move(aggregated);
  return result;
}

Result<std::vector<RankedOutlier>> ScorerSweep::RankOutliers(
    const Dataset& data, const Metric& metric, const LocalScorer& scorer,
    size_t min_pts_lb, size_t min_pts_ub, size_t top_n, IndexKind index_kind,
    LofAggregation aggregation, const LocalScorerOptions& options,
    const ScorerPipelineOptions& pipeline) {
  std::unique_ptr<KnnIndex> index = CreateIndex(index_kind, pipeline.ann);
  if (index == nullptr) {
    return Status::Internal("index factory returned null");
  }
  LOFKIT_RETURN_IF_ERROR(index->Build(data, metric));
  LOFKIT_ASSIGN_OR_RETURN(
      internal_lof::BudgetedMaterialization built,
      internal_lof::MaterializeWithinBudget(
          data, *index, min_pts_ub, options.threads,
          /*distinct_neighbors=*/false, pipeline.memory_budget_bytes,
          pipeline.spill_directory, options.observer, options.stop));
  if (pipeline.spilled_to_disk != nullptr) {
    *pipeline.spilled_to_disk =
        built.rung == internal_lof::BudgetRung::kSpilled;
  }
  if (pipeline.degraded_to_requery != nullptr) {
    *pipeline.degraded_to_requery =
        built.rung == internal_lof::BudgetRung::kRequery;
  }
  LOFKIT_ASSIGN_OR_RETURN(
      DensitySubstrate substrate,
      built.m ? DensitySubstrate::OverMaterialization(*built.m, &data,
                                                      &metric)
              : DensitySubstrate::OverIndex(data, *index, &metric));
  LOFKIT_ASSIGN_OR_RETURN(
      ScorerSweepResult sweep,
      Run(substrate, scorer, min_pts_lb, min_pts_ub, aggregation,
          /*keep_per_min_pts=*/false, options));
  return RankDescending(sweep.aggregated, top_n);
}

}  // namespace lofkit

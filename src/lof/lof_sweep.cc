#include "lof/lof_sweep.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "lof/local_scorer.h"
#include "lof/lof_pruner.h"
#include "lof/scorer_sweep.h"
#include "lof/spill.h"

namespace lofkit {

namespace {

// The LofSweep entry points are adapters over the generic ScorerSweep with
// the LOF scorer; these two converters map the scorer-agnostic result
// shape back onto the historical LOF-specific one (score = lof, density =
// lrd, the named phases back into LofPhaseTimes fields).
LofScores ToLofScores(LocalScores&& scores) {
  LofScores lof;
  lof.min_pts = scores.min_pts;
  lof.has_infinite_lrd = scores.has_infinite_density;
  lof.phase_times.k_distance_seconds = scores.PhaseSeconds("k_distance");
  lof.phase_times.lrd_seconds = scores.PhaseSeconds("lrd");
  lof.phase_times.lof_seconds = scores.PhaseSeconds("lof");
  lof.lrd = std::move(scores.density);
  lof.lof = std::move(scores.score);
  return lof;
}

LofSweepResult ToLofSweepResult(ScorerSweepResult&& sweep) {
  LofSweepResult result;
  result.min_pts_lb = sweep.min_pts_lb;
  result.min_pts_ub = sweep.min_pts_ub;
  result.aggregation = sweep.aggregation;
  result.phase_times.k_distance_seconds = sweep.PhaseSeconds("k_distance");
  result.phase_times.lrd_seconds = sweep.PhaseSeconds("lrd");
  result.phase_times.lof_seconds = sweep.PhaseSeconds("lof");
  result.step_seconds = std::move(sweep.step_seconds);
  result.aggregated = std::move(sweep.aggregated);
  result.per_min_pts.reserve(sweep.per_min_pts.size());
  for (LocalScores& scores : sweep.per_min_pts) {
    result.per_min_pts.push_back(ToLofScores(std::move(scores)));
  }
  return result;
}

}  // namespace

Result<LofSweepResult> LofSweep::Run(const NeighborhoodMaterializer& m,
                                     size_t min_pts_lb, size_t min_pts_ub,
                                     LofAggregation aggregation,
                                     bool keep_per_min_pts, size_t threads,
                                     const PipelineObserver& observer,
                                     const StopToken& stop) {
  LOFKIT_ASSIGN_OR_RETURN(DensitySubstrate substrate,
                          DensitySubstrate::OverMaterialization(m));
  const std::unique_ptr<LocalScorer> scorer = CreateScorer(ScorerKind::kLof);
  LocalScorerOptions options;
  options.threads = threads;
  options.observer = observer;
  options.stop = stop;
  LOFKIT_ASSIGN_OR_RETURN(
      ScorerSweepResult sweep,
      ScorerSweep::Run(substrate, *scorer, min_pts_lb, min_pts_ub,
                       aggregation, keep_per_min_pts, options));
  return ToLofSweepResult(std::move(sweep));
}

Result<LofSweepResult> LofSweep::RunPruned(const NeighborhoodMaterializer& m,
                                           size_t min_pts_lb,
                                           size_t min_pts_ub,
                                           const PruneOptions& prune,
                                           LofAggregation aggregation,
                                           size_t threads,
                                           const PipelineObserver& observer,
                                           const StopToken& stop) {
  LOFKIT_RETURN_IF_ERROR(ValidateSweepRange(min_pts_lb, min_pts_ub));
  if (min_pts_ub > m.k_max()) {
    return Status::OutOfRange(
        StrFormat("MinPtsUB (%zu) exceeds the materialized k_max (%zu)",
                  min_pts_ub, m.k_max()));
  }
  if (prune.top_n == 0) {
    return Status::InvalidArgument(
        "prune-first ranking needs top_n >= 1: without a concrete top-N "
        "there is no threshold to discard against");
  }
  const size_t n = m.size();
  const size_t steps = min_pts_ub - min_pts_lb + 1;
  LofSweepResult result;
  result.min_pts_lb = min_pts_lb;
  result.min_pts_ub = min_pts_ub;
  result.aggregation = aggregation;

  // Stage 1 (cheap): §5 bound estimates. Without a partition, one
  // range-bound computation covers every step at the cost of a single
  // step's bounds: each per-step LOF lies in the same [lower, upper], so
  // the max/min/mean aggregate does too. The partition path needs
  // Theorem 2's per-step cardinality weights, so it keeps one bound
  // computation per step, sharded over the step axis exactly like Run
  // shards the score computations.
  std::vector<LofBoundEstimate> combined;
  if (prune.partition.empty()) {
    // Chop the range into narrow blocks: one ComputeRangeBounds call
    // bounds every step inside its block, so a block's [lower, upper]
    // brackets the block's max, min, and mean alike, and aggregating the
    // block bounds element-wise (ascending blocks, mean weighted by block
    // step count) bounds the full-range aggregate.
    const size_t width = std::max<size_t>(1, prune.bounds_block_width);
    std::vector<std::pair<size_t, size_t>> blocks;
    for (size_t lo = min_pts_lb; lo <= min_pts_ub; lo += width) {
      blocks.emplace_back(lo, std::min(lo + width - 1, min_pts_ub));
    }
    std::vector<std::vector<LofBoundEstimate>> per_block(blocks.size());
    LofPrunerOptions pruner_options;
    pruner_options.threads = blocks.size() == 1 ? threads : 1;
    pruner_options.stop = stop;
    LOFKIT_RETURN_IF_ERROR(ParallelForWorker(
        blocks.size(), threads,
        stop, [&](size_t worker, size_t block) -> Status {
          TraceRecorder::Span span(
              observer.trace,
              StrFormat("prune.bounds_range_%zu_%zu", blocks[block].first,
                        blocks[block].second),
              static_cast<uint32_t>(blocks.size() == 1 ? 0 : worker + 1));
          LOFKIT_ASSIGN_OR_RETURN(
              per_block[block],
              LofPruner::ComputeRangeBounds(m, blocks[block].first,
                                            blocks[block].second,
                                            pruner_options));
          return Status::OK();
        }));
    std::vector<double> agg_lower = MakeAggregationIdentity(aggregation, n);
    std::vector<double> agg_upper = MakeAggregationIdentity(aggregation, n);
    for (size_t block = 0; block < blocks.size(); ++block) {
      const double weight =
          static_cast<double>(blocks[block].second - blocks[block].first + 1) /
          static_cast<double>(steps);
      for (size_t i = 0; i < n; ++i) {
        const LofBoundEstimate& b = per_block[block][i];
        switch (aggregation) {
          case LofAggregation::kMax:
            agg_lower[i] = std::max(agg_lower[i], b.lower);
            agg_upper[i] = std::max(agg_upper[i], b.upper);
            break;
          case LofAggregation::kMin:
            agg_lower[i] = std::min(agg_lower[i], b.lower);
            agg_upper[i] = std::min(agg_upper[i], b.upper);
            break;
          case LofAggregation::kMean:
            agg_lower[i] += b.lower * weight;
            agg_upper[i] += b.upper * weight;
            break;
        }
      }
    }
    combined.resize(n);
    for (size_t i = 0; i < n; ++i) {
      combined[i] = LofBoundEstimate{agg_lower[i], agg_upper[i]};
    }
  } else {
    std::vector<std::vector<LofBoundEstimate>> per_step_bounds(steps);
    LofPrunerOptions pruner_options;
    pruner_options.threads = steps == 1 ? threads : 1;
    pruner_options.stop = stop;
    pruner_options.partition = prune.partition;
    LOFKIT_RETURN_IF_ERROR(ParallelForWorker(
        steps, threads, stop, [&](size_t worker, size_t step) -> Status {
          TraceRecorder::Span span(
              observer.trace,
              StrFormat("prune.bounds_min_pts_%zu", min_pts_lb + step),
              static_cast<uint32_t>(steps == 1 ? 0 : worker + 1));
          LOFKIT_ASSIGN_OR_RETURN(
              per_step_bounds[step],
              LofPruner::ComputeBounds(m, min_pts_lb + step,
                                       pruner_options));
          return Status::OK();
        }));

    // The ranking key is the aggregated score, so the pruning decision
    // needs bounds on the aggregate: applying the same element-wise
    // operation to the per-step lowers and uppers (in the same
    // ascending-MinPts order) yields valid bounds for max, min, and mean
    // alike.
    std::vector<double> agg_lower = MakeAggregationIdentity(aggregation, n);
    std::vector<double> agg_upper = MakeAggregationIdentity(aggregation, n);
    std::vector<double> step_values(n);
    for (size_t step = 0; step < steps; ++step) {
      for (size_t i = 0; i < n; ++i) {
        step_values[i] = per_step_bounds[step][i].lower;
      }
      AggregateStep(aggregation, steps, step_values, agg_lower);
      for (size_t i = 0; i < n; ++i) {
        step_values[i] = per_step_bounds[step][i].upper;
      }
      AggregateStep(aggregation, steps, step_values, agg_upper);
    }
    combined.resize(n);
    for (size_t i = 0; i < n; ++i) {
      combined[i] = LofBoundEstimate{agg_lower[i], agg_upper[i]};
    }
  }
  const LofPruner::TopNSelection selection =
      LofPruner::SelectTopN(combined, prune.top_n);

  result.prune.applied = true;
  result.prune.total_points = n;
  result.prune.survivors = selection.survivors.size();
  result.prune.threshold = selection.threshold;
  result.prune.full_evaluations = selection.survivors.size() * steps;
  result.prune.pruned_evaluations =
      (n - selection.survivors.size()) * steps;

  // Stage 2 (expensive): full LOF, but only for the survivors. Same step
  // sharding and observer routing as ScorerSweep::Run: every step records
  // a sweep.min_pts_<m> span, and multi-step sweeps redirect it (plus the
  // nested phase spans, via trace_tid) onto the step worker's track.
  std::vector<LofScores> per_step(steps);
  result.step_seconds.assign(steps, 0.0);
  LOFKIT_RETURN_IF_ERROR(ParallelForWorker(
      steps, threads, stop, [&](size_t worker, size_t step) -> Status {
        const uint32_t tid = steps == 1
                                 ? observer.trace_tid
                                 : static_cast<uint32_t>(worker + 1);
        TraceRecorder::Span span(
            observer.trace,
            StrFormat("sweep.min_pts_%zu", min_pts_lb + step), tid);
        LofComputeOptions step_options;
        step_options.threads = steps == 1 ? threads : 1;
        step_options.observer = observer;
        step_options.observer.trace_tid = tid;
        if (steps != 1) {
          step_options.observer.query_stats = nullptr;
          step_options.observer.flight = nullptr;
        }
        step_options.stop = stop;
        const auto step_start = std::chrono::steady_clock::now();
        LOFKIT_ASSIGN_OR_RETURN(
            per_step[step],
            LofComputer::ComputeForCandidates(
                m, min_pts_lb + step, selection.survivors, step_options));
        result.step_seconds[step] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          step_start)
                .count();
        if (observer.progress != nullptr) observer.progress->Add(n);
        return Status::OK();
      }));

  // Survivor slots aggregate exactly as in Run; pruned slots stay NaN so
  // RankDescending sorts them after every evaluated point.
  std::vector<double> aggregated(
      n, std::numeric_limits<double>::quiet_NaN());
  const std::vector<double> identity =
      MakeAggregationIdentity(aggregation, 1);
  for (uint32_t i : selection.survivors) aggregated[i] = identity[0];
  for (LofScores& scores : per_step) {
    result.phase_times.Add(scores.phase_times);
    AggregateStepSparse(aggregation, steps, scores.lof, selection.survivors,
                        aggregated);
  }
  result.aggregated = std::move(aggregated);
  return result;
}

Result<std::vector<RankedOutlier>> LofSweep::RankOutliers(
    const Dataset& data, const Metric& metric, size_t min_pts_lb,
    size_t min_pts_ub, size_t top_n, IndexKind index_kind,
    LofAggregation aggregation, size_t threads,
    const LofPipelineOptions& pipeline) {
  const bool approximate =
      index_kind == IndexKind::kRkdForest &&
      (pipeline.ann.search.checks != 0 || pipeline.ann.search.eps > 0.0);
  if (pipeline.prune && approximate) {
    // The §5 bound certificates are derived from exact k-distance
    // neighborhoods; over approximate ones a "certified" discard could
    // drop a true top-N outlier with no warning. Refuse the combination
    // rather than silently weakening the certificate.
    return Status::InvalidArgument(
        "prune-first ranking requires exact neighborhoods: the section-5 "
        "bound certificates are unsound over approximate kNN results; use "
        "an exact engine, or rkd_forest with checks=0 and eps=0");
  }
  std::unique_ptr<KnnIndex> index = CreateIndex(index_kind, pipeline.ann);
  if (index == nullptr) {
    return Status::Internal("index factory returned null");
  }
  LOFKIT_RETURN_IF_ERROR(index->Build(data, metric));
  if (pipeline.degraded_to_requery != nullptr) {
    *pipeline.degraded_to_requery = false;
  }
  if (pipeline.spilled_to_disk != nullptr) {
    *pipeline.spilled_to_disk = false;
  }
  if (pipeline.prune_summary != nullptr) {
    *pipeline.prune_summary = LofSweepResult::PruneSummary{};
  }
  if (pipeline.prune && top_n == 0) {
    return Status::InvalidArgument(
        "prune-first ranking needs top_n >= 1: without a concrete top-N "
        "there is no threshold to discard against");
  }
  LOFKIT_ASSIGN_OR_RETURN(
      internal_lof::BudgetedMaterialization built,
      internal_lof::MaterializeWithinBudget(
          data, *index, min_pts_ub, threads, /*distinct_neighbors=*/false,
          pipeline.memory_budget_bytes, pipeline.spill_directory,
          pipeline.observer, pipeline.stop));
  if (pipeline.spilled_to_disk != nullptr) {
    *pipeline.spilled_to_disk =
        built.rung == internal_lof::BudgetRung::kSpilled;
  }
  if (pipeline.degraded_to_requery != nullptr) {
    *pipeline.degraded_to_requery =
        built.rung == internal_lof::BudgetRung::kRequery;
  }
  if (pipeline.prune && built.m) {
    PruneOptions prune;
    prune.top_n = top_n;
    LOFKIT_ASSIGN_OR_RETURN(
        LofSweepResult sweep,
        RunPruned(*built.m, min_pts_lb, min_pts_ub, prune, aggregation,
                  threads, pipeline.observer, pipeline.stop));
    if (pipeline.prune_summary != nullptr) {
      *pipeline.prune_summary = sweep.prune;
    }
    return RankDescending(sweep.aggregated, top_n);
  }
  if (pipeline.prune) {
    // The re-query rung never materializes M, and the bound estimates read
    // it; score bits are identical either way, so degrade to the full
    // (unpruned) evaluation rather than failing the run.
    LOFKIT_LOG(Warning)
        << "prune-first ranking requires the materialized path; the "
           "memory budget forced re-query mode, so every point gets the "
           "full LOF evaluation";
  }
  LOFKIT_ASSIGN_OR_RETURN(
      DensitySubstrate substrate,
      built.m ? DensitySubstrate::OverMaterialization(*built.m)
              : DensitySubstrate::OverIndex(data, *index));
  const std::unique_ptr<LocalScorer> scorer = CreateScorer(ScorerKind::kLof);
  LocalScorerOptions options;
  options.threads = threads;
  options.observer = pipeline.observer;
  options.stop = pipeline.stop;
  LOFKIT_ASSIGN_OR_RETURN(
      ScorerSweepResult sweep,
      ScorerSweep::Run(substrate, *scorer, min_pts_lb, min_pts_ub,
                       aggregation, /*keep_per_min_pts=*/false, options));
  return RankDescending(sweep.aggregated, top_n);
}

}  // namespace lofkit

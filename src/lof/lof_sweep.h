#ifndef LOFKIT_LOF_LOF_SWEEP_H_
#define LOFKIT_LOF_LOF_SWEEP_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "lof/lof_computer.h"
#include "lof/score_aggregation.h"

namespace lofkit {

/// Result of a MinPts-range sweep.
struct LofSweepResult {
  size_t min_pts_lb = 0;
  size_t min_pts_ub = 0;
  LofAggregation aggregation = LofAggregation::kMax;

  /// What the prune-first stage did (all zeros unless RunPruned produced
  /// this result).
  struct PruneSummary {
    /// True when the §5 bound-based pruning stage actually ran. False from
    /// Run, and from RankOutliers when a memory budget degraded the
    /// pipeline to the re-query path (which has no bound stage).
    bool applied = false;
    size_t total_points = 0;

    /// Points whose upper bound did not fall below the top-N threshold;
    /// only these received the full LOF evaluation.
    size_t survivors = 0;

    /// The N-th largest aggregated lower bound used for discarding.
    double threshold = 0.0;

    /// LOF point-evaluations performed vs. avoided, summed over the MinPts
    /// steps: full = survivors * steps, pruned = (total - survivors) * steps.
    size_t full_evaluations = 0;
    size_t pruned_evaluations = 0;

    double survivor_fraction() const {
      return total_points == 0
                 ? 1.0
                 : static_cast<double>(survivors) /
                       static_cast<double>(total_points);
    }
  };
  PruneSummary prune;

  /// Aggregated score per point — the paper's ranking key
  /// max{ LOF_MinPts(p) : MinPtsLB <= MinPts <= MinPtsUB } for kMax.
  std::vector<double> aggregated;

  /// Per-MinPts scores (index 0 is MinPtsLB), kept only when requested.
  std::vector<LofScores> per_min_pts;

  /// Per-phase seconds summed over every MinPts step (CPU-time-like when
  /// the steps ran in parallel: each step's own wall clock is added).
  LofPhaseTimes phase_times;

  /// Wall seconds of each MinPts step (index 0 is MinPtsLB). Parallel
  /// steps overlap, so these do not sum to the sweep's wall time.
  std::vector<double> step_seconds;
};

/// Robustness knobs for LofSweep::RankOutliers, all defaulted to "off".
struct LofPipelineOptions {
  /// Cancellation/deadline token, polled throughout the pipeline.
  StopToken stop;

  /// Memory budget for M in bytes (0 = unlimited); a projected overflow
  /// walks the degradation ladder (internal_lof::MaterializeWithinBudget)
  /// — spill M to disk and keep going (when `spill_directory` is set),
  /// else sweep over the re-query substrate — instead of failing. Every
  /// rung ranks bit-identically.
  size_t memory_budget_bytes = 0;

  /// Directory for the ladder's spill rung (empty = spilling disabled):
  /// on a projected overflow M is streamed into a temporary container
  /// file here and served zero-copy via mmap, so the sweep — including
  /// the prune-first path, which the re-query rung cannot run — proceeds
  /// with the RAM cost of one build window. A failed spill falls through
  /// to re-query (cancellation/deadline trips propagate).
  std::string spill_directory;

  /// Observability hooks, forwarded into materialization and sweep.
  PipelineObserver observer;

  /// When non-null, set to whether the budget forced the re-query path.
  bool* degraded_to_requery = nullptr;

  /// When non-null, set to whether the budget spilled M to disk.
  bool* spilled_to_disk = nullptr;

  /// Run the §5 prune-first top-N path (RunPruned) instead of the full
  /// sweep. Requires top_n >= 1; the ranking stays bit-identical to the
  /// unpruned pipeline. Ignored (with a logged warning) when the memory
  /// budget degrades to the re-query path, which has no materialization to
  /// compute bounds from.
  bool prune = false;

  /// When non-null, receives what the pruning stage did.
  LofSweepResult::PruneSummary* prune_summary = nullptr;

  /// Construction options for the approximate engines, forwarded by
  /// RankOutliers when index_kind names one (kRkdForest); exact engines
  /// ignore them. Note `prune` refuses a non-exact dial: the §5 bound
  /// certificates assume exact neighborhoods (see RankOutliers).
  AnnIndexOptions ann;
};

/// The MinPts-range heuristic of section 6.2: computes LOF for every
/// MinPts in [MinPtsLB, MinPtsUB] over one materialization database and
/// aggregates per point.
class LofSweep {
 public:
  /// Requires 1 <= min_pts_lb <= min_pts_ub <= m.k_max(). Set
  /// `keep_per_min_pts` to retain each individual LofScores (needed by the
  /// figure-7/8 experiments; costs (ub-lb+1) * n doubles).
  ///
  /// `threads` shards the independent per-MinPts computations (0 = one
  /// worker per hardware thread, 1 = sequential); a single-step sweep
  /// instead forwards the threads into the LOF scans themselves.
  /// Aggregation always runs in ascending MinPts order afterwards, so every
  /// thread count produces bit-identical results.
  ///
  /// `observer.trace` receives one span per MinPts step (on the worker's
  /// tid); a single-step sweep instead forwards the observer into the LOF
  /// scans so the k-distance/LRD/LOF phases appear individually.
  static Result<LofSweepResult> Run(const NeighborhoodMaterializer& m,
                                    size_t min_pts_lb, size_t min_pts_ub,
                                    LofAggregation aggregation =
                                        LofAggregation::kMax,
                                    bool keep_per_min_pts = false,
                                    size_t threads = 1,
                                    const PipelineObserver& observer = {},
                                    const StopToken& stop = {});

  /// Knobs for the prune-first sweep (RunPruned).
  struct PruneOptions {
    /// How many top outliers the ranking must preserve exactly. Must be
    /// >= 1: pruning is only sound against a concrete top-N threshold.
    size_t top_n = 0;

    /// Optional group ids (>= 0, one per point): per-step Theorem-2 bounds
    /// instead of the Theorem-1 range bounds.
    std::span<const int> partition;

    /// Width of the MinPts blocks the unpartitioned bound stage covers
    /// with one LofPruner::ComputeRangeBounds call each (clamped to >= 1).
    /// Wider blocks make the bound stage cheaper but looser — the range
    /// bounds couple the block-low k-distances against the block-high
    /// ones, so the slack grows with the k-distance spread inside a block.
    /// 5 keeps the spread (~(hi/lo)^(1/d) per block in d dimensions) small
    /// enough to prune aggressively at ~1/5 of the per-step bound cost.
    /// Ignored on the partition path, which needs per-step bounds anyway
    /// (Theorem 2's cardinality weights are per-MinPts quantities).
    size_t bounds_block_width = 5;
  };

  /// The paper's §5 / Fig. 11 prune-first top-N sweep: bound estimates
  /// (LofPruner) are aggregated across the MinPts range with the same
  /// element-wise operation as the scores — block-wise range bounds on the
  /// unpartitioned path, per-step Theorem-2 bounds with a partition — the
  /// top_n-th largest
  /// aggregated lower bound becomes the discard threshold, and only the
  /// surviving points get the full LOF evaluation
  /// (LofComputer::ComputeForCandidates). Survivor slots of `aggregated`
  /// are bit-identical to Run's at every thread count (same per-step
  /// values, same ascending-MinPts accumulation); pruned slots are quiet
  /// NaN, which RankDescending sorts last — so ranking the result's
  /// aggregated array yields the exact unpruned top-N. The result's
  /// `prune` summary reports survivors/threshold/avoided evaluations.
  static Result<LofSweepResult> RunPruned(
      const NeighborhoodMaterializer& m, size_t min_pts_lb,
      size_t min_pts_ub, const PruneOptions& prune,
      LofAggregation aggregation = LofAggregation::kMax, size_t threads = 1,
      const PipelineObserver& observer = {}, const StopToken& stop = {});

  /// Convenience single-call pipeline: index, materialize at min_pts_ub
  /// within the memory budget (internal_lof::MaterializeWithinBudget),
  /// sweep, and return the ranking of the `top_n` strongest outliers
  /// (top_n == 0 ranks everything). `threads` drives both the
  /// materialization queries and the sweep, with the same determinism
  /// guarantee as Run — including across the spill and re-query rungs,
  /// which return identical ranking bits.
  static Result<std::vector<RankedOutlier>> RankOutliers(
      const Dataset& data, const Metric& metric, size_t min_pts_lb,
      size_t min_pts_ub, size_t top_n = 0,
      IndexKind index_kind = IndexKind::kLinearScan,
      LofAggregation aggregation = LofAggregation::kMax, size_t threads = 1,
      const LofPipelineOptions& pipeline = {});
};

}  // namespace lofkit

#endif  // LOFKIT_LOF_LOF_SWEEP_H_

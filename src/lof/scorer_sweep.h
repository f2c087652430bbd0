#ifndef LOFKIT_LOF_SCORER_SWEEP_H_
#define LOFKIT_LOF_SCORER_SWEEP_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "index/index_factory.h"
#include "lof/local_scorer.h"
#include "lof/lof_computer.h"
#include "lof/score_aggregation.h"

namespace lofkit {

/// Result of a MinPts-range sweep of one LocalScorer.
struct ScorerSweepResult {
  size_t min_pts_lb = 0;
  size_t min_pts_ub = 0;
  LofAggregation aggregation = LofAggregation::kMax;

  /// Aggregated score per point — the section-6.2 ranking key
  /// max{ score_MinPts(p) : MinPtsLB <= MinPts <= MinPtsUB } for kMax.
  std::vector<double> aggregated;

  /// Per-MinPts scores (index 0 is MinPtsLB), kept only when requested.
  std::vector<LocalScores> per_min_pts;

  /// Per-phase seconds merged over every MinPts step (by phase name, in
  /// first-seen order; CPU-time-like when the steps ran in parallel).
  std::vector<ScorerPhase> phases;

  /// Wall seconds of each MinPts step (index 0 is MinPtsLB), on both
  /// routes — the per-step latency distribution the stats export
  /// histograms. Parallel steps overlap, so these do not sum to the
  /// sweep's wall time.
  std::vector<double> step_seconds;

  /// True when any step saw an infinite density (duplicate degeneracy).
  bool has_infinite_density = false;

  /// True when the sweep ran on the bounded-memory re-query substrate.
  /// The aggregated bits are identical either way (for scorers that read
  /// only substrate views).
  bool degraded_to_requery = false;

  /// Seconds of the named phase summed over the sweep (0 when absent).
  double PhaseSeconds(std::string_view name) const;
};

/// Robustness knobs for ScorerSweep::RankOutliers, all defaulted to "off".
/// (The scorer dials and observability hooks ride in LocalScorerOptions.)
struct ScorerPipelineOptions {
  /// Memory budget for M in bytes (0 = unlimited); a projected overflow
  /// walks the degradation ladder (internal_lof::MaterializeWithinBudget)
  /// — spill M to disk and keep going (when `spill_directory` is set),
  /// else sweep over the re-query substrate — instead of failing. Every
  /// rung ranks bit-identically.
  size_t memory_budget_bytes = 0;

  /// Directory for the ladder's spill rung (empty = spilling disabled): on
  /// a projected overflow M is streamed into a temporary container file
  /// here and served zero-copy via mmap. A failed spill falls through to
  /// re-query (cancellation/deadline trips propagate).
  std::string spill_directory;

  /// When non-null, set to whether the budget forced the re-query route.
  bool* degraded_to_requery = nullptr;

  /// When non-null, set to whether the budget spilled M to disk.
  bool* spilled_to_disk = nullptr;

  /// Construction options for the approximate engines, forwarded when
  /// index_kind names one (kRkdForest); exact engines ignore them.
  AnnIndexOptions ann;
};

/// The section-6.2 MinPts-range heuristic, generalized to any LocalScorer:
/// scores every MinPts in [MinPtsLB, MinPtsUB] over one shared substrate
/// and aggregates per point. LofSweep::Run is a thin adapter over this
/// class with the LOF scorer.
class ScorerSweep {
 public:
  /// Requires 1 <= min_pts_lb <= min_pts_ub <= substrate.k_max(). On a
  /// materialized substrate the independent per-MinPts computations shard
  /// over `options.threads` workers (each step scoring a cursor-pool copy
  /// of the substrate, so the scans never contend); a single-step sweep
  /// instead forwards the threads and observer into the scorer's own
  /// scans. On a re-query substrate the steps run sequentially in
  /// ascending MinPts order (bounded memory is that route's point) with
  /// the threads and observer inside each step. Aggregation always runs in
  /// ascending MinPts order afterwards, so every thread count produces
  /// bit-identical results.
  static Result<ScorerSweepResult> Run(const DensitySubstrate& substrate,
                                       const LocalScorer& scorer,
                                       size_t min_pts_lb, size_t min_pts_ub,
                                       LofAggregation aggregation =
                                           LofAggregation::kMax,
                                       bool keep_per_min_pts = false,
                                       const LocalScorerOptions& options = {});

  /// Convenience single-call pipeline for any scorer: build the index,
  /// materialize at min_pts_ub within the memory budget (in RAM, spilled,
  /// or not at all on the re-query substrate; see
  /// internal_lof::MaterializeWithinBudget), sweep, and return the ranking
  /// of the `top_n`
  /// strongest outliers (top_n == 0 ranks everything). The substrate is
  /// always constructed with the dataset and metric, so coordinate-reading
  /// scorers (LDOF, the DB baseline) work too.
  static Result<std::vector<RankedOutlier>> RankOutliers(
      const Dataset& data, const Metric& metric, const LocalScorer& scorer,
      size_t min_pts_lb, size_t min_pts_ub, size_t top_n = 0,
      IndexKind index_kind = IndexKind::kLinearScan,
      LofAggregation aggregation = LofAggregation::kMax,
      const LocalScorerOptions& options = {},
      const ScorerPipelineOptions& pipeline = {});
};

}  // namespace lofkit

#endif  // LOFKIT_LOF_SCORER_SWEEP_H_

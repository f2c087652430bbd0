#ifndef LOFKIT_LOF_LOF_COMPUTER_H_
#define LOFKIT_LOF_LOF_COMPUTER_H_

#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/result.h"
#include "dataset/dataset.h"
#include "dataset/metric.h"
#include "index/index_factory.h"
#include "index/neighborhood_materializer.h"
#include "lof/density_substrate.h"

namespace lofkit {

/// Wall-clock seconds spent in each phase of the pipeline, recorded for the
/// figure-10/11 performance experiments. `materialize_seconds` covers step 1
/// (index build + kNN queries) and is only filled by ComputeFromScratch;
/// Compute alone fills the step-2 scans (the k-distance pre-pass, the LRD
/// pass, and the LOF pass, each timed separately).
struct LofPhaseTimes {
  double materialize_seconds = 0.0;
  double k_distance_seconds = 0.0;
  double lrd_seconds = 0.0;
  double lof_seconds = 0.0;

  void Add(const LofPhaseTimes& other) {
    materialize_seconds += other.materialize_seconds;
    k_distance_seconds += other.k_distance_seconds;
    lrd_seconds += other.lrd_seconds;
    lof_seconds += other.lof_seconds;
  }
};

/// The LOF scores of every point for one MinPts value.
struct LofScores {
  size_t min_pts = 0;

  /// Local reachability density per point (Definition 6). +infinity when
  /// all reachability distances of the point's neighborhood are zero, which
  /// happens iff the point has at least MinPts exact duplicates (and
  /// k-distinct-distance mode is off).
  std::vector<double> lrd;

  /// Local outlier factor per point (Definition 7). The paper's convention
  /// for duplicate-degenerate points: the ratio lrd(o)/lrd(p) is taken as 1
  /// when both densities are infinite, so a fully duplicated point gets
  /// LOF 1 (it is in the densest possible region, not an outlier). A finite
  /// ratio against an infinite neighbor density propagates to +infinity.
  std::vector<double> lof;

  /// True when any lrd is infinite (duplicate degeneracy occurred).
  bool has_infinite_lrd = false;

  /// True when a memory budget forced ComputeFromScratch off the
  /// materialize-then-scan path onto the bounded-memory re-query path. The
  /// score bits are identical either way; the flag only records which route
  /// produced them (surfaced in the CLI's stats export).
  bool degraded_to_requery = false;

  /// True when a memory budget forced ComputeFromScratch onto the spill
  /// rung: M was streamed to a temporary container file and served
  /// zero-copy via mmap (LofComputeOptions::spill_directory). Score bits
  /// are identical to the in-RAM route.
  bool spilled_to_disk = false;

  /// Per-phase wall times of the computation that produced these scores.
  LofPhaseTimes phase_times;
};

/// Step 2 of the paper's two-step algorithm (section 7.4): computes LOF
/// values from the materialization database alone, in two passes — one for
/// the local reachability densities, one for the LOF values. The original
/// coordinates are never touched.
/// Knobs for the LOF computation.
struct LofComputeOptions {
  /// When false, the raw distance d(p, o) replaces the reachability
  /// distance of Definition 5 in the density estimate. The definition-5
  /// discussion predicts this "simplified" variant fluctuates much more
  /// inside homogeneous regions ("the statistical fluctuations of d(p,o)
  /// ... can be significantly reduced"); the smoothing ablation bench
  /// measures exactly that. Production use should leave this true.
  bool use_reachability = true;

  /// Worker threads for the k-distance / LRD / LOF scans (and, from
  /// ComputeFromScratch, the materialization step). 0 means one worker per
  /// hardware thread; 1 (the default) keeps the sequential path. Every
  /// thread count produces bit-identical scores: each point's slot is
  /// written by exactly one worker and the summation order inside a
  /// neighborhood never changes.
  size_t threads = 1;

  /// Observability hooks (query-cost counters + trace spans). Disabled by
  /// default; Compute records phase spans, ComputeFromScratch additionally
  /// forwards the observer into the materialization step.
  PipelineObserver observer;

  /// Cooperative cancellation/deadline token, polled at chunk boundaries of
  /// every scan (and forwarded into the materialization step by
  /// ComputeFromScratch). The default token never stops and costs a
  /// null-pointer test per check.
  StopToken stop;

  /// Memory budget in bytes for the materialization database M (0 =
  /// unlimited). When ProjectedBytes for the requested run exceeds it,
  /// ComputeFromScratch walks the degradation ladder instead of failing:
  /// spill M to disk and keep going (when `spill_directory` is set —
  /// recorded in LofScores::spilled_to_disk), else degrade to the re-query
  /// path (logged, and recorded in LofScores::degraded_to_requery).
  /// Distinct-neighbors mode has no re-query equivalent, so without a
  /// spill directory it returns kResourceExhausted. Compute itself ignores
  /// the budget: its M already exists.
  size_t memory_budget_bytes = 0;

  /// Directory for the ladder's spill rung (empty = spilling disabled).
  /// On a projected budget overflow, step 1 streams M into a uniquely
  /// named temporary container file here and serves it back zero-copy via
  /// mmap — bit-identical scores, peak RAM of one build window instead of
  /// n * k_max entries. Works in distinct-neighbors mode too (which the
  /// re-query rung cannot serve). If the spill itself fails (disk full,
  /// I/O error) the ladder falls through to re-query, except that
  /// cancellation/deadline trips — and distinct-mode failures, which have
  /// no next rung — propagate as errors.
  std::string spill_directory;

  /// Construction options for the approximate engines, forwarded by
  /// ComputeFromScratch when index_kind names one (kRkdForest); exact
  /// engines ignore them. The defaults are exact — dialing ann.search
  /// below exactness makes every downstream LOF score approximate, a trade
  /// bench_ann_quality quantifies.
  AnnIndexOptions ann;
};

class LofComputer {
 public:
  /// Computes LOF for `min_pts` in [1, m.k_max()] over a materialized M.
  /// Thin wrapper over ComputeOverSubstrate — the scans themselves run on
  /// the shared DensitySubstrate layer.
  static Result<LofScores> Compute(const NeighborhoodMaterializer& m,
                                   size_t min_pts,
                                   const LofComputeOptions& options = {});

  /// The shared core every entry point (and the "lof" LocalScorer) funnels
  /// through: the k-distance / LRD / LOF passes over a DensitySubstrate.
  /// Works on both substrate routes with bit-identical scores — each
  /// point's slot is written by exactly one worker and the summation order
  /// inside a neighborhood never changes, so every thread count and both
  /// backends agree bit for bit.
  static Result<LofScores> ComputeOverSubstrate(
      const DensitySubstrate& substrate, size_t min_pts,
      const LofComputeOptions& options = {});

  /// Convenience single-call pipeline: build the given index over `data`,
  /// materialize min_pts neighborhoods (in parallel when options.threads
  /// asks for it), and compute LOF with the given options. A memory budget
  /// that the projected M would overflow spills M or scores over the
  /// re-query substrate instead (internal_lof::MaterializeWithinBudget;
  /// see LofComputeOptions::memory_budget_bytes).
  static Result<LofScores> ComputeFromScratch(
      const Dataset& data, const Metric& metric, size_t min_pts,
      IndexKind index_kind = IndexKind::kLinearScan,
      bool distinct_neighbors = false, const LofComputeOptions& options = {});

  /// Compute restricted to a candidate set: the cheap k-distance scan
  /// still covers every point, the LRD scan shrinks to the candidates'
  /// one-hop closure (a candidate's LOF reads its neighbors' densities,
  /// and neighbors need not be candidates themselves), and the LOF pass
  /// visits only `candidates`. All other entries of LofScores::lrd/lof are
  /// quiet NaN — RankDescending sorts them after every real score, so
  /// ranking the sparse lof array still yields the candidates' exact
  /// order. Candidate slots carry bit-identical values to a full Compute
  /// at every thread count. `candidates` must be strictly ascending and in
  /// [0, m.size()); this is the evaluation stage of the prune-first top-N
  /// path (LofPruner).
  static Result<LofScores> ComputeForCandidates(
      const NeighborhoodMaterializer& m, size_t min_pts,
      std::span<const uint32_t> candidates,
      const LofComputeOptions& options = {});
};

/// A point index with its outlier score, for rankings.
struct RankedOutlier {
  uint32_t index = 0;
  double score = 0.0;
};

/// Ranks points by descending score (ties by ascending index). NaN scores
/// sort after every real score (including -infinity), again by ascending
/// index — a deterministic total order, so NaNs can never trip std::sort's
/// strict-weak-ordering requirement. Returns the `top_n` strongest
/// outliers, or all points when top_n == 0.
std::vector<RankedOutlier> RankDescending(std::span<const double> scores,
                                          size_t top_n = 0);

}  // namespace lofkit

#endif  // LOFKIT_LOF_LOF_COMPUTER_H_

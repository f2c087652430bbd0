#include "lof/lof_computer.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "lof/spill.h"

namespace lofkit {

namespace {

// Shared body of every LofComputer entry point: the three scans of the
// two-step algorithm's step 2, expressed over a DensitySubstrate so the
// materialized and re-query routes are literally the same code. A null
// `candidates` means every point gets the LOF pass; otherwise only the
// listed points do and the remaining lof slots stay quiet NaN (the
// candidate path requires a materialized substrate — the prune-first
// pipeline always has M).
Result<LofScores> ComputeLofPasses(
    const DensitySubstrate& substrate, size_t min_pts,
    const LofComputeOptions& options,
    const std::span<const uint32_t>* candidates) {
  const size_t n = substrate.size();
  const size_t threads = options.threads;
  LofScores scores;
  scores.min_pts = min_pts;
  scores.lrd.resize(n);
  scores.lof.resize(n);

  // All three passes are embarrassingly parallel: point i only reads the
  // substrate (and in the LOF pass the completed lrd array) and writes its
  // own slot, so any thread count produces bit-identical results.
  Stopwatch watch;
  TraceRecorder* trace = options.observer.trace;

  // Pass 0 (cheap): k-distances, needed for the reachability distances.
  std::vector<double> k_distance(n);
  {
    TraceRecorder::Span span(trace, "k_distance", options.observer.trace_tid);
    LOFKIT_RETURN_IF_ERROR(substrate.Scan(
        n, threads, options.stop, options.observer,
        [&](DensitySubstrate::Cursor& cursor, size_t i) -> Status {
          LOFKIT_ASSIGN_OR_RETURN(auto view,
                                  substrate.ViewOf(cursor, i, min_pts));
          k_distance[i] = view.k_distance;
          return Status::OK();
        }));
  }
  scores.phase_times.k_distance_seconds = watch.ElapsedSeconds();
  watch.Reset();

  // First scan: local reachability densities (Definition 6). A candidate's
  // LOF reads only its own lrd and its neighbors' lrds, so with a
  // candidate set the scan shrinks to that one-hop closure; other lrd
  // slots stay NaN placeholders.
  std::vector<uint32_t> lrd_points;
  if (candidates != nullptr) {
    const NeighborhoodMaterializer* m = substrate.materializer();
    if (m == nullptr) {
      return Status::Internal(
          "candidate-restricted LOF needs a materialized substrate");
    }
    std::vector<uint8_t> needed(n, 0);
    for (uint32_t i : *candidates) {
      needed[i] = 1;
      LOFKIT_ASSIGN_OR_RETURN(auto view, m->View(i, min_pts));
      for (const Neighbor& o : view.neighborhood) needed[o.index] = 1;
    }
    for (size_t i = 0; i < n; ++i) {
      if (needed[i] != 0) lrd_points.push_back(static_cast<uint32_t>(i));
    }
    std::fill(scores.lrd.begin(), scores.lrd.end(),
              std::numeric_limits<double>::quiet_NaN());
  }
  const size_t lrd_count = candidates != nullptr ? lrd_points.size() : n;
  TraceRecorder::Span lrd_span(trace, "lrd", options.observer.trace_tid);
  LOFKIT_RETURN_IF_ERROR(substrate.Scan(
      lrd_count, threads, options.stop, options.observer,
      [&](DensitySubstrate::Cursor& cursor, size_t slot) -> Status {
        const size_t i = candidates != nullptr ? lrd_points[slot] : slot;
        LOFKIT_ASSIGN_OR_RETURN(auto view,
                                substrate.ViewOf(cursor, i, min_pts));
        double sum = 0.0;
        for (const Neighbor& o : view.neighborhood) {
          // reach-dist(i, o) = max(k-distance(o), d(i, o)) (Definition 5);
          // the simplified ablation variant uses the raw distance instead.
          sum += options.use_reachability
                     ? std::max(k_distance[o.index], o.distance)
                     : o.distance;
        }
        if (sum > 0.0) {
          scores.lrd[i] =
              static_cast<double>(view.neighborhood.size()) / sum;
        } else {
          scores.lrd[i] = std::numeric_limits<double>::infinity();
        }
        return Status::OK();
      }));
  // Derived after the scan rather than inside it so workers never contend
  // on a shared flag.
  scores.has_infinite_lrd =
      std::any_of(scores.lrd.begin(), scores.lrd.end(),
                  [](double lrd) { return std::isinf(lrd); });
  lrd_span.End();
  scores.phase_times.lrd_seconds = watch.ElapsedSeconds();
  watch.Reset();

  // Second scan: LOF values (Definition 7). With a candidate set the scan
  // shrinks to the survivors; everything else stays NaN, which
  // RankDescending sorts after every real score.
  const size_t lof_count = candidates != nullptr ? candidates->size() : n;
  if (candidates != nullptr) {
    std::fill(scores.lof.begin(), scores.lof.end(),
              std::numeric_limits<double>::quiet_NaN());
  }
  TraceRecorder::Span lof_span(trace, "lof", options.observer.trace_tid);
  LOFKIT_RETURN_IF_ERROR(substrate.Scan(
      lof_count, threads, options.stop, options.observer,
      [&](DensitySubstrate::Cursor& cursor, size_t slot) -> Status {
        const size_t i =
            candidates != nullptr ? (*candidates)[slot] : slot;
        LOFKIT_ASSIGN_OR_RETURN(auto view,
                                substrate.ViewOf(cursor, i, min_pts));
        const double lrd_i = scores.lrd[i];
        double sum = 0.0;
        for (const Neighbor& o : view.neighborhood) {
          const double lrd_o = scores.lrd[o.index];
          if (std::isinf(lrd_o) && std::isinf(lrd_i)) {
            sum += 1.0;  // duplicate-degenerate convention: inf/inf := 1
          } else {
            sum += lrd_o / lrd_i;  // finite/inf -> 0, inf/finite -> inf
          }
        }
        scores.lof[i] = sum / static_cast<double>(view.neighborhood.size());
        return Status::OK();
      }));
  lof_span.End();
  scores.phase_times.lof_seconds = watch.ElapsedSeconds();
  substrate.FoldQueryStats(options.observer);
  return scores;
}

}  // namespace

Result<LofScores> LofComputer::ComputeOverSubstrate(
    const DensitySubstrate& substrate, size_t min_pts,
    const LofComputeOptions& options) {
  LOFKIT_RETURN_IF_ERROR(substrate.ValidateMinPts(min_pts));
  return ComputeLofPasses(substrate, min_pts, options,
                          /*candidates=*/nullptr);
}

Result<LofScores> LofComputer::Compute(const NeighborhoodMaterializer& m,
                                       size_t min_pts,
                                       const LofComputeOptions& options) {
  LOFKIT_ASSIGN_OR_RETURN(DensitySubstrate substrate,
                          DensitySubstrate::OverMaterialization(m));
  return ComputeOverSubstrate(substrate, min_pts, options);
}

Result<LofScores> LofComputer::ComputeForCandidates(
    const NeighborhoodMaterializer& m, size_t min_pts,
    std::span<const uint32_t> candidates, const LofComputeOptions& options) {
  if (min_pts == 0 || min_pts > m.k_max()) {
    return Status::OutOfRange(
        StrFormat("min_pts (%zu) must be in [1, k_max=%zu]", min_pts,
                  m.k_max()));
  }
  for (size_t slot = 0; slot < candidates.size(); ++slot) {
    if (candidates[slot] >= m.size()) {
      return Status::OutOfRange(
          StrFormat("candidate %u is out of range (dataset has %zu points)",
                    candidates[slot], m.size()));
    }
    if (slot > 0 && candidates[slot] <= candidates[slot - 1]) {
      return Status::InvalidArgument(
          "candidates must be strictly ascending (sorted, no duplicates)");
    }
  }
  LOFKIT_ASSIGN_OR_RETURN(DensitySubstrate substrate,
                          DensitySubstrate::OverMaterialization(m));
  return ComputeLofPasses(substrate, min_pts, options, &candidates);
}

Result<LofScores> LofComputer::ComputeFromScratch(
    const Dataset& data, const Metric& metric, size_t min_pts,
    IndexKind index_kind, bool distinct_neighbors,
    const LofComputeOptions& options) {
  std::unique_ptr<KnnIndex> index = CreateIndex(index_kind, options.ann);
  if (index == nullptr) {
    return Status::Internal("index factory returned null");
  }
  Stopwatch watch;
  {
    TraceRecorder::Span span(options.observer.trace, "index_build");
    LOFKIT_RETURN_IF_ERROR(index->Build(data, metric));
  }
  LOFKIT_ASSIGN_OR_RETURN(
      internal_lof::BudgetedMaterialization built,
      internal_lof::MaterializeWithinBudget(
          data, *index, min_pts, options.threads, distinct_neighbors,
          options.memory_budget_bytes, options.spill_directory,
          options.observer, options.stop));
  const double materialize_seconds = watch.ElapsedSeconds();
  LOFKIT_ASSIGN_OR_RETURN(
      DensitySubstrate substrate,
      built.m ? DensitySubstrate::OverMaterialization(*built.m)
              : DensitySubstrate::OverIndex(data, *index));
  LOFKIT_ASSIGN_OR_RETURN(LofScores scores,
                          ComputeOverSubstrate(substrate, min_pts, options));
  if (built.m) scores.phase_times.materialize_seconds = materialize_seconds;
  scores.spilled_to_disk = built.rung == internal_lof::BudgetRung::kSpilled;
  scores.degraded_to_requery =
      built.rung == internal_lof::BudgetRung::kRequery;
  return scores;
}

std::vector<RankedOutlier> RankDescending(std::span<const double> scores,
                                          size_t top_n) {
  std::vector<RankedOutlier> ranked(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    ranked[i] = RankedOutlier{static_cast<uint32_t>(i), scores[i]};
  }
  // NaN-aware comparator: `a.score != b.score` alone is not a strict weak
  // ordering when NaNs are present (NaN != x but neither sorts before the
  // other), which is undefined behavior in std::sort. NaNs go last, then
  // by index, making the order total and deterministic.
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedOutlier& a, const RankedOutlier& b) {
              const bool a_nan = std::isnan(a.score);
              const bool b_nan = std::isnan(b.score);
              if (a_nan != b_nan) return b_nan;
              if (!a_nan && a.score != b.score) return a.score > b.score;
              return a.index < b.index;
            });
  if (top_n > 0 && top_n < ranked.size()) {
    ranked.resize(top_n);
  }
  return ranked;
}

}  // namespace lofkit

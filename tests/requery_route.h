// The re-query route for tests that pin it against the materialized one:
// LOF over DensitySubstrate::OverIndex, a single MinPts or a swept range.
// The pipeline entry points reach this route through the memory-budget
// ladder (internal_lof::MaterializeWithinBudget); these helpers reach it
// directly, with a prebuilt index.

#ifndef LOFKIT_TESTS_REQUERY_ROUTE_H_
#define LOFKIT_TESTS_REQUERY_ROUTE_H_

#include "lof/density_substrate.h"
#include "lof/local_scorer.h"
#include "lof/lof_computer.h"
#include "lof/scorer_sweep.h"

namespace lofkit::testing_requery {

inline Result<LofScores> ComputeRequeried(
    const Dataset& data, const KnnIndex& index, size_t min_pts,
    const LofComputeOptions& options = {}) {
  LOFKIT_ASSIGN_OR_RETURN(DensitySubstrate substrate,
                          DensitySubstrate::OverIndex(data, index));
  return LofComputer::ComputeOverSubstrate(substrate, min_pts, options);
}

inline Result<ScorerSweepResult> RequerySweep(
    const Dataset& data, const KnnIndex& index, size_t lb, size_t ub,
    size_t threads, const PipelineObserver& observer = {}) {
  LOFKIT_ASSIGN_OR_RETURN(DensitySubstrate substrate,
                          DensitySubstrate::OverIndex(data, index));
  LocalScorerOptions options;
  options.threads = threads;
  options.observer = observer;
  return ScorerSweep::Run(substrate, *CreateScorer(ScorerKind::kLof), lb, ub,
                          LofAggregation::kMax, /*keep_per_min_pts=*/false,
                          options);
}

}  // namespace lofkit::testing_requery

#endif  // LOFKIT_TESTS_REQUERY_ROUTE_H_

#ifndef LOFKIT_LOF_SPILL_H_
#define LOFKIT_LOF_SPILL_H_

#include <optional>
#include <string>

#include "common/cancellation.h"
#include "common/result.h"
#include "index/neighborhood_materializer.h"

namespace lofkit::internal_lof {

/// The spill rung of the memory-budget ladder: streams step 1 into a
/// uniquely named temporary container file under `dir`
/// (NeighborhoodMaterializer::MaterializeToFile — peak RAM is one build
/// window, not n * k_max), maps it back zero-copy (MapFromFile), and
/// unlinks the file right after mapping — POSIX keeps the mapping's pages
/// alive. The unlink does not cover a process killed before it: one
/// killed while the file is being written leaves "<name>.lofc.tmp"
/// behind. The returned M is file-backed and serves bit-identical
/// neighborhoods to the in-RAM route.
Result<NeighborhoodMaterializer> SpillMaterialize(
    const Dataset& data, const KnnIndex& index, size_t k_max, size_t threads,
    bool distinct_neighbors, const std::string& dir,
    const PipelineObserver& observer = {}, const StopToken& stop = {});

/// The rung of the memory-budget ladder a run took.
enum class BudgetRung {
  kInRam,    // no budget, or the projected M fits: M built in RAM
  kSpilled,  // M overflows the budget and was spilled to an mmap'ed file
  kRequery,  // M overflows and was not built: every view re-queries
};

/// What MaterializeWithinBudget decided and built.
struct BudgetedMaterialization {
  BudgetRung rung = BudgetRung::kInRam;

  /// M on the in-RAM and spill rungs; empty on the re-query rung, where
  /// the caller scores over DensitySubstrate::OverIndex instead.
  std::optional<NeighborhoodMaterializer> m;
};

/// The memory-budget ladder, the one place every pipeline entry point
/// (LofComputer::ComputeFromScratch, LofSweep::RankOutliers,
/// ScorerSweep::RankOutliers, lofkit_cli) decides where M lives:
///   1. in RAM (MaterializeParallel) when `memory_budget_bytes` is 0 or
///      ProjectedBytes(n, k_max) fits it;
///   2. else spilled to disk (SpillMaterialize) when `spill_directory` is
///      set. A failed spill propagates on kCancelled / kDeadlineExceeded
///      and in distinct mode; any other failure falls through to rung 3;
///   3. else no M at all (the re-query rung). Distinct-neighbors mode has
///      no re-query equivalent and returns kResourceExhausted instead.
/// `index` must already be built over `data`. Rungs 2 and 3 log the
/// decision once, at warning level. Scores are bit-identical on every
/// rung; only RAM and wall time differ.
Result<BudgetedMaterialization> MaterializeWithinBudget(
    const Dataset& data, const KnnIndex& index, size_t k_max, size_t threads,
    bool distinct_neighbors, size_t memory_budget_bytes,
    const std::string& spill_directory, const PipelineObserver& observer = {},
    const StopToken& stop = {});

}  // namespace lofkit::internal_lof

#endif  // LOFKIT_LOF_SPILL_H_

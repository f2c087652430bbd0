#include "lof/spill.h"

#include <atomic>
#include <cstdio>

#include <unistd.h>

#include "common/logging.h"
#include "common/string_util.h"

namespace lofkit::internal_lof {

namespace {

// Unique per process + call: concurrent pipelines in one process get
// distinct files, and two processes sharing a spill directory cannot
// collide (the container writer's ".tmp" suffix inherits the uniqueness).
std::string MakeSpillPath(const std::string& dir) {
  static std::atomic<uint64_t> counter{0};
  return dir + "/lofkit_spill_m." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".lofc";
}

}  // namespace

Result<NeighborhoodMaterializer> SpillMaterialize(
    const Dataset& data, const KnnIndex& index, size_t k_max, size_t threads,
    bool distinct_neighbors, const std::string& dir,
    const PipelineObserver& observer, const StopToken& stop) {
  const std::string path = MakeSpillPath(dir);
  LOFKIT_RETURN_IF_ERROR(NeighborhoodMaterializer::MaterializeToFile(
      data, index, k_max, threads, distinct_neighbors, path, observer,
      stop));
  auto m_or = NeighborhoodMaterializer::MapFromFile(path, &data);
  // Unlink win or lose: on success the mapping keeps the pages alive for
  // the materializer's lifetime; on failure the file is garbage anyway.
  std::remove(path.c_str());
  if (!m_or.ok()) return m_or.status();
  LOFKIT_LOG(Info) << "spilled M to disk under '" << dir << "' ("
                   << m_or->total_neighbor_count()
                   << " neighbor entries, served via mmap)";
  return std::move(m_or).value();
}

Result<BudgetedMaterialization> MaterializeWithinBudget(
    const Dataset& data, const KnnIndex& index, size_t k_max, size_t threads,
    bool distinct_neighbors, size_t memory_budget_bytes,
    const std::string& spill_directory, const PipelineObserver& observer,
    const StopToken& stop) {
  BudgetedMaterialization built;
  const size_t projected =
      NeighborhoodMaterializer::ProjectedBytes(data.size(), k_max);
  if (memory_budget_bytes == 0 || projected <= memory_budget_bytes) {
    LOFKIT_ASSIGN_OR_RETURN(
        NeighborhoodMaterializer m,
        NeighborhoodMaterializer::MaterializeParallel(
            data, index, k_max, threads, distinct_neighbors, observer,
            stop));
    built.m.emplace(std::move(m));
    return built;
  }
  std::string requery_reason =
      StrFormat("projected materialization (%zu bytes) exceeds the memory "
                "budget (%zu bytes)",
                projected, memory_budget_bytes);
  if (!spill_directory.empty()) {
    LOFKIT_LOG(Warning) << requery_reason << "; spilling to disk under '"
                        << spill_directory << "'";
    auto spilled =
        SpillMaterialize(data, index, k_max, threads, distinct_neighbors,
                         spill_directory, observer, stop);
    if (spilled.ok()) {
      built.rung = BudgetRung::kSpilled;
      built.m.emplace(std::move(spilled).value());
      return built;
    }
    const StatusCode code = spilled.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded || distinct_neighbors) {
      // A tripped token is the caller's decision, not a disk problem; and
      // distinct mode has no re-query rung to fall through to.
      return spilled.status();
    }
    requery_reason =
        "spill to disk failed (" + spilled.status().ToString() + ")";
  }
  if (distinct_neighbors) {
    return Status::ResourceExhausted(StrFormat(
        "materializing %zu points at k_max=%zu exceeds the %zu-byte memory "
        "budget, and distinct-neighbors mode has no re-query fallback; "
        "raise the budget or set a spill directory",
        data.size(), k_max, memory_budget_bytes));
  }
  LOFKIT_LOG(Warning) << requery_reason
                      << "; degrading to the re-query path";
  built.rung = BudgetRung::kRequery;
  return built;
}

}  // namespace lofkit::internal_lof

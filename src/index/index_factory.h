#ifndef LOFKIT_INDEX_INDEX_FACTORY_H_
#define LOFKIT_INDEX_INDEX_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "index/knn_index.h"

namespace lofkit {

/// The kNN engines lofkit ships, mirroring the options of section 7.4.
enum class IndexKind {
  kLinearScan,  ///< sequential scan (exact, O(n) per query)
  kGrid,        ///< uniform grid (low dimensions)
  kKdTree,      ///< KD-tree (medium dimensions)
  kRStarTree,   ///< R*-tree, STR-built (kInsert: the paper's X-tree)
  kVaFile,      ///< vector-approximation file (high dimensions)
  kMTree,       ///< M-tree (general metric spaces, e.g. angular distance)
  kRkdForest,   ///< randomized kd-forest (approximate, beyond Fig-10's wall)
};

/// Construction knobs of the approximate engines (currently only the
/// randomized kd-forest consumes them; exact engines ignore the struct).
/// The defaults build an *exact* forest: unbounded checks, zero eps, a
/// fixed seed — so CreateIndex(kRkdForest) is safe wherever an exact
/// engine is, and approximation remains an explicit caller decision.
struct AnnIndexOptions {
  /// Number of randomized trees in the forest.
  size_t trees = 8;
  /// Seed for the per-tree split-dimension draws. Equal seeds give
  /// bit-identical forests and query results on every thread count.
  uint64_t seed = 0x10f5eedull;
  /// Search-time quality dial (checks budget + eps slack).
  SearchParams search;
};

/// Creates an unbuilt index of the given kind with default options.
std::unique_ptr<KnnIndex> CreateIndex(IndexKind kind);

/// Creates an unbuilt index of the given kind; `ann` configures the
/// approximate engines and is ignored by the exact ones.
std::unique_ptr<KnnIndex> CreateIndex(IndexKind kind,
                                      const AnnIndexOptions& ann);

/// Creates an index by name ("linear_scan", "grid", "kd_tree",
/// "rstar_tree", "va_file", "m_tree", "rkd_forest"). An unknown name fails
/// with NotFound, listing every valid name.
Result<std::unique_ptr<KnnIndex>> CreateIndexByName(std::string_view name);

/// As above, with ANN construction options.
Result<std::unique_ptr<KnnIndex>> CreateIndexByName(
    std::string_view name, const AnnIndexOptions& ann);

/// All index kinds, for parameterized tests and ablation benches.
std::vector<IndexKind> AllIndexKinds();

/// Canonical name of an index kind.
std::string_view IndexKindName(IndexKind kind);

/// Picks the engine for a given dimensionality: grid for d <= 2, the
/// R*-tree for d <= 12, the kd-tree beyond. Never the VA-file, which is
/// slower than the linear scan on an in-RAM dataset. Only ever recommends
/// exact engines — opting into approximation (the kd-forest) is a quality
/// decision the caller must make explicitly.
IndexKind RecommendIndexKind(size_t dimension);

}  // namespace lofkit

#endif  // LOFKIT_INDEX_INDEX_FACTORY_H_

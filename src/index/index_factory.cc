#include "index/index_factory.h"

#include "index/grid_index.h"
#include "index/kd_tree_index.h"
#include "index/linear_scan_index.h"
#include "index/m_tree_index.h"
#include "index/rkd_forest_index.h"
#include "index/rstar_tree_index.h"
#include "index/va_file_index.h"

namespace lofkit {

std::unique_ptr<KnnIndex> CreateIndex(IndexKind kind) {
  return CreateIndex(kind, AnnIndexOptions{});
}

std::unique_ptr<KnnIndex> CreateIndex(IndexKind kind,
                                      const AnnIndexOptions& ann) {
  switch (kind) {
    case IndexKind::kLinearScan:
      return std::make_unique<LinearScanIndex>();
    case IndexKind::kGrid:
      return std::make_unique<GridIndex>();
    case IndexKind::kKdTree:
      return std::make_unique<KdTreeIndex>();
    case IndexKind::kRStarTree:
      return std::make_unique<RStarTreeIndex>();
    case IndexKind::kVaFile:
      return std::make_unique<VaFileIndex>();
    case IndexKind::kMTree:
      return std::make_unique<MTreeIndex>();
    case IndexKind::kRkdForest: {
      RkdForestIndex::Options options;
      options.trees = ann.trees;
      options.seed = ann.seed;
      options.search = ann.search;
      return std::make_unique<RkdForestIndex>(options);
    }
  }
  return nullptr;
}

Result<std::unique_ptr<KnnIndex>> CreateIndexByName(std::string_view name) {
  return CreateIndexByName(name, AnnIndexOptions{});
}

Result<std::unique_ptr<KnnIndex>> CreateIndexByName(
    std::string_view name, const AnnIndexOptions& ann) {
  for (IndexKind kind : AllIndexKinds()) {
    if (IndexKindName(kind) == name) return CreateIndex(kind, ann);
  }
  std::string valid;
  for (IndexKind kind : AllIndexKinds()) {
    if (!valid.empty()) valid += ", ";
    valid += IndexKindName(kind);
  }
  return Status::NotFound("unknown index kind: " + std::string(name) +
                          " (valid: " + valid + ")");
}

std::vector<IndexKind> AllIndexKinds() {
  return {IndexKind::kLinearScan, IndexKind::kGrid,  IndexKind::kKdTree,
          IndexKind::kRStarTree,  IndexKind::kVaFile, IndexKind::kMTree,
          IndexKind::kRkdForest};
}

std::string_view IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kLinearScan:
      return "linear_scan";
    case IndexKind::kGrid:
      return "grid";
    case IndexKind::kKdTree:
      return "kd_tree";
    case IndexKind::kRStarTree:
      return "rstar_tree";
    case IndexKind::kVaFile:
      return "va_file";
    case IndexKind::kMTree:
      return "m_tree";
    case IndexKind::kRkdForest:
      return "rkd_forest";
  }
  return "unknown";
}

IndexKind RecommendIndexKind(size_t dimension) {
  if (dimension <= 2) return IndexKind::kGrid;
  if (dimension <= 12) return IndexKind::kRStarTree;
  return IndexKind::kKdTree;
}

}  // namespace lofkit

#ifndef LOFKIT_INDEX_RSTAR_TREE_INDEX_H_
#define LOFKIT_INDEX_RSTAR_TREE_INDEX_H_

#include <vector>

#include "dataset/point_block.h"
#include "index/knn_index.h"

namespace lofkit {

/// R*-tree with X-tree-style supernodes — lofkit's stand-in for the
/// "variant of the X-tree" the paper used for its kNN queries (section 7.4,
/// reference [4]).
///
/// Two builds are available (BuildMode). The default is Sort-Tile-Recursive
/// bulk loading (Leutenegger, Lopez & Edgington, ICDE 1997): O(n log n),
/// nodes packed nearly full. The other is the paper's structure, built one
/// point at a time: ChooseSubtree minimizes overlap enlargement at the leaf level
/// and area enlargement above it, one forced reinsertion round per level
/// per insert, and topological (margin-driven) splits. The X-tree
/// modification applies to its directory nodes: when the best available
/// split would produce heavily overlapping directory rectangles (overlap
/// fraction above `kMaxOverlap`), the node is not split but grows into a
/// *supernode* of extended capacity, avoiding the degenerate overlap that
/// makes high-dimensional R-trees useless.
///
/// Both builds end by packing the tree into one query layout, the
/// kd-tree's: nodes renumbered breadth-first so each directory node's
/// children (supernodes included) are contiguous, their boxes in one flat
/// array, and each leaf's points one block-aligned PointBlockView group.
/// kNN queries run best-first (Hjaltason-Samet) over the non-virtual
/// `rank_box` bound (the squared-distance bound for the L2 family), scan
/// leaves with the batch `rank_block` kernel, and return the exact
/// k-distance neighborhood for any Metric. Both builds therefore return
/// the same tie-extended neighbor lists, bit for bit.
class RStarTreeIndex final : public KnnIndex {
 public:
  /// How Build() constructs the tree. Queries do not depend on it.
  enum class BuildMode {
    /// One-by-one R* insertion with forced reinsertion and the X-tree
    /// supernode rule on directory splits: the paper's structure, which
    /// bench_fig10 reproduces. About 30x slower to build than STR at
    /// n = 50k, d = 5.
    kInsert,
    /// Sort-Tile-Recursive bulk loading (default): O(n log n)
    /// construction with near-perfect space utilization; no supernodes
    /// arise.
    kBulkLoadStr,
  };

  explicit RStarTreeIndex(BuildMode mode = BuildMode::kBulkLoadStr)
      : mode_(mode) {}

  Status Build(const Dataset& data, const Metric& metric) override;

  using KnnIndex::Query;
  using KnnIndex::QueryRadius;
  Status Query(std::span<const double> query, size_t k,
               std::optional<uint32_t> exclude,
               KnnSearchContext& ctx) const override;
  Status QueryRadius(std::span<const double> query, double radius,
                     std::optional<uint32_t> exclude,
                     KnnSearchContext& ctx) const override;
  const Dataset* dataset() const override { return data_; }
  std::string_view name() const override { return "rstar_tree"; }

  /// Statistics for tests and the index-ablation bench (of the build-time
  /// tree, which queries never read).
  size_t node_count() const { return nodes_.size(); }
  size_t supernode_count() const;
  size_t height() const;

  /// Structural self-check for tests: every child MBR is contained in its
  /// parent's, every node's MBR is exactly the union of its entries, all
  /// leaves sit at the same depth, fill factors respect capacity, every
  /// point id appears in exactly one leaf, and the packed query layout
  /// mirrors the tree node for node. Returns the first violation.
  Status CheckInvariants() const;

 private:
  static constexpr size_t kMaxEntries = 32;   // M
  static constexpr size_t kMinEntries = 12;   // m (~0.4 M)
  static constexpr double kReinsertFraction = 0.3;
  static constexpr double kMaxOverlap = 0.2;  // X-tree split-quality bound

  struct Node {
    bool leaf = true;
    uint32_t parent = kNone;
    size_t capacity = kMaxEntries;  // > kMaxEntries for supernodes
    std::vector<double> mbr;        // d mins then d maxs
    std::vector<uint32_t> entries;  // point ids (leaf) or node ids

    static constexpr uint32_t kNone = 0xffffffffu;
    bool is_supernode() const { return capacity > kMaxEntries; }
  };

  // -- rect helpers over the flat [lo..., hi...] representation --
  std::span<const double> EntryLo(const Node& node, size_t i) const;
  std::span<const double> EntryHi(const Node& node, size_t i) const;
  void EntryRect(const Node& node, size_t i, std::vector<double>& rect) const;
  static double RectArea(std::span<const double> rect, size_t dim);
  static double RectMargin(std::span<const double> rect, size_t dim);
  static void RectExtend(std::vector<double>& rect,
                         std::span<const double> other, size_t dim);
  static double RectOverlap(std::span<const double> a,
                            std::span<const double> b, size_t dim);

  // -- construction --
  uint32_t NewNode(bool leaf);
  void RecomputeMbr(uint32_t node_id);
  void ExtendUpward(uint32_t node_id, std::span<const double> rect);
  uint32_t ChooseSubtree(std::span<const double> rect, size_t target_level);
  void InsertRect(std::span<const double> rect, uint32_t entry,
                  size_t target_level, std::vector<bool>& reinserted);
  void HandleOverflow(uint32_t node_id, std::vector<bool>& reinserted);
  void ReinsertEntries(uint32_t node_id, std::vector<bool>& reinserted);
  void SplitNode(uint32_t node_id, std::vector<bool>& reinserted);
  size_t LevelOf(uint32_t node_id) const;

  // Picks the R* split (axis + distribution) of `node`; returns the index
  // boundary in `order` and the achieved overlap fraction.
  struct SplitChoice {
    std::vector<uint32_t> order;  // entry positions in split order
    size_t boundary = 0;          // first `boundary` go left
    double overlap_fraction = 0.0;
  };
  SplitChoice ChooseSplit(const Node& node) const;

  /// Builds the whole tree bottom-up with Sort-Tile-Recursive packing.
  void BulkLoadStr();

  // -- query layout --
  // One node of the packed layout. Packed ids are breadth-first positions
  // from the root (packed id 0); node i's box is boxes_[2 * dim_ * i, ...)
  // (d mins then d maxs).
  struct PackedNode {
    // Directory: packed id of the first of `count` contiguous children.
    // Leaf: first lane position of its `count` points' group in view_.
    uint32_t begin = 0;
    uint32_t count = 0;
    bool leaf = false;
  };

  /// Node ids in breadth-first order from the root: entry i is the node
  /// packed as packed id i.
  std::vector<uint32_t> BreadthFirstOrder() const;
  /// Packs nodes_ into packed_, boxes_ and view_.
  void Pack();
  /// Ranks the points of one packed leaf with the block kernel and calls
  /// `visit(id, rank)` for each, except padding lanes and `skip`.
  template <typename Visit>
  void ScanLeaf(const PackedNode& leaf, const double* query, uint32_t skip,
                QueryStats* stats, Visit&& visit) const;
  const double* Box(uint32_t packed_id) const {
    return boxes_.data() + 2 * dim_ * packed_id;
  }

  BuildMode mode_ = BuildMode::kBulkLoadStr;
  const Dataset* data_ = nullptr;
  DistanceKernels kern_;
  size_t dim_ = 0;
  // Build-time tree: insertion, CheckInvariants and the statistics above.
  std::vector<Node> nodes_;
  uint32_t root_ = Node::kNone;
  // Query layout, packed from nodes_ at the end of Build().
  std::vector<PackedNode> packed_;
  std::vector<double> boxes_;
  PointBlockView view_;
};

}  // namespace lofkit

#endif  // LOFKIT_INDEX_RSTAR_TREE_INDEX_H_

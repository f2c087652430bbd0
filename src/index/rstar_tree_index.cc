#include "index/rstar_tree_index.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/fail_point.h"
#include "common/string_util.h"

namespace lofkit {

namespace {

Status CheckQuery(const Dataset* data, std::span<const double> query) {
  if (data == nullptr) {
    return Status::FailedPrecondition("index queried before Build()");
  }
  if (query.size() != data->dimension()) {
    return Status::InvalidArgument(
        StrFormat("query has dimension %zu, index has %zu", query.size(),
                  data->dimension()));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Rect helpers. Rects are flat vectors: d minima followed by d maxima.
// ---------------------------------------------------------------------------

std::span<const double> RStarTreeIndex::EntryLo(const Node& node,
                                                size_t i) const {
  if (node.leaf) {
    return data_->point(node.entries[i]);
  }
  const Node& child = nodes_[node.entries[i]];
  return {child.mbr.data(), dim_};
}

std::span<const double> RStarTreeIndex::EntryHi(const Node& node,
                                                size_t i) const {
  if (node.leaf) {
    return data_->point(node.entries[i]);
  }
  const Node& child = nodes_[node.entries[i]];
  return {child.mbr.data() + dim_, dim_};
}

void RStarTreeIndex::EntryRect(const Node& node, size_t i,
                               std::vector<double>& rect) const {
  rect.resize(2 * dim_);
  auto lo = EntryLo(node, i);
  auto hi = EntryHi(node, i);
  std::copy(lo.begin(), lo.end(), rect.begin());
  std::copy(hi.begin(), hi.end(), rect.begin() + dim_);
}

double RStarTreeIndex::RectArea(std::span<const double> rect, size_t dim) {
  double area = 1.0;
  for (size_t d = 0; d < dim; ++d) {
    area *= rect[dim + d] - rect[d];
  }
  return area;
}

double RStarTreeIndex::RectMargin(std::span<const double> rect, size_t dim) {
  double margin = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    margin += rect[dim + d] - rect[d];
  }
  return margin;
}

void RStarTreeIndex::RectExtend(std::vector<double>& rect,
                                std::span<const double> other, size_t dim) {
  // `other` may be a point (size dim) or a rect (size 2*dim).
  const bool is_point = other.size() == dim;
  for (size_t d = 0; d < dim; ++d) {
    const double lo = other[d];
    const double hi = is_point ? other[d] : other[dim + d];
    rect[d] = std::min(rect[d], lo);
    rect[dim + d] = std::max(rect[dim + d], hi);
  }
}

double RStarTreeIndex::RectOverlap(std::span<const double> a,
                                   std::span<const double> b, size_t dim) {
  double area = 1.0;
  for (size_t d = 0; d < dim; ++d) {
    const double lo = std::max(a[d], b[d]);
    const double hi = std::min(a[dim + d], b[dim + d]);
    if (hi <= lo) return 0.0;
    area *= hi - lo;
  }
  return area;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Status RStarTreeIndex::Build(const Dataset& data, const Metric& metric) {
  LOFKIT_FAIL_POINT("index.build");
  if (data.empty()) {
    return Status::InvalidArgument("cannot build index over empty dataset");
  }
  data_ = &data;
  kern_ = metric.kernels();
  dim_ = data.dimension();
  nodes_.clear();

  if (mode_ == BuildMode::kBulkLoadStr) {
    BulkLoadStr();
  } else {
    root_ = NewNode(/*leaf=*/true);
    std::vector<double> rect(2 * dim_);
    for (size_t i = 0; i < data.size(); ++i) {
      auto p = data.point(i);
      std::copy(p.begin(), p.end(), rect.begin());
      std::copy(p.begin(), p.end(), rect.begin() + dim_);
      // One reinsertion round allowed per level per insert (R* rule); tree
      // height is bounded generously by 64.
      std::vector<bool> reinserted(64, false);
      InsertRect(rect, static_cast<uint32_t>(i), /*target_level=*/0,
                 reinserted);
    }
  }
  Pack();
  return Status::OK();
}

namespace {

// Sort-Tile-Recursive grouping: slices [begin, end) of `entries` along
// successive dimensions (keyed by `key`) into groups of at most
// `group_size`, appending each group's bounds to `groups`.
void StrTile(std::vector<uint32_t>& entries, size_t begin, size_t end,
             size_t dim, size_t dims, size_t group_size,
             const std::function<double(uint32_t, size_t)>& key,
             std::vector<std::pair<size_t, size_t>>& groups) {
  const size_t n = end - begin;
  if (n <= group_size) {
    groups.emplace_back(begin, end);
    return;
  }
  std::sort(entries.begin() + begin, entries.begin() + end,
            [&](uint32_t a, uint32_t b) { return key(a, dim) < key(b, dim); });
  if (dim + 1 >= dims) {
    for (size_t s = begin; s < end; s += group_size) {
      groups.emplace_back(s, std::min(s + group_size, end));
    }
    return;
  }
  const size_t pages = (n + group_size - 1) / group_size;
  const size_t slabs = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(std::pow(
             static_cast<double>(pages),
             1.0 / static_cast<double>(dims - dim)))));
  const size_t slab_size = (n + slabs - 1) / slabs;
  for (size_t s = begin; s < end; s += slab_size) {
    StrTile(entries, s, std::min(s + slab_size, end), dim + 1, dims,
            group_size, key, groups);
  }
}

}  // namespace

void RStarTreeIndex::BulkLoadStr() {
  // Level 0: tile the points into leaves.
  std::vector<uint32_t> entries(data_->size());
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i] = static_cast<uint32_t>(i);
  }
  auto point_key = [this](uint32_t id, size_t d) {
    return data_->point(id)[d];
  };
  std::vector<std::pair<size_t, size_t>> groups;
  StrTile(entries, 0, entries.size(), 0, dim_, kMaxEntries, point_key,
          groups);

  std::vector<uint32_t> level;
  for (const auto& [begin, end] : groups) {
    const uint32_t node = NewNode(/*leaf=*/true);
    nodes_[node].entries.assign(entries.begin() + begin,
                                entries.begin() + end);
    RecomputeMbr(node);
    level.push_back(node);
  }

  // Pack directory levels (keyed by child MBR centers) until one root
  // remains.
  auto node_key = [this](uint32_t id, size_t d) {
    const Node& node = nodes_[id];
    return 0.5 * (node.mbr[d] + node.mbr[dim_ + d]);
  };
  while (level.size() > 1) {
    groups.clear();
    StrTile(level, 0, level.size(), 0, dim_, kMaxEntries, node_key, groups);
    std::vector<uint32_t> next;
    for (const auto& [begin, end] : groups) {
      const uint32_t node = NewNode(/*leaf=*/false);
      nodes_[node].entries.assign(level.begin() + begin,
                                  level.begin() + end);
      for (uint32_t child : nodes_[node].entries) {
        nodes_[child].parent = node;
      }
      RecomputeMbr(node);
      next.push_back(node);
    }
    level = std::move(next);
  }
  root_ = level.front();
}

std::vector<uint32_t> RStarTreeIndex::BreadthFirstOrder() const {
  std::vector<uint32_t> order = {root_};
  for (size_t i = 0; i < order.size(); ++i) {
    const Node& node = nodes_[order[i]];
    if (!node.leaf) {
      order.insert(order.end(), node.entries.begin(), node.entries.end());
    }
  }
  return order;
}

void RStarTreeIndex::Pack() {
  // Breadth-first order puts each directory node's children next to each
  // other, so a node expansion reads one run of boxes_. Each leaf gets its
  // own block-aligned group, as in the kd-tree, so a leaf scan covers
  // whole blocks of its own points only.
  const std::vector<uint32_t> order = BreadthFirstOrder();
  packed_.assign(order.size(), PackedNode{});
  boxes_.clear();
  boxes_.reserve(order.size() * 2 * dim_);
  PointBlockBuilder builder(*data_);
  uint32_t next_child = 1;
  for (size_t i = 0; i < order.size(); ++i) {
    const Node& node = nodes_[order[i]];
    PackedNode& packed = packed_[i];
    packed.leaf = node.leaf;
    packed.count = static_cast<uint32_t>(node.entries.size());
    boxes_.insert(boxes_.end(), node.mbr.begin(), node.mbr.end());
    if (node.leaf) {
      packed.begin = static_cast<uint32_t>(builder.BeginGroup());
      for (uint32_t id : node.entries) builder.Append(id);
    } else {
      packed.begin = next_child;
      next_child += packed.count;
    }
  }
  view_ = std::move(builder).Build();
}

Status RStarTreeIndex::CheckInvariants() const {
  if (root_ == Node::kNone || data_ == nullptr) {
    return Status::FailedPrecondition("tree not built");
  }
  std::vector<uint8_t> seen(data_->size(), 0);
  size_t leaf_depth = static_cast<size_t>(-1);
  // (node, depth) DFS.
  std::vector<std::pair<uint32_t, size_t>> stack = {{root_, 0}};
  while (!stack.empty()) {
    const auto [node_id, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes_[node_id];
    if (node.entries.empty()) {
      return Status::Internal(StrFormat("node %u is empty", node_id));
    }
    if (node.entries.size() > node.capacity) {
      return Status::Internal(
          StrFormat("node %u exceeds capacity (%zu > %zu)", node_id,
                    node.entries.size(), node.capacity));
    }
    // MBR must be exactly the union of the entries' rects.
    std::vector<double> expected(2 * dim_);
    for (size_t d = 0; d < dim_; ++d) {
      expected[d] = std::numeric_limits<double>::infinity();
      expected[dim_ + d] = -std::numeric_limits<double>::infinity();
    }
    for (size_t i = 0; i < node.entries.size(); ++i) {
      auto lo = EntryLo(node, i);
      auto hi = EntryHi(node, i);
      for (size_t d = 0; d < dim_; ++d) {
        expected[d] = std::min(expected[d], lo[d]);
        expected[dim_ + d] = std::max(expected[dim_ + d], hi[d]);
      }
    }
    if (expected != node.mbr) {
      return Status::Internal(
          StrFormat("node %u MBR is not the union of its entries", node_id));
    }
    if (node.leaf) {
      if (leaf_depth == static_cast<size_t>(-1)) {
        leaf_depth = depth;
      } else if (leaf_depth != depth) {
        return Status::Internal("leaves at different depths");
      }
      for (uint32_t id : node.entries) {
        if (id >= seen.size()) {
          return Status::Internal(StrFormat("leaf holds bad point id %u", id));
        }
        if (seen[id]++) {
          return Status::Internal(
              StrFormat("point %u appears in two leaves", id));
        }
      }
    } else {
      for (uint32_t child : node.entries) {
        if (nodes_[child].parent != node_id) {
          return Status::Internal(
              StrFormat("child %u has wrong parent pointer", child));
        }
        stack.emplace_back(child, depth + 1);
      }
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) {
      return Status::Internal(StrFormat("point %zu missing from tree", i));
    }
  }
  // The packed query layout mirrors the tree: packed id i is the i-th node
  // in breadth-first order, with the same box, its children at contiguous
  // packed ids, and its leaf points, in entry order, in its view_ group.
  const std::vector<uint32_t> order = BreadthFirstOrder();
  if (packed_.size() != order.size()) {
    return Status::Internal(
        StrFormat("packed layout has %zu nodes, the tree %zu",
                  packed_.size(), order.size()));
  }
  for (size_t i = 0; i < order.size(); ++i) {
    const Node& node = nodes_[order[i]];
    const PackedNode& packed = packed_[i];
    const size_t limit = node.leaf ? view_.positions() : order.size();
    if (packed.leaf != node.leaf || packed.count != node.entries.size() ||
        packed.begin + packed.count > limit ||
        !std::equal(node.mbr.begin(), node.mbr.end(),
                    Box(static_cast<uint32_t>(i)))) {
      return Status::Internal(
          StrFormat("packed node %zu does not mirror node %u", i, order[i]));
    }
    for (size_t j = 0; j < node.entries.size(); ++j) {
      const uint32_t packed_entry =
          node.leaf ? view_.id(packed.begin + j) : order[packed.begin + j];
      if (packed_entry != node.entries[j]) {
        return Status::Internal(StrFormat(
            "packed node %zu entry %zu is not node %u's", i, j, order[i]));
      }
    }
  }
  return Status::OK();
}

uint32_t RStarTreeIndex::NewNode(bool leaf) {
  Node node;
  node.leaf = leaf;
  node.mbr.assign(2 * dim_, 0.0);
  for (size_t d = 0; d < dim_; ++d) {
    node.mbr[d] = std::numeric_limits<double>::infinity();
    node.mbr[dim_ + d] = -std::numeric_limits<double>::infinity();
  }
  nodes_.push_back(std::move(node));
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void RStarTreeIndex::RecomputeMbr(uint32_t node_id) {
  Node& node = nodes_[node_id];
  for (size_t d = 0; d < dim_; ++d) {
    node.mbr[d] = std::numeric_limits<double>::infinity();
    node.mbr[dim_ + d] = -std::numeric_limits<double>::infinity();
  }
  for (size_t i = 0; i < node.entries.size(); ++i) {
    auto lo = EntryLo(node, i);
    auto hi = EntryHi(node, i);
    for (size_t d = 0; d < dim_; ++d) {
      node.mbr[d] = std::min(node.mbr[d], lo[d]);
      node.mbr[dim_ + d] = std::max(node.mbr[dim_ + d], hi[d]);
    }
  }
}

void RStarTreeIndex::ExtendUpward(uint32_t node_id,
                                  std::span<const double> rect) {
  for (uint32_t id = node_id; id != Node::kNone; id = nodes_[id].parent) {
    RectExtend(nodes_[id].mbr, rect, dim_);
  }
}

size_t RStarTreeIndex::LevelOf(uint32_t node_id) const {
  size_t level = 0;
  const Node* node = &nodes_[node_id];
  while (!node->leaf) {
    node = &nodes_[node->entries.front()];
    ++level;
  }
  return level;
}

uint32_t RStarTreeIndex::ChooseSubtree(std::span<const double> rect,
                                       size_t target_level) {
  uint32_t current = root_;
  size_t level = LevelOf(root_);
  std::vector<double> child_rect;
  std::vector<double> other_rect;
  while (level > target_level) {
    const Node& node = nodes_[current];
    const bool children_are_leaves = nodes_[node.entries.front()].leaf;
    size_t best = 0;
    double best_primary = std::numeric_limits<double>::infinity();
    double best_secondary = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      EntryRect(node, i, child_rect);
      const double area = RectArea(child_rect, dim_);
      std::vector<double> enlarged = child_rect;
      RectExtend(enlarged, rect, dim_);
      const double enlargement = RectArea(enlarged, dim_) - area;
      double primary;
      if (children_are_leaves) {
        // R*: minimize overlap enlargement against the sibling rects.
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (size_t j = 0; j < node.entries.size(); ++j) {
          if (j == i) continue;
          EntryRect(node, j, other_rect);
          overlap_before += RectOverlap(child_rect, other_rect, dim_);
          overlap_after += RectOverlap(enlarged, other_rect, dim_);
        }
        primary = overlap_after - overlap_before;
      } else {
        primary = enlargement;
      }
      const double secondary = children_are_leaves ? enlargement : area;
      if (primary < best_primary ||
          (primary == best_primary && secondary < best_secondary) ||
          (primary == best_primary && secondary == best_secondary &&
           area < best_area)) {
        best_primary = primary;
        best_secondary = secondary;
        best_area = area;
        best = i;
      }
    }
    current = node.entries[best];
    --level;
  }
  return current;
}

void RStarTreeIndex::InsertRect(std::span<const double> rect, uint32_t entry,
                                size_t target_level,
                                std::vector<bool>& reinserted) {
  const uint32_t target = ChooseSubtree(rect, target_level);
  Node& node = nodes_[target];
  node.entries.push_back(entry);
  if (!node.leaf) {
    nodes_[entry].parent = target;
  }
  ExtendUpward(target, rect);
  if (node.entries.size() > node.capacity) {
    HandleOverflow(target, reinserted);
  }
}

void RStarTreeIndex::HandleOverflow(uint32_t node_id,
                                    std::vector<bool>& reinserted) {
  const size_t level = LevelOf(node_id);
  if (node_id != root_ && level < reinserted.size() && !reinserted[level]) {
    reinserted[level] = true;
    ReinsertEntries(node_id, reinserted);
  } else {
    SplitNode(node_id, reinserted);
  }
}

void RStarTreeIndex::ReinsertEntries(uint32_t node_id,
                                     std::vector<bool>& reinserted) {
  const size_t level = LevelOf(node_id);
  std::vector<double> center(dim_);
  {
    const Node& node = nodes_[node_id];
    for (size_t d = 0; d < dim_; ++d) {
      center[d] = 0.5 * (node.mbr[d] + node.mbr[dim_ + d]);
    }
  }
  // Order entries by the distance of their rect center from the node
  // center, farthest first.
  struct Scored {
    size_t pos;
    double dist;
  };
  std::vector<Scored> scored;
  {
    const Node& node = nodes_[node_id];
    scored.reserve(node.entries.size());
    for (size_t i = 0; i < node.entries.size(); ++i) {
      auto lo = EntryLo(node, i);
      auto hi = EntryHi(node, i);
      double dist = 0.0;
      for (size_t d = 0; d < dim_; ++d) {
        const double c = 0.5 * (lo[d] + hi[d]);
        const double delta = c - center[d];
        dist += delta * delta;
      }
      scored.push_back(Scored{i, dist});
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.dist > b.dist; });
  const size_t remove_count = std::max<size_t>(
      1, static_cast<size_t>(kReinsertFraction *
                             static_cast<double>(scored.size())));

  std::vector<uint32_t> removed;
  removed.reserve(remove_count);
  {
    std::vector<bool> drop(scored.size(), false);
    for (size_t i = 0; i < remove_count; ++i) {
      drop[scored[i].pos] = true;
      removed.push_back(nodes_[node_id].entries[scored[i].pos]);
    }
    Node& node = nodes_[node_id];
    std::vector<uint32_t> kept;
    kept.reserve(node.entries.size() - remove_count);
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (!drop[i]) kept.push_back(node.entries[i]);
    }
    node.entries = std::move(kept);
  }
  // Tighten this node and its ancestors before reinserting.
  for (uint32_t id = node_id; id != Node::kNone; id = nodes_[id].parent) {
    RecomputeMbr(id);
  }
  // Reinsert, closest first ("close reinsert" per the R* paper evaluation).
  std::reverse(removed.begin(), removed.end());
  std::vector<double> rect;
  for (uint32_t entry : removed) {
    if (nodes_[node_id].leaf) {
      auto p = data_->point(entry);
      rect.assign(p.begin(), p.end());
      rect.insert(rect.end(), p.begin(), p.end());
    } else {
      const Node& child = nodes_[entry];
      rect = child.mbr;
    }
    InsertRect(rect, entry, level, reinserted);
  }
}

RStarTreeIndex::SplitChoice RStarTreeIndex::ChooseSplit(
    const Node& node) const {
  const size_t n = node.entries.size();
  const size_t min_fill = std::max<size_t>(
      1, static_cast<size_t>(0.4 * static_cast<double>(n)));
  SplitChoice best;
  double best_margin_sum = std::numeric_limits<double>::infinity();

  std::vector<uint32_t> order(n);
  std::vector<double> prefix_rect;
  std::vector<double> suffix_rect;
  std::vector<std::vector<double>> prefix(n + 1), suffix(n + 1);

  for (size_t axis = 0; axis < dim_; ++axis) {
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const double alo = EntryLo(node, a)[axis];
      const double blo = EntryLo(node, b)[axis];
      if (alo != blo) return alo < blo;
      return EntryHi(node, a)[axis] < EntryHi(node, b)[axis];
    });
    // Prefix/suffix bounding rects over the sorted order.
    std::vector<double> rect(2 * dim_);
    for (size_t d = 0; d < dim_; ++d) {
      rect[d] = std::numeric_limits<double>::infinity();
      rect[dim_ + d] = -std::numeric_limits<double>::infinity();
    }
    prefix[0] = rect;
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> entry_rect;
      EntryRect(node, order[i], entry_rect);
      RectExtend(rect, entry_rect, dim_);
      prefix[i + 1] = rect;
    }
    for (size_t d = 0; d < dim_; ++d) {
      rect[d] = std::numeric_limits<double>::infinity();
      rect[dim_ + d] = -std::numeric_limits<double>::infinity();
    }
    suffix[n] = rect;
    for (size_t i = n; i-- > 0;) {
      std::vector<double> entry_rect;
      EntryRect(node, order[i], entry_rect);
      RectExtend(rect, entry_rect, dim_);
      suffix[i] = rect;
    }

    // Axis goodness: sum of margins over all legal distributions.
    double margin_sum = 0.0;
    for (size_t k = min_fill; k + min_fill <= n; ++k) {
      margin_sum += RectMargin(prefix[k], dim_) + RectMargin(suffix[k], dim_);
    }
    if (margin_sum >= best_margin_sum) continue;
    best_margin_sum = margin_sum;

    // On the chosen axis pick the distribution with minimal overlap,
    // breaking ties by total area.
    size_t best_k = min_fill;
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t k = min_fill; k + min_fill <= n; ++k) {
      const double overlap = RectOverlap(prefix[k], suffix[k], dim_);
      const double area =
          RectArea(prefix[k], dim_) + RectArea(suffix[k], dim_);
      if (overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_k = k;
      }
    }
    best.order = order;
    best.boundary = best_k;
    const double area_left = RectArea(prefix[best_k], dim_);
    const double area_right = RectArea(suffix[best_k], dim_);
    const double union_area = area_left + area_right - best_overlap;
    best.overlap_fraction = union_area > 0.0 ? best_overlap / union_area : 0.0;
  }
  return best;
}

void RStarTreeIndex::SplitNode(uint32_t node_id,
                               std::vector<bool>& reinserted) {
  SplitChoice choice = ChooseSplit(nodes_[node_id]);

  // X-tree rule: a directory node whose best split still produces heavy
  // overlap becomes a supernode instead.
  if (!nodes_[node_id].leaf && choice.overlap_fraction > kMaxOverlap) {
    nodes_[node_id].capacity += kMaxEntries;
    return;
  }

  const uint32_t sibling = NewNode(nodes_[node_id].leaf);
  // NewNode may reallocate nodes_, so take the reference afterwards.
  Node& node = nodes_[node_id];
  Node& sib = nodes_[sibling];

  std::vector<uint32_t> left_entries;
  std::vector<uint32_t> right_entries;
  left_entries.reserve(choice.boundary);
  right_entries.reserve(choice.order.size() - choice.boundary);
  for (size_t i = 0; i < choice.order.size(); ++i) {
    const uint32_t entry = node.entries[choice.order[i]];
    if (i < choice.boundary) {
      left_entries.push_back(entry);
    } else {
      right_entries.push_back(entry);
    }
  }
  node.entries = std::move(left_entries);
  sib.entries = std::move(right_entries);
  sib.capacity = kMaxEntries;
  // A split node reverts to normal capacity (the overlap is resolved).
  node.capacity = kMaxEntries;
  if (!node.leaf) {
    for (uint32_t child : sib.entries) nodes_[child].parent = sibling;
  }
  RecomputeMbr(node_id);
  RecomputeMbr(sibling);

  if (node_id == root_) {
    const uint32_t new_root = NewNode(/*leaf=*/false);
    nodes_[new_root].entries = {node_id, sibling};
    nodes_[node_id].parent = new_root;
    nodes_[sibling].parent = new_root;
    RecomputeMbr(new_root);
    root_ = new_root;
    return;
  }

  const uint32_t parent = nodes_[node_id].parent;
  nodes_[sibling].parent = parent;
  nodes_[parent].entries.push_back(sibling);
  // The parent's MBR is unchanged (children cover the same area), but the
  // ancestors of a shrunk node can be tightened.
  for (uint32_t id = parent; id != Node::kNone; id = nodes_[id].parent) {
    RecomputeMbr(id);
  }
  if (nodes_[parent].entries.size() > nodes_[parent].capacity) {
    HandleOverflow(parent, reinserted);
  }
}

// ---------------------------------------------------------------------------
// Queries: both read only the packed layout.
// ---------------------------------------------------------------------------

template <typename Visit>
void RStarTreeIndex::ScanLeaf(const PackedNode& leaf, const double* query,
                              uint32_t skip, QueryStats* stats,
                              Visit&& visit) const {
  if (stats != nullptr) {
    ++stats->leaf_visits;
    stats->distance_evals += leaf.count;
  }
  double rank[PointBlockView::kLanes];
  for (uint32_t off = 0; off < leaf.count; off += PointBlockView::kLanes) {
    const size_t pos = leaf.begin + off;
    kern_.rank_block(kern_.ctx, query,
                     view_.block(pos / PointBlockView::kLanes), dim_, rank);
    const uint32_t lanes =
        std::min<uint32_t>(PointBlockView::kLanes, leaf.count - off);
    for (uint32_t j = 0; j < lanes; ++j) {
      const uint32_t id = view_.id(pos + j);
      if (id == skip) {
        if (stats != nullptr) --stats->distance_evals;
        continue;
      }
      visit(id, rank[j]);
    }
  }
}

Status RStarTreeIndex::Query(std::span<const double> query, size_t k,
                             std::optional<uint32_t> exclude,
                             KnnSearchContext& ctx) const {
  LOFKIT_RETURN_IF_ERROR(CheckQuery(data_, query));
  if (k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  internal_index::KnnCollector collector(k, ctx);
  // Best-first search over packed nodes ordered by minimum possible rank
  // (squared distance for the L2 family). The min-heap lives in the
  // context's frontier pool (push_heap/pop_heap with greater<> — exactly
  // what std::priority_queue would do, minus the per-query allocation).
  std::vector<std::pair<double, uint32_t>>& queue = ctx.scratch.frontier;
  queue.clear();
  const uint32_t skip =
      exclude.has_value() ? *exclude : PointBlockView::kPaddingId;
  QueryStats* stats = ctx.stats;
  if (stats != nullptr) ++stats->queries;
  queue.emplace_back(0.0, 0);  // the root
  while (!queue.empty()) {
    std::pop_heap(queue.begin(), queue.end(), std::greater<>());
    const auto [min_rank, packed_id] = queue.back();
    queue.pop_back();
    if (min_rank > collector.Tau()) break;
    const PackedNode& node = packed_[packed_id];
    if (node.leaf) {
      ScanLeaf(node, query.data(), skip, stats,
               [&](uint32_t id, double rank) { collector.Offer(id, rank); });
      continue;
    }
    if (stats != nullptr) ++stats->node_visits;
    const double tau = collector.Tau();
    for (uint32_t child = node.begin; child < node.begin + node.count;
         ++child) {
      const double* box = Box(child);
      const double child_rank =
          kern_.rank_box(kern_.ctx, query.data(), box, box + dim_, dim_);
      if (child_rank <= tau) {
        queue.emplace_back(child_rank, child);
        std::push_heap(queue.begin(), queue.end(), std::greater<>());
      } else if (stats != nullptr) {
        ++stats->rank_prune_hits;
      }
    }
  }
  collector.TakeInto(ctx.scratch.out);
  internal_index::RanksToDistances(kern_, ctx.scratch.out);
  return Status::OK();
}

Status RStarTreeIndex::QueryRadius(std::span<const double> query,
                                   double radius,
                                   std::optional<uint32_t> exclude,
                                   KnnSearchContext& ctx) const {
  LOFKIT_RETURN_IF_ERROR(CheckQuery(data_, query));
  if (!(radius >= 0.0)) {
    return Status::InvalidArgument("radius must be >= 0");
  }
  std::vector<Neighbor>& result = ctx.scratch.out;
  result.clear();
  std::vector<uint32_t>& stack = ctx.scratch.stack;
  stack.assign(1, 0);  // the root
  const uint32_t skip =
      exclude.has_value() ? *exclude : PointBlockView::kPaddingId;
  const double rank_hi = PruneRankUpperBound(kern_.squared, radius);
  QueryStats* stats = ctx.stats;
  if (stats != nullptr) ++stats->queries;
  while (!stack.empty()) {
    const uint32_t packed_id = stack.back();
    stack.pop_back();
    const double* box = Box(packed_id);
    if (kern_.rank_box(kern_.ctx, query.data(), box, box + dim_, dim_) >
        rank_hi) {
      if (stats != nullptr) ++stats->rank_prune_hits;
      continue;
    }
    const PackedNode& node = packed_[packed_id];
    if (node.leaf) {
      ScanLeaf(node, query.data(), skip, stats, [&](uint32_t id, double rank) {
        if (rank > rank_hi) return;
        const double dist = DistanceFromRank(kern_.squared, rank);
        if (dist <= radius) result.push_back(Neighbor{id, dist});
      });
    } else {
      if (stats != nullptr) ++stats->node_visits;
      for (uint32_t child = node.begin; child < node.begin + node.count;
           ++child) {
        stack.push_back(child);
      }
    }
  }
  internal_index::SortNeighbors(result);
  return Status::OK();
}

size_t RStarTreeIndex::supernode_count() const {
  size_t count = 0;
  for (const Node& node : nodes_) {
    if (node.is_supernode()) ++count;
  }
  return count;
}

size_t RStarTreeIndex::height() const {
  if (root_ == Node::kNone) return 0;
  return LevelOf(root_) + 1;
}

}  // namespace lofkit

#include "index/m_tree_index.h"

#include <algorithm>
#include <cmath>

#include "common/fail_point.h"
#include "common/string_util.h"

namespace lofkit {

namespace {

// Relative slack on Query's triangle-inequality bounds. Each bound combines
// distances that were rounded (acos under Angular() rounds the most), so in
// floating point it can land a few ulps above a tied neighbor's exact
// distance and prune that neighbor. The slack only loosens pruning: the
// collector still decides membership on the exact distance.
constexpr double kBoundSlack = 1e-12;

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

double MTreeIndex::Distance(uint32_t a, uint32_t b) const {
  return DistanceFromRank(
      kern_.squared, kern_.rank_one(kern_.ctx, data_->point(a).data(),
                                    data_->point(b).data(),
                                    data_->dimension()));
}

double MTreeIndex::DistanceToQuery(std::span<const double> q,
                                   uint32_t object) const {
  return DistanceFromRank(
      kern_.squared, kern_.rank_one(kern_.ctx, q.data(),
                                    data_->point(object).data(),
                                    data_->dimension()));
}

uint32_t MTreeIndex::RoutingObjectOf(uint32_t node_id) const {
  const Node& node = nodes_[node_id];
  if (node.parent == kNone) return kNone;
  return nodes_[node.parent].entries[node.parent_slot].object;
}

Status MTreeIndex::Build(const Dataset& data, const Metric& metric) {
  LOFKIT_FAIL_POINT("index.build");
  if (data.empty()) {
    return Status::InvalidArgument("cannot build index over empty dataset");
  }
  data_ = &data;
  metric_ = &metric;
  kern_ = metric.kernels();
  nodes_.clear();
  nodes_.push_back(Node{});  // leaf root
  root_ = 0;

  for (uint32_t id = 0; id < data.size(); ++id) {
    const uint32_t leaf_id = ChooseLeaf(id);
    Node& leaf = nodes_[leaf_id];
    Entry entry;
    entry.object = id;
    const uint32_t routing = RoutingObjectOf(leaf_id);
    entry.parent_distance = routing == kNone ? 0.0 : Distance(id, routing);
    leaf.entries.push_back(entry);
    if (leaf.entries.size() > kMaxEntries) {
      Split(leaf_id);
    }
  }
  return Status::OK();
}

uint32_t MTreeIndex::ChooseLeaf(uint32_t id) {
  uint32_t current = root_;
  while (!nodes_[current].leaf) {
    Node& node = nodes_[current];
    // Prefer an entry already covering the point (minimal distance);
    // otherwise minimize the radius enlargement.
    size_t best = 0;
    double best_key = std::numeric_limits<double>::infinity();
    bool best_covers = false;
    double best_distance = 0.0;
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const double dist = Distance(id, node.entries[i].object);
      const bool covers = dist <= node.entries[i].radius;
      const double key = covers ? dist : dist - node.entries[i].radius;
      if ((covers && !best_covers) ||
          (covers == best_covers && key < best_key)) {
        best = i;
        best_key = key;
        best_covers = covers;
        best_distance = dist;
      }
    }
    Entry& chosen = node.entries[best];
    chosen.radius = std::max(chosen.radius, best_distance);
    current = chosen.child;
  }
  return current;
}

void MTreeIndex::Split(uint32_t node_id) {
  // Work on a copy of the entries; the node will be rebuilt.
  std::vector<Entry> entries = std::move(nodes_[node_id].entries);
  const bool is_leaf = nodes_[node_id].leaf;

  // Promotion (mM_RAD flavor): first promoted = entry farthest from the
  // old routing object (fall back to entry 0), second = farthest from the
  // first.
  const uint32_t old_routing = RoutingObjectOf(node_id);
  size_t first = 0;
  if (old_routing != kNone) {
    double farthest = -1.0;
    for (size_t i = 0; i < entries.size(); ++i) {
      const double dist = Distance(entries[i].object, old_routing);
      if (dist > farthest) {
        farthest = dist;
        first = i;
      }
    }
  }
  size_t second = first == 0 ? 1 : 0;
  {
    double farthest = -1.0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i == first) continue;
      const double dist = Distance(entries[i].object, entries[first].object);
      if (dist > farthest) {
        farthest = dist;
        second = i;
      }
    }
  }
  const uint32_t promoted[2] = {entries[first].object,
                                entries[second].object};

  // Generalized hyperplane partition.
  const uint32_t sibling_id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[sibling_id].leaf = is_leaf;
  Node& node = nodes_[node_id];
  Node& sibling = nodes_[sibling_id];
  node.entries.clear();

  double radius[2] = {0.0, 0.0};
  for (size_t i = 0; i < entries.size(); ++i) {
    Entry entry = entries[i];
    const double d0 = Distance(entry.object, promoted[0]);
    const double d1 = Distance(entry.object, promoted[1]);
    const int side = (i == first) ? 0 : (i == second) ? 1 : (d0 <= d1 ? 0 : 1);
    entry.parent_distance = side == 0 ? d0 : d1;
    const double reach =
        entry.parent_distance + (is_leaf ? 0.0 : entry.radius);
    radius[side] = std::max(radius[side], reach);
    Node& target = side == 0 ? node : sibling;
    if (!is_leaf) {
      nodes_[entry.child].parent = side == 0 ? node_id : sibling_id;
      nodes_[entry.child].parent_slot =
          static_cast<uint32_t>(target.entries.size());
    }
    target.entries.push_back(entry);
  }

  if (node_id == root_) {
    const uint32_t new_root = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
    Node& root = nodes_[new_root];
    root.leaf = false;
    for (int side = 0; side < 2; ++side) {
      Entry entry;
      entry.object = promoted[side];
      entry.child = side == 0 ? node_id : sibling_id;
      entry.radius = radius[side];
      entry.parent_distance = 0.0;  // the root has no routing object
      root.entries.push_back(entry);
    }
    nodes_[node_id].parent = new_root;
    nodes_[node_id].parent_slot = 0;
    nodes_[sibling_id].parent = new_root;
    nodes_[sibling_id].parent_slot = 1;
    root_ = new_root;
    return;
  }

  // Replace this node's entry in the parent and append one for the
  // sibling.
  const uint32_t parent_id = nodes_[node_id].parent;
  Node& parent = nodes_[parent_id];
  const uint32_t parent_routing = RoutingObjectOf(parent_id);
  Entry& slot = parent.entries[nodes_[node_id].parent_slot];
  slot.object = promoted[0];
  slot.radius = radius[0];
  slot.parent_distance =
      parent_routing == kNone ? 0.0 : Distance(promoted[0], parent_routing);

  Entry sibling_entry;
  sibling_entry.object = promoted[1];
  sibling_entry.child = sibling_id;
  sibling_entry.radius = radius[1];
  sibling_entry.parent_distance =
      parent_routing == kNone ? 0.0 : Distance(promoted[1], parent_routing);
  nodes_[sibling_id].parent = parent_id;
  nodes_[sibling_id].parent_slot =
      static_cast<uint32_t>(parent.entries.size());
  parent.entries.push_back(sibling_entry);

  // The parent's own covering radius (and its ancestors') may have to
  // grow: recompute along the path to the root.
  for (uint32_t walk = parent_id; walk != root_;) {
    const uint32_t up = nodes_[walk].parent;
    Entry& up_entry = nodes_[up].entries[nodes_[walk].parent_slot];
    double max_reach = 0.0;
    for (const Entry& e : nodes_[walk].entries) {
      const double reach = Distance(up_entry.object, e.object) +
                           (nodes_[walk].leaf ? 0.0 : e.radius);
      max_reach = std::max(max_reach, reach);
    }
    up_entry.radius = std::max(up_entry.radius, max_reach);
    walk = up;
  }

  if (parent.entries.size() > kMaxEntries) {
    Split(parent_id);
  }
}

Status MTreeIndex::Query(std::span<const double> query, size_t k,
                         std::optional<uint32_t> exclude,
                         KnnSearchContext& ctx) const {
  LOFKIT_RETURN_IF_ERROR(CheckQuery(data_, query));
  if (k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  internal_index::KnnCollector collector(k, ctx);

  // Best-first over (dmin, node, d(q, routing of node)); the routing
  // distance powers the parent-distance pruning inside the node. The
  // min-heap lives in the context's keyed-frontier pool (key = dmin,
  // aux = routing distance, NaN for the root) and is driven with
  // push_heap/pop_heap — exactly what std::priority_queue would do,
  // minus the per-query allocation.
  using KeyedNode = KnnSearchContext::Scratch::KeyedNode;
  const auto dmin_greater = [](const KeyedNode& a, const KeyedNode& b) {
    return a.key > b.key;
  };
  std::vector<KeyedNode>& queue = ctx.scratch.keyed_frontier;
  queue.clear();
  queue.push_back({0.0, root_, std::numeric_limits<double>::quiet_NaN()});

  QueryStats* stats = ctx.stats;
  if (stats != nullptr) ++stats->queries;
  while (!queue.empty()) {
    std::pop_heap(queue.begin(), queue.end(), dmin_greater);
    const KeyedNode top = queue.back();
    queue.pop_back();
    if (top.key > collector.Tau()) break;
    const Node& node = nodes_[top.node];
    if (stats != nullptr) {
      if (node.leaf) {
        ++stats->leaf_visits;
      } else {
        ++stats->node_visits;
      }
    }
    const bool have_routing = !std::isnan(top.aux);
    for (const Entry& entry : node.entries) {
      // Triangle-inequality pruning without a distance computation:
      // |d(q, routing) - d(object, routing)| lower-bounds d(q, object).
      if (have_routing) {
        const double lower =
            std::abs(top.aux - entry.parent_distance) -
            (node.leaf ? 0.0 : entry.radius) -
            kBoundSlack * (top.aux + entry.parent_distance + entry.radius);
        if (lower > collector.Tau()) {
          if (stats != nullptr) ++stats->rank_prune_hits;
          continue;
        }
      }
      if (node.leaf) {
        if (exclude.has_value() && *exclude == entry.object) continue;
        // The collector's tau is a distance here (the M-tree's pruning is
        // metric-general), so the early-exit bound widens it conservatively
        // into rank space; a kernel bail-out maps to +inf, which Offer
        // rejects just as the exact distance would be.
        if (stats != nullptr) ++stats->distance_evals;
        const double rank = kern_.rank_bounded(
            kern_.ctx, query.data(), data_->point(entry.object).data(),
            query.size(),
            PruneRankUpperBound(kern_.squared, collector.Tau()));
        collector.Offer(entry.object, DistanceFromRank(kern_.squared, rank));
      } else {
        if (stats != nullptr) ++stats->distance_evals;
        const double dist = DistanceToQuery(query, entry.object);
        const double dmin = std::max(
            0.0, dist - entry.radius - kBoundSlack * (dist + entry.radius));
        if (dmin <= collector.Tau()) {
          queue.push_back({dmin, entry.child, dist});
          std::push_heap(queue.begin(), queue.end(), dmin_greater);
        } else if (stats != nullptr) {
          ++stats->rank_prune_hits;
        }
      }
    }
  }
  collector.TakeInto(ctx.scratch.out);
  return Status::OK();
}

Status MTreeIndex::QueryRadius(std::span<const double> query, double radius,
                               std::optional<uint32_t> exclude,
                               KnnSearchContext& ctx) const {
  LOFKIT_RETURN_IF_ERROR(CheckQuery(data_, query));
  if (!(radius >= 0.0)) {
    return Status::InvalidArgument("radius must be >= 0");
  }
  std::vector<Neighbor>& result = ctx.scratch.out;
  result.clear();
  std::vector<uint32_t>& stack = ctx.scratch.stack;
  stack.assign(1, root_);
  QueryStats* stats = ctx.stats;
  if (stats != nullptr) ++stats->queries;
  while (!stack.empty()) {
    const uint32_t node_id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[node_id];
    if (stats != nullptr) {
      if (node.leaf) {
        ++stats->leaf_visits;
      } else {
        ++stats->node_visits;
      }
    }
    for (const Entry& entry : node.entries) {
      if (node.leaf) {
        if (exclude.has_value() && *exclude == entry.object) continue;
        if (stats != nullptr) ++stats->distance_evals;
        const double rank = kern_.rank_bounded(
            kern_.ctx, query.data(), data_->point(entry.object).data(),
            query.size(), PruneRankUpperBound(kern_.squared, radius));
        const double dist = DistanceFromRank(kern_.squared, rank);
        if (dist <= radius) result.push_back(Neighbor{entry.object, dist});
      } else {
        if (stats != nullptr) ++stats->distance_evals;
        const double dist = DistanceToQuery(query, entry.object);
        if (dist - entry.radius <= radius) {
          stack.push_back(entry.child);
        } else if (stats != nullptr) {
          ++stats->rank_prune_hits;
        }
      }
    }
  }
  internal_index::SortNeighbors(result);
  return Status::OK();
}

size_t MTreeIndex::height() const {
  if (root_ == kNone) return 0;
  size_t levels = 1;
  uint32_t current = root_;
  while (!nodes_[current].leaf) {
    current = nodes_[current].entries.front().child;
    ++levels;
  }
  return levels;
}

Status MTreeIndex::CheckInvariants() const {
  if (root_ == kNone || data_ == nullptr) {
    return Status::FailedPrecondition("tree not built");
  }
  std::vector<uint8_t> seen(data_->size(), 0);
  // DFS carrying (node, routing object or kNone).
  std::vector<std::pair<uint32_t, uint32_t>> stack = {{root_, kNone}};
  while (!stack.empty()) {
    const auto [node_id, routing] = stack.back();
    stack.pop_back();
    const Node& node = nodes_[node_id];
    if (node.entries.empty()) {
      return Status::Internal(StrFormat("node %u is empty", node_id));
    }
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const Entry& entry = node.entries[i];
      if (routing != kNone) {
        const double expected = Distance(entry.object, routing);
        if (std::abs(entry.parent_distance - expected) > 1e-9) {
          return Status::Internal(
              StrFormat("stale parent distance in node %u", node_id));
        }
      }
      if (node.leaf) {
        if (entry.object >= seen.size() || seen[entry.object]++) {
          return Status::Internal(
              StrFormat("point %u missing or duplicated", entry.object));
        }
      } else {
        const Node& child = nodes_[entry.child];
        if (child.parent != node_id ||
            child.parent_slot != static_cast<uint32_t>(i)) {
          return Status::Internal("broken parent linkage");
        }
        // Covering invariant (the one queries rely on): every *point*
        // stored anywhere below this entry lies within its radius of the
        // routing object. Insertion-path updates maintain exactly this
        // point form, not the stronger compositional
        // d(routing, sub) + sub.radius bound.
        std::vector<uint32_t> subtree = {entry.child};
        while (!subtree.empty()) {
          const Node& walk = nodes_[subtree.back()];
          subtree.pop_back();
          for (const Entry& sub : walk.entries) {
            if (walk.leaf) {
              if (Distance(entry.object, sub.object) >
                  entry.radius + 1e-9) {
                return Status::Internal(
                    StrFormat("covering radius violated at node %u",
                              entry.child));
              }
            } else {
              subtree.push_back(sub.child);
            }
          }
        }
        stack.emplace_back(entry.child, entry.object);
      }
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) {
      return Status::Internal(StrFormat("point %zu missing from tree", i));
    }
  }
  return Status::OK();
}

}  // namespace lofkit

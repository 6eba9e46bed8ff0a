// The vp-tree (Chiueh, VLDB'94 — reference [8]; Section 5 of the paper):
// a main-memory metric tree that partitions the space into spherical shells
// around vantage points. Supports the binary tree and the m-way
// generalization with quantile cutoff values, exactly the structure the
// paper's Section-5 cost model describes.
//
// Each internal node holds one vantage point (a data object), the m-1
// cutoff values mu_1..mu_{m-1}, and m children; leaves hold a single
// object by default (so one distance computation per accessed node, the
// e(N)=1 convention of the paper's vp-tree cost formula).

#ifndef MCM_VPTREE_VPTREE_H_
#define MCM_VPTREE_VPTREE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <vector>

#include "mcm/common/query_stats.h"
#include "mcm/common/random.h"
#include "mcm/engine/search_core.h"
#include "mcm/engine/witness.h"
#include "mcm/obs/trace.h"

namespace mcm {

namespace check {
struct IndexInspector;
}  // namespace check

/// How vantage points are chosen during construction.
enum class VantageSelection {
  kRandom,      ///< Uniformly random object.
  kBestSpread,  ///< Sampled candidates; maximize the spread (2nd moment) of
                ///< distances to a sample (Yianilos' heuristic).
};

/// vp-tree construction options.
struct VpTreeOptions {
  size_t arity = 2;          ///< m (2 = the classic binary vp-tree).
  size_t leaf_capacity = 1;  ///< Objects per leaf.
  VantageSelection selection = VantageSelection::kRandom;
  size_t selection_candidates = 8;  ///< Candidates for kBestSpread.
  size_t selection_sample = 32;     ///< Sample size for kBestSpread.
  uint64_t seed = 42;
};

/// Structure statistics of a built vp-tree.
struct VpTreeStatsView {
  size_t num_objects = 0;
  size_t num_internal = 0;
  size_t num_leaves = 0;
  size_t height = 0;  ///< Max node depth (root = 1).
};

template <typename Traits>
class VpTree {
 public:
  using Object = typename Traits::Object;
  using Metric = typename Traits::Metric;
  using Result = SearchResult<Object>;

  /// Builds a vp-tree over `objects` (oid = position index).
  VpTree(const std::vector<Object>& objects, Metric metric,
         VpTreeOptions options)
      : metric_(std::move(metric)), options_(options) {
    if (options_.arity < 2) {
      throw std::invalid_argument("VpTree: arity must be >= 2");
    }
    if (options_.leaf_capacity < 1) {
      throw std::invalid_argument("VpTree: leaf capacity must be >= 1");
    }
    RandomEngine rng = MakeEngine(options_.seed, /*stream=*/13);
    std::vector<std::pair<Object, uint64_t>> items;
    items.reserve(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      items.emplace_back(objects[i], static_cast<uint64_t>(i));
    }
    num_objects_ = items.size();
    if (!items.empty()) {
      root_ = Build(std::move(items), rng);
    }
  }

  /// range(Q, r): all objects within `radius`, sorted by distance.
  /// `distance_computations` counts one evaluation per vantage point or
  /// bucket object examined; `nodes_accessed` counts visited nodes (the
  /// vp-tree is main-memory, so this is informational only).
  std::vector<Result> RangeSearch(const Object& query, double radius,
                                  QueryStats* stats = nullptr) const {
    QueryStats local;
    QueryStats* st = stats ? stats : &local;
    ResetCounters(st);
    if (root_ == nullptr || radius < 0.0) {
      return {};
    }
    engine::RangeCollector<Object> collector(radius);
    Traverse(query, collector, st);
    return collector.Take();
  }

  /// NN(Q, k): best-first k-nearest-neighbor search.
  std::vector<Result> KnnSearch(const Object& query, size_t k,
                                QueryStats* stats = nullptr) const {
    QueryStats local;
    QueryStats* st = stats ? stats : &local;
    ResetCounters(st);
    if (root_ == nullptr || k == 0) {
      return {};
    }
    engine::KnnCollector<Object> collector(k);
    Traverse(query, collector, st);
    return collector.Take();
  }

  size_t size() const { return num_objects_; }
  const VpTreeOptions& options() const { return options_; }

  /// Structure statistics (node counts, height).
  VpTreeStatsView CollectStats() const {
    VpTreeStatsView view;
    view.num_objects = num_objects_;
    Walk(root_.get(), 1, &view);
    return view;
  }

 private:
  // Structural invariant checkers (src/mcm/check/) read the private node
  // graph without widening the public API.
  friend struct check::IndexInspector;

  struct Node {
    bool is_leaf = true;
    // Leaf payload.
    std::vector<std::pair<Object, uint64_t>> bucket;
    // Internal payload.
    Object vantage;
    uint64_t vantage_oid = 0;
    std::vector<double> cutoffs;  ///< mu_1..mu_{m-1}, non-decreasing.
    std::vector<std::unique_ptr<Node>> children;
  };

  std::unique_ptr<Node> Build(std::vector<std::pair<Object, uint64_t>> items,
                              RandomEngine& rng) {
    auto node = std::make_unique<Node>();
    if (items.size() <= options_.leaf_capacity) {
      node->is_leaf = true;
      node->bucket = std::move(items);
      return node;
    }
    node->is_leaf = false;
    const size_t vp = SelectVantage(items, rng);
    node->vantage = items[vp].first;
    node->vantage_oid = items[vp].second;
    items.erase(items.begin() + static_cast<ptrdiff_t>(vp));

    std::vector<double> dist(items.size());
    std::vector<size_t> order(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      dist[i] = metric_(node->vantage, items[i].first);
      order[i] = i;
    }
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return dist[a] < dist[b]; });

    // Split into m groups of (almost) equal cardinality; cutoffs are the
    // boundary distances (estimates of the i/m quantiles of the vantage
    // point's RDD).
    const size_t m = std::min(options_.arity, items.size());
    node->children.resize(m);
    size_t begin = 0;
    for (size_t g = 0; g < m; ++g) {
      const size_t end = items.size() * (g + 1) / m;
      std::vector<std::pair<Object, uint64_t>> part;
      part.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        part.push_back(std::move(items[order[i]]));
      }
      if (g + 1 < m) {
        // mu_g: midpoint between the last distance of this group and the
        // first of the next keeps the partition stable under ties.
        const double left = dist[order[end - 1]];
        const double right = dist[order[end]];
        node->cutoffs.push_back(0.5 * (left + right));
      }
      node->children[g] = part.empty() ? nullptr : Build(std::move(part), rng);
      begin = end;
    }
    return node;
  }

  size_t SelectVantage(const std::vector<std::pair<Object, uint64_t>>& items,
                       RandomEngine& rng) {
    if (options_.selection == VantageSelection::kRandom ||
        items.size() <= 2) {
      return UniformIndex(rng, items.size());
    }
    const size_t candidates =
        std::min(options_.selection_candidates, items.size());
    const size_t sample = std::min(options_.selection_sample, items.size());
    size_t best = 0;
    double best_spread = -1.0;
    for (size_t c = 0; c < candidates; ++c) {
      const size_t cand = UniformIndex(rng, items.size());
      double mean = 0.0, mean_sq = 0.0;
      for (size_t s = 0; s < sample; ++s) {
        const size_t idx = UniformIndex(rng, items.size());
        const double d = metric_(items[cand].first, items[idx].first);
        mean += d;
        mean_sq += d * d;
      }
      mean /= static_cast<double>(sample);
      mean_sq /= static_cast<double>(sample);
      const double spread = mean_sq - mean * mean;
      if (spread > best_spread) {
        best_spread = spread;
        best = cand;
      }
    }
    return best;
  }

  /// Shared range/k-NN traversal: one Expand callback over the engine's
  /// best-first driver. A child shell [lo, hi] enters the frontier with
  /// dmin = max(lo - d, d - hi, 0), the shell/ball intersection test of
  /// Eq. 19 (with the collector's bound standing in for r_Q or r_k).
  template <typename Collector>
  void Traverse(const Object& query, Collector& collector,
                QueryStats* st) const {
    // Q's evaluator, prepared once for every distance of this search.
    const auto eval = PrepareQuery(metric_, query);
    engine::BestFirstSearch<const Node*>(
        root_.get(), /*root_trace_id=*/0, collector, st,
        [&](const engine::FrontierEntry<const Node*>& item, auto& frontier) {
          const Node& node = *item.handle;
          ++st->nodes_accessed;
          if (node.is_leaf) {
            // Bucket objects feed only the collector, so the early exit
            // past the bound is safe; the vantage distance below stays
            // exact because it positions every child shell.
            for (const auto& [obj, oid] : node.bucket) {
              collector.Offer(oid, obj,
                              engine::CountedDistanceWithin(
                                  eval, obj, collector.Bound(), st));
            }
            if (st->trace != nullptr) {
              const auto scanned = static_cast<uint32_t>(node.bucket.size());
              st->trace->RecordVisit(0, item.level, scanned, 0, scanned);
            }
            return;
          }
          ++st->distance_computations;
          const double d = eval(node.vantage);
          if (st->trace != nullptr) {
            st->trace->RecordVisit(0, item.level, 1, 0, 1);
          }
          collector.Offer(node.vantage_oid, node.vantage, d);
          for (size_t i = 0; i < node.children.size(); ++i) {
            if (node.children[i] == nullptr) continue;
            const double lo = i == 0 ? 0.0 : node.cutoffs[i - 1];
            const double hi = i == node.children.size() - 1
                                  ? std::numeric_limits<double>::infinity()
                                  : node.cutoffs[i];
            frontier.PushOrPrune(std::max({lo - d, d - hi, 0.0}),
                                 item.level + 1, /*trace_id=*/0,
                                 node.children[i].get(),
                                 PruneReason::kShellBound);
          }
        });
  }

  void Walk(const Node* node, size_t depth, VpTreeStatsView* view) const {
    if (node == nullptr) return;
    view->height = std::max(view->height, depth);
    if (node->is_leaf) {
      ++view->num_leaves;
      return;
    }
    ++view->num_internal;
    for (const auto& child : node->children) {
      Walk(child.get(), depth + 1, view);
    }
  }

  Metric metric_;
  VpTreeOptions options_;
  std::unique_ptr<Node> root_;
  size_t num_objects_ = 0;
};

}  // namespace mcm

#endif  // MCM_VPTREE_VPTREE_H_

// GNAT — the Geometric Near-neighbor Access Tree (Brin, VLDB'95; the
// paper's reference [6] and one of the static metric trees the M-tree is
// contrasted with). Each node holds k split points chosen by a greedy
// farthest-point heuristic; the remaining objects go to their nearest
// split point, and the node stores a range table
//   range[i][j] = [min, max] of d(p_i, x) over subtree j,
// which lets range search eliminate whole subtrees with distances the
// query has already paid for (Brin's iterative pruning loop).

#ifndef MCM_GNAT_GNAT_H_
#define MCM_GNAT_GNAT_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
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

/// GNAT construction options.
struct GnatOptions {
  size_t arity = 16;          ///< Split points per internal node.
  size_t leaf_capacity = 32;  ///< Objects per leaf bucket.
  size_t candidate_factor = 3;  ///< Sampled candidates = factor * arity.
  uint64_t seed = 42;
};

/// Structure statistics of a built GNAT.
struct GnatStatsView {
  size_t num_objects = 0;
  size_t num_internal = 0;
  size_t num_leaves = 0;
  size_t height = 0;
};

template <typename Traits>
class Gnat {
 public:
  using Object = typename Traits::Object;
  using Metric = typename Traits::Metric;
  using Result = SearchResult<Object>;

  Gnat(const std::vector<Object>& objects, Metric metric, GnatOptions options)
      : metric_(std::move(metric)), options_(options) {
    if (options_.arity < 2) {
      throw std::invalid_argument("Gnat: arity must be >= 2");
    }
    if (options_.leaf_capacity < 1) {
      throw std::invalid_argument("Gnat: leaf capacity must be >= 1");
    }
    RandomEngine rng = MakeEngine(options_.seed, /*stream=*/23);
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

  /// NN(Q, k): best-first k-NN through the shared engine driver. Brin's
  /// VLDB'95 paper only gives the range algorithm; the k-NN generalization
  /// falls out of the engine's generic traversal — the same iterative
  /// range-table pruning runs against the shrinking bound r_k, and each
  /// surviving subtree enters the frontier with the range-table lower
  /// bound max_i max(lo_ij - d_i, d_i - hi_ij, 0).
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

  GnatStatsView CollectStats() const {
    GnatStatsView view;
    view.num_objects = num_objects_;
    Walk(root_.get(), 1, &view);
    return view;
  }

 private:
  // Structural invariant checkers (src/mcm/check/) read the private node
  // graph without widening the public API.
  friend struct check::IndexInspector;

  struct Range {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();

    void Extend(double d) {
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
  };

  struct Node {
    bool is_leaf = true;
    std::vector<std::pair<Object, uint64_t>> bucket;  // Leaf payload.
    // Internal payload.
    std::vector<Object> splits;
    std::vector<uint64_t> split_oids;
    std::vector<std::unique_ptr<Node>> children;  // Aligned with splits.
    /// ranges[i * splits.size() + j]: d(p_i, ·) over subtree j (the split
    /// point p_j itself included).
    std::vector<Range> ranges;
  };

  std::unique_ptr<Node> Build(std::vector<std::pair<Object, uint64_t>> items,
                              RandomEngine& rng) {
    auto node = std::make_unique<Node>();
    if (items.size() <= std::max(options_.leaf_capacity, options_.arity)) {
      node->is_leaf = true;
      node->bucket = std::move(items);
      return node;
    }
    node->is_leaf = false;
    const size_t k = options_.arity;

    // Greedy farthest-point split selection over a sampled candidate pool.
    const size_t pool_size =
        std::min(items.size(), options_.candidate_factor * k);
    std::vector<size_t> pool(items.size());
    std::iota(pool.begin(), pool.end(), 0);
    for (size_t i = 0; i < pool_size; ++i) {
      std::swap(pool[i], pool[i + UniformIndex(rng, pool.size() - i)]);
    }
    pool.resize(pool_size);

    std::vector<size_t> chosen;
    chosen.push_back(pool[UniformIndex(rng, pool.size())]);
    std::vector<double> nearest(pool.size(),
                                std::numeric_limits<double>::infinity());
    while (chosen.size() < k) {
      size_t best_pos = 0;
      double best_d = -1.0;
      for (size_t c = 0; c < pool.size(); ++c) {
        nearest[c] = std::min(
            nearest[c],
            metric_(items[chosen.back()].first, items[pool[c]].first));
        if (nearest[c] > best_d) {
          best_d = nearest[c];
          best_pos = c;
        }
      }
      if (best_d <= 0.0) break;  // All duplicates: fewer splits suffice.
      chosen.push_back(pool[best_pos]);
    }

    const size_t m = chosen.size();
    std::vector<bool> is_split(items.size(), false);
    for (size_t c : chosen) is_split[c] = true;
    for (size_t c : chosen) {
      node->splits.push_back(items[c].first);
      node->split_oids.push_back(items[c].second);
    }

    // Assign every non-split object to its nearest split point, extending
    // the range table as we go.
    std::vector<std::vector<std::pair<Object, uint64_t>>> parts(m);
    node->ranges.assign(m * m, Range());
    std::vector<double> dists(m);
    for (size_t idx = 0; idx < items.size(); ++idx) {
      if (is_split[idx]) continue;
      size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < m; ++i) {
        dists[i] = metric_(node->splits[i], items[idx].first);
        if (dists[i] < best_d) {
          best_d = dists[i];
          best = i;
        }
      }
      for (size_t i = 0; i < m; ++i) {
        node->ranges[i * m + best].Extend(dists[i]);
      }
      parts[best].push_back(std::move(items[idx]));
    }
    // Each subtree's range also covers its own split point.
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) {
        node->ranges[i * m + j].Extend(metric_(node->splits[i],
                                               node->splits[j]));
      }
    }

    node->children.resize(m);
    for (size_t j = 0; j < m; ++j) {
      node->children[j] =
          parts[j].empty() ? nullptr : Build(std::move(parts[j]), rng);
    }
    return node;
  }

  /// Shared range/k-NN traversal: one Expand callback over the engine's
  /// best-first driver. Brin's iterative pruning loop runs unchanged — the
  /// collector's bound (fixed r_Q or shrinking r_k) replaces the literal
  /// radius — and every surviving subtree joins the frontier with the
  /// tightest lower bound its computed split distances certify.
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
            // Bucket objects feed only the collector, so the bounded early
            // exit is safe.
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
          const size_t m = node.splits.size();
          // Brin's pruning loop: compute split-point distances one at a
          // time; each computed distance may eliminate other subtrees (and
          // their split points) before we ever pay for them.
          std::vector<bool> alive(m, true);
          std::vector<bool> computed(m, false);
          std::vector<double> split_distance(m, 0.0);
          uint32_t scanned = 0;
          for (size_t i = 0; i < m; ++i) {
            if (!alive[i]) continue;
            // A split distance must stay exact — it drives the range-table
            // pruning and the children's dmin bounds — so it skips the
            // bounded early exit.
            ++st->distance_computations;
            const double d = eval(node.splits[i]);
            computed[i] = true;
            ++scanned;
            split_distance[i] = d;
            collector.Offer(node.split_oids[i], node.splits[i], d);
            const double bound = collector.Bound();
            for (size_t j = 0; j < m; ++j) {
              if (!alive[j] || j == i) continue;
              const Range& range = node.ranges[i * m + j];
              if (range.lo > range.hi) continue;  // Empty: no constraint.
              if (d + bound < range.lo || d - bound > range.hi) {
                alive[j] = false;  // The query ball misses subtree j.
                if (node.children[j] != nullptr) {
                  ++st->nodes_pruned;
                  if (st->trace != nullptr) {
                    st->trace->RecordPrune(0, item.level + 1,
                                           PruneReason::kRangeTable);
                  }
                }
              }
            }
          }
          if (st->trace != nullptr) {
            st->trace->RecordVisit(0, item.level, scanned,
                                   static_cast<uint32_t>(m) - scanned,
                                   scanned);
          }
          for (size_t j = 0; j < m; ++j) {
            if (!alive[j] || node.children[j] == nullptr) continue;
            // Tightest certified lower bound on d(Q, x) for x in subtree j:
            // every computed split distance constrains it through the range
            // table (|d(Q,p_i) - d(p_i,x)| <= d(Q,x)).
            double dmin = 0.0;
            for (size_t i = 0; i < m; ++i) {
              if (!computed[i]) continue;
              const Range& range = node.ranges[i * m + j];
              if (range.lo > range.hi) continue;
              dmin = std::max(
                  {dmin, range.lo - split_distance[i],
                   split_distance[i] - range.hi});
            }
            frontier.PushOrPrune(dmin, item.level + 1, /*trace_id=*/0,
                                 node.children[j].get(),
                                 PruneReason::kRangeTable);
          }
        });
  }

  void Walk(const Node* node, size_t depth, GnatStatsView* view) const {
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
  GnatOptions options_;
  std::unique_ptr<Node> root_;
  size_t num_objects_ = 0;
};

}  // namespace mcm

#endif  // MCM_GNAT_GNAT_H_

// Cost-model-aware scatter-gather router over a ShardedMTree. For every
// query the router prices each shard with that shard's own N-MCM model
// (Section 4's node-based cost equations applied to the shard's F̂_s and
// node statistics), then:
//
//  - skips shards proven empty: with dp = d(Q, pivot_s) and the exact
//    annulus [rmin, rmax] of the shard, every member O satisfies
//    d(Q, O) >= max(dp - rmax, rmin - dp, 0); a range query whose radius
//    falls strictly below that bound is never dispatched (and for k-NN
//    the same bound is checked against the running k-th distance);
//  - dispatches the surviving shards nearest-pivot-first, by (annulus
//    bound, d(Q, pivot), shard id) — the closest known distance first, as
//    in the Cascading Metric Tree — so a k-NN scatter establishes a tight
//    k-th distance early and sends only range(Q, r_k) — the witness-style
//    bound propagation — to every later shard;
//  - merges through the engine collectors (distance-then-oid order), so
//    the answer list is bit-identical to the unsharded index at any
//    shard count; with one shard the query passes straight through and
//    even the counters match the unsharded tree.
//
// The k-NN prediction (Eqs. 9-14) depends on a shard's F̂_s, its node
// statistics and k, never on the query object, so the router memoizes
// each shard's NnNodes / NnDistances per requested k: the first query for
// a k integrates once, every later one looks the values up. A range
// prediction depends on the radius, so it is priced per query, by one
// interpolation in the shard model's tabulated Eq. 6/7 curves. Predicted
// costs feed admission control and EXPLAIN, not the dispatch order.
//
// ShardRouter satisfies the MetricIndex concept (const, concurrently
// callable), so engine::BatchExecutor<ShardRouter<...>> parallelizes
// query batches over it unchanged; the AdmissionController then throttles
// aggregate predicted node reads and per-shard concurrency under load.
// Planning runs inside a QueryPhase::kPlan span. Per-query work is
// attributed through the obs registry counters mcm.shard.dispatched /
// mcm.shard.skipped / mcm.shard.nodes.

#ifndef MCM_SHARD_ROUTER_H_
#define MCM_SHARD_ROUTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mcm/common/env.h"
#include "mcm/common/mutex.h"
#include "mcm/common/query_stats.h"
#include "mcm/common/thread_annotations.h"
#include "mcm/engine/search_core.h"
#include "mcm/metric/prepared.h"
#include "mcm/obs/metrics.h"
#include "mcm/obs/phase.h"
#include "mcm/shard/admission.h"
#include "mcm/shard/explain.h"
#include "mcm/shard/sharded_index.h"

namespace mcm {
namespace shard {

/// Resolves the MCM_SHARD_INFLIGHT environment knob: the router-wide
/// budget of predicted node reads allowed in flight (0 = no admission
/// control, the default).
inline double InflightBudgetFromEnv() {
  return GetEnvDouble("MCM_SHARD_INFLIGHT", 0.0);
}

/// Router configuration.
struct RouterOptions {
  /// Cost-model routing: skip provably empty shards and dispatch the rest
  /// nearest-pivot-first (annulus bound, then d(Q, pivot), then shard id).
  /// Off = naive scatter (every non-empty shard, in shard order, no pivot
  /// distances) — the bench baseline. Either way shards are priced with
  /// their N-MCM (memoized per k for k-NN) for admission and EXPLAIN.
  bool cost_routing = true;
  /// Predicted-node admission budget; < 0 resolves MCM_SHARD_INFLIGHT,
  /// 0 disables admission control.
  double inflight_budget = -1.0;
  /// Max concurrent queries per shard (0 = unlimited).
  size_t per_shard_inflight = 0;
};

/// One shard's routing decision for one query.
struct ShardDecision {
  size_t shard = 0;
  bool dispatched = true;
  const char* reason = "dispatched";
  /// Proven lower bound on d(Q, member) over the shard (annulus bound).
  double lower_bound = 0.0;
  /// d(Q, pivot): the dispatch tie-break among equal bounds (0 under
  /// naive scatter, which spends no pivot distance).
  double pivot_distance = 0.0;
  double predicted_nodes = 0.0;
  double predicted_dists = 0.0;
};

/// The routing plan for one query: per-shard decisions (by shard id) and
/// the dispatch order (nearest pivot first).
struct RoutePlan {
  std::vector<ShardDecision> decisions;
  std::vector<size_t> order;  ///< Dispatched shard ids, execution order.
  double predicted_nodes = 0.0;  ///< Sum over dispatched shards.
  size_t skipped = 0;
};

/// Scatter-gather search over a ShardedMTree. Immutable and concurrently
/// callable; satisfies engine::MetricIndex.
template <typename Traits>
class ShardRouter {
 public:
  using Object = typename Traits::Object;
  using Result = SearchResult<Object>;

  explicit ShardRouter(const ShardedMTree<Traits>& index,
                       RouterOptions options = {})
      : index_(index),
        options_(options),
        admission_(options.inflight_budget < 0.0 ? InflightBudgetFromEnv()
                                                 : options.inflight_budget,
                   options.per_shard_inflight, index.num_shards()),
        dispatched_counter_(
            MetricsRegistry::Global().GetCounter("mcm.shard.dispatched")),
        skipped_counter_(
            MetricsRegistry::Global().GetCounter("mcm.shard.skipped")),
        nodes_counter_(
            MetricsRegistry::Global().GetCounter("mcm.shard.nodes")) {}

  /// range(Q, r): bit-identical to the unsharded index's answer list.
  std::vector<Result> RangeSearch(const Object& query, double radius,
                                  QueryStats* stats = nullptr) const {
    return RunRange(query, radius, stats, nullptr);
  }

  /// NN(Q, k): bit-identical to the unsharded index's answer list.
  std::vector<Result> KnnSearch(const Object& query, size_t k,
                                QueryStats* stats = nullptr) const {
    return RunKnn(query, k, stats, nullptr);
  }

  size_t size() const { return index_.size(); }
  size_t num_shards() const { return index_.num_shards(); }
  const ShardedMTree<Traits>& index() const { return index_; }
  const RouterOptions& options() const { return options_; }

  /// Queries the admission controller made wait at least once.
  uint64_t queued_queries() const { return admission_.queued_queries(); }

  /// The routing plan for range(Q, r). Pivot distances are genuine metric
  /// evaluations and are charged to `stats` (the same convention the
  /// trees use for their routing distances).
  RoutePlan PlanRange(const Object& query, double radius,
                      QueryStats* stats = nullptr) const {
    RoutePlan plan = MakeDecisions(query, stats);
    for (ShardDecision& d : plan.decisions) {
      if (!d.dispatched) continue;  // Empty shard.
      const ShardSidecar<Traits>& sidecar = index_.sidecar(d.shard);
      if (sidecar.model.has_value()) {
        d.predicted_nodes = sidecar.model->RangeNodes(radius);
        d.predicted_dists = sidecar.model->RangeDistances(radius);
      }
      if (options_.cost_routing && d.lower_bound > radius) {
        d.dispatched = false;
        d.reason = "skip:annulus";
      }
    }
    FinishPlan(&plan);
    return plan;
  }

  /// The routing plan for NN(Q, k). No shard can be skipped up front
  /// (the k-th distance is unknown), but the nearest-pivot-first order
  /// decides how fast the bound tightens; the execution-time annulus check
  /// against the running bound does the skipping. Predicted costs come
  /// from the per-k memo, so only the first plan for a k integrates.
  RoutePlan PlanKnn(const Object& query, size_t k,
                    QueryStats* stats = nullptr) const {
    RoutePlan plan = MakeDecisions(query, stats);
    const std::vector<KnnCost>& costs = KnnCosts(k);
    for (ShardDecision& d : plan.decisions) {
      if (!d.dispatched) continue;
      d.predicted_nodes = costs[d.shard].nodes;
      d.predicted_dists = costs[d.shard].dists;
    }
    FinishPlan(&plan);
    return plan;
  }

  /// Runs range(Q, r) and returns the per-shard predicted-vs-actual
  /// report (EXPLAIN surface).
  ShardExplainReport ExplainRange(const Object& query, double radius) const {
    ShardExplainReport report;
    report.kind = "range";
    report.radius = radius;
    QueryStats stats;
    const auto results = RunRange(query, radius, &stats, &report);
    report.results = results.size();
    return report;
  }

  /// Runs NN(Q, k) and returns the per-shard report.
  ShardExplainReport ExplainKnn(const Object& query, size_t k) const {
    ShardExplainReport report;
    report.kind = "knn";
    report.k = k;
    QueryStats stats;
    const auto results = RunKnn(query, k, &stats, &report);
    report.results = results.size();
    return report;
  }

 private:
  /// One shard's predicted k-NN cost: NnNodes / NnDistances at
  /// min(k, |s|), or zeros for a shard without a model.
  struct KnnCost {
    double nodes = 0.0;
    double dists = 0.0;
  };

  /// Every shard's k-NN prediction for `k`, integrated once per k. The
  /// lock is never held while a model integrates: concurrent first
  /// queries for one k each compute the same deterministic values and the
  /// first insert wins. Entries are never erased or modified, so the
  /// returned reference stays valid for the router's lifetime.
  const std::vector<KnnCost>& KnnCosts(size_t k) const
      MCM_EXCLUDES(knn_costs_mu_) {
    {
      MutexLock lock(&knn_costs_mu_);
      const auto it = knn_costs_.find(k);
      if (it != knn_costs_.end()) return it->second;
    }
    std::vector<KnnCost> costs(index_.num_shards());
    for (size_t s = 0; s < costs.size(); ++s) {
      const ShardSidecar<Traits>& sidecar = index_.sidecar(s);
      const size_t shard_k = std::min(k, index_.tree(s).size());
      if (sidecar.model.has_value() && shard_k > 0) {
        costs[s].nodes = sidecar.model->NnNodes(shard_k);
        costs[s].dists = sidecar.model->NnDistances(shard_k);
      }
    }
    MutexLock lock(&knn_costs_mu_);
    return knn_costs_.emplace(k, std::move(costs)).first->second;
  }

  /// Shared first phase of both plans: per-shard pivot distance (charged
  /// to `stats`, through Q's evaluator prepared once for all shards) and
  /// the annulus lower bound. Empty shards come back undispatched; with
  /// cost routing off no pivot distance is spent and every non-empty shard
  /// is dispatched with bound 0.
  RoutePlan MakeDecisions(const Object& query, QueryStats* stats) const {
    RoutePlan plan;
    plan.decisions.resize(index_.num_shards());
    const auto eval = PrepareQuery(index_.metric(), query);
    for (size_t s = 0; s < index_.num_shards(); ++s) {
      ShardDecision& d = plan.decisions[s];
      d.shard = s;
      if (index_.tree(s).size() == 0) {
        d.dispatched = false;
        d.reason = "skip:empty";
        d.lower_bound = std::numeric_limits<double>::infinity();
        continue;
      }
      if (!options_.cost_routing) continue;  // Naive scatter: bound 0.
      const ShardSidecar<Traits>& sidecar = index_.sidecar(s);
      const double dp = eval(sidecar.pivot);
      if (stats != nullptr) ++stats->distance_computations;
      d.pivot_distance = dp;
      d.lower_bound = std::max(
          {dp - sidecar.rmax, sidecar.rmin - dp, 0.0});
    }
    return plan;
  }

  /// Orders dispatched shards nearest-pivot-first (annulus bound, then
  /// d(Q, pivot), then shard id — fully deterministic) and fills the plan
  /// totals. Naive scatter keeps plain shard order.
  void FinishPlan(RoutePlan* plan) const {
    for (const ShardDecision& d : plan->decisions) {
      if (d.dispatched) {
        plan->order.push_back(d.shard);
        plan->predicted_nodes += d.predicted_nodes;
      } else {
        ++plan->skipped;
      }
    }
    if (options_.cost_routing) {
      std::sort(plan->order.begin(), plan->order.end(),
                [plan](size_t a, size_t b) {
                  const ShardDecision& da = plan->decisions[a];
                  const ShardDecision& db = plan->decisions[b];
                  return std::tie(da.lower_bound, da.pivot_distance, a) <
                         std::tie(db.lower_bound, db.pivot_distance, b);
                });
    }
  }

  /// Runs one shard search, folds its counters into `stats` (preserving
  /// any attached trace / span log for the shard's events), and reports
  /// the shard's own counters through `row`.
  template <typename SearchFn>
  std::vector<Result> SearchShard(size_t s, QueryStats* stats,
                                  const SearchFn& search,
                                  ShardExplainRow* row) const {
    ShardTicket ticket(&admission_, s);
    QueryStats local;
    if (stats != nullptr) {
      local.trace = stats->trace;
      local.spans = stats->spans;
    }
    auto results = search(index_.tree(s), &local);
    local.trace = nullptr;
    local.spans = nullptr;
    if (stats != nullptr) *stats += local;
    if (row != nullptr) {
      row->actual_nodes = local.nodes_accessed;
      row->actual_dists = local.PricedDistances();
      row->results = results.size();
    }
    if (ObsEnabled()) nodes_counter_.Increment(local.nodes_accessed);
    return results;
  }

  void FillReportRow(const ShardDecision& d, ShardExplainReport* report,
                     ShardExplainRow** row_out) const {
    if (report == nullptr) {
      *row_out = nullptr;
      return;
    }
    report->rows.emplace_back();
    ShardExplainRow& row = report->rows.back();
    row.shard = d.shard;
    row.objects = index_.tree(d.shard).size();
    row.dispatched = d.dispatched;
    row.reason = d.reason;
    row.lower_bound = d.lower_bound;
    row.predicted_nodes = d.predicted_nodes;
    row.predicted_dists = d.predicted_dists;
    *row_out = &row;
  }

  void FinishReport(const RoutePlan& plan, const QueryStats& stats,
                    ShardExplainReport* report) const {
    if (report == nullptr) return;
    // Skipped shards trail the dispatched rows in shard order.
    for (const ShardDecision& d : plan.decisions) {
      if (d.dispatched) continue;
      ShardExplainRow* row = nullptr;
      FillReportRow(d, report, &row);
    }
    report->num_shards = index_.num_shards();
    report->predicted_nodes = plan.predicted_nodes;
    report->actual_nodes = stats.nodes_accessed;
    report->actual_dists = stats.PricedDistances();
    for (const ShardExplainRow& row : report->rows) {
      if (row.dispatched) {
        ++report->dispatched;
      } else {
        ++report->skipped;
      }
    }
  }

  std::vector<Result> RunRange(const Object& query, double radius,
                               QueryStats* stats,
                               ShardExplainReport* report) const {
    if (stats != nullptr) ResetCounters(stats);
    if (index_.num_shards() == 1 && report == nullptr) {
      // Degenerate fast path: the unsharded tree, counters and all.
      if (ObsEnabled()) dispatched_counter_.Increment();
      return index_.tree(0).RangeSearch(query, radius, stats);
    }
    QueryStats local_stats;
    QueryStats* st = stats != nullptr ? stats : &local_stats;
    const RoutePlan plan = [&] {
      ScopedSpan plan_span(st, QueryPhase::kPlan);
      return PlanRange(query, radius, st);
    }();
    QueryTicket ticket(&admission_, plan.predicted_nodes);
    std::vector<Result> merged;
    for (const size_t s : plan.order) {
      ShardExplainRow* row = nullptr;
      FillReportRow(plan.decisions[s], report, &row);
      if (row != nullptr) row->radius_sent = radius;
      auto part = SearchShard(
          s, st,
          [&](const MTree<Traits>& tree, QueryStats* shard_stats) {
            return tree.RangeSearch(query, radius, shard_stats);
          },
          row);
      merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    std::sort(merged.begin(), merged.end(), engine::ResultOrder<Object>);
    if (ObsEnabled()) {
      dispatched_counter_.Increment(plan.order.size());
      skipped_counter_.Increment(plan.skipped);
    }
    FinishReport(plan, *st, report);
    return merged;
  }

  std::vector<Result> RunKnn(const Object& query, size_t k,
                             QueryStats* stats,
                             ShardExplainReport* report) const {
    if (stats != nullptr) ResetCounters(stats);
    if (index_.num_shards() == 1 && report == nullptr) {
      if (ObsEnabled()) dispatched_counter_.Increment();
      return index_.tree(0).KnnSearch(query, k, stats);
    }
    QueryStats local_stats;
    QueryStats* st = stats != nullptr ? stats : &local_stats;
    RoutePlan plan = [&] {
      ScopedSpan plan_span(st, QueryPhase::kPlan);
      return PlanKnn(query, k, st);
    }();
    QueryTicket ticket(&admission_, plan.predicted_nodes);
    engine::KnnCollector<Object> collector(k);
    size_t executed = 0;
    for (const size_t s : plan.order) {
      const double bound = collector.Bound();
      ShardDecision& d = plan.decisions[s];
      if (bound != std::numeric_limits<double>::infinity() &&
          d.lower_bound > bound) {
        // The running k-th distance now proves this shard useless; the
        // plan's decision is amended so reports and counters agree.
        d.dispatched = false;
        d.reason = "skip:bound";
        continue;
      }
      ShardExplainRow* row = nullptr;
      FillReportRow(d, report, &row);
      const bool bounded =
          bound != std::numeric_limits<double>::infinity();
      if (row != nullptr) row->radius_sent = bounded ? bound : -1.0;
      auto part = SearchShard(
          s, st,
          [&](const MTree<Traits>& tree, QueryStats* shard_stats) {
            // First shard(s): full k-NN. Once k candidates exist, later
            // shards only need range(Q, r_k) — every answer that could
            // still enter the top-k (ties included) lies within r_k.
            return bounded ? tree.RangeSearch(query, bound, shard_stats)
                           : tree.KnnSearch(query, k, shard_stats);
          },
          row);
      ++executed;
      for (const Result& r : part) {
        collector.Offer(r.oid, r.object, r.distance);
      }
    }
    if (ObsEnabled()) {
      dispatched_counter_.Increment(executed);
      skipped_counter_.Increment(index_.num_shards() - executed);
    }
    // Recompute plan totals after execution-time skips so the report's
    // skipped/dispatched split reflects what actually ran.
    plan.skipped = index_.num_shards() - executed;
    FinishReport(plan, *st, report);
    return collector.Take();
  }

  const ShardedMTree<Traits>& index_;
  RouterOptions options_;
  mutable AdmissionController admission_;
  mutable Mutex knn_costs_mu_;
  /// Per-k memo of every shard's k-NN prediction (16 B per shard and k).
  mutable std::map<size_t, std::vector<KnnCost>> knn_costs_
      MCM_GUARDED_BY(knn_costs_mu_);
  Counter& dispatched_counter_;
  Counter& skipped_counter_;
  Counter& nodes_counter_;
};

}  // namespace shard
}  // namespace mcm

#endif  // MCM_SHARD_ROUTER_H_

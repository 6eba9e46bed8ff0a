// N-MCM — the Node-based Metric Cost Model (Section 3.1), the paper's
// primary contribution. Predicts I/O (node reads) and CPU (distance
// computations) costs of range and k-NN queries on an M-tree from
//   * the sampled distance distribution F̂ⁿ, and
//   * per-node statistics (covering radius r(N_i), entry count e(N_i)).
//
// The per-node sums of Eqs. 6-7 are tabulated once, when the model is
// built, on the k-NN grid x_j = j·h (h = d⁺ / (bins × refinement)):
//   G_nodes(x) = Σ_i F̂(r(N_i) + x),  G_dists(x) = Σ_i e(N_i)·F̂(r(N_i) + x),
// per level and in total. The grid refines the histogram's bins, so F̂ is
// linear between adjacent grid points and the tables equal the per-node
// sums at every grid point. A range price is then one linear
// interpolation, and a k-NN price integrates the same tables.

#ifndef MCM_COST_NMCM_H_
#define MCM_COST_NMCM_H_

#include <cstddef>
#include <vector>

#include "mcm/cost/nn_distance.h"
#include "mcm/cost/tree_stats.h"
#include "mcm/distribution/histogram.h"

namespace mcm {

class NodeBasedCostModel {
 public:
  /// Both arguments are copied into the model. `stats` must carry the
  /// footnote-1 convention (root covering radius = d⁺), as produced by
  /// MTree::CollectStats(d_plus).
  NodeBasedCostModel(const DistanceHistogram& histogram, MTreeStatsView stats,
                     size_t nn_grid_refinement = 8);

  /// Eq. 6: nodes(range(Q, r_Q)) = Σ_i F(r(N_i) + r_Q), interpolated in
  /// the tabulated G_nodes. Radii >= d⁺ (and +∞) give the node count;
  /// radii <= 0 and NaN give the r_Q = 0 value.
  double RangeNodes(double query_radius) const;

  /// Eq. 6 split by tree level: element l-1 is the expected node reads at
  /// level l (root = 1). Sums to RangeNodes(). Feeds the observability
  /// layer's per-level residual tracking (obs/residual.h).
  std::vector<double> RangeNodesPerLevel(double query_radius) const;

  /// Eq. 7: dists(range(Q, r_Q)) = Σ_i e(N_i) · F(r(N_i) + r_Q), from
  /// G_dists with the same radius conventions as RangeNodes().
  double RangeDistances(double query_radius) const;

  /// Eq. 7 split by tree level: element l-1 is the expected distance
  /// computations over entries of level-l nodes. Sums to RangeDistances().
  /// Feeds the EXPLAIN report's per-level predicted-vs-actual table.
  std::vector<double> RangeDistancesPerLevel(double query_radius) const;

  /// Eq. 8: objs(range(Q, r_Q)) = n · F(r_Q).
  double RangeObjects(double query_radius) const;

  /// Complex-query extension (paper future-work #3, EDBT'98 [11]):
  /// expected node reads of a multi-predicate range query with radii
  /// `radii`, combined conjunctively (AND) or disjunctively (OR). Assumes
  /// the per-predicate node distances are independent, so
  ///   Pr{access | AND} = Π_j F(r(N)+r_j),
  ///   Pr{access | OR}  = 1 − Π_j (1 − F(r(N)+r_j)).
  double ComplexRangeNodes(const std::vector<double>& radii,
                           bool conjunctive) const;

  /// Expected distance computations of a complex range query: every entry
  /// of an accessed node is compared against all |radii| predicates.
  double ComplexRangeDistances(const std::vector<double>& radii,
                               bool conjunctive) const;

  /// Expected result cardinality of a complex range query:
  /// n·Π F(r_j) (AND) or n·(1 − Π(1 − F(r_j))) (OR).
  double ComplexRangeObjects(const std::vector<double>& radii,
                             bool conjunctive) const;

  /// Expected node reads of NN(Q, k): ∫ nodes(range(Q,r)) p_{Q,k}(r) dr,
  /// integrated over the tabulated G_nodes.
  double NnNodes(size_t k) const;

  /// Expected distance computations of NN(Q, k).
  double NnDistances(size_t k) const;

  /// Per-level versions of NnNodes / NnDistances: the range-query
  /// per-level expectations integrated against the k-NN radius density.
  std::vector<double> NnNodesPerLevel(size_t k) const;
  std::vector<double> NnDistancesPerLevel(size_t k) const;

  const NnDistanceModel& nn_model() const { return nn_model_; }
  const MTreeStatsView& stats() const { return stats_; }

 private:
  /// One table sampled on the k-NN grid: G(x_j) for j = 0..bins × refinement.
  using Table = std::vector<double>;

  /// Fills the per-level and total tables from stats_ (constructor only).
  void BuildTables();

  /// G(x) by linear interpolation between grid points.
  double Lookup(const Table& table, double x) const;

  /// ∫ G(r) p_{Q,k}(r) dr over the k-NN grid.
  double Integrate(const Table& table, size_t k) const;

  DistanceHistogram histogram_;
  MTreeStatsView stats_;
  NnDistanceModel nn_model_;
  double step_ = 0.0;               ///< h, the grid spacing.
  std::vector<Table> level_nodes_;  ///< G_nodes of level l at [l - 1].
  std::vector<Table> level_dists_;  ///< G_dists of level l at [l - 1].
  Table nodes_;                     ///< Σ over levels of level_nodes_.
  Table dists_;                     ///< Σ over levels of level_dists_.
};

}  // namespace mcm

#endif  // MCM_COST_NMCM_H_

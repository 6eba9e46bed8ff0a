#include "mcm/cost/nmcm.h"

#include <algorithm>

namespace mcm {

NodeBasedCostModel::NodeBasedCostModel(const DistanceHistogram& histogram,
                                       MTreeStatsView stats,
                                       size_t nn_grid_refinement)
    : histogram_(histogram),
      stats_(std::move(stats)),
      nn_model_(histogram_, stats_.num_objects, nn_grid_refinement) {
  BuildTables();
}

void NodeBasedCostModel::BuildTables() {
  const std::vector<double>& grid = nn_model_.grid();
  const size_t last = grid.size() - 1;  // Grid index of d⁺.
  step_ = histogram_.d_plus() / static_cast<double>(last);

  // F̂ at x_m for every m < 2·last, the farthest a node and a grid point
  // reach together; F̂ = 1 from d⁺ on.
  std::vector<double> cdf(2 * last, 1.0);
  for (size_t m = 0; m < last; ++m) cdf[m] = histogram_.Cdf(grid[m]);

  // Spread each node over the grid cells around r(N) = (a + f)·h: weight
  // 1 − f on cell a and f on cell a + 1 of its level. F̂ is linear between
  // adjacent grid points, so F̂(r(N) + x_j) = (1 − f)·F̂(x_{a+j}) +
  // f·F̂(x_{a+j+1}). Radii >= d⁺ (the root's, by footnote 1) land in the
  // last cell.
  size_t levels = stats_.height;
  for (const auto& node : stats_.nodes) {
    levels = std::max<size_t>(levels, node.level == 0 ? 1 : node.level);
  }
  level_nodes_.assign(levels, Table(grid.size(), 0.0));
  level_dists_.assign(levels, Table(grid.size(), 0.0));
  std::vector<Table> node_weights(levels, Table(grid.size(), 0.0));
  std::vector<Table> dist_weights(levels, Table(grid.size(), 0.0));
  for (const auto& node : stats_.nodes) {
    const size_t l = node.level == 0 ? 0 : node.level - 1;
    const double entries = static_cast<double>(node.num_entries);
    // At x = d⁺ every node is read: the last entries are exact counts.
    level_nodes_[l][last] += 1.0;
    level_dists_[l][last] += entries;
    const double cells = std::max(node.covering_radius, 0.0) / step_;
    if (!(cells < static_cast<double>(last))) {
      node_weights[l][last] += 1.0;
      dist_weights[l][last] += entries;
      continue;
    }
    const size_t a = static_cast<size_t>(cells);
    const double f = cells - static_cast<double>(a);
    node_weights[l][a] += 1.0 - f;
    node_weights[l][a + 1] += f;
    dist_weights[l][a] += entries * (1.0 - f);
    dist_weights[l][a + 1] += entries * f;
  }

  // G[j] = Σ_u W[u]·F̂(x_{u+j}) below d⁺; the totals sum the levels.
  nodes_.assign(grid.size(), 0.0);
  dists_.assign(grid.size(), 0.0);
  for (size_t l = 0; l < levels; ++l) {
    Table& g_nodes = level_nodes_[l];
    Table& g_dists = level_dists_[l];
    for (size_t u = 0; u <= last; ++u) {
      const double wn = node_weights[l][u];
      const double wd = dist_weights[l][u];
      if (wn == 0.0 && wd == 0.0) continue;
      for (size_t j = 0; j < last; ++j) {
        g_nodes[j] += wn * cdf[u + j];
        g_dists[j] += wd * cdf[u + j];
      }
    }
    for (size_t j = 0; j <= last; ++j) {
      nodes_[j] += g_nodes[j];
      dists_[j] += g_dists[j];
    }
  }
}

double NodeBasedCostModel::Lookup(const Table& table, double x) const {
  if (!(x > 0.0)) return table.front();  // r <= 0 and NaN.
  if (x >= histogram_.d_plus()) return table.back();
  const size_t last = table.size() - 1;
  const double pos = x / step_;
  const size_t j = std::min(static_cast<size_t>(pos), last - 1);
  const double t = pos - static_cast<double>(j);
  return table[j] + t * (table[j + 1] - table[j]);
}

double NodeBasedCostModel::Integrate(const Table& table, size_t k) const {
  return nn_model_.IntegrateAgainstNnDensity(
      [this, &table](double r) { return Lookup(table, r); }, k);
}

double NodeBasedCostModel::RangeNodes(double query_radius) const {
  return Lookup(nodes_, query_radius);
}

std::vector<double> NodeBasedCostModel::RangeNodesPerLevel(
    double query_radius) const {
  std::vector<double> per_level(level_nodes_.size());
  for (size_t l = 0; l < per_level.size(); ++l) {
    per_level[l] = Lookup(level_nodes_[l], query_radius);
  }
  return per_level;
}

double NodeBasedCostModel::RangeDistances(double query_radius) const {
  return Lookup(dists_, query_radius);
}

std::vector<double> NodeBasedCostModel::RangeDistancesPerLevel(
    double query_radius) const {
  std::vector<double> per_level(level_dists_.size());
  for (size_t l = 0; l < per_level.size(); ++l) {
    per_level[l] = Lookup(level_dists_[l], query_radius);
  }
  return per_level;
}

double NodeBasedCostModel::RangeObjects(double query_radius) const {
  return static_cast<double>(stats_.num_objects) *
         histogram_.Cdf(query_radius);
}

namespace {

/// Combined access/match probability from per-predicate probabilities.
double CombineProbability(const std::vector<double>& probabilities,
                          bool conjunctive) {
  double product = 1.0;
  if (conjunctive) {
    for (double p : probabilities) product *= p;
    return product;
  }
  for (double p : probabilities) product *= 1.0 - p;
  return 1.0 - product;
}

}  // namespace

double NodeBasedCostModel::ComplexRangeNodes(const std::vector<double>& radii,
                                             bool conjunctive) const {
  double total = 0.0;
  std::vector<double> probs(radii.size());
  for (const auto& node : stats_.nodes) {
    for (size_t j = 0; j < radii.size(); ++j) {
      probs[j] = histogram_.Cdf(node.covering_radius + radii[j]);
    }
    total += CombineProbability(probs, conjunctive);
  }
  return total;
}

double NodeBasedCostModel::ComplexRangeDistances(
    const std::vector<double>& radii, bool conjunctive) const {
  double total = 0.0;
  std::vector<double> probs(radii.size());
  for (const auto& node : stats_.nodes) {
    for (size_t j = 0; j < radii.size(); ++j) {
      probs[j] = histogram_.Cdf(node.covering_radius + radii[j]);
    }
    total += static_cast<double>(node.num_entries) *
             static_cast<double>(radii.size()) *
             CombineProbability(probs, conjunctive);
  }
  return total;
}

double NodeBasedCostModel::ComplexRangeObjects(
    const std::vector<double>& radii, bool conjunctive) const {
  std::vector<double> probs(radii.size());
  for (size_t j = 0; j < radii.size(); ++j) {
    probs[j] = histogram_.Cdf(radii[j]);
  }
  return static_cast<double>(stats_.num_objects) *
         CombineProbability(probs, conjunctive);
}

double NodeBasedCostModel::NnNodes(size_t k) const {
  return Integrate(nodes_, k);
}

double NodeBasedCostModel::NnDistances(size_t k) const {
  return Integrate(dists_, k);
}

std::vector<double> NodeBasedCostModel::NnNodesPerLevel(size_t k) const {
  std::vector<double> per_level(level_nodes_.size());
  for (size_t l = 0; l < per_level.size(); ++l) {
    per_level[l] = Integrate(level_nodes_[l], k);
  }
  return per_level;
}

std::vector<double> NodeBasedCostModel::NnDistancesPerLevel(size_t k) const {
  std::vector<double> per_level(level_dists_.size());
  for (size_t l = 0; l < per_level.size(); ++l) {
    per_level[l] = Integrate(level_dists_[l], k);
  }
  return per_level;
}

}  // namespace mcm

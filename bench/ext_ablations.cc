// Ablation studies over the design choices DESIGN.md calls out:
//   A. Parent-distance filter (footnote 2): the optimization the cost
//      model deliberately ignores — of the distances the model prices
//      (computed + avoided, one tree), how many does the filter compute?
//   B. Split policies (dynamic inserts): build cost vs query cost vs node
//      count across promotion/partition policies.
//   C. Bulk loading vs repeated insertion: tree quality and model accuracy
//      on both construction paths.
//   D. Tree-shape estimator (the paper's future-work #1): L-MCM fed with
//      *predicted* (M_l, r̄_l) — no tree statistics at all — vs actual
//      statistics vs measurement.
//
// Scale knobs: MCM_N (default 10000), MCM_QUERIES (default 500).

#include <cmath>
#include <iostream>

#include "mcm/bench_util/experiment.h"
#include "mcm/common/env.h"
#include "mcm/common/stopwatch.h"
#include "mcm/common/table_printer.h"
#include "mcm/cost/lmcm.h"
#include "mcm/cost/nmcm.h"
#include "mcm/cost/shape_estimator.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/counted_metric.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/obs/bench_observer.h"

namespace {

constexpr uint64_t kSeed = 42;
constexpr size_t kDim = 10;

}  // namespace

int main() {
  using namespace mcm;
  using Counted = CountedMetric<LInfDistance>;
  using Traits = VectorTraits<Counted>;
  const size_t n = static_cast<size_t>(GetEnvInt("MCM_N", 10000));
  const size_t num_queries = static_cast<size_t>(GetEnvInt("MCM_QUERIES", 500));
  const double rq = std::pow(0.01, 1.0 / static_cast<double>(kDim)) / 2.0;

  const auto data = GenerateClustered(n, kDim, kSeed);
  const auto queries = GenerateVectorQueries(VectorDatasetKind::kClustered,
                                             num_queries, kDim, kSeed);
  EstimatorOptions eo;
  eo.num_bins = 100;
  eo.d_plus = 1.0;
  eo.seed = kSeed;
  const auto hist = EstimateDistanceDistribution(data, LInfDistance{}, eo);

  std::cout << "== Ablations (clustered D=" << kDim << ", n=" << n
            << ", r_Q=" << TablePrinter::Num(rq, 3) << ", " << num_queries
            << " queries) ==\n\n";
  BenchObserver observer("ext_ablations");
  Stopwatch watch;

  // ---- A. Parent-distance filter ----------------------------------------
  {
    TablePrinter table({"query", "I/O", "CPU priced", "CPU computed",
                        "computed vs priced"});
    MTreeOptions options;
    options.seed = kSeed;
    auto tree = MTree<Traits>::BulkLoad(data, Counted{}, options);
    const auto range = MeasureRange(tree, queries, rq, &observer,
                                    "filter-range", {}, {{"radius", rq}});
    const auto knn = MeasureKnn(tree, queries, 1, &observer, "filter-nn1", {},
                                {{"k", 1.0}});
    const auto add_row = [&](const char* query, const MeasuredCosts& c) {
      const double computed = c.AvgComputed();
      table.AddRow({query, TablePrinter::Num(c.avg_nodes, 1),
                    TablePrinter::Num(c.avg_dists, 1),
                    TablePrinter::Num(computed, 1),
                    TablePrinter::Num(100.0 * computed / c.avg_dists, 1) +
                        "%"});
    };
    add_row("range", range);
    add_row("NN(1)", knn);
    std::cout << "-- A. Parent-distance filter (footnote 2): the I/O and "
                 "CPU the model prices, fewer distances computed --\n";
    table.Print(std::cout);
    std::cout << "\n";
  }

  // ---- B. Split policies under dynamic insertion ------------------------
  {
    struct Case {
      const char* name;
      PromotePolicy promote;
      PartitionPolicy partition;
    };
    const Case cases[] = {
        {"random+balanced", PromotePolicy::kRandom,
         PartitionPolicy::kBalanced},
        {"random+hyperplane", PromotePolicy::kRandom,
         PartitionPolicy::kHyperplane},
        {"sampling+balanced", PromotePolicy::kSampling,
         PartitionPolicy::kBalanced},
        {"mMRad+balanced", PromotePolicy::kMMRad, PartitionPolicy::kBalanced},
        {"maxLb+hyperplane", PromotePolicy::kMaxLbDist,
         PartitionPolicy::kHyperplane},
    };
    TablePrinter table({"policy", "build dists", "nodes", "range I/O",
                        "range CPU"});
    const size_t insert_n = std::min<size_t>(n, 5000);
    for (const auto& c : cases) {
      MTreeOptions options;
      options.seed = kSeed;
      options.promote_policy = c.promote;
      options.partition_policy = c.partition;
      Counted metric;
      MTree<Traits> tree(metric, options);
      metric.Reset();
      for (size_t i = 0; i < insert_n; ++i) tree.Insert(data[i], i);
      const uint64_t build_dists = metric.count();
      const auto range = MeasureRange(tree, queries, rq, &observer,
                                      std::string("split-") + c.name, {},
                                      {{"radius", rq}});
      table.AddRow({c.name, std::to_string(build_dists),
                    std::to_string(tree.store().NumNodes()),
                    TablePrinter::Num(range.avg_nodes, 1),
                    TablePrinter::Num(range.avg_dists, 1)});
    }
    std::cout << "-- B. Split policies (dynamic insertion of "
              << insert_n << " objects) --\n";
    table.Print(std::cout);
    std::cout << "\n";
  }

  // ---- C. Bulk load vs insertion ----------------------------------------
  {
    TablePrinter table({"construction", "build dists", "nodes", "height",
                        "I/O real", "N-MCM", "err"});
    for (const bool bulk : {true, false}) {
      MTreeOptions options;
      options.seed = kSeed;
      Counted metric;
      metric.Reset();
      MTree<Traits> tree =
          bulk ? MTree<Traits>::BulkLoad(data, metric, options)
               : MTree<Traits>(metric, options);
      if (!bulk) {
        for (size_t i = 0; i < data.size(); ++i) tree.Insert(data[i], i);
      }
      const uint64_t build_dists = metric.count();
      const NodeBasedCostModel model(hist, tree.CollectStats(1.0));
      const auto range = MeasureRange(
          tree, queries, rq, &observer,
          bulk ? "construction-bulk" : "construction-insert",
          {{"N-MCM", model.RangeNodes(rq), model.RangeDistances(rq),
            model.RangeNodesPerLevel(rq)}},
          {{"radius", rq}});
      table.AddRow({bulk ? "BulkLoading" : "repeated insert",
                    std::to_string(build_dists),
                    std::to_string(tree.store().NumNodes()),
                    std::to_string(tree.height()),
                    TablePrinter::Num(range.avg_nodes, 1),
                    TablePrinter::Num(model.RangeNodes(rq), 1),
                    FormatErrorPercent(model.RangeNodes(rq),
                                       range.avg_nodes)});
    }
    std::cout << "-- C. BulkLoading [9] vs repeated insertion: the model "
                 "predicts both --\n";
    table.Print(std::cout);
    std::cout << "\n";
  }

  // ---- D. Tree-shape estimator (future work #1) --------------------------
  {
    MTreeOptions options;
    options.seed = kSeed;
    auto tree = MTree<Traits>::BulkLoad(data, Counted{}, options);
    const auto actual_stats = tree.CollectStats(1.0);

    ShapeEstimatorOptions so;
    so.node_size_bytes = options.node_size_bytes;
    so.node_header_bytes = MTreeNode<Traits>::HeaderSize();
    const FloatVector probe(kDim, 0.0f);
    so.leaf_entry_bytes = MTreeNode<Traits>::LeafEntrySize(probe);
    so.routing_entry_bytes = MTreeNode<Traits>::RoutingEntrySize(probe);
    const auto predicted_levels = EstimateTreeShape(hist, n, so);

    TablePrinter shape({"level", "M_l actual", "M_l pred", "rbar actual",
                        "rbar pred"});
    for (size_t l = 0; l < std::max(predicted_levels.size(),
                                    actual_stats.levels.size());
         ++l) {
      const bool has_a = l < actual_stats.levels.size();
      const bool has_p = l < predicted_levels.size();
      shape.AddRow(
          {std::to_string(l + 1),
           has_a ? std::to_string(actual_stats.levels[l].num_nodes) : "-",
           has_p ? std::to_string(predicted_levels[l].num_nodes) : "-",
           has_a ? TablePrinter::Num(
                       actual_stats.levels[l].avg_covering_radius, 3)
                 : "-",
           has_p ? TablePrinter::Num(
                       predicted_levels[l].avg_covering_radius, 3)
                 : "-"});
    }
    std::cout << "-- D. Tree-shape estimator: (M_l, rbar_l) from F alone --\n";
    shape.Print(std::cout);

    const LevelBasedCostModel with_actual(hist, actual_stats);
    const LevelBasedCostModel with_predicted(hist, predicted_levels, n);
    const auto range = MeasureRange(
        tree, queries, rq, &observer, "shape-estimator",
        {{"L-MCM", with_actual.RangeNodes(rq), with_actual.RangeDistances(rq),
          with_actual.RangeNodesPerLevel(rq)},
         {"L-MCM-pred-shape", with_predicted.RangeNodes(rq),
          with_predicted.RangeDistances(rq),
          with_predicted.RangeNodesPerLevel(rq)}},
        {{"radius", rq}});
    TablePrinter costs({"estimator", "I/O est", "err", "CPU est", "err"});
    costs.AddRow({"L-MCM actual stats",
                  TablePrinter::Num(with_actual.RangeNodes(rq), 1),
                  FormatErrorPercent(with_actual.RangeNodes(rq),
                                     range.avg_nodes),
                  TablePrinter::Num(with_actual.RangeDistances(rq), 1),
                  FormatErrorPercent(with_actual.RangeDistances(rq),
                                     range.avg_dists)});
    costs.AddRow({"L-MCM predicted stats",
                  TablePrinter::Num(with_predicted.RangeNodes(rq), 1),
                  FormatErrorPercent(with_predicted.RangeNodes(rq),
                                     range.avg_nodes),
                  TablePrinter::Num(with_predicted.RangeDistances(rq), 1),
                  FormatErrorPercent(with_predicted.RangeDistances(rq),
                                     range.avg_dists)});
    std::cout << "\n   measured: I/O=" << TablePrinter::Num(range.avg_nodes, 1)
              << " CPU=" << TablePrinter::Num(range.avg_dists, 1) << "\n";
    costs.Print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Elapsed: " << TablePrinter::Num(watch.ElapsedSeconds(), 1)
            << " s\n";
  return 0;
}

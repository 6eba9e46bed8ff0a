// Extension: complex similarity queries (future work #3; EDBT'98 [11]) —
// multi-predicate range queries evaluated in one M-tree traversal, with
// the independence-based cost-model extension. Sweeps the number of
// predicates and the combination semantics, comparing predicted vs
// measured I/O, CPU and result cardinality, and reports the single-
// traversal saving against executing the predicates separately.
//
// Scale knobs: MCM_N (default 10000), MCM_QUERIES (default 400).

#include <iostream>

#include "mcm/bench_util/experiment.h"
#include "mcm/common/env.h"
#include "mcm/common/stopwatch.h"
#include "mcm/common/table_printer.h"
#include "mcm/cost/nmcm.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/obs/bench_observer.h"
#include "mcm/obs/telemetry.h"

int main() {
  using namespace mcm;
  using Traits = VectorTraits<LInfDistance>;
  using Tree = MTree<Traits>;
  const size_t n = static_cast<size_t>(GetEnvInt("MCM_N", 10000));
  const size_t num_queries = static_cast<size_t>(GetEnvInt("MCM_QUERIES", 400));
  constexpr size_t kDim = 8;
  constexpr uint64_t kSeed = 42;
  constexpr double kRadius = 0.3;

  std::cout << "== Extension: complex similarity queries, clustered D="
            << kDim << ", n=" << n << ", per-predicate radius " << kRadius
            << " ==\n\n";
  BenchObserver observer("ext_complex_queries");
  QueryTrace trace;
  Stopwatch watch;

  const auto data = GenerateClustered(n, kDim, kSeed);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, num_queries, kDim,
                            kSeed);
  MTreeOptions options;
  options.seed = kSeed;
  auto tree = Tree::BulkLoad(data, LInfDistance{}, options);
  EstimatorOptions eo;
  eo.num_bins = 100;
  eo.seed = kSeed;
  const auto hist = EstimateDistanceDistribution(data, LInfDistance{}, eo);
  const NodeBasedCostModel model(hist, tree.CollectStats(1.0));

  TablePrinter table({"preds", "semantics", "I/O real", "est", "err",
                      "CPU real", "est", "err", "objs real", "est", "err",
                      "vs separate I/O"});
  for (size_t m : {1u, 2u, 3u}) {
    for (const bool conjunctive : {true, false}) {
      if (m == 1 && !conjunctive) continue;  // AND == OR for one predicate.
      const std::vector<double> est_radii(m, kRadius);
      const std::string case_label = std::string(conjunctive ? "AND" : "OR") +
                                     "-m" + std::to_string(m);
      const bool observing = observer.enabled();
      if (observing) {
        observer.BeginCase(
            case_label,
            {{"predicates", static_cast<double>(m)}, {"radius", kRadius}},
            {{"N-MCM", model.ComplexRangeNodes(est_radii, conjunctive),
              model.ComplexRangeDistances(est_radii, conjunctive),
              {}}});
      }
      double nodes = 0, dists = 0, objs = 0, separate_nodes = 0;
      size_t groups = 0;
      for (size_t q = 0; q + m <= queries.size(); q += m) {
        std::vector<Tree::Predicate> preds;
        for (size_t j = 0; j < m; ++j) {
          preds.push_back({queries[q + j], kRadius});
        }
        const auto search = [&](QueryStats* st) {
          return tree.ComplexRangeSearch(
              preds, conjunctive ? Tree::Combine::kAnd : Tree::Combine::kOr,
              st);
        };
        QueryStats stats;
        double latency_us = 0.0;
        const auto result =
            observing
                ? RunObservedQuery(search, groups, &trace, &stats, &latency_us)
                : search(&stats);
        if (observing) {
          observer.RecordQuery({"complex", kRadius, 0, stats, result.size(),
                                latency_us, &trace});
        }
        nodes += static_cast<double>(stats.nodes_accessed);
        dists += static_cast<double>(stats.distance_computations);
        objs += static_cast<double>(result.size());
        for (const auto& p : preds) {
          QueryStats sep;
          tree.RangeSearch(p.query, p.radius, &sep);
          separate_nodes += static_cast<double>(sep.nodes_accessed);
        }
        ++groups;
      }
      if (observing) observer.EndCase();
      const double g = static_cast<double>(groups);
      nodes /= g;
      dists /= g;
      objs /= g;
      separate_nodes /= g;
      const std::vector<double> radii(m, kRadius);
      const double est_nodes = model.ComplexRangeNodes(radii, conjunctive);
      const double est_dists = model.ComplexRangeDistances(radii, conjunctive);
      const double est_objs = model.ComplexRangeObjects(radii, conjunctive);
      table.AddRow(
          {std::to_string(m), conjunctive ? "AND" : "OR",
           TablePrinter::Num(nodes, 1), TablePrinter::Num(est_nodes, 1),
           FormatErrorPercent(est_nodes, nodes), TablePrinter::Num(dists, 1),
           TablePrinter::Num(est_dists, 1),
           FormatErrorPercent(est_dists, dists), TablePrinter::Num(objs, 1),
           TablePrinter::Num(est_objs, 1), FormatErrorPercent(est_objs, objs),
           TablePrinter::Num(100.0 * nodes / separate_nodes, 1) + "%"});
    }
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: AND accesses fewer nodes than any single "
               "predicate, OR fewer than separate executions; the "
               "independence-based estimates track measurements (residual "
               "error = predicate correlation).\n"
            << "Elapsed: " << TablePrinter::Num(watch.ElapsedSeconds(), 1)
            << " s\n";
  return 0;
}

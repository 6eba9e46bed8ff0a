// Figure 5 / Section 4.1: tuning the M-tree node size.
//   (a) N-MCM-predicted I/O (node reads) and CPU (distance computations)
//       costs of range(Q, (0.01)^(1/5)/2) on 5-d clustered data for node
//       sizes in [0.5, 64] KB: I/O decreases monotonically while CPU has a
//       marked interior minimum.
//   (b) total per-query time under the paper's coefficients
//       (c_CPU = 5 ms, c_IO = 10 + NS*1 ms), estimated and measured; the
//       paper finds an optimal node size of 8 KB at n = 10^6.
//
// Scale knobs: MCM_N (default 100000; set 1000000 for the paper's exact
//              size), MCM_QUERIES (default 200).

#include <cmath>
#include <iostream>

#include "mcm/bench_util/experiment.h"
#include "mcm/common/env.h"
#include "mcm/common/stopwatch.h"
#include "mcm/common/table_printer.h"
#include "mcm/cost/nmcm.h"
#include "mcm/cost/tuner.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/obs/bench_observer.h"

int main() {
  using namespace mcm;
  using Traits = VectorTraits<LInfDistance>;
  const size_t n = static_cast<size_t>(GetEnvInt("MCM_N", 100000));
  const size_t num_queries =
      static_cast<size_t>(GetEnvInt("MCM_QUERIES", 200));
  constexpr size_t kDim = 5;
  constexpr uint64_t kSeed = 42;
  const double rq = std::pow(0.01, 1.0 / static_cast<double>(kDim)) / 2.0;

  std::cout << "== Figure 5 / Sec. 4.1: node-size tuning, clustered D=5, n="
            << n << ", r_Q=" << TablePrinter::Num(rq, 3) << " ==\n"
            << "(paper runs n=10^6; set MCM_N=1000000 to match)\n\n";

  const auto data = GenerateClustered(n, kDim, kSeed);
  const auto queries = GenerateVectorQueries(VectorDatasetKind::kClustered,
                                             num_queries, kDim, kSeed);
  EstimatorOptions eo;
  eo.num_bins = 100;
  eo.d_plus = 1.0;
  eo.seed = kSeed;
  const auto hist = EstimateDistanceDistribution(data, LInfDistance{}, eo);

  const DiskCostParameters params;  // c_CPU=5ms, c_IO=(10+NS)ms — Sec. 4.1.
  TablePrinter table({"NS (KB)", "pred I/O", "pred CPU", "real I/O",
                      "real CPU", "est total ms", "real total ms"});
  std::vector<NodeSizeSample> predicted_samples;
  std::vector<NodeSizeSample> measured_samples;

  BenchObserver observer("fig5_node_size");
  Stopwatch watch;
  for (size_t ns = 512; ns <= 65536; ns *= 2) {
    MTreeOptions options;
    options.node_size_bytes = ns;
    options.seed = kSeed;
    auto tree = MTree<Traits>::BulkLoad(data, LInfDistance{}, options);
    const NodeBasedCostModel model(hist, tree.CollectStats(1.0));
    const double pred_nodes = model.RangeNodes(rq);
    const double pred_dists = model.RangeDistances(rq);
    const auto measured = MeasureRange(
        tree, queries, rq, &observer,
        "NS=" + std::to_string(ns / 1024) + "KB",
        {{"N-MCM", pred_nodes, pred_dists, model.RangeNodesPerLevel(rq)}},
        {{"node_size_bytes", static_cast<double>(ns)}, {"radius", rq}});

    predicted_samples.push_back({ns, pred_dists, pred_nodes});
    measured_samples.push_back({ns, measured.avg_dists, measured.avg_nodes});

    table.AddRow({TablePrinter::Num(static_cast<double>(ns) / 1024.0, 1),
                  TablePrinter::Num(pred_nodes, 1),
                  TablePrinter::Num(pred_dists, 1),
                  TablePrinter::Num(measured.avg_nodes, 1),
                  TablePrinter::Num(measured.avg_dists, 1),
                  TablePrinter::Num(TotalCostMs(params, pred_dists,
                                                pred_nodes, ns),
                                    0),
                  TablePrinter::Num(TotalCostMs(params, measured.avg_dists,
                                                measured.avg_nodes, ns),
                                    0)});
  }

  std::cout << "-- Fig. 5(a)+(b): predicted and measured costs vs node size "
               "--\n";
  table.Print(std::cout);

  const TuningResult est = ChooseNodeSize(params, predicted_samples);
  const TuningResult real = ChooseNodeSize(params, measured_samples);
  std::cout << "\nOptimal node size (estimated): "
            << est.best_node_size_bytes / 1024 << " KB, "
            << TablePrinter::Num(est.best_total_ms, 0) << " ms/query\n"
            << "Optimal node size (measured):  "
            << real.best_node_size_bytes / 1024 << " KB, "
            << TablePrinter::Num(real.best_total_ms, 0) << " ms/query\n"
            << "\nExpected shapes: I/O monotone decreasing in NS; CPU with a "
               "marked interior minimum;\noptimal NS at an intermediate "
               "size (paper: 8 KB at n=10^6).\n"
            << "Elapsed: " << TablePrinter::Num(watch.ElapsedSeconds(), 1)
            << " s\n";
  return 0;
}

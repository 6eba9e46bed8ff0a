// Figure 3: estimated vs measured costs of range(Q, 3) queries under the
// edit distance on the five text-keyword datasets of Table 1 (synthetic
// Italian-like stand-ins at the paper's exact vocabulary sizes), with
// 25-bin histograms (25 was the paper's maximum observed edit distance).
// Paper-reported shape: relative errors usually below 10%, rarely 15%.
//
// Scale knobs: MCM_QUERIES (default 1000), MCM_N (caps every vocabulary
//              at min(Table-1 size, MCM_N); unset = full Table-1 sizes).

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>

#include "mcm/bench_util/experiment.h"
#include "mcm/common/env.h"
#include "mcm/common/random.h"
#include "mcm/common/stopwatch.h"
#include "mcm/common/table_printer.h"
#include "mcm/cost/lmcm.h"
#include "mcm/cost/nmcm.h"
#include "mcm/dataset/text_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/obs/bench_observer.h"

int main() {
  using namespace mcm;
  using Traits = StringTraits<EditDistanceMetric>;
  const size_t num_queries =
      static_cast<size_t>(GetEnvInt("MCM_QUERIES", 1000));
  const size_t max_n = static_cast<size_t>(
      GetEnvInt("MCM_N", std::numeric_limits<int64_t>::max()));
  constexpr double kRadius = 3.0;
  constexpr double kDPlus = 25.0;
  constexpr uint64_t kSeed = 42;

  std::cout << "== Figure 3: range(Q, 3) with edit distance on the text "
               "datasets (25-bin histograms), "
            << num_queries << " queries ==\n\n";

  TablePrinter cpu({"dataset", "n", "CPU real", "N-MCM", "err", "L-MCM",
                    "err"});
  TablePrinter io({"dataset", "n", "I/O real", "N-MCM", "err", "L-MCM",
                   "err"});

  BenchObserver observer("fig3_text_range");
  Stopwatch watch;
  const auto& datasets = TextDatasets();
  for (size_t index = 0; index < datasets.size(); ++index) {
    const auto& spec = datasets[index];
    const size_t n = std::min(spec.vocabulary_size, max_n);
    // Each vocabulary and its queries get their own streams, so no two
    // datasets share words or queries.
    const auto words = GenerateKeywords(n, DeriveSeed(kSeed, 2 * index));
    const auto queries =
        GenerateKeywordQueries(num_queries, DeriveSeed(kSeed, 2 * index + 1));

    MTreeOptions options;  // 4 KB nodes, paper defaults.
    auto tree =
        MTree<Traits>::BulkLoad(words, EditDistanceMetric{}, options);

    EstimatorOptions eo;
    eo.num_bins = 25;
    eo.d_plus = kDPlus;
    eo.seed = kSeed;
    const auto hist =
        EstimateDistanceDistribution(words, EditDistanceMetric{}, eo);
    const auto stats = tree.CollectStats(kDPlus);
    const NodeBasedCostModel nmcm(hist, stats);
    const LevelBasedCostModel lmcm(hist, stats);

    const auto measured = MeasureRange(
        tree, queries, kRadius, &observer, spec.code,
        {{"N-MCM", nmcm.RangeNodes(kRadius), nmcm.RangeDistances(kRadius),
          nmcm.RangeNodesPerLevel(kRadius)},
         {"L-MCM", lmcm.RangeNodes(kRadius), lmcm.RangeDistances(kRadius),
          lmcm.RangeNodesPerLevel(kRadius)}},
        {{"n", static_cast<double>(n)}, {"radius", kRadius}});
    const std::string n_str = std::to_string(n);

    cpu.AddRow({spec.code, n_str, TablePrinter::Num(measured.avg_dists, 1),
                TablePrinter::Num(nmcm.RangeDistances(kRadius), 1),
                FormatErrorPercent(nmcm.RangeDistances(kRadius),
                                   measured.avg_dists),
                TablePrinter::Num(lmcm.RangeDistances(kRadius), 1),
                FormatErrorPercent(lmcm.RangeDistances(kRadius),
                                   measured.avg_dists)});
    io.AddRow({spec.code, n_str, TablePrinter::Num(measured.avg_nodes, 1),
               TablePrinter::Num(nmcm.RangeNodes(kRadius), 1),
               FormatErrorPercent(nmcm.RangeNodes(kRadius),
                                  measured.avg_nodes),
               TablePrinter::Num(lmcm.RangeNodes(kRadius), 1),
               FormatErrorPercent(lmcm.RangeNodes(kRadius),
                                  measured.avg_nodes)});
  }

  std::cout << "-- Fig. 3(a): CPU cost (distance computations) --\n";
  cpu.Print(std::cout);
  std::cout << "\n-- Fig. 3(b): I/O cost (node reads) --\n";
  io.Print(std::cout);
  std::cout << "\nExpected shape: errors usually below 10%, rarely 15% "
               "(paper).\n"
            << "Elapsed: " << TablePrinter::Num(watch.ElapsedSeconds(), 1)
            << " s\n";
  return 0;
}

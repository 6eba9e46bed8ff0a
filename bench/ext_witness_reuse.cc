// Extension: distance reuse through the witness cascade on a string
// workload (edit distance, synthetic keywords). The M-tree, the one index
// with a cascade, runs the same range(Q, 3) workload twice — witness
// capacity 0 (the pre-cascade behavior) and the default capacity
// (engine::kDefaultWitnessCapacity) — and the table reports the measured
// drop in metric evaluations. The vp-tree and the GNAT (no cascade: in
// these main-memory trees the bound checks cost more wall time than the
// evaluations they save) and the linear scan, the witness-free floor,
// ride along as one row each.
//
// The emitted BENCH_witness_reuse.json is the artifact behind the
// `bench_compare_witness` CTest, which requires the default-capacity
// M-tree run to spend at most 85% of the capacity-0 run's distances
// (generic metric mode of scripts/bench_compare.py).
//
// Scale knobs: MCM_N (default 4000 keywords), MCM_QUERIES (default 100).

#include <iostream>
#include <string>

#include "mcm/baseline/linear_scan.h"
#include "mcm/bench_util/experiment.h"
#include "mcm/common/env.h"
#include "mcm/common/stopwatch.h"
#include "mcm/common/table_printer.h"
#include "mcm/dataset/text_datasets.h"
#include "mcm/engine/witness.h"
#include "mcm/gnat/gnat.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/obs/bench_observer.h"
#include "mcm/vptree/vptree.h"

namespace {

struct CasePair {
  std::string index;
  mcm::MeasuredCosts off;  // witness capacity 0
  mcm::MeasuredCosts on;   // default capacity (== off without a cascade)
};

}  // namespace

int main() {
  using namespace mcm;
  using Traits = StringTraits<EditDistanceMetric>;
  const size_t n = static_cast<size_t>(GetEnvInt("MCM_N", 4000));
  const size_t num_queries =
      static_cast<size_t>(GetEnvInt("MCM_QUERIES", 100));
  constexpr int cap = engine::kDefaultWitnessCapacity;
  constexpr double kRadius = 3.0;
  constexpr uint64_t kSeed = 42;

  std::cout << "== Witness cascade: distance reuse on range(Q, 3), edit "
               "distance, n=" << n << ", " << num_queries << " queries, "
               "capacity 0 vs " << cap << " ==\n\n";

  const auto words = GenerateKeywords(n, kSeed);
  const auto queries = GenerateKeywordQueries(num_queries, kSeed + 1);

  BenchObserver observer("witness_reuse");
  Stopwatch watch;
  std::vector<CasePair> rows;

  const auto run = [&](const auto& tree, const std::string& label,
                       int capacity) {
    return MeasureRange(tree, queries, kRadius, &observer, label, {},
                        {{"n", static_cast<double>(n)},
                         {"radius", kRadius},
                         {"witness_capacity",
                          static_cast<double>(capacity)}});
  };

  {
    CasePair row;
    row.index = "mtree";
    for (const int capacity : {0, cap}) {
      MTreeOptions options;  // 4 KB nodes, paper defaults.
      options.witness_capacity = capacity;
      auto tree =
          MTree<Traits>::BulkLoad(words, EditDistanceMetric{}, options);
      tree.InstallWitnessCascade();
      const auto costs = run(tree, "mtree_edit_w" + std::to_string(capacity),
                             capacity);
      (capacity == 0 ? row.off : row.on) = costs;
    }
    rows.push_back(row);
  }
  // Witness-free rows: the same costs at every capacity.
  const auto add_plain = [&](const auto& index, const std::string& name) {
    const auto costs = run(index, name + "_edit", 0);
    rows.push_back({name, costs, costs});
  };
  add_plain(VpTree<Traits>(words, EditDistanceMetric{}, VpTreeOptions{}),
            "vptree");
  add_plain(Gnat<Traits>(words, EditDistanceMetric{}, GnatOptions{}), "gnat");
  add_plain(LinearScan<Traits>(words, EditDistanceMetric{}), "linear");

  TablePrinter table({"index", "dists w0", "dists w" + std::to_string(cap),
                      "saved", "results w0", "results w" +
                      std::to_string(cap)});
  for (const auto& row : rows) {
    const double saved =
        row.off.avg_dists > 0.0
            ? 100.0 * (1.0 - row.on.avg_dists / row.off.avg_dists)
            : 0.0;
    table.AddRow({row.index, TablePrinter::Num(row.off.avg_dists, 1),
                  TablePrinter::Num(row.on.avg_dists, 1),
                  TablePrinter::Num(saved, 1) + "%",
                  TablePrinter::Num(row.off.avg_results, 2),
                  TablePrinter::Num(row.on.avg_results, 2)});
  }
  table.Print(std::cout);

  std::cout << "\nExpected shape: identical result counts on every row; "
               "the M-tree's witness run\ncuts distance computations by >= "
               "15% at default capacity.\n"
            << "Elapsed: " << TablePrinter::Num(watch.ElapsedSeconds(), 1)
            << " s\n";
  return 0;
}

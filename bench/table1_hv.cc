// Table 1 + Section 2.1: the dataset inventory and the claim that real and
// realistic synthetic metric datasets have a high index of Homogeneity of
// Viewpoints. Prints, for every dataset of Table 1, its parameters and the
// estimated HV (paper: "always above 0.98"; our synthetic stand-ins land
// around 0.93-0.97 — see DESIGN.md on the text substitution), plus the
// closed-form HV of Example 1.
//
// Scale knob: MCM_N (vector dataset size, default 10000). Each HV
// estimate uses 100 viewpoints and 1000 targets.

#include <cstdio>
#include <iostream>

#include "mcm/common/env.h"
#include "mcm/common/table_printer.h"
#include "mcm/dataset/text_datasets.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/homogeneity.h"
#include "mcm/metric/string_metrics.h"
#include "mcm/metric/vector_metrics.h"
#include "mcm/obs/bench_observer.h"
#include "mcm/obs/metrics.h"

namespace {

constexpr uint64_t kSeed = 42;

}  // namespace

int main() {
  using namespace mcm;
  const size_t n = static_cast<size_t>(GetEnvInt("MCM_N", 10000));
  HvOptions hv_options;
  hv_options.num_viewpoints = 100;
  hv_options.num_targets = 1000;
  hv_options.grid_points = 251;
  hv_options.seed = kSeed;

  std::cout << "== Table 1 / Section 2.1: datasets and homogeneity of "
               "viewpoints ==\n"
            << "(HV = 1 - E[discrepancy]; paper reports HV > 0.98 on its "
               "datasets)\n\n";

  // table1_hv runs no queries; the observer still emits the registry
  // gauges below as "metric" records into BENCH_table1_hv.json.
  BenchObserver observer("table1_hv");
  TablePrinter table({"dataset", "description", "size", "dim", "metric",
                      "HV", "G(0.1)"});

  for (size_t dim : {5u, 20u, 50u}) {
    for (const bool clustered : {true, false}) {
      const auto kind = clustered ? VectorDatasetKind::kClustered
                                  : VectorDatasetKind::kUniform;
      const auto data = GenerateVectorDataset(kind, n, dim, kSeed);
      hv_options.d_plus = 1.0;
      const HvResult hv = EstimateHomogeneity(data, LInfDistance{}, hv_options);
      if (ObsEnabled()) {
        MetricsRegistry::Global()
            .GetGauge(std::string("mcm.hv.") +
                      (clustered ? "clustered" : "uniform") + ".d" +
                      std::to_string(dim))
            .Set(hv.hv);
      }
      table.AddRow({clustered ? "clustered" : "uniform",
                    clustered ? "10 Gaussian clusters, sigma=0.1"
                              : "uniform on [0,1]^D",
                    std::to_string(n), std::to_string(dim), "L_inf",
                    TablePrinter::Num(hv.hv, 4),
                    TablePrinter::Num(EmpiricalGDelta(hv, 0.1), 3)});
    }
  }

  for (const auto& spec : TextDatasets()) {
    const auto words = GenerateKeywords(spec.vocabulary_size, kSeed);
    hv_options.d_plus = 25.0;
    const HvResult hv =
        EstimateHomogeneity(words, EditDistanceMetric{}, hv_options);
    if (ObsEnabled()) {
      MetricsRegistry::Global()
          .GetGauge("mcm.hv.text." + spec.code)
          .Set(hv.hv);
    }
    table.AddRow({spec.code, spec.title + " (synthetic stand-in)",
                  std::to_string(spec.vocabulary_size), "-", "edit",
                  TablePrinter::Num(hv.hv, 4),
                  TablePrinter::Num(EmpiricalGDelta(hv, 0.1), 3)});
  }
  table.Print(std::cout);

  std::cout << "\n== Example 1: closed-form HV of ({0,1}^D + midpoint, "
               "L_inf, U) ==\n\n";
  TablePrinter example({"D", "HV (closed form)", "1 - HV"});
  for (unsigned d : {2u, 5u, 10u, 20u}) {
    const double hv = HvBinaryHypercubeWithMidpoint(d);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3e", 1.0 - hv);
    example.AddRow({std::to_string(d), TablePrinter::Num(hv, 6), buf});
  }
  example.Print(std::cout);
  std::cout << "\nPaper checkpoint: D=10 gives 1-HV ~= 0.97e-3.\n";
  return 0;
}

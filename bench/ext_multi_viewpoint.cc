// Extension: the multi-viewpoint, query-sensitive cost model — the paper's
// future-work item 2. On a deliberately non-homogeneous dataset (tight
// core + uniform halo, HV well below the >0.98 of Table 1's datasets) we
// compare three per-query CPU/I/O estimators against measurement:
//   global   — L-MCM with the single global F̂ⁿ (the paper's model);
//   nearest  — L-MCM with the RDD of the viewpoint closest to the query;
//   blended  — L-MCM with the inverse-distance blend of the 3 nearest
//              viewpoints' RDDs.
// Reported: mean per-query relative error. The paper's conjecture is that
// keeping several viewpoints fixes the global model's failure on
// non-homogeneous spaces; this bench quantifies exactly that.
//
// Scale knobs: MCM_N (default 8000), MCM_QUERIES (default 200).

#include <iostream>

#include "mcm/common/env.h"
#include "mcm/common/numeric.h"
#include "mcm/common/stopwatch.h"
#include "mcm/common/table_printer.h"
#include "mcm/cost/lmcm.h"
#include "mcm/cost/nmcm.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/distribution/homogeneity.h"
#include "mcm/distribution/viewpoints.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/obs/bench_observer.h"

int main() {
  using namespace mcm;
  using Traits = VectorTraits<LInfDistance>;
  const size_t n = static_cast<size_t>(GetEnvInt("MCM_N", 8000));
  const size_t num_queries = static_cast<size_t>(GetEnvInt("MCM_QUERIES", 200));
  constexpr size_t kDim = 8;
  constexpr uint64_t kSeed = 42;

  BenchObserver observer("ext_multi_viewpoint");
  QueryTrace trace(observer.trace_capacity());
  Stopwatch watch;
  std::cout << "== Extension: multi-viewpoint cost model on a "
               "non-homogeneous space (future work #2) ==\n\n";

  struct Case {
    const char* name;
    std::vector<FloatVector> data;
    std::vector<FloatVector> queries;
  };
  std::vector<Case> cases;
  cases.push_back({"non-homogeneous (core+halo)",
                   GenerateNonHomogeneous(n, kDim, kSeed),
                   GenerateNonHomogeneousQueries(num_queries, kDim, kSeed)});
  cases.push_back({"clustered (homogeneous control)",
                   GenerateClustered(n, kDim, kSeed),
                   GenerateVectorQueries(VectorDatasetKind::kClustered,
                                         num_queries, kDim, kSeed)});

  for (auto& c : cases) {
    HvOptions ho;
    ho.num_viewpoints = 80;
    ho.num_targets = 800;
    ho.seed = kSeed;
    const auto hv = EstimateHomogeneity(c.data, LInfDistance{}, ho);

    MTreeOptions topt;
    topt.seed = kSeed;
    auto tree = MTree<Traits>::BulkLoad(c.data, LInfDistance{}, topt);
    const auto stats = tree.CollectStats(1.0);

    EstimatorOptions eo;
    eo.num_bins = 100;
    eo.seed = kSeed;
    const auto global = EstimateDistanceDistribution(c.data, LInfDistance{},
                                                     eo);
    const NodeBasedCostModel global_nmcm(global, stats);
    const LevelBasedCostModel global_lmcm(global, stats);

    ViewpointOptions vo;
    vo.num_viewpoints = 16;
    vo.seed = kSeed;
    const auto set = ViewpointSet<FloatVector, LInfDistance>::Build(
        c.data, LInfDistance{}, vo);

    TablePrinter table({"r_Q", "estimator", "mean |err| CPU",
                        "mean |err| I/O"});
    for (double rq : {0.05, 0.1, 0.2}) {
      constexpr int kEstimators = 6;
      double cpu_err[kEstimators] = {0, 0, 0, 0, 0, 0};
      double io_err[kEstimators] = {0, 0, 0, 0, 0, 0};
      const bool observing = observer.enabled();
      if (observing) {
        observer.BeginCase(
            std::string(c.name) + " r=" + TablePrinter::Num(rq, 2),
            {{"radius", rq}},
            {{"N-MCM", global_nmcm.RangeNodes(rq),
              global_nmcm.RangeDistances(rq),
              global_nmcm.RangeNodesPerLevel(rq)},
             {"L-MCM", global_lmcm.RangeNodes(rq),
              global_lmcm.RangeDistances(rq),
              global_lmcm.RangeNodesPerLevel(rq)}});
      }
      for (const auto& q : c.queries) {
        QueryStats qs;
        if (observing) {
          trace.Clear();
          qs.trace = &trace;
        }
        Stopwatch query_watch;
        const auto results = tree.RangeSearch(q, rq, &qs);
        if (observing) {
          QueryObservation obs;
          obs.kind = "range";
          obs.radius = rq;
          obs.stats = qs;
          obs.stats.trace = nullptr;
          obs.results = results.size();
          obs.latency_us = query_watch.ElapsedSeconds() * 1e6;
          obs.level_nodes = trace.LevelNodeVisits();
          obs.prunes_by_reason = trace.prunes_by_reason();
          obs.trace_dropped = trace.dropped();
          if (observer.dump_events()) obs.events = trace.Events();
          observer.RecordQuery(obs);
        }
        // The models price computed + avoided evaluations.
        const double cpu = static_cast<double>(qs.PricedDistances());
        const double io = static_cast<double>(qs.nodes_accessed);

        const NodeBasedCostModel bracket1(
            set.QueryDistribution(q, 1, BlendMode::kTriangleMidpoint), stats);
        const NodeBasedCostModel bracket3(
            set.QueryDistribution(q, 3, BlendMode::kTriangleMidpoint), stats);
        const NodeBasedCostModel plain1(
            set.QueryDistribution(q, 1, BlendMode::kPlain), stats);
        const NodeBasedCostModel plain3(
            set.QueryDistribution(q, 3, BlendMode::kPlain), stats);
        const double cpu_est[kEstimators] = {
            global_lmcm.RangeDistances(rq), global_nmcm.RangeDistances(rq),
            bracket1.RangeDistances(rq),    bracket3.RangeDistances(rq),
            plain1.RangeDistances(rq),      plain3.RangeDistances(rq)};
        const double io_est[kEstimators] = {
            global_lmcm.RangeNodes(rq), global_nmcm.RangeNodes(rq),
            bracket1.RangeNodes(rq),    bracket3.RangeNodes(rq),
            plain1.RangeNodes(rq),      plain3.RangeNodes(rq)};
        for (int m = 0; m < kEstimators; ++m) {
          cpu_err[m] += RelativeError(cpu_est[m], cpu);
          io_err[m] += RelativeError(io_est[m], io);
        }
      }
      if (observing) observer.EndCase();
      const char* names[kEstimators] = {
          "global F, L-MCM",        "global F, N-MCM",
          "bracket nearest (N-MCM)", "bracket blend3 (N-MCM)",
          "plain nearest (N-MCM)",   "plain blend3 (N-MCM)"};
      for (int m = 0; m < kEstimators; ++m) {
        table.AddRow(
            {TablePrinter::Num(rq, 2), names[m],
             TablePrinter::Num(
                 100.0 * cpu_err[m] / static_cast<double>(c.queries.size()),
                 1) +
                 "%",
             TablePrinter::Num(
                 100.0 * io_err[m] / static_cast<double>(c.queries.size()),
                 1) +
                 "%"});
      }
    }
    std::cout << "-- " << c.name << " (n=" << n
              << ", HV=" << TablePrinter::Num(hv.hv, 3) << ") --\n";
    table.Print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Findings (see EXPERIMENTS.md): (1) on the non-homogeneous "
               "dataset the triangle-bracket viewpoint estimators cut the "
               "global model's per-query error substantially; (2) the "
               "query-sensitive distribution must pair with N-MCM's "
               "per-node radii — L-MCM's per-level averages erase the "
               "radius/position correlation that dominates the error; "
               "(3) neither blend mode dominates: the bracket wins where no "
               "viewpoint represents the query region, the plain RDD wins "
               "when the nearest viewpoint shares the query's cluster.\n"
            << "Elapsed: " << TablePrinter::Num(watch.ElapsedSeconds(), 1)
            << " s\n";
  return 0;
}

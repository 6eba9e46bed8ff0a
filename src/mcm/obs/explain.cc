#include "mcm/obs/explain.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "mcm/common/table_printer.h"
#include "mcm/obs/export.h"

namespace mcm {

namespace {

double Residual(double actual, double predicted) {
  if (predicted == 0.0) {
    return actual == 0.0 ? 0.0 : 100.0;
  }
  return (actual - predicted) / predicted * 100.0;
}

const ExplainModelPrediction* FindModel(const ExplainReport& report,
                                        const std::string& name) {
  for (const auto& p : report.predictions) {
    if (p.model == name) return &p;
  }
  return nullptr;
}

double LevelValue(const std::vector<double>& values, size_t idx) {
  return idx < values.size() ? values[idx] : 0.0;
}

}  // namespace

TraceLevelTally ExplainReport::LevelActual(size_t level) const {
  const auto& levels = trace.levels();
  return level >= 1 && level <= levels.size() ? levels[level - 1]
                                              : TraceLevelTally{};
}

size_t ExplainReport::NumLevels() const {
  return std::max<size_t>(trace.levels().size(), height);
}

std::string RenderExplainText(const ExplainReport& report) {
  std::ostringstream out;
  out << "EXPLAIN " << report.kind;
  if (report.kind == "range") {
    out << "(radius=" << TablePrinter::Num(report.radius, 4) << ")";
  } else {
    out << "(k=" << report.k << ")";
  }
  out << " over mtree[n=" << report.num_objects
      << ", height=" << report.height << ", nodes=" << report.num_nodes
      << ", node_size=" << report.node_size_bytes
      << "B, d+=" << TablePrinter::Num(report.d_plus, 4) << "]\n";
  out << "access path: " << report.access_path
      << " (index " << TablePrinter::Num(report.index_ms, 1)
      << " ms vs sequential "
      << TablePrinter::Num(report.sequential_ms, 1) << " ms)\n\n";

  const ExplainModelPrediction* nmcm = FindModel(report, "nmcm");
  const ExplainModelPrediction* lmcm = FindModel(report, "lmcm");
  const ExplainModelPrediction* witness = FindModel(report, "nmcm.witness");

  out << "predicted vs actual totals:\n";
  {
    TablePrinter totals({"", "nodes", "distances"});
    if (nmcm != nullptr) {
      totals.AddRow({"N-MCM", TablePrinter::Num(nmcm->nodes),
                     TablePrinter::Num(nmcm->distances)});
    }
    if (lmcm != nullptr) {
      totals.AddRow({"L-MCM", TablePrinter::Num(lmcm->nodes),
                     TablePrinter::Num(lmcm->distances)});
    }
    if (witness != nullptr) {
      totals.AddRow({"N-MCM+w", TablePrinter::Num(witness->nodes),
                     TablePrinter::Num(witness->distances)});
    }
    totals.AddRow({"actual",
                   std::to_string(report.stats.nodes_accessed),
                   std::to_string(report.stats.PricedDistances())});
    totals.Print(out);
  }

  out << "\nper-level (root = level 1):\n";
  {
    std::vector<std::string> header = {"level", "nodes N-MCM", "nodes L-MCM",
                                       "nodes actual", "resid%",
                                       "dists N-MCM", "dists L-MCM"};
    if (witness != nullptr) header.push_back("dists N-MCM+w");
    header.push_back("dists actual");
    header.push_back("avoided");
    TablePrinter levels(std::move(header));
    for (size_t l = 0; l < report.NumLevels(); ++l) {
      const TraceLevelTally actual = report.LevelActual(l + 1);
      const double n_nodes =
          nmcm != nullptr ? LevelValue(nmcm->level_nodes, l) : 0.0;
      const double l_nodes =
          lmcm != nullptr ? LevelValue(lmcm->level_nodes, l) : 0.0;
      const double n_dists =
          nmcm != nullptr ? LevelValue(nmcm->level_distances, l) : 0.0;
      const double l_dists =
          lmcm != nullptr ? LevelValue(lmcm->level_distances, l) : 0.0;
      std::vector<std::string> row = {
          std::to_string(l + 1), TablePrinter::Num(n_nodes),
          TablePrinter::Num(l_nodes),
          std::to_string(actual.node_visits),
          TablePrinter::Num(Residual(
              static_cast<double>(actual.node_visits), n_nodes), 1),
          TablePrinter::Num(n_dists), TablePrinter::Num(l_dists)};
      if (witness != nullptr) {
        row.push_back(TablePrinter::Num(LevelValue(witness->level_distances,
                                                   l)));
      }
      // Each filter or cascade skip is one avoided evaluation.
      const uint64_t avoided = actual.entries_pruned + actual.witness_avoided;
      row.push_back(std::to_string(actual.distances + avoided));
      row.push_back(std::to_string(avoided));
      levels.AddRow(std::move(row));
    }
    levels.Print(out);
  }

  out << "\nprune reasons:\n";
  for (size_t i = 0; i < kNumPruneReasons; ++i) {
    const uint64_t count = report.trace.prunes_by_reason()[i];
    if (count == 0) continue;
    out << "  " << ToString(static_cast<PruneReason>(i)) << ": " << count
        << "\n";
  }

  out << "\nphase times:\n";
  {
    TablePrinter phases({"phase", "us", "% of wall"});
    for (size_t i = 0; i < kNumQueryPhases; ++i) {
      const uint64_t ns = report.stats.phase_ns[i];
      if (ns == 0) continue;
      const double us = static_cast<double>(ns) / 1e3;
      const double pct = report.latency_us > 0.0
                             ? us / report.latency_us * 100.0
                             : 0.0;
      // Planning happens before the query runs, so a fraction of the
      // query's wall time would be meaningless for it.
      const bool is_plan = static_cast<QueryPhase>(i) == QueryPhase::kPlan;
      phases.AddRow({ToString(static_cast<QueryPhase>(i)),
                     TablePrinter::Num(us, 1),
                     is_plan ? "-" : TablePrinter::Num(pct, 1)});
    }
    phases.Print(out);
  }

  out << "\nresults: " << report.num_results
      << "  latency: " << TablePrinter::Num(report.latency_us, 1)
      << " us  buffer hits/misses: " << report.stats.buffer_hits << "/"
      << report.stats.buffer_misses;
  out << "  distances computed/avoided: "
      << report.stats.distance_computations << "/"
      << report.stats.distance_calcs_avoided_by_witness;
  if (report.trace.dropped() > 0) {
    out << "  (trace dropped " << report.trace.dropped() << " events)";
  }
  out << "\n";
  return out.str();
}

std::string RenderExplainJson(const ExplainReport& report) {
  JsonObjectBuilder root;
  root.Add("kind", report.kind);
  if (report.kind == "range") {
    root.Add("radius", report.radius);
  } else {
    root.Add("k", static_cast<uint64_t>(report.k));
  }

  {
    JsonObjectBuilder index;
    index.Add("num_objects", static_cast<uint64_t>(report.num_objects));
    index.Add("height", report.height);
    index.Add("num_nodes", static_cast<uint64_t>(report.num_nodes));
    index.Add("node_size_bytes",
              static_cast<uint64_t>(report.node_size_bytes));
    index.Add("d_plus", report.d_plus);
    root.AddRaw("index", index.Build());
  }

  {
    JsonObjectBuilder plan;
    plan.Add("access_path", report.access_path);
    plan.Add("index_ms", report.index_ms);
    plan.Add("sequential_ms", report.sequential_ms);
    root.AddRaw("plan", plan.Build());
  }

  {
    std::string arr = "[";
    for (size_t i = 0; i < report.predictions.size(); ++i) {
      const auto& p = report.predictions[i];
      if (i > 0) arr += ",";
      JsonObjectBuilder model;
      model.Add("model", p.model);
      model.Add("nodes", p.nodes);
      model.Add("distances", p.distances);
      model.AddNumberArray("level_nodes", p.level_nodes);
      model.AddNumberArray("level_distances", p.level_distances);
      arr += model.Build();
    }
    arr += "]";
    root.AddRaw("predictions", arr);
  }

  {
    JsonObjectBuilder actual;
    actual.Add("nodes", report.stats.nodes_accessed);
    actual.Add("distances", report.stats.distance_computations);
    actual.Add("pruned", report.stats.nodes_pruned);
    actual.Add("witness_avoided",
               report.stats.distance_calcs_avoided_by_witness);
    actual.Add("buffer_hits", report.stats.buffer_hits);
    actual.Add("buffer_misses", report.stats.buffer_misses);
    actual.Add("results", static_cast<uint64_t>(report.num_results));
    actual.Add("latency_us", report.latency_us);
    std::string levels = "[";
    for (size_t l = 0; l < report.NumLevels(); ++l) {
      const TraceLevelTally a = report.LevelActual(l + 1);
      if (l > 0) levels += ",";
      JsonObjectBuilder level;
      level.Add("level", static_cast<uint64_t>(l + 1));
      level.Add("nodes", a.node_visits);
      level.Add("distances", a.distances);
      level.Add("entries_scanned", a.entries_scanned);
      level.Add("entries_pruned", a.entries_pruned);
      level.Add("subtree_prunes", a.subtree_prunes);
      level.Add("witness_avoided", a.witness_avoided);
      levels += level.Build();
    }
    levels += "]";
    actual.AddRaw("levels", levels);
    JsonObjectBuilder prunes;
    for (size_t i = 0; i < kNumPruneReasons; ++i) {
      const uint64_t count = report.trace.prunes_by_reason()[i];
      if (count == 0) continue;
      prunes.Add(ToString(static_cast<PruneReason>(i)), count);
    }
    actual.AddRaw("prunes", prunes.Build());
    actual.Add("trace_dropped", report.trace.dropped());
    root.AddRaw("actual", actual.Build());
  }

  {
    JsonObjectBuilder phases;
    for (size_t i = 0; i < kNumQueryPhases; ++i) {
      phases.Add(ToString(static_cast<QueryPhase>(i)),
                 static_cast<double>(report.stats.phase_ns[i]) / 1e3);
    }
    root.AddRaw("phase_us", phases.Build());
  }

  return root.Build();
}

}  // namespace mcm

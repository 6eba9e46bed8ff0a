// mcm_explain: EXPLAIN for similarity queries on a persisted M-tree.
// Rebuilds the sampled distance distribution F̂ⁿ from the indexed objects,
// runs the N-MCM and L-MCM cost models plus the optimizer's access-path
// decision, executes the query fully instrumented (trace + phase spans),
// and prints predicted-vs-actual node accesses and distance computations
// per level next to the phase-time breakdown. Usage:
//
//   mcm_explain [--metric l2|l1|linf|edit] (--range R | --knn K)
//               [--query v1,v2,...|word] [--query-index I] [--json]
//               [--bins N] [--d-plus D] [--shards N] <index-path>
//       Opens <index-path> (+ <index-path>.meta, as written by SaveMTree)
//       and explains one query. The query object is either parsed from
//       --query (comma-separated floats for vector metrics, the literal
//       string for edit) or taken from the indexed objects (--query-index,
//       default 0). With --shards N (N >= 2) the indexed objects are
//       additionally re-partitioned into N shards and the query is routed
//       through the shard layer: the per-shard predicted-vs-actual table
//       follows the report (text), or rides under a "shards" key (JSON).
//       Exit 0 on success, 2 on usage or I/O error.
//
//   mcm_explain --make-demo <path>
//       Builds the small clustered L2 demo index used by the scripted
//       schema checks and saves it at <path>.
//
//   mcm_explain --selftest <dir>
//       Builds the demo index under <dir>, explains a range and a k-NN
//       query, and validates the reports (both models predicted, per-level
//       actuals consistent with totals, JSON parses). Exit 0 only when all
//       checks pass.
//
// The metric must match the one the index was built with; phase timers are
// forced on for the explained query regardless of MCM_OBS.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "mcm/cost/explain.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/string_metrics.h"
#include "mcm/metric/traits.h"
#include "mcm/metric/vector_metrics.h"
#include "mcm/mtree/mtree.h"
#include "mcm/mtree/persist.h"
#include "mcm/obs/export.h"
#include "mcm/obs/metrics.h"
#include "mcm/shard/explain.h"
#include "mcm/shard/router.h"
#include "mcm/shard/sharded_index.h"

namespace {

struct Args {
  std::string metric = "l2";
  std::string path;
  std::string query_text;
  std::string selftest_dir;
  std::string make_demo_path;
  size_t query_index = 0;
  double radius = -1.0;
  size_t k = 0;
  size_t bins = 100;
  size_t shards = 0;  // >= 2: also explain through the shard router.
  double d_plus = -1.0;  // < 0: derive from the data.
  bool json = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: mcm_explain [--metric l2|l1|linf|edit] "
               "(--range R | --knn K)\n"
               "                   [--query v1,v2,...|word] "
               "[--query-index I] [--json]\n"
               "                   [--bins N] [--d-plus D] [--shards N] "
               "<index-path>\n"
               "       mcm_explain --make-demo <path>\n"
               "       mcm_explain --selftest <dir>\n");
}

/// Walks every leaf of `tree` and returns the indexed objects (the sample
/// the distance-distribution estimator runs over).
template <typename Tree>
std::vector<typename Tree::Object> CollectObjects(const Tree& tree) {
  std::vector<typename Tree::Object> out;
  if (tree.root() == mcm::kInvalidNodeId) return out;
  std::vector<mcm::NodeId> pending{tree.root()};
  while (!pending.empty()) {
    const mcm::NodeId id = pending.back();
    pending.pop_back();
    const auto node = tree.store().Read(id);
    if (node.is_leaf) {
      for (const auto& e : node.leaf_entries) out.push_back(e.object);
    } else {
      for (const auto& e : node.routing_entries) pending.push_back(e.child);
    }
  }
  return out;
}

/// Deterministic d⁺ estimate: the max distance over a strided sample of
/// object pairs, with 5% headroom so the histogram's last bin is not a
/// boundary artifact.
template <typename Object, typename Metric>
double DeriveDPlus(const std::vector<Object>& objects, const Metric& metric) {
  const size_t n = objects.size();
  const size_t stride = n > 128 ? n / 128 : 1;
  double max_d = 0.0;
  for (size_t i = 0; i < n; i += stride) {
    for (size_t j = i + stride; j < n; j += stride) {
      const double d = metric(objects[i], objects[j]);
      if (d > max_d) max_d = d;
    }
  }
  return max_d > 0.0 ? max_d * 1.05 : 1.0;
}

mcm::FloatVector ParseVector(const std::string& text) {
  mcm::FloatVector v;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t next = text.find(',', pos);
    if (next == std::string::npos) next = text.size();
    v.push_back(std::stof(text.substr(pos, next - pos)));
    pos = next + 1;
  }
  return v;
}

/// Inserts `"shards": <shard_json>` before the closing brace of the base
/// EXPLAIN JSON object so the sharded report rides along in one document.
std::string EmbedShardJson(const std::string& base,
                           const std::string& shard_json) {
  const size_t brace = base.rfind('}');
  if (brace == std::string::npos) return base;
  return base.substr(0, brace) + ",\"shards\":" + shard_json + "}";
}

/// Re-partitions the opened index's objects into `num_shards` shards and
/// explains the same query through the shard router.
template <typename Traits, typename Object, typename Metric>
mcm::shard::ShardExplainReport ExplainSharded(
    const std::vector<Object>& objects, const Metric& metric,
    size_t num_shards, size_t node_size_bytes, double d_plus,
    const Object& query, double radius, size_t k) {
  mcm::shard::ShardedOptions build;
  build.num_shards = num_shards;
  build.tree.node_size_bytes = node_size_bytes;
  build.d_plus = d_plus;
  const auto sharded =
      mcm::shard::ShardedMTree<Traits>::Create(objects, metric, build);
  const mcm::shard::ShardRouter<Traits> router(sharded);
  return radius >= 0.0 ? router.ExplainRange(query, radius)
                       : router.ExplainKnn(query, k);
}

template <typename Object>
Object ParseQuery(const std::string& text);

template <>
mcm::FloatVector ParseQuery<mcm::FloatVector>(const std::string& text) {
  return ParseVector(text);
}

template <>
std::string ParseQuery<std::string>(const std::string& text) {
  return text;
}

template <typename Traits, typename Metric>
int ExplainIndex(const Args& args, Metric metric) {
  const auto meta = mcm::persist_internal::ReadMeta(args.path);
  mcm::MTreeOptions options;
  options.node_size_bytes = meta.node_size;
  const auto tree =
      mcm::OpenMTree<Traits>(args.path, std::move(metric), options);

  const auto objects = CollectObjects(tree);
  if (objects.size() < 2) {
    std::fprintf(stderr, "mcm_explain: index holds %zu object(s); need >= 2\n",
                 objects.size());
    return 2;
  }

  const Metric& raw = tree.metric();
  const double d_plus =
      args.d_plus > 0.0 ? args.d_plus : DeriveDPlus(objects, raw);
  mcm::EstimatorOptions eo;
  eo.num_bins = args.bins;
  eo.d_plus = d_plus;
  const auto histogram = mcm::EstimateDistanceDistribution(objects, raw, eo);

  typename Traits::Object query;
  if (!args.query_text.empty()) {
    query = ParseQuery<typename Traits::Object>(args.query_text);
  } else {
    if (args.query_index >= objects.size()) {
      std::fprintf(stderr, "mcm_explain: --query-index %zu out of range\n",
                   args.query_index);
      return 2;
    }
    query = objects[args.query_index];
  }

  const mcm::ExplainReport report =
      args.radius >= 0.0
          ? mcm::ExplainRange(tree, histogram, d_plus, query, args.radius)
          : mcm::ExplainKnn(tree, histogram, d_plus, query, args.k);
  if (args.shards >= 2) {
    const auto shard_report = ExplainSharded<Traits>(
        objects, raw, args.shards, meta.node_size, d_plus, query,
        args.radius, args.k);
    if (args.json) {
      std::cout << EmbedShardJson(
                       mcm::RenderExplainJson(report),
                       mcm::shard::RenderShardExplainJson(shard_report))
                << "\n";
    } else {
      std::cout << mcm::RenderExplainText(report) << "\n"
                << mcm::shard::RenderShardExplainText(shard_report);
    }
    return 0;
  }
  if (args.json) {
    std::cout << mcm::RenderExplainJson(report) << "\n";
  } else {
    std::cout << mcm::RenderExplainText(report);
  }
  return 0;
}

/// Builds the demo index: clustered L2 vectors, small pages so the tree has
/// a few levels to explain.
int MakeDemo(const std::string& path) {
  using Traits = mcm::VectorTraits<mcm::L2Distance>;
  mcm::MTreeOptions options;
  options.node_size_bytes = 512;
  mcm::MTree<Traits> tree{mcm::L2Distance{}, options};
  const auto data = mcm::GenerateVectorDataset(
      mcm::VectorDatasetKind::kClustered, /*n=*/500, /*dim=*/4, /*seed=*/7);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(data[i], i);
  }
  // Persist the witness cascade so EXPLAIN on the demo exercises the
  // witness-corrected prediction and the avoided-distance counters.
  tree.InstallWitnessCascade();
  mcm::SaveMTree(tree, path);
  std::printf("mcm_explain: wrote demo index %s (n=%zu height=%u)\n",
              path.c_str(), tree.size(), tree.height());
  return 0;
}

int Fail(const char* what) {
  std::fprintf(stderr, "selftest: %s\n", what);
  return 1;
}

int CheckReport(const mcm::ExplainReport& report) {
  if (report.predictions.size() < 2) return Fail("expected >= two models");
  if (report.predictions[0].model != "nmcm" ||
      report.predictions[1].model != "lmcm") {
    return Fail("model order");
  }
  for (const auto& p : report.predictions) {
    if (p.nodes <= 0.0 || p.distances <= 0.0) {
      return Fail("non-positive prediction");
    }
    if (p.level_nodes.empty() || p.level_distances.empty()) {
      return Fail("missing per-level prediction");
    }
  }
  // The demo index persists its witness cascade, so (unless the knob is
  // zeroed) the witness-corrected prediction rides along and never
  // predicts more evaluations than the uncorrected N-MCM.
  for (size_t i = 2; i < report.predictions.size(); ++i) {
    const auto& p = report.predictions[i];
    if (p.model != "nmcm.witness") return Fail("unexpected model name");
    if (p.distances > report.predictions[0].distances) {
      return Fail("witness correction predicts more distances than N-MCM");
    }
  }
  if (report.stats.nodes_accessed == 0) return Fail("no node accesses");
  if (report.num_results == 0) return Fail("no results");
  uint64_t level_nodes = 0;
  uint64_t level_dists = 0;
  uint64_t level_priced = 0;
  for (const auto& a : report.level_actuals) {
    level_nodes += a.node_visits;
    level_dists += a.distances;
    level_priced += a.distances + a.entries_pruned + a.witness_avoided;
  }
  if (level_nodes != report.stats.nodes_accessed) {
    return Fail("per-level node visits do not sum to the total");
  }
  if (level_dists != report.stats.distance_computations) {
    return Fail("per-level distances do not sum to the total");
  }
  // Every filter or cascade skip is one avoided evaluation, so the priced
  // per-level counts (computed + avoided) sum to the query's.
  if (level_priced != report.stats.PricedDistances()) {
    return Fail("per-level computed + avoided does not sum to the total");
  }
  if (report.access_path.empty()) return Fail("no access path");
  const auto parsed = mcm::ParseJson(mcm::RenderExplainJson(report));
  if (!parsed.has_value() || !parsed->is_object()) {
    return Fail("JSON rendering does not parse");
  }
  for (const char* key :
       {"kind", "index", "plan", "predictions", "actual", "phase_us"}) {
    if (parsed->Find(key) == nullptr) return Fail("JSON missing key");
  }
  return 0;
}

int SelfTest(const std::string& dir) {
  using Traits = mcm::VectorTraits<mcm::L2Distance>;
  const std::string path = dir + "/explain_demo.mtree";
  if (MakeDemo(path) != 0) return 1;

  const auto meta = mcm::persist_internal::ReadMeta(path);
  mcm::MTreeOptions options;
  options.node_size_bytes = meta.node_size;
  const auto tree =
      mcm::OpenMTree<Traits>(path, mcm::L2Distance{}, options);
  const auto objects = CollectObjects(tree);
  if (objects.size() != 500) return Fail("demo object count");

  const double d_plus = DeriveDPlus(objects, tree.metric());
  mcm::EstimatorOptions eo;
  eo.d_plus = d_plus;
  const auto histogram = mcm::EstimateDistanceDistribution(
      objects, tree.metric(), eo);

  if (!tree.cascade_installed()) return Fail("demo cascade not persisted");

  const auto range_report = mcm::ExplainRange(
      tree, histogram, d_plus, objects[0], 0.25 * d_plus);
  if (range_report.kind != "range") return Fail("range kind");
  if (const int rc = CheckReport(range_report)) return rc;
  if (tree.witness_capacity() > 0) {
    bool witness_predicted = false;
    for (const auto& p : range_report.predictions) {
      witness_predicted |= p.model == "nmcm.witness";
    }
    if (!witness_predicted) return Fail("witness prediction missing");
  }

  const auto knn_report =
      mcm::ExplainKnn(tree, histogram, d_plus, objects[1], /*k=*/5);
  if (knn_report.kind != "knn") return Fail("knn kind");
  if (knn_report.num_results != 5) return Fail("knn result count");
  if (const int rc = CheckReport(knn_report)) return rc;

  // Sharded EXPLAIN: route the same range query through 4 shards and
  // require per-row actuals to sum to the totals, the dispatched/skipped
  // split to cover every shard, the sharded answer to match the unsharded
  // result count, and the JSON embedding to parse.
  const double radius = 0.25 * d_plus;
  const auto shard_report = ExplainSharded<Traits>(
      objects, tree.metric(), /*num_shards=*/4, meta.node_size, d_plus,
      objects[0], radius, /*k=*/0);
  if (shard_report.kind != "range") return Fail("shard kind");
  if (shard_report.num_shards != 4) return Fail("shard count");
  if (shard_report.rows.size() != 4) return Fail("shard row count");
  if (shard_report.dispatched + shard_report.skipped != 4) {
    return Fail("shard dispatch/skip split");
  }
  uint64_t row_nodes = 0;
  uint64_t row_dists = 0;
  size_t row_results = 0;
  for (const auto& row : shard_report.rows) {
    row_nodes += row.actual_nodes;
    row_dists += row.actual_dists;
    row_results += row.results;
  }
  if (row_nodes != shard_report.actual_nodes) {
    return Fail("shard row nodes do not sum to the total");
  }
  if (row_results != shard_report.results) {
    return Fail("shard row results do not sum to the total");
  }
  if (row_dists > shard_report.actual_dists) {
    return Fail("shard row distances exceed the total");
  }
  if (shard_report.results != range_report.num_results) {
    return Fail("sharded result count differs from unsharded");
  }
  const auto shard_json = mcm::ParseJson(EmbedShardJson(
      mcm::RenderExplainJson(range_report),
      mcm::shard::RenderShardExplainJson(shard_report)));
  if (!shard_json.has_value() || !shard_json->is_object() ||
      shard_json->Find("shards") == nullptr) {
    return Fail("shard JSON embedding does not parse");
  }

  std::printf(
      "selftest: ok (range + knn + 4-shard scatter explained, "
      "reports consistent)\n");
  std::fputs(mcm::RenderExplainText(knn_report).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metric" && i + 1 < argc) {
      args.metric = argv[++i];
    } else if (arg == "--range" && i + 1 < argc) {
      args.radius = std::stod(argv[++i]);
    } else if (arg == "--knn" && i + 1 < argc) {
      args.k = static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--query" && i + 1 < argc) {
      args.query_text = argv[++i];
    } else if (arg == "--query-index" && i + 1 < argc) {
      args.query_index = static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--bins" && i + 1 < argc) {
      args.bins = static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--d-plus" && i + 1 < argc) {
      args.d_plus = std::stod(argv[++i]);
    } else if (arg == "--shards" && i + 1 < argc) {
      args.shards = static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg == "--selftest" && i + 1 < argc) {
      args.selftest_dir = argv[++i];
    } else if (arg == "--make-demo" && i + 1 < argc) {
      args.make_demo_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mcm_explain: unknown option %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else {
      args.path = arg;
    }
  }

  // EXPLAIN is pointless without its timers: force the observability flag
  // on for this process (single-threaded here, so the setter is safe).
  mcm::SetObsEnabled(true);

  try {
    if (!args.selftest_dir.empty()) {
      return SelfTest(args.selftest_dir);
    }
    if (!args.make_demo_path.empty()) {
      return MakeDemo(args.make_demo_path);
    }
    if (args.path.empty() || (args.radius < 0.0 && args.k == 0)) {
      PrintUsage();
      return 2;
    }
    if (args.metric == "l2") {
      return ExplainIndex<mcm::VectorTraits<mcm::L2Distance>>(
          args, mcm::L2Distance{});
    }
    if (args.metric == "l1") {
      return ExplainIndex<mcm::VectorTraits<mcm::L1Distance>>(
          args, mcm::L1Distance{});
    }
    if (args.metric == "linf") {
      return ExplainIndex<mcm::VectorTraits<mcm::LInfDistance>>(
          args, mcm::LInfDistance{});
    }
    if (args.metric == "edit") {
      return ExplainIndex<mcm::StringTraits<>>(args,
                                               mcm::EditDistanceMetric{});
    }
    std::fprintf(stderr, "mcm_explain: unknown metric %s\n",
                 args.metric.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcm_explain: %s\n", e.what());
    return 2;
  }
}

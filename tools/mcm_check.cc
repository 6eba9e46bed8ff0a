// mcm_check: validates the structural invariants of a persisted M-tree
// (see src/mcm/check/). Usage:
//
//   mcm_check [--metric l2|l1|linf|edit] [--epsilon E] <index-path>
//       Opens <index-path> (+ <index-path>.meta, as written by SaveMTree)
//       and runs CheckMTree. Exit 0: the tree is consistent; exit 1:
//       violations (each printed as "[rule] where: detail"); exit 2:
//       usage or I/O error.
//
//   mcm_check --selftest <dir>
//       End-to-end proof that the checker detects corruption: builds a
//       small L2 tree (witness cascade installed), saves it under <dir>,
//       validates it (must be clean), then corrupts one value directly in
//       the page file of a fresh copy each and re-validates: a root
//       covering radius (must report covering-radius), a leaf entry's
//       parent distance (parent-distance) and a witness-cascade ancestor
//       distance (ancestor-distance). Exit 0 only when all phases behave.
//
//   mcm_check --bulk-selftest <dir>
//       End-to-end proof of the out-of-core parallel bulk loader: streams
//       100k clustered L2 vectors through StreamBulkLoader (4 build
//       threads, a deliberately tight ingest budget so the spill path is
//       exercised) into a paged on-disk store under <dir>, then requires
//       CheckMTree to come back clean and a probe query to find its own
//       object. Exit 0 only when the loaded tree is fully consistent.
//
// The metric must match the one the index was built with — the checker
// recomputes distances, so a wrong metric reports violations for a healthy
// tree (which is itself a useful property: it detects metric mismatch).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "mcm/check/check_mtree.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/metric/string_metrics.h"
#include "mcm/metric/traits.h"
#include "mcm/metric/vector_metrics.h"
#include "mcm/mtree/bulk_stream.h"
#include "mcm/mtree/mtree.h"
#include "mcm/mtree/node_store.h"
#include "mcm/mtree/persist.h"
#include "mcm/storage/page_file.h"

namespace {

using mcm::check::CheckResult;

void PrintUsage() {
  std::fprintf(stderr,
               "usage: mcm_check [--metric l2|l1|linf|edit] [--epsilon E] "
               "<index-path>\n"
               "       mcm_check --selftest <dir>\n"
               "       mcm_check --bulk-selftest <dir>\n");
}

int Report(const CheckResult& result, const std::string& path) {
  if (result.ok()) {
    std::printf("%s: ok\n", path.c_str());
    return 0;
  }
  std::printf("%s: %zu violation(s)\n", path.c_str(),
              result.violations().size());
  for (const auto& v : result.violations()) {
    std::printf("  [%s] %s: %s\n", v.rule.c_str(), v.where.c_str(),
                v.detail.c_str());
  }
  return 1;
}

template <typename Traits>
int ValidateIndex(const std::string& path, typename Traits::Metric metric,
                  double epsilon) {
  const auto meta = mcm::persist_internal::ReadMeta(path);
  mcm::MTreeOptions options;
  options.node_size_bytes = meta.node_size;
  auto tree = mcm::OpenMTree<Traits>(path, std::move(metric), options);
  return Report(mcm::check::CheckMTree(tree, epsilon), path);
}

using SelfTestTraits = mcm::VectorTraits<mcm::L2Distance>;

// Saves `tree` to `path`, then rewrites on disk the first node, in
// depth-first order from the root, that `mutate` changes (returns true
// for). Returns false when it changed none.
template <typename Mutate>
bool SaveCorrupted(const mcm::MTree<SelfTestTraits>& tree,
                   const std::string& path, Mutate&& mutate) {
  mcm::SaveMTree(tree, path);
  const auto meta = mcm::persist_internal::ReadMeta(path);
  mcm::PagedNodeStore<SelfTestTraits> store(
      std::make_unique<mcm::StdioPageFile>(
          path, meta.node_size, mcm::StdioPageFile::Mode::kOpenExisting),
      /*pool_frames=*/16);
  store.RestoreNodeCount(meta.num_nodes);
  std::vector<mcm::NodeId> pending{static_cast<mcm::NodeId>(meta.root)};
  while (!pending.empty()) {
    const mcm::NodeId id = pending.back();
    pending.pop_back();
    auto node = store.Read(id);
    if (mutate(node)) {
      store.Write(id, node);
      store.Flush();
      return true;
    }
    for (const auto& e : node.routing_entries) pending.push_back(e.child);
  }
  return false;
}

// Reopens `path` and requires CheckMTree to report `rule`.
int ExpectDetected(const std::string& path,
                   const mcm::MTreeOptions& options, const char* rule) {
  auto corrupted =
      mcm::OpenMTree<SelfTestTraits>(path, mcm::L2Distance{}, options);
  const auto result = mcm::check::CheckMTree(corrupted);
  if (result.ok() || !result.Has(rule)) {
    std::fprintf(stderr, "selftest: %s corruption not detected (result: %s)\n",
                 rule, result.Summary().c_str());
    return 1;
  }
  std::printf("selftest: %s corruption detected: %s\n", rule,
              result.Summary(2).c_str());
  return 0;
}

// Builds a small clustered L2 tree (root guaranteed internal at this size)
// with its witness cascade, saves it and checks clean, then corrupts one
// stored value per fresh copy, on disk, and checks that each is detected:
// a root covering radius, a leaf entry's parent distance (every search
// below the root filters with these) and a cascade ancestor distance.
int SelfTest(const std::string& dir) {
  const std::string path = dir + "/selftest.mtree";

  mcm::MTreeOptions options;
  options.node_size_bytes = 512;
  mcm::MTree<SelfTestTraits> tree{mcm::L2Distance{}, options};
  const auto data = mcm::GenerateVectorDataset(
      mcm::VectorDatasetKind::kClustered, /*n=*/600, /*dim=*/4, /*seed=*/7);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(data[i], i);
  }
  // Persist the witness cascade so the healthy check also validates the
  // stored ancestor distances (and the corruption phase below has
  // something to corrupt).
  tree.InstallWitnessCascade();
  mcm::SaveMTree(tree, path);

  {
    auto reopened =
        mcm::OpenMTree<SelfTestTraits>(path, mcm::L2Distance{}, options);
    const auto healthy = mcm::check::CheckMTree(reopened);
    if (!healthy.ok()) {
      std::fprintf(stderr, "selftest: healthy tree reported %s\n",
                   healthy.Summary().c_str());
      return 1;
    }
  }

  // Shrink the first covering radius of the root node.
  if (!SaveCorrupted(tree, path, [](auto& node) {
        if (node.is_leaf || node.routing_entries.empty()) return false;
        node.routing_entries[0].covering_radius *= 0.25;
        return true;
      })) {
    std::fprintf(stderr, "selftest: root is not an internal node\n");
    return 1;
  }
  if (const int rc = ExpectDetected(path, options, "covering-radius")) {
    return rc;
  }

  // Move one leaf entry's stored parent distance.
  const std::string ppath = dir + "/selftest_parent.mtree";
  if (!SaveCorrupted(tree, ppath, [](auto& node) {
        if (node.leaf_entries.empty()) return false;
        node.leaf_entries[0].parent_distance += 0.5;
        return true;
      })) {
    std::fprintf(stderr, "selftest: no leaf entry to corrupt\n");
    return 1;
  }
  if (const int rc = ExpectDetected(ppath, options, "parent-distance")) {
    return rc;
  }

  // Perturb one persisted witness-cascade ancestor distance (depth >= 2
  // exists whenever the tree has >= 3 levels).
  const std::string wpath = dir + "/selftest_witness.mtree";
  if (!SaveCorrupted(tree, wpath, [](auto& node) {
        const auto perturb = [](auto& entries) {
          for (auto& e : entries) {
            if (!e.ancestor_distances.empty()) {
              e.ancestor_distances[0] += 1.0;
              return true;
            }
          }
          return false;
        };
        return perturb(node.leaf_entries) || perturb(node.routing_entries);
      })) {
    std::fprintf(stderr,
                 "selftest: no persisted ancestor distances to corrupt "
                 "(tree too shallow?)\n");
    return 1;
  }
  return ExpectDetected(wpath, options, "ancestor-distance");
}

// Streams 100k clustered vectors through the out-of-core loader into a
// paged on-disk store and requires full structural consistency.
int BulkSelfTest(const std::string& dir) {
  using Traits = mcm::VectorTraits<mcm::L2Distance>;
  const std::string path = dir + "/bulk_selftest.mtree";

  const size_t n = 100000;
  const size_t dim = 8;
  const auto data = mcm::GenerateVectorDataset(
      mcm::VectorDatasetKind::kClustered, n, dim, /*seed=*/41);

  mcm::MTreeOptions options;
  options.node_size_bytes = 4096;
  options.build_threads = 4;
  auto store = std::make_unique<mcm::PagedNodeStore<Traits>>(
      std::make_unique<mcm::StdioPageFile>(path, options.node_size_bytes),
      /*pool_frames=*/256);
  mcm::VectorObjectSource<Traits> source(data);
  // ~4 MB budget against ~3.3 MB of leaf entries: forces the spill path.
  auto tree = mcm::StreamBulkLoader<Traits>::Load(
      source, mcm::L2Distance{}, options, std::move(store), dir,
      /*ingest_budget_bytes=*/4 << 20);

  if (tree.size() != n) {
    std::fprintf(stderr, "bulk-selftest: size %zu != %zu\n", tree.size(), n);
    return 1;
  }
  const auto result = mcm::check::CheckMTree(tree);
  if (!result.ok()) {
    std::fprintf(stderr, "bulk-selftest: streamed tree reported %s\n",
                 result.Summary().c_str());
    return 1;
  }
  const auto probe = tree.RangeSearch(data[n / 2], 0.0);
  bool found = false;
  for (const auto& hit : probe) {
    found = found || hit.oid == n / 2;
  }
  if (!found) {
    std::fprintf(stderr, "bulk-selftest: probe object not found\n");
    return 1;
  }
  std::printf("bulk-selftest: %zu objects, height %u, clean\n", n,
              tree.height());
  std::remove(path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metric = "l2";
  std::string path;
  std::string selftest_dir;
  std::string bulk_selftest_dir;
  double epsilon = 1e-9;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metric" && i + 1 < argc) {
      metric = argv[++i];
    } else if (arg == "--epsilon" && i + 1 < argc) {
      epsilon = std::stod(argv[++i]);
    } else if (arg == "--selftest" && i + 1 < argc) {
      selftest_dir = argv[++i];
    } else if (arg == "--bulk-selftest" && i + 1 < argc) {
      bulk_selftest_dir = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mcm_check: unknown option %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else {
      path = arg;
    }
  }

  try {
    if (!selftest_dir.empty()) {
      return SelfTest(selftest_dir);
    }
    if (!bulk_selftest_dir.empty()) {
      return BulkSelfTest(bulk_selftest_dir);
    }
    if (path.empty()) {
      PrintUsage();
      return 2;
    }
    if (metric == "l2") {
      return ValidateIndex<mcm::VectorTraits<mcm::L2Distance>>(
          path, mcm::L2Distance{}, epsilon);
    }
    if (metric == "l1") {
      return ValidateIndex<mcm::VectorTraits<mcm::L1Distance>>(
          path, mcm::L1Distance{}, epsilon);
    }
    if (metric == "linf") {
      return ValidateIndex<mcm::VectorTraits<mcm::LInfDistance>>(
          path, mcm::LInfDistance{}, epsilon);
    }
    if (metric == "edit") {
      return ValidateIndex<mcm::StringTraits<>>(
          path, mcm::EditDistanceMetric{}, epsilon);
    }
    std::fprintf(stderr, "mcm_check: unknown metric %s\n", metric.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcm_check: %s\n", e.what());
    return 2;
  }
}

// Configuration knobs of the M-tree. Defaults match the paper's
// experimental setup: 4 KB nodes and 30% minimum utilization. Search has
// no mode: it always applies the stored-parent-distance filter, which
// footnote 2 leaves out of the cost model, and charges each entry it skips
// as one avoided evaluation, so computed + avoided is the count N-MCM
// prices.

#ifndef MCM_MTREE_OPTIONS_H_
#define MCM_MTREE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace mcm {

/// How routing objects are promoted when a node splits (VLDB'97 policies).
enum class PromotePolicy {
  kRandom,      ///< Two random entries.
  kSampling,    ///< Best of a fixed number of sampled pairs (min-max radius).
  kMMRad,       ///< Exhaustive pair search minimizing the larger radius.
  kMaxLbDist,   ///< Keep the old routing object; promote the farthest entry.
};

/// How entries are distributed between the two nodes after promotion.
enum class PartitionPolicy {
  kBalanced,    ///< Alternately assign the nearest unassigned entry.
  kHyperplane,  ///< Generalized hyperplane: each entry to its closer center.
};

/// M-tree construction and search options.
struct MTreeOptions {
  /// Node (disk page) size in bytes. Paper default: 4 KB.
  size_t node_size_bytes = 4096;

  /// Minimum fraction of a node's byte capacity that must stay occupied
  /// after a split / during bulk loading (root excluded). Paper: 0.3.
  double min_utilization = 0.3;

  PromotePolicy promote_policy = PromotePolicy::kSampling;
  PartitionPolicy partition_policy = PartitionPolicy::kBalanced;

  /// Pairs sampled by PromotePolicy::kSampling.
  size_t promote_samples = 64;

  /// Buffer-pool frames when a paged node store is used.
  size_t buffer_pool_frames = 1024;

  /// Seed for randomized promotion and bulk-load seed sampling.
  uint64_t seed = 42;

  /// Worker threads for bulk loading: 0 (default) resolves from
  /// MCM_BUILD_THREADS, else 1 (sequential). The parallel build produces
  /// page-byte-identical trees at any thread count, so this knob trades
  /// build wall time only.
  size_t build_threads = 0;

  /// Bulk loading emits each subtree as a contiguous run of pages in
  /// level-grouped DFS order so sibling frontiers become sequential reads
  /// (the layout readahead exploits). Off = pages in emission order, which
  /// reproduces the scattered layout of insertion-built trees for A/B
  /// experiments.
  bool bulk_sequential_layout = true;

  /// Witness-set capacity for search: how many query distances computed on
  /// the path down bound each entry (triangle inequality against stored
  /// distances). The parent's always does, by the parent-distance filter,
  /// so 0 or 1 runs that filter alone; c > 1 adds the c - 1 ancestors above
  /// it once InstallWitnessCascade() has stored their distances. -1
  /// (default) resolves from MCM_WITNESSES (default 8) at construction.
  int witness_capacity = -1;
};

}  // namespace mcm

#endif  // MCM_MTREE_OPTIONS_H_

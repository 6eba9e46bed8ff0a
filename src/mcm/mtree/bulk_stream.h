// Out-of-core bulk loading: builds an M-tree from an object *stream* under
// a bounded memory budget (MCM_INGEST_BUDGET), instead of requiring the
// whole dataset in one in-memory vector like BulkLoader.
//
// Three streaming phases, all deterministic (every random choice flows
// through the option-seeded engine in stream order, independent of the
// thread count):
//   A. One pass over the source counts objects/bytes and reservoir-samples
//      candidate partition seeds (algorithm R). Small datasets short-cut to
//      the in-memory BulkLoader here.
//   B. A second pass assigns each object to its nearest seed (batched,
//      fanned over the build pool) and appends it to that partition's spill
//      file on disk — only one bounded batch is ever memory-resident.
//   C. Partitions are read back and bulk-loaded into subtrees, a bounded
//      wave of them concurrently; each subtree commits its pages as one
//      contiguous run in partition order, shorter subtrees are padded to a
//      common height with single-entry routing chains, and a final
//      BulkLoader pass over the partition routers glues the roots together.
//
// The resulting tree is balanced (equalized subtree heights under a
// bulk-loaded top) and page-layout sequential per subtree, so the
// query-time readahead applies exactly as for the in-memory loader.

#ifndef MCM_MTREE_BULK_STREAM_H_
#define MCM_MTREE_BULK_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <stdlib.h>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "mcm/common/env.h"
#include "mcm/common/random.h"
#include "mcm/metric/counted_metric.h"
#include "mcm/mtree/bulk_load.h"

namespace mcm {

/// A restartable stream of (object, oid) records — the ingest interface of
/// the streaming bulk loader. Reset() must rewind to the first record and
/// replay the identical sequence (the loader makes two passes).
template <typename Traits>
class ObjectSource {
 public:
  using Object = typename Traits::Object;

  virtual ~ObjectSource() = default;

  /// Produces the next record; returns false at end of stream.
  virtual bool Next(Object* object, uint64_t* oid) = 0;

  /// Rewinds to the first record.
  virtual void Reset() = 0;
};

/// Adapter: streams an in-memory vector (oid = index when `oids` empty).
/// Useful for tests and for feeding the streaming loader from generators.
template <typename Traits>
class VectorObjectSource final : public ObjectSource<Traits> {
 public:
  using Object = typename Traits::Object;

  /// `oids` is copied: the default-argument temporary must not dangle.
  VectorObjectSource(const std::vector<Object>& objects,
                     std::vector<uint64_t> oids = {})
      : objects_(objects), oids_(std::move(oids)) {
    if (!oids_.empty() && oids_.size() != objects.size()) {
      throw std::invalid_argument("VectorObjectSource: oids size mismatch");
    }
  }

  bool Next(Object* object, uint64_t* oid) override {
    if (pos_ >= objects_.size()) {
      return false;
    }
    *object = objects_[pos_];
    *oid = oids_.empty() ? static_cast<uint64_t>(pos_) : oids_[pos_];
    ++pos_;
    return true;
  }

  void Reset() override { pos_ = 0; }

 private:
  const std::vector<Object>& objects_;
  const std::vector<uint64_t> oids_;
  size_t pos_ = 0;
};

/// Builds an M-tree from an ObjectSource with memory bounded by the ingest
/// budget, spilling seed-partitioned object runs to `spill_dir` when the
/// dataset exceeds it.
template <typename Traits>
class StreamBulkLoader {
 public:
  using Object = typename Traits::Object;
  using Metric = typename Traits::Metric;
  using Node = MTreeNode<Traits>;
  using Tree = MTree<Traits>;

  /// Builds a tree from `source`. `spill_dir` must be a writable existing
  /// directory. A load that spills creates a private mkdtemp subdirectory
  /// of it for its spill files and removes that subdirectory, files
  /// included, before returning or throwing, so loads sharing `spill_dir`
  /// never touch each other's spills. The budget
  /// is `ingest_budget_bytes` when > 0, else MCM_INGEST_BUDGET, else
  /// 256 MiB. When `stats` is non-null it receives the total build
  /// distance ledger (assignment + subtree + glue distances).
  static Tree Load(ObjectSource<Traits>& source, Metric metric,
                   MTreeOptions options,
                   std::unique_ptr<NodeStore<Traits>> store,
                   const std::string& spill_dir,
                   int64_t ingest_budget_bytes = -1,
                   BulkLoadStats* stats = nullptr) {
    Tree tree(std::move(metric), options, std::move(store));
    StreamBulkLoader loader(tree, source, spill_dir,
                            ResolveIngestBudget(ingest_budget_bytes));
    loader.Run();
    if (stats != nullptr) {
      *stats = loader.stats_;
    }
    return tree;
  }

 private:
  using Loader = BulkLoader<Traits>;
  using Item = typename Loader::Item;
  using StagedTree = typename Loader::StagedTree;

  /// Reservoir size: the cap on partition count and on pass-1 memory.
  static constexpr size_t kMaxPartitions = 512;
  static constexpr uint64_t kDefaultBudget = 256ull << 20;  // 256 MiB.
  /// Random streams: the in-memory loader owns 5, the glue pass 6, the
  /// reservoir/seed pass 7, and partition p builds with 16 + p — fixed
  /// per partition so wave scheduling cannot shift any sequence.
  static constexpr uint64_t kStreamReservoir = 7;
  static constexpr uint64_t kStreamGlue = 6;
  static constexpr uint64_t kStreamPartitionBase = 16;

  /// One committed partition subtree, ready to glue.
  struct Built {
    NodeId root = kInvalidNodeId;
    Object router;
    double radius = 0.0;
    uint32_t height = 0;
  };

  struct Spill {
    std::string path;
    std::FILE* file = nullptr;
    uint64_t count = 0;
  };

  static uint64_t ResolveIngestBudget(int64_t requested) {
    if (requested > 0) {
      return static_cast<uint64_t>(requested);
    }
    const int64_t env = GetEnvInt("MCM_INGEST_BUDGET", 0);
    if (env > 0) {
      return static_cast<uint64_t>(env);
    }
    return kDefaultBudget;
  }

  StreamBulkLoader(Tree& tree, ObjectSource<Traits>& source,
                   std::string spill_dir, uint64_t budget)
      : tree_(tree),
        source_(source),
        spill_dir_(std::move(spill_dir)),
        budget_(budget),
        metric_(tree.metric_),
        rng_(MakeEngine(tree.options().seed, kStreamReservoir)) {
    capacity_ = tree.options().node_size_bytes - Node::HeaderSize();
    threads_ = engine::ResolveBuildThreadCount(tree.options().build_threads);
    if (threads_ > 1) {
      pool_ = std::make_unique<engine::ThreadPool>(threads_);
    }
  }

  ~StreamBulkLoader() {
    for (Spill& spill : spills_) {
      CloseAndRemove(spill);
    }
    if (!private_dir_.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(private_dir_, ignored);
    }
  }

  void Run() {
    // Pass A: count, size, and reservoir-sample seed candidates.
    std::vector<Object> sample;
    sample.reserve(kMaxPartitions);
    uint64_t n = 0;
    uint64_t total_bytes = 0;
    {
      Object object;
      uint64_t oid = 0;
      while (source_.Next(&object, &oid)) {
        const size_t entry = Node::LeafEntrySize(object);
        if (entry > capacity_) {
          throw std::invalid_argument(
              "StreamBulkLoader: object exceeds node size");
        }
        total_bytes += entry;
        if (n < kMaxPartitions) {
          sample.push_back(object);
        } else {
          const size_t j = UniformIndex(rng_, static_cast<size_t>(n) + 1);
          if (j < kMaxPartitions) {
            sample[j] = object;
          }
        }
        ++n;
      }
    }
    if (n == 0) {
      return;  // Empty tree.
    }

    // Partition count targets budget/8 bytes per partition so a bounded
    // wave of in-flight subtree builds stays inside the budget. The count
    // depends only on the data and the budget — never on the thread count —
    // which keeps the page bytes thread-count-invariant.
    const uint64_t target = std::max<uint64_t>(budget_ / 8, 1);
    size_t parts = static_cast<size_t>((total_bytes + target - 1) / target);
    parts = std::min<size_t>({parts, kMaxPartitions,
                              static_cast<size_t>(n), sample.size()});
    if (total_bytes <= budget_ / 2 || parts <= 1) {
      InMemoryBuild(n);
      return;
    }

    // Seeds: `parts` distinct draws from the reservoir.
    for (size_t i = 0; i < parts; ++i) {
      const size_t j = i + UniformIndex(rng_, sample.size() - i);
      std::swap(sample[i], sample[j]);
    }
    sample.resize(parts);
    seeds_ = std::move(sample);

    SpillPass(parts);
    const std::vector<Built> built = BuildPartitions(parts);
    Glue(built);
    tree_.num_objects_ = n;
    stats_.distance_computations += metric_.count();
    stats_.metric_nanos += metric_.nanos();
  }

  /// Short-cut for datasets that fit comfortably: one in-memory bulk load.
  void InMemoryBuild(uint64_t n) {
    std::vector<Object> objects;
    std::vector<uint64_t> oids;
    objects.reserve(static_cast<size_t>(n));
    oids.reserve(static_cast<size_t>(n));
    source_.Reset();
    Object object;
    uint64_t oid = 0;
    while (source_.Next(&object, &oid)) {
      objects.push_back(std::move(object));
      oids.push_back(oid);
    }
    Loader loader(tree_, objects, oids, pool_.get());
    loader.Run();
    stats_.distance_computations += loader.metric_.count();
    stats_.metric_nanos += loader.metric_.nanos();
  }

  /// Pass B: stream again in bounded batches, assign each object to its
  /// nearest seed, append to that partition's spill file.
  void SpillPass(size_t parts) {
    std::string pattern = spill_dir_ + "/mcm_spill_XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error(
          "StreamBulkLoader: cannot create a spill directory under " +
          spill_dir_);
    }
    private_dir_ = std::move(pattern);
    spills_.resize(parts);
    for (size_t p = 0; p < parts; ++p) {
      spills_[p].path = private_dir_ + "/" + std::to_string(p) + ".bin";
      spills_[p].file = std::fopen(spills_[p].path.c_str(), "wb+");
      if (spills_[p].file == nullptr) {
        throw std::runtime_error("StreamBulkLoader: cannot create spill " +
                                 spills_[p].path);
      }
    }
    const uint64_t batch_budget = std::max<uint64_t>(budget_ / 4, 1 << 20);
    std::vector<Object> batch;
    std::vector<uint64_t> batch_oids;
    uint64_t batch_bytes = 0;
    source_.Reset();
    Object object;
    uint64_t oid = 0;
    for (;;) {
      const bool more = source_.Next(&object, &oid);
      if (more) {
        batch_bytes += Node::LeafEntrySize(object);
        batch.push_back(std::move(object));
        batch_oids.push_back(oid);
      }
      if (!batch.empty() && (!more || batch_bytes >= batch_budget)) {
        AssignAndSpill(batch, batch_oids);
        batch.clear();
        batch_oids.clear();
        batch_bytes = 0;
      }
      if (!more) {
        break;
      }
    }
  }

  void AssignAndSpill(const std::vector<Object>& batch,
                      const std::vector<uint64_t>& batch_oids) {
    std::vector<uint32_t> best(batch.size());
    const auto assign = [&](size_t i) {
      uint32_t best_p = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t p = 0; p < seeds_.size(); ++p) {
        const double d = metric_(seeds_[p], batch[i]);
        if (d < best_d) {
          best_d = d;
          best_p = static_cast<uint32_t>(p);
        }
      }
      best[i] = best_p;
    };
    if (pool_ != nullptr && batch.size() >= kParallelAssignBatch) {
      pool_->ParallelFor(batch.size(), assign);
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        assign(i);
      }
    }
    // Sequential, order-preserving appends: the spill record order is the
    // stream order restricted to the partition, independent of scheduling.
    std::vector<uint8_t> buf;
    for (size_t i = 0; i < batch.size(); ++i) {
      buf.clear();
      ByteWriter writer(&buf);
      Traits::Serialize(batch[i], writer);
      Spill& spill = spills_[best[i]];
      const uint64_t oid = batch_oids[i];
      const uint32_t size = static_cast<uint32_t>(buf.size());
      if (std::fwrite(&oid, sizeof(oid), 1, spill.file) != 1 ||
          std::fwrite(&size, sizeof(size), 1, spill.file) != 1 ||
          std::fwrite(buf.data(), 1, buf.size(), spill.file) != buf.size()) {
        throw std::runtime_error("StreamBulkLoader: spill write failed");
      }
      ++spill.count;
    }
  }

  void ReadSpill(Spill& spill, std::vector<Object>* objects,
                 std::vector<uint64_t>* oids) const {
    objects->reserve(static_cast<size_t>(spill.count));
    oids->reserve(static_cast<size_t>(spill.count));
    if (std::fseek(spill.file, 0, SEEK_SET) != 0) {
      throw std::runtime_error("StreamBulkLoader: spill rewind failed");
    }
    std::vector<uint8_t> buf;
    for (uint64_t r = 0; r < spill.count; ++r) {
      uint64_t oid = 0;
      uint32_t size = 0;
      if (std::fread(&oid, sizeof(oid), 1, spill.file) != 1 ||
          std::fread(&size, sizeof(size), 1, spill.file) != 1) {
        throw std::runtime_error("StreamBulkLoader: spill read failed");
      }
      buf.resize(size);
      if (std::fread(buf.data(), 1, size, spill.file) != size) {
        throw std::runtime_error("StreamBulkLoader: spill read failed");
      }
      ByteReader reader(buf.data(), buf.size());
      objects->push_back(Traits::Deserialize(reader));
      oids->push_back(oid);
    }
  }

  /// Phase C: bulk-load each non-empty partition into a committed subtree.
  /// A wave of them is *staged* concurrently (bounded, so in-flight
  /// partition objects respect the budget), then committed sequentially in
  /// partition order — page allocation order, and therefore page bytes,
  /// never depend on the schedule.
  std::vector<Built> BuildPartitions(size_t parts) {
    std::vector<Built> built;
    std::vector<size_t> live;
    for (size_t p = 0; p < parts; ++p) {
      if (spills_[p].count > 0) {
        live.push_back(p);
      }
    }
    const size_t wave = std::max<size_t>(
        1, std::min<size_t>({threads_, live.size(), kMaxWave}));
    for (size_t w0 = 0; w0 < live.size(); w0 += wave) {
      const size_t cnt = std::min(wave, live.size() - w0);
      std::vector<std::vector<Object>> objects(cnt);
      std::vector<std::vector<uint64_t>> oids(cnt);
      std::vector<std::unique_ptr<Loader>> loaders(cnt);
      std::vector<StagedTree> staged(cnt);
      const auto build_one = [&](size_t k) {
        const size_t p = live[w0 + k];
        ReadSpill(spills_[p], &objects[k], &oids[k]);
        loaders[k] = std::unique_ptr<Loader>(
            new Loader(tree_, objects[k], oids[k], pool_.get(),
                       kStreamPartitionBase + p));
        staged[k] = loaders[k]->BuildStaged(loaders[k]->MakeLeafItems(),
                                            /*leaf_level=*/true);
      };
      if (pool_ != nullptr && cnt > 1) {
        pool_->ParallelFor(cnt, build_one);
      } else {
        for (size_t k = 0; k < cnt; ++k) {
          build_one(k);
        }
      }
      for (size_t k = 0; k < cnt; ++k) {
        Built b;
        b.root = loaders[k]->CommitStaged(staged[k]);
        b.router = *staged[k].root_object;  // Copy before objects[k] dies.
        b.radius = staged[k].root_radius;
        b.height = staged[k].height;
        built.push_back(std::move(b));
        stats_.distance_computations += loaders[k]->metric_.count();
        stats_.metric_nanos += loaders[k]->metric_.nanos();
        CloseAndRemove(spills_[live[w0 + k]]);
      }
    }
    return built;
  }

  /// Phase D: equalize subtree heights with single-entry routing chains
  /// (parent distance d(router, router) = 0 is exact, radius unchanged, so
  /// every structural invariant holds), then bulk-load the top structure
  /// over the partition routers.
  void Glue(std::vector<Built> built) {
    uint32_t max_h = 0;
    for (const Built& b : built) {
      max_h = std::max(max_h, b.height);
    }
    for (Built& b : built) {
      while (b.height < max_h) {
        Node chain;
        chain.is_leaf = false;
        RoutingEntry<Object> e;
        e.object = b.router;
        e.covering_radius = b.radius;
        e.parent_distance = 0.0;
        e.child = b.root;
        chain.routing_entries.push_back(std::move(e));
        const NodeId id = tree_.store_->Allocate();
        tree_.store_->Write(id, chain);
        b.root = id;
        ++b.height;
      }
    }
    if (built.size() == 1) {
      tree_.root_ = built.front().root;
      tree_.height_ = built.front().height;
      return;
    }
    std::vector<Item> items;
    items.reserve(built.size());
    for (const Built& b : built) {
      Item item;
      item.object = &b.router;
      item.child = b.root;  // Real NodeId: below the staging bias.
      item.radius = b.radius;
      item.entry_bytes = Node::RoutingEntrySize(b.router);
      if (item.entry_bytes > capacity_) {
        throw std::invalid_argument(
            "StreamBulkLoader: router exceeds node size");
      }
      items.push_back(item);
    }
    Loader glue(tree_, empty_objects_, empty_oids_, pool_.get(),
                kStreamGlue);
    StagedTree top = glue.BuildStaged(std::move(items),
                                      /*leaf_level=*/false);
    tree_.root_ = glue.CommitStaged(top);
    tree_.height_ = top.height + max_h;
    stats_.distance_computations += glue.metric_.count();
    stats_.metric_nanos += glue.metric_.nanos();
  }

  void CloseAndRemove(Spill& spill) {
    if (spill.file != nullptr) {
      std::fclose(spill.file);
      spill.file = nullptr;
      std::remove(spill.path.c_str());
    }
  }

  /// Batch size below which pool dispatch costs more than it saves.
  static constexpr size_t kParallelAssignBatch = 4096;
  /// In-flight partitions per build wave; with partitions targeted at
  /// budget/8 bytes, a full wave of 4 stays near budget/2 of object data.
  static constexpr size_t kMaxWave = 4;

  Tree& tree_;
  ObjectSource<Traits>& source_;
  std::string spill_dir_;
  /// This load's mkdtemp subdirectory of spill_dir_ (empty until spilling).
  std::string private_dir_;
  uint64_t budget_;
  CountedMetric<Metric> metric_;  ///< Counts seed-assignment distances.
  RandomEngine rng_;
  size_t capacity_ = 0;
  size_t threads_ = 1;
  std::unique_ptr<engine::ThreadPool> pool_;
  std::vector<Object> seeds_;
  std::vector<Spill> spills_;
  std::vector<Object> empty_objects_;  ///< Backing refs for the glue pass.
  std::vector<uint64_t> empty_oids_;
  BulkLoadStats stats_;
};

}  // namespace mcm

#endif  // MCM_MTREE_BULK_STREAM_H_

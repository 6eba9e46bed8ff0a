// Extension: out-of-core parallel bulk loading at scale. For each dataset
// size the harness builds the same clustered-vector index four ways —
// naive one-by-one inserts, the streaming bulk loader at 1 and at 4 build
// threads (both sequential page layout), and the bulk loader with the
// sequential layout disabled — and reports build wall time, build distance
// computations, physical write ops, index size, and the process peak RSS,
// then runs a cold-cache range workload (readahead on) against every index
// and reports logical costs plus physical read ops/pages per query, beside
// the N-MCM node/distance prediction computed from a strided-sample F̂.
//
// The queries follow the data: each size draws them from the clusters of
// its own chunks (QueriesForStream), the paper's biased query model.
//
// The emitted BENCH_bulk_scale.json carries one `facts_<case>` summary
// record per build (the build-side numbers as params) and one `q_<case>`
// case of per-query records. The `bench_compare_bulk` CTests gate on it:
// the 4-thread build must not cost more than 1.25x the 1-thread build
// (wall-clock speedup itself scales with host_cores, which the artifact
// records — on a multi-core host expect >= 2x at 4 threads), and the
// sequential layout + readahead must cut physical read ops per query
// versus the layout-off build. The `bench_model_bulk_*` CTests hold the
// N-MCM node prediction of every case at 100k within [0.8, 1.2] of the
// measured mean.
//
// The object stream is generated chunk-by-chunk, so ingest memory is
// bounded by the budget, not the dataset: peak_rss_mb in the facts records
// is the out-of-core claim, measurable because the harness never holds a
// full dataset vector.
//
// Scale knobs: MCM_BULK_SIZES (default "100000,1000000,5000000"),
//              MCM_QUERIES (default 50), MCM_INGEST_BUDGET (default 64 MiB
//              here; the library default is 256 MiB).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mcm/bench_util/experiment.h"
#include "mcm/common/env.h"
#include "mcm/common/stopwatch.h"
#include "mcm/common/table_printer.h"
#include "mcm/cost/nmcm.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/counted_metric.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_stream.h"
#include "mcm/obs/bench_observer.h"
#include "mcm/obs/telemetry.h"
#include "mcm/storage/io_stats.h"

namespace {

using mcm::FloatVector;
// Counted so the naive insert loop (which has no BulkLoadStats ledger)
// reports its build distances through the same mechanism.
using CountedL2 = mcm::CountedMetric<mcm::L2Distance>;
using Traits = mcm::VectorTraits<CountedL2>;

constexpr size_t kDim = 8;
constexpr double kRadius = 0.15;
constexpr uint64_t kSeed = 47;
constexpr int64_t kReadahead = 16;
/// Objects per generated chunk; chunk c is clustered around the centers
/// of seed kSeed + c.
constexpr size_t kChunk = 65536;

/// Resets the kernel's peak-RSS watermark so each build reports its own
/// high-water mark instead of the process maximum so far. Linux-only
/// (`echo 5 > /proc/self/clear_refs`); silently a no-op elsewhere, where
/// the peak_rss_mb column degrades to a cumulative watermark.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f != nullptr) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Process peak RSS in bytes: VmHWM (the resettable watermark) where
/// /proc exists, else ru_maxrss (KiB on Linux).
double PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long kib = 0;
      if (std::sscanf(line, "VmHWM: %ld", &kib) == 1) {
        std::fclose(f);
        return static_cast<double>(kib) * 1024.0;
      }
    }
    std::fclose(f);
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

/// Streams `n` clustered vectors without ever materializing the dataset:
/// chunks are regenerated on demand from (seed, chunk index), so Reset
/// replays the identical sequence with only one chunk resident.
class ChunkedClusteredSource final : public mcm::ObjectSource<Traits> {
 public:
  ChunkedClusteredSource(size_t n, size_t dim, uint64_t seed)
      : n_(n), dim_(dim), seed_(seed) {}

  bool Next(FloatVector* object, uint64_t* oid) override {
    if (pos_ >= n_) {
      return false;
    }
    const size_t chunk_index = pos_ / kChunk;
    if (chunk_index != loaded_chunk_) {
      const size_t first = chunk_index * kChunk;
      chunk_ = mcm::GenerateVectorDataset(
          mcm::VectorDatasetKind::kClustered, std::min(kChunk, n_ - first),
          dim_, seed_ + chunk_index);
      loaded_chunk_ = chunk_index;
    }
    *object = chunk_[pos_ % kChunk];
    *oid = pos_;
    ++pos_;
    return true;
  }

  void Reset() override { pos_ = 0; }

 private:
  size_t n_;
  size_t dim_;
  uint64_t seed_;
  size_t pos_ = 0;
  size_t loaded_chunk_ = static_cast<size_t>(-1);
  std::vector<FloatVector> chunk_;
};

struct BuildResult {
  std::unique_ptr<mcm::MTree<Traits>> tree;
  mcm::PagedNodeStore<Traits>* store = nullptr;  // Owned by the tree.
  std::string path;
  double wall_s = 0.0;
  double dists = 0.0;
  double write_ops = 0.0;
  double index_mb = 0.0;
  double peak_rss_mb = 0.0;
};

double FileMb(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return 0.0;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return static_cast<double>(size) / (1024.0 * 1024.0);
}

std::unique_ptr<mcm::PagedNodeStore<Traits>> MakeStore(
    const std::string& path, const mcm::MTreeOptions& options,
    int64_t readahead) {
  return std::make_unique<mcm::PagedNodeStore<Traits>>(
      std::make_unique<mcm::StdioPageFile>(path, options.node_size_bytes),
      options.buffer_pool_frames, /*cache_entries=*/-1, readahead);
}

BuildResult BuildStreamed(size_t n, size_t threads, bool sequential_layout,
                          int64_t budget, int64_t readahead,
                          const std::string& path) {
  mcm::MTreeOptions options;
  options.build_threads = threads;
  options.bulk_sequential_layout = sequential_layout;
  auto store = MakeStore(path, options, readahead);
  auto* paged = store.get();

  ChunkedClusteredSource source(n, kDim, kSeed);
  mcm::BulkLoadStats stats;
  ResetPeakRss();
  mcm::Stopwatch watch;
  auto tree = std::make_unique<mcm::MTree<Traits>>(
      mcm::StreamBulkLoader<Traits>::Load(source, CountedL2{}, options,
                                          std::move(store), ".", budget,
                                          &stats));
  BuildResult result;
  result.wall_s = watch.ElapsedSeconds();
  paged->Flush();
  result.tree = std::move(tree);
  result.store = paged;
  result.path = path;
  result.dists = static_cast<double>(stats.distance_computations);
  result.write_ops = static_cast<double>(paged->pool().file()->stats().writes);
  result.index_mb = FileMb(path);
  result.peak_rss_mb = PeakRssBytes() / (1024.0 * 1024.0);
  return result;
}

BuildResult BuildNaive(size_t n, const std::string& path) {
  mcm::MTreeOptions options;
  auto store = MakeStore(path, options, kReadahead);
  auto* paged = store.get();
  CountedL2 metric;  // Copies share the counter: count() sees the inserts.
  auto tree = std::make_unique<mcm::MTree<Traits>>(metric, options,
                                                   std::move(store));

  ChunkedClusteredSource source(n, kDim, kSeed);
  FloatVector object;
  uint64_t oid = 0;
  const uint64_t dists_before = metric.count();
  ResetPeakRss();
  mcm::Stopwatch watch;
  while (source.Next(&object, &oid)) {
    tree->Insert(object, oid);
  }
  BuildResult result;
  result.wall_s = watch.ElapsedSeconds();
  paged->Flush();
  result.tree = std::move(tree);
  result.store = paged;
  result.path = path;
  result.dists = static_cast<double>(metric.count() - dists_before);
  result.write_ops = static_cast<double>(paged->pool().file()->stats().writes);
  result.index_mb = FileMb(path);
  result.peak_rss_mb = PeakRssBytes() / (1024.0 * 1024.0);
  return result;
}

/// Cold-cache range workload: evicts the pool before every query so the
/// physical read pattern (batched by readahead where the layout allows)
/// is exercised per query, then reports per-query logical and physical
/// costs through the observer.
struct QueryCosts {
  mcm::MeasuredCosts logical;
  double read_ops_per_query = 0.0;
  double read_pages_per_query = 0.0;
};

QueryCosts RunQueries(BuildResult& built,
                      const std::vector<FloatVector>& queries,
                      mcm::BenchObserver* observer, const std::string& label,
                      const std::vector<std::pair<std::string, double>>&
                          params,
                      std::vector<mcm::CostPrediction> predictions) {
  QueryCosts costs;
  costs.logical.num_queries = queries.size();
  const auto before = mcm::CaptureIoStats(built.store->pool());
  const bool observing = observer != nullptr && observer->enabled();
  if (observing) {
    observer->BeginCase(label, params, std::move(predictions));
  }
  mcm::QueryTrace trace;
  for (size_t i = 0; i < queries.size(); ++i) {
    built.store->pool().EvictAll();
    const auto search = [&](mcm::QueryStats* st) {
      return built.tree->RangeSearch(queries[i], kRadius, st);
    };
    mcm::QueryStats stats;
    double latency_us = 0.0;
    const auto results =
        observing
            ? mcm::RunObservedQuery(search, i, &trace, &stats, &latency_us)
            : search(&stats);
    mcm::internal::Accumulate(stats, results.size(), &costs.logical);
    if (observing) {
      observer->RecordQuery(
          {"range", kRadius, 0, stats, results.size(), latency_us, &trace});
    }
  }
  if (observing) {
    observer->EndCase();
  }
  mcm::internal::FinishAverages(queries.size(), &costs.logical);
  const auto delta = mcm::CaptureIoStats(built.store->pool()) - before;
  if (!queries.empty()) {
    const double q = static_cast<double>(queries.size());
    costs.read_ops_per_query = static_cast<double>(delta.file.reads) / q;
    costs.read_pages_per_query =
        static_cast<double>(delta.file.read_pages) / q;
  }
  return costs;
}

/// Strided sample of the object stream for the F̂ estimate: the dataset
/// never fits in memory at the big sizes, so the histogram (and thus the
/// N-MCM prediction) is computed from up to `max_sample` objects taken
/// evenly across the stream.
std::vector<FloatVector> SampleForHistogram(size_t n, size_t max_sample) {
  const size_t stride = std::max<size_t>(1, n / max_sample);
  ChunkedClusteredSource source(n, kDim, kSeed);
  std::vector<FloatVector> sample;
  sample.reserve(std::min(n, max_sample) + 1);
  FloatVector object;
  uint64_t oid = 0;
  for (size_t i = 0; source.Next(&object, &oid); ++i) {
    if (i % stride == 0) {
      sample.push_back(std::move(object));
    }
  }
  return sample;
}

/// The query workload for a stream of `n` objects, under the paper's
/// biased query model: query i is drawn near the stream position
/// i * n / num_queries, from the clusters of the chunk holding it (that
/// chunk's seed, the query point stream), so each chunk gets queries in
/// proportion to its share of the data.
std::vector<FloatVector> QueriesForStream(size_t n, size_t num_queries) {
  const size_t chunks = std::max<size_t>(1, (n + kChunk - 1) / kChunk);
  std::vector<size_t> per_chunk(chunks, 0);
  std::vector<size_t> chunk_of(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    chunk_of[i] = i * n / num_queries / kChunk;
    ++per_chunk[chunk_of[i]];
  }
  std::vector<std::vector<FloatVector>> drawn(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    drawn[c] = mcm::GenerateVectorQueries(mcm::VectorDatasetKind::kClustered,
                                          per_chunk[c], kDim, kSeed + c);
  }
  std::vector<FloatVector> queries;
  queries.reserve(num_queries);
  std::vector<size_t> next(chunks, 0);
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back(std::move(drawn[chunk_of[i]][next[chunk_of[i]]++]));
  }
  return queries;
}

std::vector<size_t> ParseSizes(const std::string& spec) {
  std::vector<size_t> sizes;
  size_t start = 0;
  while (start < spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string token = spec.substr(start, end - start);
    if (!token.empty()) {
      sizes.push_back(static_cast<size_t>(std::stoull(token)));
    }
    start = end + 1;
  }
  return sizes;
}

long HostCores() {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return cores > 0 ? cores : 1;
}

}  // namespace

int main() {
  using namespace mcm;
  const auto sizes = ParseSizes(
      GetEnvString("MCM_BULK_SIZES", "100000,1000000,5000000"));
  const size_t num_queries =
      static_cast<size_t>(GetEnvInt("MCM_QUERIES", 50));
  const int64_t budget = GetEnvInt("MCM_INGEST_BUDGET", 64 << 20);
  const double host_cores = static_cast<double>(HostCores());

  std::cout << "== Out-of-core bulk loading at scale: naive inserts vs "
               "streamed builds (budget "
            << static_cast<double>(budget) / (1024.0 * 1024.0) << " MiB, "
            << host_cores << " core(s), "
            << num_queries << " cold-cache range(Q, " << kRadius
            << ") queries per index) ==\n\n";

  BenchObserver observer("bulk_scale");
  Stopwatch total;
  TablePrinter table({"case", "build s", "build dists", "index MB",
                      "peak RSS MB", "phys reads/q", "read pages/q",
                      "nodes/q", "N-MCM nodes", "dists/q"});

  for (const size_t n : sizes) {
    const auto queries = QueriesForStream(n, num_queries);
    // F̂ for the N-MCM prediction, from a bounded strided sample of the
    // same stream every build consumes.
    EstimatorOptions eo;
    eo.d_plus = std::sqrt(static_cast<double>(kDim));
    eo.seed = kSeed;
    const auto hist = EstimateDistanceDistribution(
        SampleForHistogram(n, 20000), L2Distance{}, eo);
    struct Config {
      std::string name;
      size_t threads;
      bool sequential_layout;
      bool naive;
      int64_t readahead;
    };
    const std::vector<Config> configs = {
        {"naive", 0, false, true, kReadahead},
        {"bulk_t1", 1, true, false, kReadahead},
        {"bulk_t4", 4, true, false, kReadahead},
        {"layout_off", 4, false, false, kReadahead},
        {"readahead_off", 4, true, false, 0},
    };
    for (const Config& config : configs) {
      const std::string label = config.name + "_" + std::to_string(n);
      const std::string path = "./mcm_bulk_scale_" + label + ".bin";
      BuildResult built =
          config.naive
              ? BuildNaive(n, path)
              : BuildStreamed(n, config.threads, config.sequential_layout,
                              budget, config.readahead, path);

      std::vector<std::pair<std::string, double>> params = {
          {"n", static_cast<double>(n)},
          {"threads", static_cast<double>(config.threads)},
          {"sequential_layout", config.sequential_layout ? 1.0 : 0.0},
          {"readahead", static_cast<double>(config.readahead)},
          {"host_cores", host_cores},
          {"budget_mb", static_cast<double>(budget) / (1024.0 * 1024.0)},
          {"build_wall_s", built.wall_s},
          {"build_dists", built.dists},
          {"phys_write_ops", built.write_ops},
          {"index_mb", built.index_mb},
          {"peak_rss_mb", built.peak_rss_mb},
      };
      // Aggregate prediction only: the glue phase's single-entry routing
      // chains make per-level attribution meaningless on spilled builds.
      const NodeBasedCostModel nmcm(hist, built.tree->CollectStats(1.0));
      std::vector<CostPrediction> predictions;
      predictions.push_back({"N-MCM", nmcm.RangeNodes(kRadius),
                             nmcm.RangeDistances(kRadius),
                             /*per_level=*/{}});
      params.push_back({"nmcm_nodes_per_query", nmcm.RangeNodes(kRadius)});
      params.push_back({"nmcm_dists_per_query", nmcm.RangeDistances(kRadius)});
      const QueryCosts costs = RunQueries(built, queries, &observer,
                                          "q_" + label, params,
                                          std::move(predictions));

      // The facts record: build-side numbers plus the measured physical
      // read pattern, for the bench_compare_bulk gates.
      params.push_back({"phys_read_ops_per_query", costs.read_ops_per_query});
      params.push_back(
          {"phys_read_pages_per_query", costs.read_pages_per_query});
      if (observer.enabled()) {
        observer.BeginCase("facts_" + label, params);
        observer.EndCase();
      }

      table.AddRow({label, TablePrinter::Num(built.wall_s, 2),
                    TablePrinter::Num(built.dists, 0),
                    TablePrinter::Num(built.index_mb, 1),
                    TablePrinter::Num(built.peak_rss_mb, 1),
                    TablePrinter::Num(costs.read_ops_per_query, 1),
                    TablePrinter::Num(costs.read_pages_per_query, 1),
                    TablePrinter::Num(costs.logical.avg_nodes, 1),
                    TablePrinter::Num(nmcm.RangeNodes(kRadius), 1),
                    TablePrinter::Num(costs.logical.avg_dists, 1)});

      built.tree.reset();  // Close the page file before removing it.
      std::remove(path.c_str());
    }
  }
  table.Print(std::cout);

  std::cout << "\nExpected shape: bulk builds cut wall time, distance "
               "computations, and physical\nread ops per query versus naive "
               "inserts (the insert-built tree scatters children\nacross "
               "pages); with >= 4 cores, bulk_t4 lands at <= 0.5x bulk_t1; "
               "readahead_off\nshows the prefetch win on the same pages; "
               "peak RSS of the streamed builds\ntracks the ingest budget "
               "(times the wave concurrency at t4, plus partition\nskew) "
               "rather than the dataset or index size.\n"
            << "Elapsed: " << TablePrinter::Num(total.ElapsedSeconds(), 1)
            << " s\n";
  return 0;
}

// Micro-benchmarks (google-benchmark): throughput of the primitive
// operations behind the paper's cost units — distance computations, the
// histogram CDF/quantile kernels used by the models, and index queries.
// These ground the Section-4.1 cost coefficients (c_CPU, c_IO) in real
// per-operation timings on the host machine.
//
// The "fast lane" suite (BM_Scalar*/BM_Kernel*/BM_Bounded*/BM_*NodeCache*)
// measures the query-path optimizations of DESIGN.md §9: dispatched SIMD
// kernels vs the naive scalar loop, the bit-parallel edit distance vs the
// row DP, a prepared per-query edit-distance evaluator vs one-shot calls,
// paged node reads decoding into recycled nodes vs fresh ones, the M-tree's
// witness bounds from a flat search path vs a refcounted chain, bounded
// early-exit evaluation, and the decoded-node cache.
// MCM_BENCH_FILTER narrows the run (it becomes --benchmark_filter), and
// with MCM_OBS=1 the main below writes the measured ns/op plus
// kernel-vs-scalar speedups to MCM_OBS_DIR/BENCH_micro_kernels.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "mcm/common/env.h"
#include "mcm/common/query_stats.h"
#include "mcm/cost/lmcm.h"
#include "mcm/cost/nmcm.h"
#include "mcm/dataset/text_datasets.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/engine/witness.h"
#include "mcm/metric/bytes.h"
#include "mcm/metric/kernels.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/node_store.h"
#include "mcm/obs/export.h"
#include "mcm/obs/metrics.h"
#include "mcm/obs/trace.h"
#include "mcm/storage/page_file.h"
#include "mcm/vptree/vptree.h"

namespace {

using namespace mcm;

constexpr uint64_t kSeed = 42;

void BM_LInfDistance(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto points = GenerateUniform(2, dim, kSeed);
  const LInfDistance metric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric(points[0], points[1]));
  }
}
BENCHMARK(BM_LInfDistance)->Arg(5)->Arg(20)->Arg(50);

void BM_L2Distance(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto points = GenerateUniform(2, dim, kSeed);
  const L2Distance metric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric(points[0], points[1]));
  }
}
BENCHMARK(BM_L2Distance)->Arg(5)->Arg(50);

void BM_BoundedEditDistance(benchmark::State& state) {
  const auto words = GenerateKeywords(64, kSeed);
  const size_t bound = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BoundedEditDistance(words[i % 64], words[(i * 7 + 13) % 64], bound));
    ++i;
  }
}
BENCHMARK(BM_BoundedEditDistance)->Arg(2)->Arg(5);

void BM_HistogramCdf(benchmark::State& state) {
  const auto data = GenerateUniform(1000, 10, kSeed);
  EstimatorOptions eo;
  eo.num_bins = 100;
  const auto hist = EstimateDistanceDistribution(data, LInfDistance{}, eo);
  double x = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.Cdf(x));
    x += 1e-4;
    if (x > 1.0) x = 0.0;
  }
}
BENCHMARK(BM_HistogramCdf);

void BM_MTreeRangeQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto data = GenerateClustered(n, 10, kSeed);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 64, 10, kSeed);
  MTreeOptions options;
  options.seed = kSeed;
  auto tree = MTree<VectorTraits<LInfDistance>>::BulkLoad(
      data, LInfDistance{}, options);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.RangeSearch(queries[i % 64], 0.15));
    ++i;
  }
}
BENCHMARK(BM_MTreeRangeQuery)->Arg(1000)->Arg(10000);

void BM_MTreeKnnQuery(benchmark::State& state) {
  const auto data = GenerateClustered(10000, 10, kSeed);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 64, 10, kSeed);
  MTreeOptions options;
  options.seed = kSeed;
  auto tree = MTree<VectorTraits<LInfDistance>>::BulkLoad(
      data, LInfDistance{}, options);
  const size_t k = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.KnnSearch(queries[i % 64], k));
    ++i;
  }
}
BENCHMARK(BM_MTreeKnnQuery)->Arg(1)->Arg(10);

void BM_MTreeBulkLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto data = GenerateClustered(n, 10, kSeed);
  MTreeOptions options;
  options.seed = kSeed;
  for (auto _ : state) {
    auto tree = MTree<VectorTraits<LInfDistance>>::BulkLoad(
        data, LInfDistance{}, options);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MTreeBulkLoad)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_MTreeInsert(benchmark::State& state) {
  const auto data = GenerateClustered(20000, 10, kSeed);
  MTreeOptions options;
  options.seed = kSeed;
  MTree<VectorTraits<LInfDistance>> tree(LInfDistance{}, options);
  size_t i = 0;
  for (auto _ : state) {
    tree.Insert(data[i % data.size()], i);
    ++i;
  }
}
BENCHMARK(BM_MTreeInsert);

void BM_VpTreeRangeQuery(benchmark::State& state) {
  const auto data = GenerateClustered(10000, 10, kSeed);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 64, 10, kSeed);
  VpTreeOptions options;
  options.arity = static_cast<size_t>(state.range(0));
  options.seed = kSeed;
  const VpTree<VectorTraits<LInfDistance>> tree(data, LInfDistance{},
                                                options);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.RangeSearch(queries[i % 64], 0.15));
    ++i;
  }
}
BENCHMARK(BM_VpTreeRangeQuery)->Arg(2)->Arg(5);

// Observability overhead check (acceptance criterion): the same range
// query with no stats, with plain counters, and with a full trace
// attached. The "no trace" path must not regress when the obs layer is
// compiled in — the trace hook is one null-pointer branch per event site.
void BM_MTreeRangeQueryTraced(benchmark::State& state) {
  const auto data = GenerateClustered(10000, 10, kSeed);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 64, 10, kSeed);
  MTreeOptions options;
  options.seed = kSeed;
  auto tree = MTree<VectorTraits<LInfDistance>>::BulkLoad(
      data, LInfDistance{}, options);
  const int mode = static_cast<int>(state.range(0));
  QueryTrace trace;
  QueryStats stats;
  if (mode == 2) stats.trace = &trace;
  size_t i = 0;
  for (auto _ : state) {
    if (mode == 2) trace.Clear();
    benchmark::DoNotOptimize(tree.RangeSearch(
        queries[i % 64], 0.15, mode == 0 ? nullptr : &stats));
    ++i;
  }
  state.SetLabel(mode == 0   ? "no stats"
                 : mode == 1 ? "counters only"
                             : "full trace");
}
BENCHMARK(BM_MTreeRangeQueryTraced)->Arg(0)->Arg(1)->Arg(2);

void BM_NmcmRangePrediction(benchmark::State& state) {
  const auto data = GenerateClustered(10000, 10, kSeed);
  MTreeOptions options;
  options.seed = kSeed;
  auto tree = MTree<VectorTraits<LInfDistance>>::BulkLoad(
      data, LInfDistance{}, options);
  EstimatorOptions eo;
  eo.num_bins = 100;
  const auto hist = EstimateDistanceDistribution(data, LInfDistance{}, eo);
  const NodeBasedCostModel model(hist, tree.CollectStats(1.0));
  double r = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.RangeNodes(r));
    r += 0.01;
    if (r > 1.0) r = 0.0;
  }
}
BENCHMARK(BM_NmcmRangePrediction);

// ---------------------------------------------------------------------------
// Query-path fast lane: scalar baselines vs the kernels. The scalar loops
// reproduce the pre-kernel metric implementations exactly (one sequential
// pass with per-element float→double casts; the row-by-row edit-distance
// DP); they are the "before" side of the speedup recorded in
// BENCH_micro_kernels.json and gated by `bench_compare_kernels`. This file
// is allowlisted by the `no-adhoc-vector-math` lint rule for that purpose.
// ---------------------------------------------------------------------------

double ScalarL2(const FloatVector& a, const FloatVector& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

double ScalarLInf(const FloatVector& a, const FloatVector& b) {
  double best = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d =
        std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    if (d > best) best = d;
  }
  return best;
}

double ScalarL1(const FloatVector& a, const FloatVector& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return sum;
}

// Rotating through many pairs keeps the benchmark honest: a single pair
// would sit in L1 cache with fully predicted branches.
std::pair<std::vector<FloatVector>, std::vector<FloatVector>> KernelPairs(
    size_t dim) {
  constexpr size_t kPairs = 64;
  auto xs = GenerateUniform(kPairs, dim, kSeed);
  auto ys = GenerateUniform(kPairs, dim, kSeed + 1);
  return {std::move(xs), std::move(ys)};
}

void BM_ScalarL2(benchmark::State& state) {
  const auto [xs, ys] = KernelPairs(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScalarL2(xs[i % 64], ys[i % 64]));
    ++i;
  }
}
BENCHMARK(BM_ScalarL2)->Arg(16)->Arg(64)->Arg(256);

void BM_KernelL2(benchmark::State& state) {
  const auto [xs, ys] = KernelPairs(static_cast<size_t>(state.range(0)));
  const size_t dim = xs[0].size();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::L2(xs[i % 64].data(), ys[i % 64].data(), dim));
    ++i;
  }
  state.SetLabel(kernels::BackendName(kernels::ActiveBackend()));
}
BENCHMARK(BM_KernelL2)->Arg(16)->Arg(64)->Arg(256);

void BM_ScalarLInf(benchmark::State& state) {
  const auto [xs, ys] = KernelPairs(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScalarLInf(xs[i % 64], ys[i % 64]));
    ++i;
  }
}
BENCHMARK(BM_ScalarLInf)->Arg(16)->Arg(64)->Arg(256);

void BM_KernelLInf(benchmark::State& state) {
  const auto [xs, ys] = KernelPairs(static_cast<size_t>(state.range(0)));
  const size_t dim = xs[0].size();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::LInf(xs[i % 64].data(), ys[i % 64].data(), dim));
    ++i;
  }
  state.SetLabel(kernels::BackendName(kernels::ActiveBackend()));
}
BENCHMARK(BM_KernelLInf)->Arg(16)->Arg(64)->Arg(256);

void BM_ScalarL1(benchmark::State& state) {
  const auto [xs, ys] = KernelPairs(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScalarL1(xs[i % 64], ys[i % 64]));
    ++i;
  }
}
BENCHMARK(BM_ScalarL1)->Arg(16)->Arg(64)->Arg(256);

void BM_KernelL1(benchmark::State& state) {
  const auto [xs, ys] = KernelPairs(static_cast<size_t>(state.range(0)));
  const size_t dim = xs[0].size();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::L1(xs[i % 64].data(), ys[i % 64].data(), dim));
    ++i;
  }
  state.SetLabel(kernels::BackendName(kernels::ActiveBackend()));
}
BENCHMARK(BM_KernelL1)->Arg(16)->Arg(64)->Arg(256);

// Plain Levenshtein DP over one heap-allocated row: the pre-kernel
// EditDistance, the "before" side of the edit-distance speedup.
size_t ScalarEditDistance(const std::string& a, const std::string& b) {
  const std::string& s = a.size() <= b.size() ? a : b;
  const std::string& t = a.size() <= b.size() ? b : a;
  std::vector<size_t> row(s.size() + 1);
  for (size_t j = 0; j <= s.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= t.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= s.size(); ++j) {
      const size_t up = row[j];
      row[j] = std::min({up + 1, row[j - 1] + 1,
                         diag + (t[i - 1] == s[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[s.size()];
}

// Keyword pairs (i, 7i + 13 mod 64) of the paper's text workload.
void BM_ScalarEditDistance(benchmark::State& state) {
  const auto words = GenerateKeywords(64, kSeed);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ScalarEditDistance(words[i % 64], words[(i * 7 + 13) % 64]));
    ++i;
  }
}
BENCHMARK(BM_ScalarEditDistance);

void BM_KernelEditDistance(benchmark::State& state) {
  const auto words = GenerateKeywords(64, kSeed);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EditDistance(words[i % 64], words[(i * 7 + 13) % 64]));
    ++i;
  }
}
BENCHMARK(BM_KernelEditDistance);

// One-shot against prepared edit distance over the same query x keyword
// pairs. Each iteration takes the next of 16 queries against all 256
// keywords, as a search takes its query against every object it reaches:
// the one-shot side calls EditDistanceMetric::DistanceWithin(q, w, bound)
// per pair, the prepared side builds q's evaluator once (metric/
// prepared.h) and calls it per keyword. Arg = the bound, -1 = none
// (operator()). ns/op is per query, i.e. per 256 distances.
struct EditQueryWorkload {
  std::vector<std::string> words = GenerateKeywords(256, kSeed);
  std::vector<std::string> queries = GenerateKeywordQueries(16, kSeed + 1);
};

void BM_ScalarEditQuery(benchmark::State& state) {
  const EditQueryWorkload w;
  const EditDistanceMetric metric;
  const bool bounded = state.range(0) >= 0;
  const auto bound = static_cast<double>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const std::string& q = w.queries[i++ % w.queries.size()];
    for (const std::string& word : w.words) {
      benchmark::DoNotOptimize(bounded ? metric.DistanceWithin(q, word, bound)
                                       : metric(q, word));
    }
  }
}
BENCHMARK(BM_ScalarEditQuery)->Arg(3)->Arg(-1);

void BM_KernelEditQuery(benchmark::State& state) {
  const EditQueryWorkload w;
  const EditDistanceMetric metric;
  const bool bounded = state.range(0) >= 0;
  const auto bound = static_cast<double>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const auto eval = metric.Prepare(w.queries[i++ % w.queries.size()]);
    for (const std::string& word : w.words) {
      benchmark::DoNotOptimize(bounded ? eval.DistanceWithin(word, bound)
                                       : eval(word));
    }
  }
}
BENCHMARK(BM_KernelEditQuery)->Arg(3)->Arg(-1);

// Node decode: the paged store's query read (PagedNodeStore::ReadShared,
// which decodes into recycled nodes) against the fresh-node decode it
// replaced. Both read the same 16-d leaf pages (24-40 entries, like a
// bulk-loaded 4 KiB leaf) through a pool that always hits.
using DecodeTraits = VectorTraits<L2Distance>;
using DecodeNode = MTreeNode<DecodeTraits>;

// The fresh-node decoder of a tag-1 leaf page: one heap vector per entry
// object, then make_shared — the "before" side of the NodeDecode speedup.
std::shared_ptr<const DecodeNode> ScalarDecodeLeaf(const uint8_t* data,
                                                   size_t size) {
  ByteReader r(data, size);
  DecodeNode node;
  node.is_leaf = (r.Get<uint8_t>() & 1) != 0;
  const uint32_t count = r.Get<uint32_t>();
  node.leaf_entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LeafEntry<FloatVector> e;
    const uint32_t dim = r.Get<uint32_t>();
    FloatVector o(dim);
    r.GetBytes(o.data(), sizeof(float) * dim);
    e.object = std::move(o);
    e.oid = r.Get<uint64_t>();
    e.parent_distance = r.Get<double>();
    node.leaf_entries.push_back(std::move(e));
  }
  return std::make_shared<const DecodeNode>(std::move(node));
}

struct DecodePages {
  std::unique_ptr<PagedNodeStore<DecodeTraits>> store;
  std::vector<NodeId> ids;
};

DecodePages MakeDecodePages() {
  constexpr size_t kPages = 64;
  const auto data = GenerateClustered(kPages * 40, 16, kSeed);
  DecodePages pages;
  pages.store = std::make_unique<PagedNodeStore<DecodeTraits>>(
      std::make_unique<InMemoryPageFile>(4096), /*pool_frames=*/kPages,
      /*cache_entries=*/0);
  size_t next = 0;
  for (size_t p = 0; p < kPages; ++p) {
    DecodeNode leaf;
    const size_t count = 24 + (p * 7) % 17;
    for (size_t i = 0; i < count; ++i, ++next) {
      leaf.leaf_entries.push_back({data[next], next, 0.5, {}});
    }
    pages.ids.push_back(pages.store->Allocate());
    pages.store->Write(pages.ids.back(), leaf);
  }
  return pages;
}

void BM_ScalarNodeDecode(benchmark::State& state) {
  const DecodePages pages = MakeDecodePages();
  const size_t page_size = pages.store->file().page_size();
  size_t i = 0;
  for (auto _ : state) {
    const PageGuard guard =
        pages.store->pool().Fetch(pages.ids[i % pages.ids.size()]);
    const auto node = ScalarDecodeLeaf(guard.data(), page_size);
    benchmark::DoNotOptimize(node->leaf_entries.data());
    ++i;
  }
}
BENCHMARK(BM_ScalarNodeDecode);

void BM_KernelNodeDecode(benchmark::State& state) {
  const DecodePages pages = MakeDecodePages();
  QueryStats st;
  size_t i = 0;
  for (auto _ : state) {
    const auto node =
        pages.store->ReadShared(pages.ids[i % pages.ids.size()], &st);
    benchmark::DoNotOptimize(node->leaf_entries.data());
    ++i;
  }
}
BENCHMARK(BM_KernelNodeDecode);

// Witness guard: the M-tree's per-entry witness bound and avoided/computed
// decision over the 32 entries of one leaf at level 4, below a 3-link
// path (depths 0, 1, 2), at range(Q, 3). The scalar side runs the
// refcounted chain the search path replaced, kept here as the "before"
// side of the WitnessGuard speedup: a chain copy per visit (the frontier
// pop) and, per entry, a walk over its links through a stored(depth)
// callback returning [lo, hi] intervals. The kernel side decides as the
// search does: the parent-distance filter first, then, for entries it
// keeps, WitnessWindow::LowerBound over the ancestors above the parent,
// loaded once per visit. Both sides avoid the same entries. ns/op is per
// leaf visit, i.e. per 32 guards.
struct WitnessGuardWorkload {
  std::vector<LeafEntry<double>> entries;
  std::vector<double> query_distances = {6.0, 4.5, 3.5};  // depths 0..2
  double bound = 3.0;
  int capacity = engine::kDefaultWitnessCapacity;

  WitnessGuardWorkload() {
    std::mt19937_64 rng(kSeed);
    std::uniform_real_distribution<double> stored(0.0, 8.0);
    for (uint64_t i = 0; i < 32; ++i) {
      entries.push_back({0.0, i, stored(rng), {stored(rng), stored(rng)}});
    }
  }
};

struct ChainInterval {
  double lo = std::numeric_limits<double>::quiet_NaN();
  double hi = std::numeric_limits<double>::quiet_NaN();
  bool known() const { return !std::isnan(lo) && !std::isnan(hi); }
};

struct ChainLink {
  uint64_t ref = 0;
  double query_distance = 0.0;
  std::shared_ptr<const ChainLink> next;
};

template <typename StoredFn>
double ChainLowerBound(const std::shared_ptr<const ChainLink>& chain,
                       int capacity, StoredFn&& stored) {
  double lb = 0.0;
  const ChainLink* link = chain.get();
  for (int i = 0; i < capacity && link != nullptr;
       ++i, link = link->next.get()) {
    const ChainInterval iv = stored(link->ref);
    if (!iv.known()) continue;
    if (link->query_distance - iv.hi > lb) lb = link->query_distance - iv.hi;
    if (iv.lo - link->query_distance > lb) lb = iv.lo - link->query_distance;
  }
  return lb;
}

void BM_ScalarWitnessGuard(benchmark::State& state) {
  const WitnessGuardWorkload w;
  constexpr uint64_t kLevel = 4;
  std::shared_ptr<const ChainLink> path;
  for (uint64_t depth = 0; depth < w.query_distances.size(); ++depth) {
    path = std::make_shared<const ChainLink>(
        ChainLink{depth, w.query_distances[depth], path});
  }
  for (auto _ : state) {
    const std::shared_ptr<const ChainLink> chain = path;
    benchmark::DoNotOptimize(chain);
    int avoided = 0;
    for (const auto& e : w.entries) {
      const auto stored = [&](uint64_t ref) {
        if (ref == kLevel - 2) {
          return ChainInterval{e.parent_distance, e.parent_distance};
        }
        if (ref < e.ancestor_distances.size()) {
          return ChainInterval{e.ancestor_distances[ref],
                               e.ancestor_distances[ref]};
        }
        return ChainInterval{};
      };
      avoided += ChainLowerBound(chain, w.capacity, stored) > w.bound;
    }
    benchmark::DoNotOptimize(avoided);
  }
}
BENCHMARK(BM_ScalarWitnessGuard);

void BM_KernelWitnessGuard(benchmark::State& state) {
  const WitnessGuardWorkload w;
  constexpr uint32_t kLevel = 4;
  engine::WitnessPath path(kLevel);
  uint32_t link = engine::WitnessPath::kNoLink;
  for (const double d : w.query_distances) link = path.Append(link, d);
  const double parent_query_distance = w.query_distances.back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(link);
    const engine::WitnessWindow window =
        path.Window(link, kLevel, w.capacity);
    int avoided = 0;
    for (const auto& e : w.entries) {
      avoided += std::fabs(parent_query_distance - e.parent_distance) >
                     w.bound ||
                 window.LowerBound(e.ancestor_distances) > w.bound;
    }
    benchmark::DoNotOptimize(avoided);
  }
}
BENCHMARK(BM_KernelWitnessGuard);

// Bounded evaluation with a bound the distance usually exceeds: the win is
// how early the partial sum crosses it (range(0) is the bound in 1/100ths
// of the expected distance, so Arg(50) aborts about halfway).
void BM_BoundedL2(benchmark::State& state) {
  const auto [xs, ys] = KernelPairs(256);
  const double full = kernels::L2(xs[0].data(), ys[0].data(), 256);
  const double bound = full * static_cast<double>(state.range(0)) / 100.0;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::L2Within(xs[i % 64].data(), ys[i % 64].data(), 256, bound));
    ++i;
  }
}
BENCHMARK(BM_BoundedL2)->Arg(10)->Arg(50)->Arg(200);

// Decoded-node cache: the same paged M-tree range workload with the cache
// off (every visit re-deserializes the page) and on (hot nodes decode
// once). Pool is large enough that page bytes always hit — the delta
// isolates Node::Deserialize.
void BM_PagedRangeQueryNodeCache(benchmark::State& state) {
  const auto data = GenerateClustered(10000, 10, kSeed);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 64, 10, kSeed);
  MTreeOptions options;
  options.seed = kSeed;
  const auto cache_entries = static_cast<int64_t>(state.range(0));
  auto store = std::make_unique<PagedNodeStore<VectorTraits<LInfDistance>>>(
      std::make_unique<InMemoryPageFile>(options.node_size_bytes),
      /*pool_frames=*/4096, cache_entries);
  auto tree = MTree<VectorTraits<LInfDistance>>::BulkLoad(
      data, LInfDistance{}, options, std::move(store));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.RangeSearch(queries[i % 64], 0.15));
    ++i;
  }
  state.SetLabel(cache_entries == 0 ? "cache off" : "cache on");
}
BENCHMARK(BM_PagedRangeQueryNodeCache)->Arg(0)->Arg(4096);

// Phase-timer overhead contract (DESIGN.md §10): the same paged range
// workload with observability off (timers compile down to one cached
// branch per span) and on (every node visit pays two clock reads). The
// ns/op delta between Arg(0) and Arg(1) is the telemetry tax; the
// acceptance bar is < 2%.
void BM_PagedRangeQueryObsToggle(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  const bool obs_was_on = ObsEnabled();
  const auto data = GenerateClustered(10000, 10, kSeed);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 64, 10, kSeed);
  MTreeOptions options;
  options.seed = kSeed;
  auto store = std::make_unique<PagedNodeStore<VectorTraits<LInfDistance>>>(
      std::make_unique<InMemoryPageFile>(options.node_size_bytes),
      /*pool_frames=*/4096);
  auto tree = MTree<VectorTraits<LInfDistance>>::BulkLoad(
      data, LInfDistance{}, options, std::move(store));
  SetObsEnabledForTesting(obs_on);
  size_t i = 0;
  for (auto _ : state) {
    QueryStats stats;
    benchmark::DoNotOptimize(
        tree.RangeSearch(queries[i % 64], 0.15, &stats));
    ++i;
  }
  SetObsEnabledForTesting(obs_was_on);
  state.SetLabel(obs_on ? "obs on" : "obs off");
}
BENCHMARK(BM_PagedRangeQueryObsToggle)->Arg(0)->Arg(1);

void BM_NmcmNnPrediction(benchmark::State& state) {
  const auto data = GenerateClustered(10000, 10, kSeed);
  MTreeOptions options;
  options.seed = kSeed;
  auto tree = MTree<VectorTraits<LInfDistance>>::BulkLoad(
      data, LInfDistance{}, options);
  EstimatorOptions eo;
  eo.num_bins = 100;
  const auto hist = EstimateDistanceDistribution(data, LInfDistance{}, eo);
  const NodeBasedCostModel model(hist, tree.CollectStats(1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.NnNodes(1));
  }
}
BENCHMARK(BM_NmcmNnPrediction)->Unit(benchmark::kMillisecond);

/// Captures per-benchmark timings while still printing the console table.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      ns_per_op_[run.benchmark_name()] = run.GetAdjustedRealTime();
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, double>& ns_per_op() const {
    return ns_per_op_;
  }

 private:
  std::map<std::string, double> ns_per_op_;
};

/// Emits MCM_OBS_DIR/BENCH_micro_kernels.json: one meta record, one metric
/// record with the raw ns/op per benchmark, and one with the
/// kernel-vs-scalar speedups (same name suffix: "BM_KernelL2/64" pairs
/// with "BM_ScalarL2/64").
void EmitBenchJson(const std::map<std::string, double>& ns_per_op) {
  const std::string dir = GetEnvString("MCM_OBS_DIR", ".");
  JsonlWriter writer(dir + "/BENCH_micro_kernels.json");
  if (!writer.ok()) return;

  JsonObjectBuilder meta;
  meta.Add("record", "meta");
  meta.Add("bench", "micro_kernels");
  meta.Add("schema_version", 1);
  meta.Add("trace_capacity", 0);
  writer.WriteLine(meta.Build());

  JsonObjectBuilder timings;
  for (const auto& [name, ns] : ns_per_op) {
    timings.Add(name, ns);
  }
  JsonObjectBuilder timing_record;
  timing_record.Add("record", "metric");
  timing_record.Add("bench", "micro_kernels");
  timing_record.AddRaw("data", timings.Build());
  writer.WriteLine(timing_record.Build());

  JsonObjectBuilder speedups;
  speedups.Add("backend",
               kernels::BackendName(kernels::ActiveBackend()));
  for (const auto& [name, ns] : ns_per_op) {
    const std::string prefix = "BM_Kernel";
    if (name.compare(0, prefix.size(), prefix) != 0 || ns <= 0.0) continue;
    const std::string scalar_name = "BM_Scalar" + name.substr(prefix.size());
    const auto scalar = ns_per_op.find(scalar_name);
    if (scalar == ns_per_op.end()) continue;
    speedups.Add("speedup_" + name.substr(prefix.size()),
                 scalar->second / ns);
  }
  JsonObjectBuilder speedup_record;
  speedup_record.Add("record", "metric");
  speedup_record.Add("bench", "micro_kernels");
  speedup_record.AddRaw("data", speedups.Build());
  writer.WriteLine(speedup_record.Build());
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): injects MCM_BENCH_FILTER as
// --benchmark_filter (google-benchmark reads no environment variables of
// its own, and the ctest harness cannot pass argv through
// check_bench_json.py --run), and emits the fast-lane BENCH JSON when
// observability is on.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  const std::string filter = GetEnvString("MCM_BENCH_FILTER", "");
  std::string filter_arg;
  if (!filter.empty()) {
    filter_arg = "--benchmark_filter=" + filter;
    args.push_back(filter_arg.data());
  }
  const std::string min_time = GetEnvString("MCM_BENCH_MIN_TIME", "");
  std::string min_time_arg;
  if (!min_time.empty()) {
    min_time_arg = "--benchmark_min_time=" + min_time;
    args.push_back(min_time_arg.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (ObsEnabled()) {
    EmitBenchJson(reporter.ns_per_op());
  }
  return 0;
}

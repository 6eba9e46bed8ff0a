// Layer-separating benchmark of the mcm library: three seeded workloads
// that each load one layer (storage, metric, cost model + shard routing),
// driven only through the library's public API, with every answer checked
// against LinearScan. See NOTES.md for why each workload exists and how the
// per-layer metrics map onto the end-to-end ones.
//
//   perfbench --workload paged_vec|text_edit|sharded_vec --seed N
//             --seconds S --trace 0|1 --tmp DIR --trace-dir DIR [--smoke]
//
// stdout: a {"meta": ...} line, a {"counts": ...} line of deterministic
// per-seed counts, then the result object as the last line. With --trace 0
// the result carries the end-to-end metrics, with --trace 1 the per-layer
// metrics of a separate traced run.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "mcm/baseline/linear_scan.h"
#include "mcm/bench_util/experiment.h"
#include "mcm/cost/nmcm.h"
#include "mcm/dataset/text_datasets.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/engine/executor.h"
#include "mcm/metric/kernels.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/bulk_stream.h"
#include "mcm/mtree/mtree.h"
#include "mcm/mtree/persist.h"
#include "mcm/obs/export.h"
#include "mcm/obs/metrics.h"
#include "mcm/shard/router.h"
#include "mcm/shard/sharded_index.h"
#include "tracing.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kBatchThreads = 2;
// k-NN queries per batch chunk: ten per worker, so a chunk loses about half
// a query per worker to its tail while its fastest run, like a query's, can
// be taken over many short samples.
constexpr size_t kBatchChunk = 20;
// Set-ups per measured run, spread over the sweep; their median is setup_s.
constexpr size_t kSetups = 8;
constexpr int kWitnessCapacity = 8;  // The library default, set explicitly.
// F̂ for the vector radii F̂⁻¹(c/n): c/n is a 2e-4 quantile, so 100 bins
// put it inside the first bin and 200k pairs leave ~40 below it; the
// radius, and with it the result count, then wanders 15-25 % by seed.
constexpr size_t kRadiusBins = 1000;
constexpr size_t kRadiusPairs = 500000;

using L2Traits = mcm::VectorTraits<mcm::L2Distance>;
using TimedL2 = TimedMetric<mcm::L2Distance, mcm::FloatVector>;
using TimedL2Traits = mcm::VectorTraits<TimedL2>;
using EditTraits = mcm::StringTraits<mcm::EditDistanceMetric>;
using TimedEdit = TimedMetric<mcm::EditDistanceMetric, std::string>;
using TimedEditTraits = mcm::StringTraits<TimedEdit>;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string tmp_parent = ".";
  std::string trace_dir = ".";
};

/// Sums of QueryStats over one op type of the verification pass.
struct QueryCounts {
  double queries = 0, nodes = 0, dists = 0, avoided = 0, pruned = 0;
  double hits = 0, misses = 0, phys_reads = 0, results = 0;

  void Add(const mcm::QueryStats& st, double phys, size_t num_results) {
    queries += 1;
    nodes += static_cast<double>(st.nodes_accessed);
    dists += static_cast<double>(st.distance_computations);
    avoided += static_cast<double>(st.distance_calcs_avoided_by_witness);
    pruned += static_cast<double>(st.nodes_pruned);
    hits += static_cast<double>(st.buffer_hits);
    misses += static_cast<double>(st.buffer_misses);
    phys_reads += phys;
    results += static_cast<double>(num_results);
  }
  double Per(double v) const { return Ratio(v, queries); }
};

/// Traced layer times of one query at its fastest traced pass. The
/// separately timed plan call keeps its own minimum over passes.
struct TracedSample {
  double op_us = kInf, query_us = kInf, metric_us = 0, storage_us = 0;
  double plan_us = kInf;
  uint64_t metric_calls = 0, storage_calls = 0;
};

/// Everything one run measures; turned into metrics at the end.
struct Report {
  Tally tally;
  mcm::JsonObjectBuilder meta;
  mcm::JsonObjectBuilder counts;
  SweepResult sweep;
  double peak_rss_mb = 0;
  double index_bytes_per_object = 0;
  double model_nodes_acc = 0, model_dists_acc = 0, knn_nodes_acc = 0;
  QueryCounts range, knn;
  double page_writes_per_insert = 0, nodes_per_insert = 0;
  double build_dists = 0;
  double dispatched_range = 0, skipped_range = 0;
  double dispatched_knn = 0, skipped_knn = 0;
  // Traced run only.
  double build_s = 0, save_s = 0, open_s = 0, histogram_s = 0;
  std::vector<TracedSample> traced_range, traced_knn;
  double phase_storage_frac = 0, phase_metric_frac = 0;
  double tick_ns = 0;
  SpanLog spans;
};

// ---------------------------------------------------------------------------
// Sweep construction.

template <typename Call>
OpResult TimedQuery(const Call& call, const Answer& want) {
  OpResult r;
  try {
    const Clock::time_point t0 = Clock::now();
    const auto got = call();
    r.us = MicrosBetween(t0, Clock::now());
    r.ok = SameAnswer(got, want);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: query failed: " << e.what() << "\n";
    r = {kInf, false};
  }
  return r;
}

/// Reference answers of the verification pass, per op type.
struct References {
  std::vector<Answer> range, knn;
};

template <typename Index, typename Object>
void AddQueries(SweepSpec* spec, const Index& index,
                const std::vector<Object>& rq, double radius,
                const std::vector<Object>& kq, size_t k,
                const References& ref) {
  spec->num_range = rq.size();
  spec->num_knn = kq.size();
  spec->range = [&index, &rq, radius, &ref](size_t i) {
    return TimedQuery([&] { return index.RangeSearch(rq[i], radius); },
                      ref.range[i]);
  };
  spec->knn = [&index, &kq, k, &ref](size_t i) {
    return TimedQuery([&] { return index.KnnSearch(kq[i], k); }, ref.knn[i]);
  };
}

/// The k-NN batch: one BatchExecutor of kBatchThreads workers, and the
/// query set cut into chunks of about kBatchChunk queries. Each chunk run
/// pins the workers to the CPU pair it is given (PinPair), and the sweep
/// keeps each chunk's fastest run over its passes, which rotate it through
/// the pairs.
template <typename Index, typename Object>
void AddBatch(SweepSpec* spec, const Index& index,
              const std::vector<Object>& kq, size_t k, const References& ref) {
  struct Rig {
    std::unique_ptr<mcm::engine::BatchExecutor<Index>> executor;
    std::vector<pid_t> workers;  // The threads the executor started.
    CpuCycler cycler;
    std::vector<std::vector<Object>> chunks;
  };
  auto rig = std::make_shared<Rig>();
  mcm::engine::ExecutorOptions eopts;
  eopts.num_threads = kBatchThreads;
  const std::vector<pid_t> before = ThreadIds();
  rig->executor =
      std::make_unique<mcm::engine::BatchExecutor<Index>>(index, eopts);
  for (const pid_t tid : ThreadIds()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      rig->workers.push_back(tid);
    }
  }
  const size_t num_chunks = std::max<size_t>(1, kq.size() / kBatchChunk);
  for (size_t c = 0; c < num_chunks; ++c) {
    rig->chunks.emplace_back(
        kq.begin() + BatchChunkBegin(c, num_chunks, kq.size()),
        kq.begin() + BatchChunkBegin(c + 1, num_chunks, kq.size()));
  }
  spec->batch_chunks = num_chunks;
  spec->batch_workers = kBatchThreads;
  spec->batch = [rig, k, &ref, n = kq.size()](size_t c, size_t pair,
                                              double* wall_s,
                                              double* mean_us) {
    try {
      const auto& chunk = rig->chunks[c];
      rig->cycler.PinPair(pair, rig->workers);
      const auto batch = rig->executor->KnnSearchBatch(chunk, k);
      *wall_s = batch.wall_seconds;
      *mean_us = Mean(batch.latencies_us);
      const size_t first = BatchChunkBegin(c, rig->chunks.size(), n);
      bool ok = batch.results.size() == chunk.size();
      for (size_t i = 0; ok && i < chunk.size(); ++i) {
        ok = SameAnswer(batch.results[i], ref.knn[first + i]);
      }
      return ok;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: batch failed: " << e.what() << "\n";
      return false;
    }
  };
}

/// A traced query: op span (the bench's call site) around the library's
/// query span, with the metric and storage clocks read as per-query
/// aggregates. `plan` (sharded only) times the router's public plan call
/// on the same input after the query — the router runs the same plan
/// internally, which cannot be intercepted from outside.
template <typename Call>
OpResult TracedQuery(const Call& call, const Answer& want,
                     const std::function<void(size_t)>& plan, size_t i,
                     long qid, const char* name, SpanLog* log,
                     TracedSample* best) {
  OpResult r;
  TracedSample s;
  s.plan_us = 0.0;
  try {
    t_metric_clock = {};
    t_storage_clock = {};
    const size_t op = log->Begin("bench.op", -1, qid);
    size_t q = 0;
    {
      q = log->Begin(name, static_cast<long>(op), qid);
      const Clock::time_point t0 = Clock::now();
      const auto got = call();
      s.query_us = MicrosBetween(t0, Clock::now());
      log->End(q);
      r.ok = SameAnswer(got, want);
    }
    log->End(op);
    s.op_us = log->Duration(op);
    s.metric_us = static_cast<double>(t_metric_clock.ns) * 1e-3;
    s.metric_calls = t_metric_clock.calls;
    s.storage_us = static_cast<double>(t_storage_clock.ns) * 1e-3;
    s.storage_calls = t_storage_clock.calls;
    log->Aggregate("metric.distance", static_cast<long>(q), qid, s.metric_us,
                   s.metric_calls);
    log->Aggregate("storage.read", static_cast<long>(q), qid, s.storage_us,
                   s.storage_calls);
    if (plan) {
      const size_t p = log->Begin("cost.plan.separate_call",
                                  static_cast<long>(op), qid);
      plan(i);
      log->End(p);
      s.plan_us = log->Duration(p);
    }
    r.us = s.query_us;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: traced query failed: " << e.what() << "\n";
    return {kInf, false};
  }
  const double plan_us = std::min(best->plan_us, s.plan_us);
  if (s.query_us < best->query_us) *best = s;
  best->plan_us = plan_us;
  return r;
}

/// The traced spec: range and k-NN only, each query recorded at its fastest
/// pass. It runs in the same sweep as the untraced spec, a pass of each per
/// round, so obs.trace_overhead_frac compares per-query minima taken over
/// the same host phases. `plan_range` / `plan_knn` time the router's plan
/// calls.
template <typename Index, typename Object>
SweepSpec TracedQueries(const Index& index, const std::vector<Object>& rq,
                        double radius, const std::vector<Object>& kq,
                        size_t k, const References& ref, const char* span,
                        Report* rep, std::function<void(size_t)> plan_range,
                        std::function<void(size_t)> plan_knn) {
  rep->traced_range.assign(rq.size(), TracedSample{});
  rep->traced_knn.assign(kq.size(), TracedSample{});
  SweepSpec spec;
  spec.num_range = rq.size();
  spec.num_knn = kq.size();
  spec.range = [&index, &rq, radius, &ref, rep, span, plan_range](size_t i) {
    return TracedQuery([&] { return index.RangeSearch(rq[i], radius); },
                       ref.range[i], plan_range, i, static_cast<long>(i),
                       span, &rep->spans, &rep->traced_range[i]);
  };
  spec.knn = [&index, &kq, k, &ref, rep, span, plan_knn,
              n = rq.size()](size_t i) {
    return TracedQuery([&] { return index.KnnSearch(kq[i], k); }, ref.knn[i],
                       plan_knn, i, static_cast<long>(n + i), span,
                       &rep->spans, &rep->traced_knn[i]);
  };
  return spec;
}

/// Library phase totals (MCM_OBS timers) over one interleaved pass: the
/// cross-check for the traced storage and metric shares.
template <typename Index, typename Object>
void PhaseCrossCheck(const Index& index, const std::vector<Object>& rq,
                     double radius, const std::vector<Object>& kq, size_t k,
                     Report* rep) {
  mcm::SetObsEnabled(true);
  double wall_ns = 0, storage_ns = 0, metric_ns = 0;
  auto account = [&](const mcm::QueryStats& st, Clock::time_point t0) {
    wall_ns += MicrosBetween(t0, Clock::now()) * 1e3;
    storage_ns += static_cast<double>(st.PhaseNs(mcm::QueryPhase::kPageRead) +
                                      st.PhaseNs(mcm::QueryPhase::kDecode));
    metric_ns +=
        static_cast<double>(st.PhaseNs(mcm::QueryPhase::kDistanceEval));
  };
  for (size_t i = 0; i < std::max(rq.size(), kq.size()); ++i) {
    mcm::QueryStats st;
    if (i < rq.size()) {
      const Clock::time_point t0 = Clock::now();
      (void)index.RangeSearch(rq[i], radius, &st);
      account(st, t0);
    }
    if (i < kq.size()) {
      const Clock::time_point t0 = Clock::now();
      (void)index.KnnSearch(kq[i], k, &st);
      account(st, t0);
    }
  }
  mcm::SetObsEnabled(false);
  rep->phase_storage_frac = Ratio(storage_ns, wall_ns);
  rep->phase_metric_frac = Ratio(metric_ns, wall_ns);
}

/// Verification pass for a tree-shaped index: every answer against the
/// LinearScan oracle, in the sweep's interleaved order, with the counters
/// the library returns. `phys_reads` reads the PageFile counter (0 when
/// the index is memory-resident).
template <typename Index, typename Scan, typename Object>
References Verify(const Index& index, const Scan& scan,
                  const std::vector<Object>& rq, double radius,
                  const std::vector<Object>& kq, size_t k,
                  const std::function<double()>& phys_reads, Report* rep,
                  References* got_answers = nullptr) {
  References ref;
  for (size_t i = 0; i < std::max(rq.size(), kq.size()); ++i) {
    for (int op = 0; op < 2; ++op) {
      const bool is_range = op == 0;
      if (i >= (is_range ? rq.size() : kq.size())) continue;
      const Object& q = is_range ? rq[i] : kq[i];
      const auto want =
          is_range ? scan.RangeSearch(q, radius) : scan.KnnSearch(q, k);
      bool ok = false;
      try {
        mcm::QueryStats st;
        const double before = phys_reads();
        const auto got = is_range ? index.RangeSearch(q, radius, &st)
                                  : index.KnnSearch(q, k, &st);
        (is_range ? rep->range : rep->knn)
            .Add(st, phys_reads() - before, got.size());
        ok = SameAnswer(got, ToAnswer(want));
        if (got_answers != nullptr) {
          (is_range ? got_answers->range : got_answers->knn)
              .push_back(ToAnswer(got));
        }
      } catch (const std::exception& e) {
        std::cerr << "perfbench: verification query failed: " << e.what()
                  << "\n";
      }
      rep->tally.Record(ok);
      (is_range ? ref.range : ref.knn).push_back(ToAnswer(want));
    }
  }
  return ref;
}

template <typename Object>
uint64_t Digest(const std::vector<Object>& objects, uint64_t h) {
  for (const Object& o : objects) {
    h = Fnv1a(o.data(), o.size() * sizeof(o[0]), h);
  }
  return h;
}

mcm::MTreeOptions TreeOptions() {
  mcm::MTreeOptions options;
  options.build_threads = 1;
  options.witness_capacity = kWitnessCapacity;
  return options;
}

/// The sample count behind every timing: per-op queries (each a minimum
/// over `passes`), batch passes, and set-up repetitions.
void AddSampleMeta(Report* rep, size_t range_n, size_t knn_n,
                   size_t insert_n) {
  mcm::JsonObjectBuilder samples;
  samples.Add("range_queries", range_n);
  samples.Add("knn_queries", knn_n);
  samples.Add("inserts", insert_n);
  samples.Add("passes", rep->sweep.passes);
  samples.Add("batch_chunks", rep->sweep.batch_s.size());
  samples.Add("batch_chunk_runs", rep->sweep.batch_runs);
  samples.Add("setups", rep->sweep.setup_s.size());
  samples.AddNumberArray("setup_s", rep->sweep.setup_s);
  samples.Add("measured_s", rep->sweep.measured_s);
  rep->meta.AddRaw("samples", samples.Build());
}

// ---------------------------------------------------------------------------
// paged_vec: storage-bound. A streamed, spilling build of clustered 16-d
// vectors is saved and reopened behind a 256-frame (1 MiB) buffer pool.

void RunPagedVec(const Args& args, Report* rep) {
  const size_t n = args.smoke ? 6000 : 100000;
  const size_t dim = 16;
  const size_t nq = args.smoke ? 16 : 200;
  const size_t ni = args.smoke ? 16 : 200;
  const size_t k = 10;
  const size_t pool_frames = 256;
  // About 40 % of the objects' leaf bytes: the loader must spill.
  const int64_t ingest_budget = static_cast<int64_t>(n) * 40;

  // Inputs (outside every timer).
  auto all = mcm::GenerateVectorDataset(mcm::VectorDatasetKind::kClustered,
                                        n + ni, dim, args.seed);
  const std::vector<mcm::FloatVector> fresh(all.begin() + n, all.end());
  all.resize(n);
  const std::vector<mcm::FloatVector>& data = all;
  const auto queries = mcm::GenerateVectorQueries(
      mcm::VectorDatasetKind::kClustered, 2 * nq, dim, args.seed);
  const std::vector<mcm::FloatVector> rq(queries.begin(),
                                         queries.begin() + nq);
  const std::vector<mcm::FloatVector> kq(queries.begin() + nq,
                                         queries.end());
  const double d_plus =
      mcm::shard::DeriveDPlusSample(data, mcm::L2Distance{});
  mcm::EstimatorOptions eo;
  eo.num_bins = kRadiusBins;
  eo.d_plus = d_plus;
  eo.max_pairs = kRadiusPairs;
  eo.seed = args.seed;
  const mcm::DistanceHistogram hist =
      mcm::EstimateDistanceDistribution(data, mcm::L2Distance{}, eo);
  const double radius = hist.Quantile(20.0 / static_cast<double>(n));

  mcm::MTreeOptions options = TreeOptions();
  options.buffer_pool_frames = pool_frames;
  TempDir tmp(args.tmp_parent);
  const std::string spill_dir = tmp.File("spill");
  const std::string index_path = tmp.File("index.mtree");
  std::filesystem::create_directories(spill_dir);

  // Set-up: streamed build + save to `path` + open. Spans split it in
  // traced runs.
  auto setup = [&](const std::string& path) {
    std::optional<mcm::MTree<L2Traits>> tree;
    mcm::BulkLoadStats bstats;
    {
      mcm::VectorObjectSource<L2Traits> source(data);
      const size_t b = rep->spans.Begin("mtree.build");
      auto built = mcm::StreamBulkLoader<L2Traits>::Load(
          source, mcm::L2Distance{}, options, nullptr, spill_dir,
          ingest_budget, &bstats);
      rep->spans.End(b);
      const size_t s = rep->spans.Begin("mtree.save");
      mcm::SaveMTree(built, path);
      rep->spans.End(s);
      rep->build_s = rep->spans.Duration(b) * 1e-6;
      rep->save_s = rep->spans.Duration(s) * 1e-6;
    }
    const size_t o = rep->spans.Begin("mtree.open");
    tree.emplace(mcm::OpenMTree<L2Traits>(path, mcm::L2Distance{}, options));
    rep->spans.End(o);
    rep->open_s = rep->spans.Duration(o) * 1e-6;
    rep->build_dists = static_cast<double>(bstats.distance_computations);
    return tree;
  };

  auto tree = setup(index_path);
  auto& paged = dynamic_cast<mcm::PagedNodeStore<L2Traits>&>(tree->store());
  rep->index_bytes_per_object =
      static_cast<double>(tree->store().NumNodes() * options.node_size_bytes) /
      static_cast<double>(n);

  const mcm::LinearScan<L2Traits> scan(data, mcm::L2Distance{});
  const References ref = Verify(
      *tree, scan, rq, radius, kq, k,
      [&] { return static_cast<double>(paged.file().stats().reads); }, rep);

  // Inserts: the same fresh objects replayed on a fresh copy of the saved
  // index every pass, so each insert meets the same tree and splits.
  namespace fs = std::filesystem;
  const std::string copy_path = tmp.File("insert.mtree");
  std::optional<mcm::MTree<L2Traits>> copy;
  mcm::PagedNodeStore<L2Traits>* copy_store = nullptr;
  uint64_t writes_before = 0;
  size_t nodes_before = 0;
  SweepSpec spec;
  AddQueries(&spec, *tree, rq, radius, kq, k, ref);
  spec.num_insert = ni;
  spec.insert_begin = [&] {
    copy.reset();
    fs::copy_file(index_path, copy_path, fs::copy_options::overwrite_existing);
    fs::copy_file(index_path + ".meta", copy_path + ".meta",
                  fs::copy_options::overwrite_existing);
    copy.emplace(
        mcm::OpenMTree<L2Traits>(copy_path, mcm::L2Distance{}, options));
    copy_store = &dynamic_cast<mcm::PagedNodeStore<L2Traits>&>(copy->store());
    writes_before = copy_store->file().stats().writes;
    nodes_before = copy_store->NumNodes();
  };
  spec.insert = [&](size_t j) {
    OpResult r;
    try {
      const Clock::time_point t0 = Clock::now();
      copy->Insert(fresh[j], n + j);
      r.us = MicrosBetween(t0, Clock::now());
    } catch (const std::exception& e) {
      std::cerr << "perfbench: insert failed: " << e.what() << "\n";
      r = {kInf, false};
    }
    return r;
  };
  spec.insert_end = [&] {
    try {
      copy_store->Flush();
      rep->page_writes_per_insert =
          static_cast<double>(copy_store->file().stats().writes -
                              writes_before) /
          static_cast<double>(ni);
      rep->nodes_per_insert =
          static_cast<double>(copy_store->NumNodes() - nodes_before) /
          static_cast<double>(ni);
      bool ok = copy->size() == n + ni;
      for (size_t j = 0; ok && j < ni; ++j) {
        bool found = false;
        for (const auto& r : copy->RangeSearch(fresh[j], 0.0)) {
          found = found || r.oid == n + j;
        }
        ok = found;
      }
      return ok;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: insert check failed: " << e.what() << "\n";
      return false;
    }
  };
  // Repeated set-ups write their own index; the previous one's files are
  // removed before the clock starts.
  const std::string setup_path = tmp.File("setup.mtree");
  spec.setup = [&] {
    fs::remove(setup_path);
    fs::remove(setup_path + ".meta");
    return TimedSetup([&] { return setup(setup_path); });
  };
  spec.num_setups = args.trace ? 0 : kSetups;

  // The traced run reopens the saved index the way OpenMTree does, with the
  // timing decorator between the tree and its PagedNodeStore.
  std::optional<mcm::MTree<TimedL2Traits>> traced;
  if (args.trace) {
    const auto meta = mcm::persist_internal::ReadMeta(index_path);
    auto store = std::make_unique<mcm::PagedNodeStore<TimedL2Traits>>(
        std::make_unique<mcm::StdioPageFile>(
            index_path, options.node_size_bytes,
            mcm::StdioPageFile::Mode::kOpenExisting),
        options.buffer_pool_frames);
    store->RestoreNodeCount(meta.num_nodes);
    traced.emplace(mcm::MTree<TimedL2Traits>::Attach(
        TimedL2{}, options,
        std::make_unique<TracedNodeStore<TimedL2Traits>>(std::move(store)),
        static_cast<mcm::NodeId>(meta.root), meta.num_objects, meta.height,
        (meta.flags & mcm::persist_internal::kFlagCascadeInstalled) != 0));
  }
  AddBatch(&spec, *tree, kq, k, ref);
  if (args.trace) {
    const SweepSpec traced_spec = TracedQueries(
        *traced, rq, radius, kq, k, ref, "mtree.query", rep, nullptr, nullptr);
    rep->sweep =
        RunSweeps({&spec, &traced_spec}, args.seconds, 3, &rep->tally).front();
  } else {
    rep->sweep = RunSweeps({&spec}, args.seconds, 3, &rep->tally).front();
  }
  copy.reset();
  rep->peak_rss_mb = PeakRssMb();

  const mcm::NodeBasedCostModel model(hist, tree->CollectStats(d_plus));
  rep->model_nodes_acc =
      Agreement(model.RangeNodes(radius), rep->range.Per(rep->range.nodes));
  rep->model_dists_acc = Agreement(
      model.RangeDistances(radius),
      rep->range.Per(rep->range.dists + rep->range.avoided));
  rep->knn_nodes_acc =
      Agreement(model.NnNodes(k), rep->knn.Per(rep->knn.nodes));
  if (args.trace) PhaseCrossCheck(*tree, rq, radius, kq, k, rep);

  rep->meta.Add("n", n);
  rep->meta.Add("dim", dim);
  rep->meta.Add("k", k);
  rep->meta.Add("radius", radius);
  rep->meta.Add("ingest_budget_bytes", static_cast<long>(ingest_budget));
  rep->meta.Add("spill_dir", "private mkdtemp directory");
  rep->meta.Add("pool_frames", pool_frames);
  rep->meta.Add("node_cache_entries", paged.node_cache().capacity());
  rep->meta.Add("readahead_pages", 0);
  rep->meta.Add("prefetch_issued",
                static_cast<unsigned long long>(
                    paged.pool().stats().prefetch_issued));
  rep->meta.Add("witness_capacity", tree->witness_capacity());

  const uint64_t inputs = Digest(fresh, Digest(queries, Digest(all, 0)));
  rep->counts.Add("inputs", std::to_string(inputs));
  rep->counts.Add("index_nodes", tree->store().NumNodes());
  rep->counts.Add("build_dists", rep->build_dists);
  rep->counts.Add("page_writes_per_insert", rep->page_writes_per_insert);
  rep->counts.Add("nodes_per_insert", rep->nodes_per_insert);
  AddSampleMeta(rep, nq, nq, ni);
}

// ---------------------------------------------------------------------------
// text_edit: metric-bound. Italian-like keywords under edit distance in an
// in-memory tree with the witness cascade installed.

void RunTextEdit(const Args& args, Report* rep) {
  const size_t n = args.smoke ? 1500 : 20000;
  const size_t nq = args.smoke ? 16 : 200;
  const size_t k = 5;
  const double radius = 3.0;  // The paper's Fig. 3 radius.
  const double d_plus = 25.0;

  const auto words = mcm::GenerateKeywords(n, args.seed);
  const auto queries = mcm::GenerateKeywordQueries(2 * nq, args.seed);
  const std::vector<std::string> rq(queries.begin(), queries.begin() + nq);
  const std::vector<std::string> kq(queries.begin() + nq, queries.end());
  mcm::EstimatorOptions eo;
  eo.num_bins = 25;
  eo.d_plus = d_plus;
  eo.max_pairs = 200000;
  eo.seed = args.seed;
  const mcm::DistanceHistogram hist =
      mcm::EstimateDistanceDistribution(words, mcm::EditDistanceMetric{}, eo);

  const mcm::MTreeOptions options = TreeOptions();
  auto setup = [&]() {
    mcm::BulkLoadStats bstats;
    const size_t b = rep->spans.Begin("mtree.build");
    std::optional<mcm::MTree<EditTraits>> tree(
        mcm::BulkLoader<EditTraits>::Load(words, {}, mcm::EditDistanceMetric{},
                                          options, nullptr, &bstats));
    rep->spans.End(b);
    const size_t w = rep->spans.Begin("engine.witness_install");
    tree->InstallWitnessCascade();
    rep->spans.End(w);
    rep->build_s = rep->spans.Duration(b) * 1e-6;
    rep->build_dists = static_cast<double>(bstats.distance_computations);
    return tree;
  };

  auto tree = setup();
  rep->index_bytes_per_object =
      static_cast<double>(tree->store().NumNodes() * options.node_size_bytes) /
      static_cast<double>(n);
  const mcm::LinearScan<EditTraits> scan(words, mcm::EditDistanceMetric{});
  const References ref =
      Verify(*tree, scan, rq, radius, kq, k, [] { return 0.0; }, rep);

  SweepSpec spec;
  AddQueries(&spec, *tree, rq, radius, kq, k, ref);
  spec.setup = [&] { return TimedSetup(setup); };
  spec.num_setups = args.trace ? 0 : kSetups;
  std::optional<mcm::MTree<TimedEditTraits>> traced;
  if (args.trace) {
    traced.emplace(mcm::BulkLoader<TimedEditTraits>::Load(
        words, {}, TimedEdit{}, options,
        std::make_unique<TracedNodeStore<TimedEditTraits>>(
            std::make_unique<mcm::MemoryNodeStore<TimedEditTraits>>())));
    traced->InstallWitnessCascade();
  }
  AddBatch(&spec, *tree, kq, k, ref);
  if (args.trace) {
    const SweepSpec traced_spec = TracedQueries(
        *traced, rq, radius, kq, k, ref, "mtree.query", rep, nullptr, nullptr);
    rep->sweep =
        RunSweeps({&spec, &traced_spec}, args.seconds, 3, &rep->tally).front();
  } else {
    rep->sweep = RunSweeps({&spec}, args.seconds, 3, &rep->tally).front();
  }
  rep->peak_rss_mb = PeakRssMb();

  const mcm::NodeBasedCostModel model(hist, tree->CollectStats(d_plus));
  rep->model_nodes_acc =
      Agreement(model.RangeNodes(radius), rep->range.Per(rep->range.nodes));
  rep->model_dists_acc = Agreement(
      model.RangeDistances(radius),
      rep->range.Per(rep->range.dists + rep->range.avoided));
  rep->knn_nodes_acc =
      Agreement(model.NnNodes(k), rep->knn.Per(rep->knn.nodes));
  if (args.trace) PhaseCrossCheck(*tree, rq, radius, kq, k, rep);

  rep->meta.Add("n", n);
  rep->meta.Add("k", k);
  rep->meta.Add("radius", radius);
  rep->meta.Add("witness_capacity", tree->witness_capacity());
  rep->meta.Add("node_store", "memory");
  uint64_t h = 0;
  for (const auto* set : {&words, &queries}) {
    for (const std::string& w : *set) h = Fnv1a(w.data(), w.size() + 1, h);
  }
  rep->counts.Add("inputs", std::to_string(h));
  rep->counts.Add("index_nodes", tree->store().NumNodes());
  rep->counts.Add("build_dists", rep->build_dists);
  AddSampleMeta(rep, nq, nq, 0);
}

// ---------------------------------------------------------------------------
// sharded_vec: cost-model-bound. 4 clustered in-memory shards behind the
// cost-model router, whose k-NN plan prices every shard with N-MCM.

void RunShardedVec(const Args& args, Report* rep) {
  const size_t n = args.smoke ? 4000 : 50000;
  const size_t dim = 8;
  // Range queries are cheap here, so four times as many steady their p95
  // and the model accuracy, which averages over them.
  const size_t nr = args.smoke ? 16 : 800;
  const size_t nk = args.smoke ? 16 : 200;
  const size_t k = 10;
  // 4 shards, not 16: the router plans k-NN with per-shard N-MCM integrals
  // that cost ≈ 0.6 ms per shard whatever the shard's size, so at 16 shards
  // a k-NN query took ≈ 10 ms and a run held too few passes for its
  // per-query minima, and so its p95, to settle (IQR 39 % over ten seeds).
  const size_t num_shards = 4;
  // Range queries cost ≈ 2 % of a k-NN query here: sweeping their set
  // twice per pass gives them more samples at little cost.
  const size_t range_sweeps = 2;

  // 64 clusters instead of the generator's default 10: with 10, the way the
  // shards happen to cut the clusters sets the skip rate, which swung range
  // cost and model accuracy by 30-50 % from one seed to the next.
  mcm::ClusteredSpec clusters;
  clusters.num_clusters = 64;
  auto data = mcm::GenerateClustered(n + nr + nk, dim, args.seed, clusters);
  // GenerateVectorQueries knows only the default spec. The points past n
  // are independent draws from the same mixture: the biased query model.
  const std::vector<mcm::FloatVector> queries(data.begin() + n, data.end());
  data.resize(n);
  const std::vector<mcm::FloatVector> rq(queries.begin(),
                                         queries.begin() + nr);
  const std::vector<mcm::FloatVector> kq(queries.begin() + nr,
                                         queries.end());
  mcm::EstimatorOptions eo;
  eo.num_bins = kRadiusBins;
  eo.d_plus = mcm::shard::DeriveDPlusSample(data, mcm::L2Distance{});
  eo.max_pairs = kRadiusPairs;
  eo.seed = args.seed;
  const mcm::DistanceHistogram global_f =
      mcm::EstimateDistanceDistribution(data, mcm::L2Distance{}, eo);
  const double radius = global_f.Quantile(10.0 / static_cast<double>(n));

  mcm::shard::ShardedOptions sopts;
  sopts.num_shards = num_shards;
  sopts.assignment = mcm::shard::Assignment::kClustered;
  sopts.tree = TreeOptions();
  sopts.seed = args.seed;
  mcm::shard::RouterOptions ropts;
  ropts.inflight_budget = 0.0;

  using Sharded = mcm::shard::ShardedMTree<L2Traits>;
  auto setup = [&]() {
    return std::make_unique<Sharded>(
        Sharded::Create(data, mcm::L2Distance{}, sopts));
  };

  auto index = setup();
  std::optional<mcm::shard::ShardRouter<L2Traits>> router;
  router.emplace(*index, ropts);
  size_t nonempty = 0;
  size_t nodes = 0;
  for (size_t s = 0; s < index->num_shards(); ++s) {
    nonempty += index->tree(s).size() > 0 ? 1 : 0;
    nodes += index->tree(s).store().NumNodes();
  }
  rep->index_bytes_per_object =
      static_cast<double>(nodes * sopts.tree.node_size_bytes) /
      static_cast<double>(n);

  const mcm::LinearScan<L2Traits> scan(data, mcm::L2Distance{});
  References routed;
  const References ref = Verify(*router, scan, rq, radius, kq, k,
                                [] { return 0.0; }, rep, &routed);
  // Model accuracy: the router's own plan, summed over dispatched shards,
  // against what the dispatched shards spent (pivot distances left out).
  double pred_nodes = 0, pred_dists = 0;
  for (const auto& q : rq) {
    const auto plan = router->PlanRange(q, radius);
    pred_nodes += plan.predicted_nodes;
    for (const size_t s : plan.order) {
      pred_dists += plan.decisions[s].predicted_dists;
    }
    rep->dispatched_range += static_cast<double>(plan.order.size());
    rep->skipped_range += static_cast<double>(plan.skipped);
  }
  double knn_pred = 0, knn_actual = 0;
  for (const auto& q : kq) {
    const auto report = router->ExplainKnn(q, k);
    for (const auto& row : report.rows) {
      if (row.dispatched) knn_pred += row.predicted_nodes;
    }
    knn_actual += static_cast<double>(report.actual_nodes);
    rep->dispatched_knn += static_cast<double>(report.dispatched);
    rep->skipped_knn += static_cast<double>(report.skipped);
  }
  const double pivot_dists = static_cast<double>(nonempty) * rep->range.queries;
  rep->model_nodes_acc =
      Agreement(pred_nodes / static_cast<double>(nr),
                rep->range.Per(rep->range.nodes));
  rep->model_dists_acc = Agreement(
      pred_dists / static_cast<double>(nr),
      rep->range.Per(rep->range.dists + rep->range.avoided -
                     pivot_dists));
  rep->knn_nodes_acc = Agreement(knn_pred, knn_actual);
  rep->dispatched_range /= static_cast<double>(nr);
  rep->skipped_range /= static_cast<double>(nr);
  rep->dispatched_knn /= static_cast<double>(nk);
  rep->skipped_knn /= static_cast<double>(nk);

  SweepSpec spec;
  AddQueries(&spec, *router, rq, radius, kq, k, ref);
  spec.range_sweeps = range_sweeps;
  spec.setup = [&] { return TimedSetup(setup); };
  spec.num_setups = args.trace ? 0 : kSetups;
  // The traced index: the same shards over a timing metric.
  using TimedSharded = mcm::shard::ShardedMTree<TimedL2Traits>;
  std::optional<TimedSharded> timed;
  std::optional<mcm::shard::ShardRouter<TimedL2Traits>> timed_router;
  if (args.trace) {
    timed.emplace(TimedSharded::Create(data, TimedL2{}, sopts));
    timed_router.emplace(*timed, ropts);
  }
  AddBatch(&spec, *router, kq, k, ref);
  if (args.trace) {
    SweepSpec traced_spec = TracedQueries(
        *timed_router, rq, radius, kq, k, ref, "shard.query", rep,
        [&](size_t i) { (void)timed_router->PlanRange(rq[i], radius); },
        [&](size_t i) { (void)timed_router->PlanKnn(kq[i], k); });
    traced_spec.range_sweeps = range_sweeps;
    rep->sweep =
        RunSweeps({&spec, &traced_spec}, args.seconds, 3, &rep->tally).front();
  } else {
    rep->sweep = RunSweeps({&spec}, args.seconds, 3, &rep->tally).front();
  }
  rep->peak_rss_mb = PeakRssMb();

  // The router promises answers bit-identical to the unsharded tree.
  {
    const auto flat = mcm::MTree<L2Traits>::BulkLoad(data, mcm::L2Distance{},
                                                     sopts.tree);
    for (size_t i = 0; i < nr; ++i) {
      rep->tally.Record(i < routed.range.size() &&
                        SameAnswer(flat.RangeSearch(rq[i], radius),
                                   routed.range[i]));
    }
    for (size_t i = 0; i < nk; ++i) {
      rep->tally.Record(i < routed.knn.size() &&
                        SameAnswer(flat.KnnSearch(kq[i], k), routed.knn[i]));
    }
  }

  if (args.trace) {
    // Create runs BulkLoader::Load and EstimateDistanceDistribution once
    // per shard internally; the same public calls are timed separately on
    // each shard's members with the options Create used.
    const auto& created = index->options();
    for (size_t s = 0; s < index->num_shards(); ++s) {
      const std::vector<uint64_t>& oids = index->shard_oids(s);
      std::vector<mcm::FloatVector> members;
      for (const uint64_t oid : oids) members.push_back(data[oid]);
      mcm::BulkLoadStats bstats;
      const size_t b = rep->spans.Begin("mtree.build.separate_call");
      (void)mcm::BulkLoader<L2Traits>::Load(members, oids, mcm::L2Distance{},
                                            created.tree, nullptr, &bstats);
      rep->spans.End(b);
      rep->build_s += rep->spans.Duration(b) * 1e-6;
      rep->build_dists += static_cast<double>(bstats.distance_computations);
      if (members.size() < 2) continue;
      mcm::EstimatorOptions estimate;
      estimate.num_bins = created.histogram_bins;
      estimate.d_plus = created.d_plus;
      estimate.max_pairs = created.max_histogram_pairs;
      estimate.seed = mcm::DeriveSeed(created.seed, 32 + s);
      const size_t h = rep->spans.Begin("distribution.histogram.separate_call");
      (void)mcm::EstimateDistanceDistribution(members, mcm::L2Distance{},
                                              estimate);
      rep->spans.End(h);
      rep->histogram_s += rep->spans.Duration(h) * 1e-6;
    }
    PhaseCrossCheck(*router, rq, radius, kq, k, rep);
  }

  rep->meta.Add("n", n);
  rep->meta.Add("dim", dim);
  rep->meta.Add("k", k);
  rep->meta.Add("radius", radius);
  rep->meta.Add("shards", num_shards);
  rep->meta.Add("assignment", "clustered");
  rep->meta.Add("inflight_budget", ropts.inflight_budget);
  rep->counts.Add("inputs", std::to_string(Digest(queries, Digest(data, 0))));
  rep->counts.Add("index_nodes", nodes);
  rep->counts.Add("dispatched_range", rep->dispatched_range);
  rep->counts.Add("dispatched_knn", rep->dispatched_knn);
  AddSampleMeta(rep, nr, nk, 0);
}

// ---------------------------------------------------------------------------
// Metrics.

using mcm::internal::LatencyQuantile;

void EndToEnd(const Report& rep, MetricSet* m) {
  const SweepResult& s = rep.sweep;
  m->Add("setup_s", LatencyQuantile(s.setup_s, 0.5), "s");
  m->Add("range_p50_us", LatencyQuantile(s.range_us, 0.5), "us");
  m->Add("range_p95_us", LatencyQuantile(s.range_us, 0.95), "us");
  m->Add("knn_p50_us", LatencyQuantile(s.knn_us, 0.5), "us");
  m->Add("knn_p95_us", LatencyQuantile(s.knn_us, 0.95), "us");
  m->Add("batch_qps", s.batch_qps, "queries/s");
  m->Add("peak_rss_mb", rep.peak_rss_mb, "MiB");
  m->Add("index_bytes_per_object", rep.index_bytes_per_object, "B");
  m->Add("model_nodes_acc", rep.model_nodes_acc, "fraction");
  m->Add("model_dists_acc", rep.model_dists_acc, "fraction");
}

/// Traced layer shares over both op types, with the timer cost removed:
/// each tick leaves about tick/2 inside the layer's interval and a full
/// tick inside the enclosing spans.
struct Shares {
  double op_us = 0, query_us = 0, metric_us = 0, storage_us = 0, plan_us = 0;
  double metric_calls = 0, storage_calls = 0;

  void Add(const std::vector<TracedSample>& samples, double tick_ns) {
    for (const TracedSample& s : samples) {
      if (!std::isfinite(s.query_us)) continue;
      const double mc = static_cast<double>(s.metric_calls);
      const double sc = static_cast<double>(s.storage_calls);
      const double both = (mc + sc) * tick_ns * 1e-3;
      op_us += s.op_us - both;
      query_us += s.query_us - both;
      metric_us += s.metric_us - mc * tick_ns * 0.5e-3;
      storage_us += s.storage_us - sc * tick_ns * 0.5e-3;
      plan_us += s.plan_us;
      metric_calls += mc;
      storage_calls += sc;
    }
  }
};

double MedianQueryUs(const std::vector<TracedSample>& samples) {
  std::vector<double> us;
  for (const TracedSample& s : samples) us.push_back(s.query_us);
  return LatencyQuantile(us, 0.5);
}

void PerLayer(const Report& rep, const std::string& workload, MetricSet* m) {
  const QueryCounts& r = rep.range;
  const QueryCounts& q = rep.knn;
  const bool sharded = workload == "sharded_vec";
  Shares range, knn, all;
  range.Add(rep.traced_range, rep.tick_ns);
  knn.Add(rep.traced_knn, rep.tick_ns);
  all.Add(rep.traced_range, rep.tick_ns);
  all.Add(rep.traced_knn, rep.tick_ns);
  const double nr = static_cast<double>(rep.traced_range.size());
  const double nk = static_cast<double>(rep.traced_knn.size());

  m->Add("metric.dists_per_query.range", r.Per(r.dists), "count");
  m->Add("metric.dists_per_query.knn", q.Per(q.dists), "count");
  m->Add("metric.witness_avoided_frac",
         Ratio(r.avoided + q.avoided,
               r.dists + q.dists + r.avoided + q.avoided),
         "fraction");
  m->Add("metric.ns_per_dist", Ratio(all.metric_us * 1e3, all.metric_calls),
         "ns");
  m->Add("metric.self_frac", Ratio(all.metric_us, all.op_us), "fraction");
  m->Add("storage.pool_hit_rate",
         Ratio(r.hits + q.hits, r.hits + q.hits + r.misses + q.misses),
         "fraction");
  m->Add("storage.phys_reads_per_query.range", r.Per(r.phys_reads), "count");
  m->Add("storage.phys_reads_per_query.knn", q.Per(q.phys_reads), "count");
  m->Add("storage.read_us_per_query.range", Ratio(range.storage_us, nr), "us");
  m->Add("storage.read_us_per_query.knn", Ratio(knn.storage_us, nk), "us");
  m->Add("storage.self_frac", Ratio(all.storage_us, all.op_us), "fraction");
  m->Add("storage.page_writes_per_insert", rep.page_writes_per_insert, "count");
  m->Add("mtree.nodes_per_query.range", r.Per(r.nodes), "count");
  m->Add("mtree.nodes_per_query.knn", q.Per(q.nodes), "count");
  m->Add("mtree.pruned_per_query.range", r.Per(r.pruned), "count");
  m->Add("mtree.pruned_per_query.knn", q.Per(q.pruned), "count");
  m->Add("mtree.traverse_self_frac",
         Ratio(all.query_us - all.metric_us - all.storage_us - all.plan_us,
               all.op_us),
         "fraction");
  m->Add("mtree.nodes_per_insert", rep.nodes_per_insert, "count");
  m->Add("mtree.insert_p50_us", LatencyQuantile(rep.sweep.insert_us, 0.5),
         "us");
  m->Add("mtree.insert_p95_us", LatencyQuantile(rep.sweep.insert_us, 0.95),
         "us");
  m->Add("mtree.build_s", rep.build_s, "s");
  m->Add("mtree.build_dists", rep.build_dists, "count");
  m->Add("mtree.save_s", rep.save_s, "s");
  m->Add("mtree.open_s", rep.open_s, "s");
  m->Add("cost.plan_us.range", Ratio(range.plan_us, nr), "us");
  m->Add("cost.plan_us.knn", Ratio(knn.plan_us, nk), "us");
  m->Add("cost.plan_frac.range", Ratio(range.plan_us, range.op_us), "fraction");
  m->Add("cost.plan_frac.knn", Ratio(knn.plan_us, knn.op_us), "fraction");
  m->Add("cost.knn_nodes_acc", rep.knn_nodes_acc, "fraction");
  m->Add("shard.dispatched_per_query.range", rep.dispatched_range, "count");
  m->Add("shard.dispatched_per_query.knn", rep.dispatched_knn, "count");
  m->Add("shard.skipped_per_query.range", rep.skipped_range, "count");
  m->Add("shard.skipped_per_query.knn", rep.skipped_knn, "count");
  m->Add("shard.search_us.range",
         sharded ? Ratio(range.query_us - range.plan_us, nr) : 0.0, "us");
  m->Add("shard.search_us.knn",
         sharded ? Ratio(knn.query_us - knn.plan_us, nk) : 0.0, "us");
  m->Add("engine.batch_latency_inflation", rep.sweep.batch_inflation, "ratio");
  m->Add("engine.scaling_eff", rep.sweep.scaling_eff, "fraction");
  m->Add("distribution.histogram_s", rep.histogram_s, "s");
  const double untraced =
      LatencyQuantile(rep.sweep.range_us, 0.5) +
      LatencyQuantile(rep.sweep.knn_us, 0.5);
  const double traced =
      MedianQueryUs(rep.traced_range) + MedianQueryUs(rep.traced_knn);
  m->Add("obs.trace_overhead_frac", Ratio(traced, untraced) - 1.0, "fraction");
  m->Add("obs.unattributed_frac", Ratio(all.op_us - all.query_us, all.op_us),
         "fraction");
  m->Add("obs.phase_storage_frac", rep.phase_storage_frac, "fraction");
  m->Add("obs.phase_metric_frac", rep.phase_metric_frac, "fraction");
}

void AddCounts(Report* rep) {
  const QueryCounts& r = rep->range;
  const QueryCounts& q = rep->knn;
  mcm::JsonObjectBuilder& c = rep->counts;
  c.Add("range_nodes", r.nodes);
  c.Add("range_dists", r.dists);
  c.Add("range_avoided", r.avoided);
  c.Add("range_pruned", r.pruned);
  c.Add("range_results", r.results);
  c.Add("range_phys_reads", r.phys_reads);
  c.Add("range_buffer_hits", r.hits);
  c.Add("knn_nodes", q.nodes);
  c.Add("knn_dists", q.dists);
  c.Add("knn_avoided", q.avoided);
  c.Add("knn_phys_reads", q.phys_reads);
  c.Add("model_nodes_acc", rep->model_nodes_acc);
  c.Add("model_dists_acc", rep->model_dists_acc);
  c.Add("knn_nodes_acc", rep->knn_nodes_acc);
  c.Add("index_bytes_per_object", rep->index_bytes_per_object);
}

int Usage() {
  std::cerr << "usage: perfbench --workload paged_vec|text_edit|sharded_vec "
               "--seed N --seconds S --trace 0|1 [--tmp DIR] "
               "[--trace-dir DIR] [--smoke]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--tmp") {
      args.tmp_parent = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return Usage();
    }
  }
  const std::vector<std::string> knobs = McmEnvironment();
  if (!knobs.empty()) {
    std::cerr << "perfbench: refusing to run with library knobs set:";
    for (const std::string& k : knobs) std::cerr << " " << k;
    std::cerr << "\n";
    return 3;
  }

  Report rep;
  if (args.trace) rep.tick_ns = CalibrateTickNs();
  if (args.workload == "paged_vec") {
    RunPagedVec(args, &rep);
  } else if (args.workload == "text_edit") {
    RunTextEdit(args, &rep);
  } else if (args.workload == "sharded_vec") {
    RunShardedVec(args, &rep);
  } else {
    return Usage();
  }

  rep.meta.Add("workload", args.workload);
  rep.meta.Add("seed", static_cast<unsigned long long>(args.seed));
  rep.meta.Add("trace", args.trace);
  rep.meta.Add("build_type", PERFBENCH_BUILD_TYPE);
  rep.meta.Add("compiler", PERFBENCH_COMPILER);
  rep.meta.Add("kernel_backend",
               mcm::kernels::BackendName(mcm::kernels::ActiveBackend()));
  rep.meta.Add("executor_threads", kBatchThreads);
  rep.meta.Add("build_threads", 1);
  rep.meta.Add("timer_tick_ns", rep.tick_ns);
  AddCounts(&rep);
  MetricSet metrics;
  if (args.trace) {
    PerLayer(rep, args.workload, &metrics);
    const std::string path =
        args.trace_dir + "/trace_" + args.workload + ".jsonl";
    if (!rep.spans.WriteJsonLines(path)) {
      std::cerr << "perfbench: cannot write spans to " << path << "\n";
    }
    rep.meta.Add("spans", path);
  } else {
    EndToEnd(rep, &metrics);
  }
  mcm::JsonObjectBuilder meta_line;
  meta_line.AddRaw("meta", rep.meta.Build());
  mcm::JsonObjectBuilder counts_line;
  counts_line.AddRaw("counts", rep.counts.Build());
  mcm::JsonObjectBuilder result;
  result.Add("correct", rep.tally.failed == 0 && metrics.AllFinite());
  result.Add("attempted", static_cast<unsigned long long>(rep.tally.attempted));
  result.Add("failed", static_cast<unsigned long long>(rep.tally.failed));
  result.AddRaw("metrics", metrics.Json());
  std::cout << meta_line.Build() << "\n"
            << counts_line.Build() << "\n"
            << result.Build() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

// Property tests for the bounded-evaluation protocol (metric/bounded.h):
// DistanceWithin must agree with the full metric on the verdict
// (d <= bound?) for every bound and return the bit-exact distance whenever
// it does not abort — plus the counting contract (one computation per
// call, aborted or not) and the headline invariant: threading bounded
// evaluation and prepared per-query evaluators (metric/prepared.h) through
// every index leaves distance-computation counts, witness-avoided counts,
// node-access counts, and query answers bit-identical, so the paper's
// cost-model validation is unperturbed.

#include "mcm/metric/bounded.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mcm/baseline/linear_scan.h"
#include "mcm/common/query_stats.h"
#include "mcm/common/random.h"
#include "mcm/dataset/text_datasets.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/gnat/gnat.h"
#include "mcm/metric/counted_metric.h"
#include "mcm/metric/prepared.h"
#include "mcm/metric/string_metrics.h"
#include "mcm/metric/traits.h"
#include "mcm/metric/vector_metrics.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/vptree/vptree.h"

namespace mcm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Wraps a metric and exposes ONLY operator(): BoundedDistance falls back
/// to the full evaluation, which is bit-for-bit the pre-fast-lane
/// behavior. Queries through this wrapper are the "before" baseline the
/// invariance tests compare against.
template <typename M>
struct FullOnly {
  M inner;
  double operator()(const FloatVector& a, const FloatVector& b) const {
    return inner(a, b);
  }
};

/// Exposes EditDistanceMetric's two-argument calls but not Prepare: an
/// index over it evaluates through the forwarding evaluator, i.e. the
/// one-shot calls every search made before evaluators existed.
struct HidePrepareEdit {
  EditDistanceMetric inner;
  double operator()(const std::string& a, const std::string& b) const {
    return inner(a, b);
  }
  double DistanceWithin(const std::string& a, const std::string& b,
                        double bound) const {
    return inner.DistanceWithin(a, b, bound);
  }
};

static_assert(BoundedMetric<L2Distance, FloatVector>);
static_assert(BoundedMetric<EditDistanceMetric, std::string>);
static_assert(!BoundedMetric<FullOnly<L2Distance>, FloatVector>);
static_assert(PreparableMetric<EditDistanceMetric, std::string>);
static_assert(
    PreparableMetric<CountedMetric<EditDistanceMetric>, std::string>);
static_assert(!PreparableMetric<HidePrepareEdit, std::string>);
static_assert(!PreparableMetric<L2Distance, FloatVector>);

FloatVector RandomVector(size_t dim, RandomEngine& rng) {
  FloatVector v(dim);
  for (auto& x : v) x = static_cast<float>(UniformUnit(rng));
  return v;
}

template <typename M>
void CheckVerdictAndValue(const M& metric, const FloatVector& a,
                          const FloatVector& b, double bound) {
  const double full = metric(a, b);
  const double got = metric.DistanceWithin(a, b, bound);
  // Verdict agreement: got and full fall on the same side of the bound.
  EXPECT_EQ(got <= bound, full <= bound)
      << "bound=" << bound << " full=" << full << " got=" << got;
  // Value agreement: a non-aborted evaluation is bit-exact.
  if (got <= bound || got != kInf) {
    EXPECT_EQ(got, full) << "bound=" << bound;
  }
}

TEST(BoundedVectorMetrics, AgreesWithFullMetricOnRandomPairsAndBounds) {
  auto rng = MakeEngine(101, 0);
  const L1Distance l1;
  const L2Distance l2;
  const LInfDistance linf;
  const LpDistance lp3(3.0);
  const LpDistance lp_frac(2.5);
  for (const size_t dim : {1u, 7u, 16u, 20u, 50u}) {
    for (int rep = 0; rep < 40; ++rep) {
      const auto a = RandomVector(dim, rng);
      const auto b = RandomVector(dim, rng);
      // Bounds spanning always-abort to never-abort, plus exact edges.
      const double bounds[] = {-1.0,
                               0.0,
                               UniformUnit(rng),
                               UniformUnit(rng) * dim,
                               l1(a, b),
                               l2(a, b),
                               linf(a, b),
                               kInf};
      for (const double bound : bounds) {
        CheckVerdictAndValue(l1, a, b, bound);
        CheckVerdictAndValue(l2, a, b, bound);
        CheckVerdictAndValue(linf, a, b, bound);
        CheckVerdictAndValue(lp3, a, b, bound);
        CheckVerdictAndValue(lp_frac, a, b, bound);
      }
    }
  }
}

TEST(BoundedEditMetric, AgreesWithPlainLevenshtein) {
  auto rng = MakeEngine(103, 0);
  const auto words = GenerateKeywords(128, 7);
  const EditDistanceMetric metric;
  for (int rep = 0; rep < 300; ++rep) {
    const auto& a = words[UniformIndex(rng, words.size())];
    const auto& b = words[UniformIndex(rng, words.size())];
    const double full = metric(a, b);
    const double bounds[] = {-1.0, 0.0,  1.0,  1.5,
                             full, full - 0.5, full + 2.0, kInf};
    for (const double bound : bounds) {
      const double got = metric.DistanceWithin(a, b, bound);
      EXPECT_EQ(got <= bound, full <= bound)
          << a << " / " << b << " bound=" << bound;
      if (got != kInf) {
        EXPECT_EQ(got, full);
      }
    }
  }
}

TEST(BoundedEditMetric, BandedMatchesPlainForAllBoundsOnWordPairs) {
  const auto words = GenerateKeywords(32, 11);
  for (const auto& a : words) {
    for (const auto& b : words) {
      const size_t full = EditDistance(a, b);
      for (size_t k = 0; k <= a.size() + b.size() + 1; ++k) {
        const size_t banded = BoundedEditDistance(a, b, k);
        if (full <= k) {
          EXPECT_EQ(banded, full);
        } else {
          EXPECT_GT(banded, k);
        }
      }
    }
  }
}

TEST(CountedMetric, DistanceWithinCountsExactlyOnePerCall) {
  CountedMetric<L2Distance> counted;
  const FloatVector a = {0.0f, 0.0f, 0.0f, 0.0f};
  const FloatVector b = {1.0f, 1.0f, 1.0f, 1.0f};
  EXPECT_EQ(counted.count(), 0u);
  counted(a, b);  // Full evaluation: one computation.
  EXPECT_EQ(counted.count(), 1u);
  counted.DistanceWithin(a, b, kInf);  // Not aborted: one computation.
  EXPECT_EQ(counted.count(), 2u);
  counted.DistanceWithin(a, b, 0.5);  // Aborted: STILL one computation.
  EXPECT_EQ(counted.count(), 3u);
  counted.DistanceWithin(a, b, -1.0);  // Aborted immediately: still one.
  EXPECT_EQ(counted.count(), 4u);
}

TEST(CountedMetric, ForwardsBoundedProtocolOfInnerMetric) {
  CountedMetric<L2Distance> counted;
  const FloatVector a = {0.0f, 0.0f};
  const FloatVector b = {3.0f, 4.0f};
  EXPECT_EQ(counted.DistanceWithin(a, b, 10.0), 5.0);
  EXPECT_EQ(counted.DistanceWithin(a, b, 5.0), 5.0);
  // Inner metric without the protocol: falls back to the full distance.
  CountedMetric<FullOnly<L2Distance>> full_only;
  EXPECT_EQ(full_only.DistanceWithin(a, b, 0.1), 5.0);
  EXPECT_EQ(full_only.count(), 1u);
}

// ---------------------------------------------------------------------------
// The dedicated count-invariance test (acceptance criterion): identical
// workloads through a bounded-metric index and a full-metric index must
// report bit-identical distance counts, node counts, and answers.
// ---------------------------------------------------------------------------

template <typename ResultsA, typename ResultsB>
void ExpectSameResults(const ResultsA& a, const ResultsB& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].oid, b[i].oid);
    EXPECT_EQ(a[i].distance, b[i].distance);  // Bitwise, not approx.
  }
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.distance_computations, b.distance_computations);
  EXPECT_EQ(a.distance_calcs_avoided_by_witness,
            b.distance_calcs_avoided_by_witness);
  EXPECT_EQ(a.nodes_accessed, b.nodes_accessed);
  EXPECT_EQ(a.nodes_pruned, b.nodes_pruned);
}

/// The up to `k` words within `radius` of `q`, in the engine's (distance,
/// oid) order, by a loop over the one-shot EditDistance: an oracle that
/// shares no evaluator with the indexes (the linear scan does).
std::vector<SearchResult<std::string>> BruteForceEdit(
    const std::vector<std::string>& words, const std::string& q,
    double radius, size_t k) {
  std::vector<SearchResult<std::string>> out;
  for (size_t i = 0; i < words.size(); ++i) {
    const double d = static_cast<double>(EditDistance(q, words[i]));
    if (d <= radius) out.push_back({i, words[i], d});
  }
  std::sort(out.begin(), out.end(), engine::ResultOrder<std::string>);
  if (out.size() > k) out.resize(k);
  return out;
}

TEST(CountInvariance, MTreeRangeAndKnnCountsAreBitIdentical) {
  const auto data = GenerateClustered(1500, 10, 42);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 24, 10, 42);
  MTreeOptions options;
  options.seed = 42;
  auto bounded_tree = MTree<VectorTraits<LInfDistance>>::BulkLoad(
      data, LInfDistance{}, options);
  auto full_tree =
      MTree<VectorTraits<FullOnly<LInfDistance>>>::BulkLoad(
          data, FullOnly<LInfDistance>{}, options);
  for (const auto& q : queries) {
    for (const double radius : {0.05, 0.15, 0.4}) {
      QueryStats sb, sf;
      ExpectSameResults(bounded_tree.RangeSearch(q, radius, &sb),
                        full_tree.RangeSearch(q, radius, &sf));
      ExpectSameStats(sb, sf);
    }
    for (const size_t k : {1u, 5u, 20u}) {
      QueryStats sb, sf;
      ExpectSameResults(bounded_tree.KnnSearch(q, k, &sb),
                        full_tree.KnnSearch(q, k, &sf));
      ExpectSameStats(sb, sf);
    }
  }
}

TEST(CountInvariance, MTreeOptimizedPruningCountsAreBitIdentical) {
  const auto data = GenerateClustered(1500, 10, 43);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 16, 10, 43);
  MTreeOptions options;
  options.seed = 43;
  options.pruning = PruningMode::kOptimized;
  auto bounded_tree = MTree<VectorTraits<L2Distance>>::BulkLoad(
      data, L2Distance{}, options);
  auto full_tree = MTree<VectorTraits<FullOnly<L2Distance>>>::BulkLoad(
      data, FullOnly<L2Distance>{}, options);
  for (const auto& q : queries) {
    QueryStats sb, sf;
    ExpectSameResults(bounded_tree.RangeSearch(q, 0.3, &sb),
                      full_tree.RangeSearch(q, 0.3, &sf));
    ExpectSameStats(sb, sf);
    ExpectSameResults(bounded_tree.KnnSearch(q, 10, &sb),
                      full_tree.KnnSearch(q, 10, &sf));
    ExpectSameStats(sb, sf);
  }
}

TEST(CountInvariance, VpTreeGnatAndLinearScanCountsAreBitIdentical) {
  const auto data = GenerateUniform(1200, 8, 44);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kUniform, 16, 8, 44);
  VpTreeOptions vp_options;
  vp_options.seed = 44;
  const VpTree<VectorTraits<LInfDistance>> vp_bounded(data, LInfDistance{},
                                                      vp_options);
  const VpTree<VectorTraits<FullOnly<LInfDistance>>> vp_full(
      data, FullOnly<LInfDistance>{}, vp_options);
  GnatOptions gnat_options;
  gnat_options.seed = 44;
  const Gnat<VectorTraits<LInfDistance>> gnat_bounded(data, LInfDistance{},
                                                      gnat_options);
  const Gnat<VectorTraits<FullOnly<LInfDistance>>> gnat_full(
      data, FullOnly<LInfDistance>{}, gnat_options);
  const LinearScan<VectorTraits<LInfDistance>> scan_bounded(data,
                                                            LInfDistance{});
  const LinearScan<VectorTraits<FullOnly<LInfDistance>>> scan_full(
      data, FullOnly<LInfDistance>{});
  for (const auto& q : queries) {
    QueryStats sb, sf;
    ExpectSameResults(vp_bounded.RangeSearch(q, 0.2, &sb),
                      vp_full.RangeSearch(q, 0.2, &sf));
    ExpectSameStats(sb, sf);
    ExpectSameResults(vp_bounded.KnnSearch(q, 7, &sb),
                      vp_full.KnnSearch(q, 7, &sf));
    ExpectSameStats(sb, sf);
    ExpectSameResults(gnat_bounded.RangeSearch(q, 0.2, &sb),
                      gnat_full.RangeSearch(q, 0.2, &sf));
    ExpectSameStats(sb, sf);
    ExpectSameResults(gnat_bounded.KnnSearch(q, 7, &sb),
                      gnat_full.KnnSearch(q, 7, &sf));
    ExpectSameStats(sb, sf);
    ExpectSameResults(scan_bounded.RangeSearch(q, 0.2, &sb),
                      scan_full.RangeSearch(q, 0.2, &sf));
    ExpectSameStats(sb, sf);
    ExpectSameResults(scan_bounded.KnnSearch(q, 7, &sb),
                      scan_full.KnnSearch(q, 7, &sf));
    ExpectSameStats(sb, sf);
  }
}

TEST(CountInvariance, StringMTreeCountsAreBitIdentical) {
  const auto words = GenerateKeywords(600, 45);
  MTreeOptions options;
  options.seed = 45;
  auto bounded_tree = MTree<StringTraits<EditDistanceMetric>>::BulkLoad(
      words, EditDistanceMetric{}, options);
  struct FullOnlyEdit {
    EditDistanceMetric inner;
    double operator()(const std::string& a, const std::string& b) const {
      return inner(a, b);
    }
  };
  auto full_tree = MTree<StringTraits<FullOnlyEdit>>::BulkLoad(
      words, FullOnlyEdit{}, options);

  // Prepared evaluators against the one-shot calls, index by index: each
  // index runs over CountedMetric<EditDistanceMetric> (whose Prepare wraps
  // the edit distance's) and over HidePrepareEdit (which forwards). The
  // M-tree runs with its witness cascade installed.
  const CountedMetric<EditDistanceMetric> counted;  // Copies share counts.
  using CountedTraits = StringTraits<CountedMetric<EditDistanceMetric>>;
  using HiddenTraits = StringTraits<HidePrepareEdit>;
  auto cascade_tree =
      MTree<CountedTraits>::BulkLoad(words, counted, options);
  cascade_tree.InstallWitnessCascade();
  auto hidden_cascade_tree =
      MTree<HiddenTraits>::BulkLoad(words, HidePrepareEdit{}, options);
  hidden_cascade_tree.InstallWitnessCascade();
  VpTreeOptions vp_options;
  vp_options.seed = 45;
  const VpTree<CountedTraits> vp(words, counted, vp_options);
  const VpTree<HiddenTraits> hidden_vp(words, HidePrepareEdit{},
                                       vp_options);
  GnatOptions gnat_options;
  gnat_options.seed = 45;
  const Gnat<CountedTraits> gnat(words, counted, gnat_options);
  const Gnat<HiddenTraits> hidden_gnat(words, HidePrepareEdit{},
                                       gnat_options);
  const LinearScan<CountedTraits> scan(words, counted);
  const LinearScan<HiddenTraits> hidden_scan(words, HidePrepareEdit{});

  // Same answers and counters through both metrics, answers equal to the
  // brute-force oracle, and the counted metric's ledger equal to the
  // query's counters. Returns the witness-avoided evaluations.
  const auto compare = [&](const auto& index, const auto& hidden,
                           const std::string& q) {
    uint64_t avoided = 0;
    const auto check = [&](const auto& got, const auto& want,
                           const QueryStats& st, const QueryStats& hidden_st,
                           const std::vector<SearchResult<std::string>>&
                               oracle) {
      ExpectSameResults(got, want);
      ExpectSameStats(st, hidden_st);
      ExpectSameResults(got, oracle);
      EXPECT_EQ(counted.count(), st.distance_computations);
      EXPECT_EQ(counted.avoided_count(), st.distance_calcs_avoided_by_witness);
      avoided += st.distance_calcs_avoided_by_witness;
    };
    for (const double radius : {1.0, 2.0, 4.0}) {
      QueryStats st, hidden_st;
      counted.Reset();
      const auto got = index.RangeSearch(q, radius, &st);
      check(got, hidden.RangeSearch(q, radius, &hidden_st), st, hidden_st,
            BruteForceEdit(words, q, radius, words.size()));
    }
    QueryStats st, hidden_st;
    counted.Reset();
    const auto got = index.KnnSearch(q, 5, &st);
    check(got, hidden.KnnSearch(q, 5, &hidden_st), st, hidden_st,
          BruteForceEdit(words, q, kInf, 5));
    return avoided;
  };

  // Dataset words (exact matches), unseen queries, and both sides of the
  // evaluator's 64-byte limit: the empty query and a 70-byte one fall back
  // to the one-shot functions.
  auto rng = MakeEngine(45, 1);
  std::vector<std::string> queries;
  for (int rep = 0; rep < 12; ++rep) {
    queries.push_back(words[UniformIndex(rng, words.size())]);
  }
  for (const std::string& q : GenerateKeywordQueries(4, 46)) {
    queries.push_back(q);
  }
  queries.push_back("");
  queries.push_back(std::string(70, 'a'));
  uint64_t cascade_avoided = 0;
  for (const std::string& q : queries) {
    for (const double radius : {1.0, 2.0, 4.0}) {
      QueryStats sb, sf;
      ExpectSameResults(bounded_tree.RangeSearch(q, radius, &sb),
                        full_tree.RangeSearch(q, radius, &sf));
      ExpectSameStats(sb, sf);
    }
    QueryStats sb, sf;
    ExpectSameResults(bounded_tree.KnnSearch(q, 5, &sb),
                      full_tree.KnnSearch(q, 5, &sf));
    ExpectSameStats(sb, sf);
    cascade_avoided += compare(cascade_tree, hidden_cascade_tree, q);
    compare(vp, hidden_vp, q);
    compare(gnat, hidden_gnat, q);
    compare(scan, hidden_scan, q);
  }
  // The cascade's avoided-evaluation ledger was exercised, not just zero.
  EXPECT_GT(cascade_avoided, 0u);
}

TEST(CountInvariance, StringMTreeHugeRadiusReportsTrueDistances) {
  // A radius of 2^64 or more once reached an undefined double -> size_t
  // conversion in EditDistanceMetric::DistanceWithin, and every word came
  // back at distance 1; the linear scan shares the metric, so only
  // EditDistance itself is a trustworthy oracle here.
  const std::vector<std::string> words = {"ciao", "cane", "casa", "gatto",
                                          "sole", "mare", "luna", "pane"};
  auto tree = MTree<StringTraits<EditDistanceMetric>>::BulkLoad(
      words, EditDistanceMetric{}, MTreeOptions{});
  for (const double radius : {1e20, 1e300}) {
    const auto results = tree.RangeSearch("ciao", radius);
    ASSERT_EQ(results.size(), words.size()) << radius;
    for (const auto& r : results) {
      EXPECT_EQ(r.distance,
                static_cast<double>(EditDistance("ciao", r.object)))
          << r.object << " radius " << radius;
    }
  }
}

}  // namespace
}  // namespace mcm

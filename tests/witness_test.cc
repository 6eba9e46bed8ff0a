// Unit tests for the engine's witness bounds (engine/witness.h): capacity
// resolution, the per-search witness path and its windows over the
// ancestors above the parent, triangle-inequality lower bounds, the
// avoided-evaluation charge, and the two sanctioned prune-site entry
// points, which evaluate through the query's evaluator
// (metric/prepared.h). A property test holds the parent filter followed by
// the window against a local copy of the refcounted chain, which bounded
// with the parent and the ancestors in one loop.

#include "mcm/engine/witness.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <vector>

namespace mcm {
namespace {

using engine::ChargeAvoided;
using engine::CountedDistanceWithin;
using engine::GuardedDistanceWithin;
using engine::kNoWitnessBound;
using engine::ResolveWitnessCapacity;
using engine::WitnessPath;
using engine::WitnessWindow;

// An entry's stored ancestor distances, by depth.
using Stored = std::vector<double>;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Metric over doubles that counts evaluations; DistanceWithin- and
// Prepare-free, so its evaluator forwards to the plain call.
struct AbsMetric {
  mutable int calls = 0;
  double operator()(double a, double b) const {
    ++calls;
    return std::fabs(a - b);
  }
};

// Metric that additionally keeps the avoided-evaluation ledger; its
// forwarding evaluator passes it on to the
// engine::internal::WitnessAwareEvaluator concept.
struct LedgeredMetric {
  mutable int calls = 0;
  mutable int avoided = 0;
  double operator()(double a, double b) const {
    ++calls;
    return std::fabs(a - b);
  }
  void RecordAvoided() const { ++avoided; }
};

// The query of the guarded-evaluation tests. An evaluator refers to its
// query, so it is a named object, not a temporary.
const double kQuery = 1.0;

// Number of ancestors a window consults.
uint32_t Depths(const WitnessWindow& w) { return w.parent - w.first; }

// Appends links with query distances dq[0], dq[1], ... (depths 0, 1, ...)
// below the root and returns the deepest one: the link of the routing
// object of a node at level dq.size() + 1.
uint32_t AppendPath(WitnessPath* path, const std::vector<double>& dq) {
  uint32_t link = WitnessPath::kNoLink;
  for (const double d : dq) link = path->Append(link, d);
  return link;
}

TEST(ResolveWitnessCapacityTest, ConfiguredValueWins) {
  EXPECT_EQ(ResolveWitnessCapacity(0), 0);
  EXPECT_EQ(ResolveWitnessCapacity(3), 3);
  EXPECT_EQ(ResolveWitnessCapacity(2000), 1024);  // clamped
}

TEST(ResolveWitnessCapacityTest, MinusOneDefersToEnvironment) {
  unsetenv("MCM_WITNESSES");
  EXPECT_EQ(ResolveWitnessCapacity(-1), engine::kDefaultWitnessCapacity);
  setenv("MCM_WITNESSES", "0", 1);
  EXPECT_EQ(ResolveWitnessCapacity(-1), 0);
  setenv("MCM_WITNESSES", "5", 1);
  EXPECT_EQ(ResolveWitnessCapacity(-1), 5);
  setenv("MCM_WITNESSES", "-7", 1);
  EXPECT_EQ(ResolveWitnessCapacity(-1), 0);  // clamped below
  unsetenv("MCM_WITNESSES");
}

TEST(WitnessPathTest, WindowLoadsTheNearestAncestorsByDepth) {
  // A node at level 5: its parent routing object sits at depth 3 (the
  // filter's witness), and the window holds the ancestors above it.
  WitnessPath path(5);
  const uint32_t link = AppendPath(&path, {10.0, 20.0, 30.0, 40.0});
  const WitnessWindow all = path.Window(link, 5, 8);
  ASSERT_EQ(Depths(all), 3u);
  EXPECT_EQ(all.first, 0u);
  EXPECT_EQ(all.parent, 3u);
  EXPECT_EQ(all.dq[0], 10.0);
  EXPECT_EQ(all.dq[1], 20.0);
  EXPECT_EQ(all.dq[2], 30.0);

  // Capacity 3 counts the parent: two ancestors above it.
  const WitnessWindow three = path.Window(link, 5, 3);
  EXPECT_EQ(Depths(three), 2u);
  EXPECT_EQ(three.first, 1u);
  EXPECT_EQ(three.dq[1], 20.0);
  EXPECT_EQ(three.dq[2], 30.0);
}

TEST(WitnessPathTest, BranchesShareThePrefix) {
  WitnessPath path;  // unsized: the window grows on demand
  const uint32_t root = path.Append(WitnessPath::kNoLink, 1.0);
  const uint32_t mid = path.Append(root, 2.0);
  const uint32_t left = path.Append(mid, 3.0);
  const uint32_t right = path.Append(root, 4.0);
  const uint32_t right_low = path.Append(right, 5.0);

  const WitnessWindow l = path.Window(left, 4, 8);
  ASSERT_EQ(Depths(l), 2u);
  EXPECT_EQ(l.dq[0], 1.0);
  EXPECT_EQ(l.dq[1], 2.0);
  const WitnessWindow r = path.Window(right_low, 4, 8);
  ASSERT_EQ(Depths(r), 2u);
  EXPECT_EQ(r.dq[0], 1.0);
  EXPECT_EQ(r.dq[1], 4.0);
}

TEST(WitnessPathTest, RootAndCapacityZeroConsultNothing) {
  // The root and its children have no ancestor above the parent, and
  // capacity 0 or 1 leaves the parent filter alone.
  WitnessPath path(3);
  const uint32_t top = path.Append(WitnessPath::kNoLink, 100.0);
  const uint32_t link = path.Append(top, 50.0);
  EXPECT_EQ(Depths(path.Window(WitnessPath::kNoLink, 1, 8)), 0u);
  EXPECT_EQ(Depths(path.Window(top, 2, 8)), 0u);
  EXPECT_EQ(Depths(path.Window(link, 3, 1)), 0u);
  const WitnessWindow none = path.Window(link, 3, 0);
  EXPECT_EQ(Depths(none), 0u);
  EXPECT_EQ(none.LowerBound(Stored{0.0}), kNoWitnessBound);
  EXPECT_EQ(Depths(path.Window(link, 3, 2)), 1u);
}

TEST(WitnessLowerBoundTest, TriangleBoundsFromPointDistances) {
  // d(Q, grandparent) = 5; stored d(grandparent, o) = 1 -> lb = 4. The
  // bound is symmetric: stored 9 with d(Q, grandparent) = 5 also gives 4.
  WitnessPath path;
  const uint32_t link = AppendPath(&path, {5.0, 0.5});  // level 3
  const WitnessWindow w = path.Window(link, 3, 8);
  EXPECT_DOUBLE_EQ(w.LowerBound(Stored{1.0}), 4.0);
  EXPECT_DOUBLE_EQ(w.LowerBound(Stored{9.0}), 4.0);
}

TEST(WitnessLowerBoundTest, TakesTheBestWitnessAndSkipsUnknown) {
  WitnessPath path;
  const uint32_t link = AppendPath(&path, {10.0, 4.0, 3.0, 1.0});  // level 5
  const std::vector<double> ancestors = {2.0, kNaN, 1.0};  // depth 1 unknown
  // Depth 0: |10 - 2| = 8; depth 1: NaN, skipped; depth 2: |3 - 1| = 2.
  EXPECT_DOUBLE_EQ(path.Window(link, 5, 8).LowerBound(ancestors), 8.0);
  // Capacity 2 sees only depth 2 above the parent.
  EXPECT_DOUBLE_EQ(path.Window(link, 5, 2).LowerBound(ancestors), 2.0);
  // A shorter array leaves the deeper ancestors unknown.
  EXPECT_DOUBLE_EQ(path.Window(link, 5, 8).LowerBound(Stored{kNaN}), 0.0);
  EXPECT_EQ(path.Window(link, 5, 8).LowerBound({}), kNoWitnessBound);
}

TEST(WitnessLowerBoundTest, NeverNegative) {
  WitnessPath path;
  const uint32_t link = AppendPath(&path, {1.0, 7.0});  // level 3
  EXPECT_DOUBLE_EQ(path.Window(link, 3, 8).LowerBound(Stored{1.0}), 0.0);
}

TEST(ChargeAvoidedTest, ChargesStatsAndTheEvaluatorLedger) {
  LedgeredMetric ledgered;
  AbsMetric plain;
  QueryStats st;
  ChargeAvoided(PrepareQuery(ledgered, kQuery), &st);
  ChargeAvoided(PrepareQuery(plain, kQuery), &st);
  EXPECT_EQ(st.distance_calcs_avoided_by_witness, 2u);
  EXPECT_EQ(st.distance_computations, 0u);
  EXPECT_EQ(st.PricedDistances(), 2u);
  EXPECT_EQ(ledgered.avoided, 1);
  EXPECT_EQ(ledgered.calls + plain.calls, 0);
}

TEST(GuardedDistanceWithinTest, CapacityZeroAlwaysComputes) {
  AbsMetric metric;
  QueryStats st;
  WitnessPath path;
  // Would prove d > bound if consulted.
  const uint32_t link = AppendPath(&path, {100.0, 100.0});
  const double lb = path.Window(link, 3, 0).LowerBound(Stored{0.0});
  EXPECT_EQ(lb, kNoWitnessBound);
  const auto eval = PrepareQuery(metric, kQuery);
  EXPECT_DOUBLE_EQ(GuardedDistanceWithin(lb, eval, 2.0, 10.0, &st), 1.0);
  // Not even a negative bound is proven: the plain search computes.
  GuardedDistanceWithin(lb, eval, 2.0, -1.0, &st);
  GuardedDistanceWithin(lb, eval, 2.0, -kInf, &st);
  EXPECT_EQ(metric.calls, 3);
  EXPECT_EQ(st.distance_computations, 3u);
  EXPECT_EQ(st.distance_calcs_avoided_by_witness, 0u);
}

TEST(GuardedDistanceWithinTest, AvoidsWhenWitnessProvesOutOfRange) {
  AbsMetric metric;
  QueryStats st;
  const double d = GuardedDistanceWithin(
      100.0, PrepareQuery(metric, kQuery), 2.0, 10.0, &st);
  EXPECT_TRUE(std::isinf(d));
  EXPECT_EQ(metric.calls, 0);
  EXPECT_EQ(st.distance_computations, 0u);
  EXPECT_EQ(st.distance_calcs_avoided_by_witness, 1u);
}

TEST(GuardedDistanceWithinTest, ComputesWhenWitnessesAreInconclusive) {
  AbsMetric metric;
  QueryStats st;
  const double d = GuardedDistanceWithin(
      0.0, PrepareQuery(metric, kQuery), 4.0, 10.0, &st);
  EXPECT_DOUBLE_EQ(d, 3.0);
  EXPECT_EQ(metric.calls, 1);
  EXPECT_EQ(st.distance_computations, 1u);
  EXPECT_EQ(st.distance_calcs_avoided_by_witness, 0u);
}

TEST(GuardedDistanceWithinTest, NotifiesWitnessAwareMetrics) {
  LedgeredMetric metric;
  QueryStats st;
  GuardedDistanceWithin(100.0, PrepareQuery(metric, kQuery), 2.0, 10.0, &st);
  EXPECT_EQ(metric.avoided, 1);
  EXPECT_EQ(metric.calls, 0);
}

TEST(CountedDistanceWithinTest, ChargesExactlyOneComputation) {
  AbsMetric metric;
  QueryStats st;
  const double query = 3.0;
  const double d =
      CountedDistanceWithin(PrepareQuery(metric, query), 7.0, 100.0, &st);
  EXPECT_DOUBLE_EQ(d, 4.0);
  EXPECT_EQ(metric.calls, 1);
  EXPECT_EQ(st.distance_computations, 1u);
  EXPECT_EQ(st.distance_calcs_avoided_by_witness, 0u);
}

// The witness set the path replaced: an immutable, refcounted chain of
// (depth, d(Q, w)) links, newest first (the parent first), bounded through
// a stored(depth) callback returning [lo, hi] intervals (NaN = unknown),
// and the guard that consulted it only with capacity > 0 and a non-empty
// chain.
struct ChainInterval {
  double lo = kNaN;
  double hi = kNaN;
  bool known() const { return !std::isnan(lo) && !std::isnan(hi); }
};

struct ChainLink {
  uint64_t ref = 0;
  double query_distance = 0.0;
  std::shared_ptr<const ChainLink> next;
};

using Chain = std::shared_ptr<const ChainLink>;

template <typename StoredFn>
double ChainLowerBound(const Chain& chain, int capacity, StoredFn&& stored) {
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

// A distance drawn to hit the awkward cases: ties with the query
// distances, zeros, infinities and NaN.
double AwkwardDistance(std::mt19937_64& rng, const std::vector<double>& dq) {
  switch (std::uniform_int_distribution<int>(0, 9)(rng)) {
    case 0:
      return kNaN;
    case 1:
      return kInf;
    case 2:
      return 0.0;
    case 3:
      if (!dq.empty()) {
        return dq[std::uniform_int_distribution<size_t>(0, dq.size() - 1)(
            rng)];
      }
      return 1.0;
    default:
      return std::uniform_real_distribution<double>(0.0, 8.0)(rng);
  }
}

double AwkwardBound(std::mt19937_64& rng) {
  switch (std::uniform_int_distribution<int>(0, 7)(rng)) {
    case 0:
      return kInf;
    case 1:
      return -kInf;
    case 2:
      return kNaN;
    case 3:
      return 0.0;
    case 4:
      return -1.0;
    default:
      return std::uniform_real_distribution<double>(0.0, 8.0)(rng);
  }
}

TEST(WitnessPathProperty, MatchesTheRefcountedChainBitForBit) {
  std::mt19937_64 rng(20260420);
  const std::vector<int> capacities = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1024};
  int consulted = 0;
  int avoided = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    // A node at `level` (root = 1) below a path of level - 1 routing
    // objects at depths 0..level-2, with decoy siblings appended between
    // them, as a best-first search interleaves branches.
    const auto level =
        static_cast<uint32_t>(std::uniform_int_distribution<int>(1, 13)(rng));
    std::vector<double> dq;
    WitnessPath path(std::uniform_int_distribution<size_t>(0, 13)(rng));
    Chain chain;
    uint32_t link = WitnessPath::kNoLink;
    for (uint32_t depth = 0; depth + 1 < level; ++depth) {
      const double d = AwkwardDistance(rng, dq);
      for (int k = std::uniform_int_distribution<int>(0, 2)(rng); k > 0; --k) {
        path.Append(link, AwkwardDistance(rng, dq));
      }
      dq.push_back(d);
      link = path.Append(link, d);
      chain = std::make_shared<const ChainLink>(ChainLink{depth, d, chain});
    }
    // The entry's stored side: its parent distance and an ancestor array
    // of any length up to the path's (entries at and past the parent's
    // depth are never read).
    const double parent_distance = AwkwardDistance(rng, dq);
    std::vector<double> ancestors(
        std::uniform_int_distribution<size_t>(0, dq.size())(rng));
    for (double& a : ancestors) a = AwkwardDistance(rng, dq);
    const auto stored = [&](uint64_t ref) {
      if (level >= 2 && ref == level - 2) {
        return ChainInterval{parent_distance, parent_distance};
      }
      if (ref < ancestors.size()) {
        return ChainInterval{ancestors[ref], ancestors[ref]};
      }
      return ChainInterval{};
    };

    // The search's decision: below the root the parent-distance filter
    // (always on) skips when |d(Q, parent) - d(parent, o)| > bound, then
    // the window over the ancestors above the parent guards the call.
    // Where the chain's guard consulted a bound (capacity > 0, below the
    // root), max(parent term, window bound) matches its bound bit for bit
    // and the two avoid exactly the same calls.
    const bool below_root = chain != nullptr;
    const double parent_term =
        below_root ? std::fabs(dq.back() - parent_distance) : kNaN;
    for (const int capacity : capacities) {
      const double bound = AwkwardBound(rng);
      const bool chain_consulted = capacity > 0 && below_root;
      const double chain_lb = ChainLowerBound(chain, capacity, stored);
      const bool chain_avoids = chain_consulted && chain_lb > bound;

      const double window_lb =
          path.Window(link, level, capacity).LowerBound(ancestors);
      if (chain_consulted) {
        ++consulted;
        double lb = window_lb > 0.0 ? window_lb : 0.0;
        if (parent_term > lb) lb = parent_term;
        ASSERT_EQ(std::bit_cast<uint64_t>(lb),
                  std::bit_cast<uint64_t>(chain_lb))
            << "trial " << trial << " level " << level << " capacity "
            << capacity << ": " << lb << " vs " << chain_lb;
      } else {
        ASSERT_EQ(window_lb, kNoWitnessBound);
      }

      // A search never passes a negative bound. At every other bound the
      // filter and the window avoid what the chain avoided, and the filter
      // alone where the chain was off (capacity 0).
      const bool avoids = parent_term > bound || window_lb > bound;
      if (!(bound < 0.0)) {
        ASSERT_EQ(avoids,
                  chain_consulted ? chain_avoids : parent_term > bound)
            << "trial " << trial << " capacity " << capacity << " bound "
            << bound;
      }

      AbsMetric metric;
      QueryStats st;
      const auto eval = PrepareQuery(metric, kQuery);
      if (parent_term > bound) {
        ChargeAvoided(eval, &st);
      } else {
        GuardedDistanceWithin(window_lb, eval, 2.0, bound, &st);
      }
      ASSERT_EQ(st.distance_calcs_avoided_by_witness, avoids ? 1u : 0u)
          << "trial " << trial << " capacity " << capacity << " bound "
          << bound;
      ASSERT_EQ(st.distance_computations, avoids ? 0u : 1u);
      ASSERT_EQ(metric.calls, avoids ? 0 : 1);
      avoided += chain_avoids;
    }
  }
  // The draw exercised both outcomes.
  EXPECT_GT(consulted, 10000);
  EXPECT_GT(avoided, 1000);
}

}  // namespace
}  // namespace mcm

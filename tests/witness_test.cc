// Unit tests for the engine's witness set (engine/witness.h): capacity
// resolution, chain structure and sharing, triangle-inequality lower
// bounds, and the two sanctioned prune-site entry points, which evaluate
// through the query's evaluator (metric/prepared.h).

#include "mcm/engine/witness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

namespace mcm {
namespace {

using engine::CountedDistanceWithin;
using engine::GuardedDistanceWithin;
using engine::ResolveWitnessCapacity;
using engine::WitnessChain;
using engine::WitnessInterval;
using engine::WitnessLowerBound;

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

TEST(WitnessIntervalTest, UnknownAndPoint) {
  EXPECT_FALSE(WitnessInterval::Unknown().known());
  const WitnessInterval p = WitnessInterval::Point(2.5);
  EXPECT_TRUE(p.known());
  EXPECT_EQ(p.lo, 2.5);
  EXPECT_EQ(p.hi, 2.5);
}

TEST(WitnessChainTest, ExtendIsNewestFirstAndLimited) {
  WitnessChain chain;
  EXPECT_TRUE(chain.Empty());
  chain = chain.Extend(1, 10.0);
  chain = chain.Extend(2, 20.0);
  chain = chain.Extend(3, 30.0);
  EXPECT_FALSE(chain.Empty());

  std::vector<uint64_t> refs;
  chain.Visit(2, [&](uint64_t ref, double) { refs.push_back(ref); });
  EXPECT_EQ(refs, (std::vector<uint64_t>{3, 2}));

  refs.clear();
  chain.Visit(100, [&](uint64_t ref, double) { refs.push_back(ref); });
  EXPECT_EQ(refs, (std::vector<uint64_t>{3, 2, 1}));
}

TEST(WitnessChainTest, BranchesShareThePrefix) {
  WitnessChain root;
  root = root.Extend(0, 1.0);
  const WitnessChain left = root.Extend(1, 2.0);
  const WitnessChain right = root.Extend(2, 3.0);

  std::vector<uint64_t> refs;
  left.Visit(10, [&](uint64_t ref, double) { refs.push_back(ref); });
  EXPECT_EQ(refs, (std::vector<uint64_t>{1, 0}));
  refs.clear();
  right.Visit(10, [&](uint64_t ref, double) { refs.push_back(ref); });
  EXPECT_EQ(refs, (std::vector<uint64_t>{2, 0}));
}

TEST(WitnessLowerBoundTest, TriangleBoundsFromPointDistances) {
  // Witness 7 at d(Q, w) = 5; stored d(w, o) = 1 -> lb = 4.
  WitnessChain chain;
  chain = chain.Extend(7, 5.0);
  const double lb = WitnessLowerBound(chain, 8, [](uint64_t ref) {
    EXPECT_EQ(ref, 7u);
    return WitnessInterval::Point(1.0);
  });
  EXPECT_DOUBLE_EQ(lb, 4.0);

  // The bound is symmetric: stored 9 with d(Q, w) = 5 also gives 4.
  const double lb2 = WitnessLowerBound(
      chain, 8, [](uint64_t) { return WitnessInterval::Point(9.0); });
  EXPECT_DOUBLE_EQ(lb2, 4.0);
}

TEST(WitnessLowerBoundTest, TakesTheBestWitnessAndSkipsUnknown) {
  WitnessChain chain;
  chain = chain.Extend(0, 10.0);  // stored 2 -> lb 8
  chain = chain.Extend(1, 4.0);   // unknown -> skipped
  chain = chain.Extend(2, 3.0);   // stored 2 -> lb 1
  const auto stored = [](uint64_t ref) {
    return ref == 1 ? WitnessInterval::Unknown() : WitnessInterval::Point(2.0);
  };
  EXPECT_DOUBLE_EQ(WitnessLowerBound(chain, 8, stored), 8.0);
  // Capacity 2 sees only the two newest witnesses (refs 2 and 1).
  EXPECT_DOUBLE_EQ(WitnessLowerBound(chain, 2, stored), 1.0);
  // Intervals weaken the bound: d(w, o) in [0, 9] around d(Q, w)=10 -> 1.
  EXPECT_DOUBLE_EQ(
      WitnessLowerBound(chain, 8,
                        [](uint64_t) {
                          return WitnessInterval{0.0, 9.0};
                        }),
      1.0);
}

TEST(WitnessLowerBoundTest, NeverNegative) {
  WitnessChain chain;
  chain = chain.Extend(0, 1.0);
  EXPECT_DOUBLE_EQ(WitnessLowerBound(
                       chain, 8,
                       [](uint64_t) { return WitnessInterval::Point(1.0); }),
                   0.0);
}

TEST(GuardedDistanceWithinTest, CapacityZeroAlwaysComputes) {
  AbsMetric metric;
  QueryStats st;
  WitnessChain chain;
  chain = chain.Extend(0, 100.0);  // would prove d > bound if consulted
  const auto stored = [](uint64_t) { return WitnessInterval::Point(0.0); };
  const double d =
      GuardedDistanceWithin(chain, 0, stored, PrepareQuery(metric, kQuery),
                            2.0, 10.0, &st);
  EXPECT_DOUBLE_EQ(d, 1.0);
  EXPECT_EQ(metric.calls, 1);
  EXPECT_EQ(st.distance_computations, 1u);
  EXPECT_EQ(st.distance_calcs_avoided_by_witness, 0u);
}

TEST(GuardedDistanceWithinTest, AvoidsWhenWitnessProvesOutOfRange) {
  AbsMetric metric;
  QueryStats st;
  WitnessChain chain;
  chain = chain.Extend(0, 100.0);  // lb = 100 > bound = 10
  const auto stored = [](uint64_t) { return WitnessInterval::Point(0.0); };
  const double d =
      GuardedDistanceWithin(chain, 8, stored, PrepareQuery(metric, kQuery),
                            2.0, 10.0, &st);
  EXPECT_TRUE(std::isinf(d));
  EXPECT_EQ(metric.calls, 0);
  EXPECT_EQ(st.distance_computations, 0u);
  EXPECT_EQ(st.distance_calcs_avoided_by_witness, 1u);
}

TEST(GuardedDistanceWithinTest, ComputesWhenWitnessesAreInconclusive) {
  AbsMetric metric;
  QueryStats st;
  WitnessChain chain;
  chain = chain.Extend(0, 5.0);  // lb = 0 with stored = 5
  const auto stored = [](uint64_t) { return WitnessInterval::Point(5.0); };
  const double d =
      GuardedDistanceWithin(chain, 8, stored, PrepareQuery(metric, kQuery),
                            4.0, 10.0, &st);
  EXPECT_DOUBLE_EQ(d, 3.0);
  EXPECT_EQ(metric.calls, 1);
  EXPECT_EQ(st.distance_computations, 1u);
  EXPECT_EQ(st.distance_calcs_avoided_by_witness, 0u);
}

TEST(GuardedDistanceWithinTest, NotifiesWitnessAwareMetrics) {
  LedgeredMetric metric;
  QueryStats st;
  WitnessChain chain;
  chain = chain.Extend(0, 100.0);
  const auto stored = [](uint64_t) { return WitnessInterval::Point(0.0); };
  GuardedDistanceWithin(chain, 8, stored, PrepareQuery(metric, kQuery), 2.0,
                        10.0, &st);
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

}  // namespace
}  // namespace mcm

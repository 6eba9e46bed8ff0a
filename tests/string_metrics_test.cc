#include "mcm/metric/string_metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mcm/common/random.h"
#include "mcm/dataset/text_datasets.h"

namespace mcm {
namespace {

// Independent reference: the textbook full-matrix Levenshtein DP.
// EditDistance and BoundedEditDistance both run the bit-parallel kernel on
// short strings, so checking them against each other proves nothing about
// the kernel.
size_t ReferenceEditDistance(const std::string& a, const std::string& b) {
  const size_t w = b.size() + 1;
  std::vector<size_t> d((a.size() + 1) * w);
  for (size_t i = 0; i <= a.size(); ++i) d[i * w] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t sub = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i * w + j] = std::min({d[(i - 1) * w + j] + 1, d[i * w + j - 1] + 1,
                               d[(i - 1) * w + j - 1] + sub});
    }
  }
  return d[a.size() * w + b.size()];
}

// Checks every edit-distance entry point on (a, b) against the reference:
// the full distance and the functor, BoundedEditDistance at every integer
// bound up to the longer length + 1, and DistanceWithin at -1, every
// integer and half-integer in that range, 1e20, 1e300, +inf and NaN. Given
// the prepared evaluators `pa` = Prepare(a) and `pb` = Prepare(b), checks
// them too, against b and a, unbounded and at every one of those bounds.
// Stops at the first mismatch so a broken kernel reports one pair, not
// millions.
::testing::AssertionResult MatchesReference(
    const std::string& a, const std::string& b,
    const EditDistanceMetric::Prepared* pa = nullptr,
    const EditDistanceMetric::Prepared* pb = nullptr) {
  const size_t exact = ReferenceEditDistance(a, b);
  const auto fail = [&]() {
    return ::testing::AssertionFailure()
           << ::testing::PrintToString(a) << " / "
           << ::testing::PrintToString(b) << " (reference " << exact << "): ";
  };
  if (EditDistance(a, b) != exact) {
    return fail() << "EditDistance " << EditDistance(a, b);
  }
  const EditDistanceMetric metric;
  if (metric(a, b) != static_cast<double>(exact)) {
    return fail() << "metric " << metric(a, b);
  }
  if (pa != nullptr && (*pa)(b) != static_cast<double>(exact)) {
    return fail() << "Prepare(a)(b) " << (*pa)(b);
  }
  if (pb != nullptr && (*pb)(a) != static_cast<double>(exact)) {
    return fail() << "Prepare(b)(a) " << (*pb)(a);
  }
  const size_t top = std::max(a.size(), b.size()) + 1;
  for (size_t k = 0; k <= top; ++k) {
    const size_t got = BoundedEditDistance(a, b, k);
    if (got != (exact <= k ? exact : k + 1)) {
      return fail() << "BoundedEditDistance bound " << k << " -> " << got;
    }
  }
  std::vector<double> bounds = {-1.0, 1e20, 1e300,
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (size_t k = 0; k <= top; ++k) {
    bounds.push_back(static_cast<double>(k));
    bounds.push_back(static_cast<double>(k) + 0.5);
  }
  for (const double bound : bounds) {
    const auto ok = [&](double got) {
      return static_cast<double>(exact) <= bound
                 ? got == static_cast<double>(exact)
                 : std::isinf(got) && got > 0.0;
    };
    const double got = metric.DistanceWithin(a, b, bound);
    if (!ok(got)) {
      return fail() << "DistanceWithin bound " << bound << " -> " << got;
    }
    if (pa != nullptr && !ok(pa->DistanceWithin(b, bound))) {
      return fail() << "Prepare(a).DistanceWithin bound " << bound << " -> "
                    << pa->DistanceWithin(b, bound);
    }
    if (pb != nullptr && !ok(pb->DistanceWithin(a, bound))) {
      return fail() << "Prepare(b).DistanceWithin bound " << bound << " -> "
                    << pb->DistanceWithin(a, bound);
    }
  }
  return ::testing::AssertionSuccess();
}

// One evaluator per string, prepared once: the all-pairs tests below
// would otherwise spend most of their time building match masks.
std::vector<EditDistanceMetric::Prepared> PrepareAll(
    const std::vector<std::string>& words) {
  const EditDistanceMetric metric;
  std::vector<EditDistanceMetric::Prepared> out;
  out.reserve(words.size());
  for (const std::string& w : words) out.push_back(metric.Prepare(w));
  return out;
}

// Every string of length 0..max_len over `alphabet`.
std::vector<std::string> AllStrings(const std::string& alphabet,
                                    size_t max_len) {
  std::vector<std::string> out = {""};
  for (size_t begin = 0, len = 1; len <= max_len; ++len) {
    const size_t end = out.size();
    for (size_t i = begin; i < end; ++i) {
      for (const char c : alphabet) out.push_back(out[i] + c);
    }
    begin = end;
  }
  return out;
}

std::string RandomString(RandomEngine& rng, size_t len,
                         const std::string& alphabet) {
  std::string out(len, ' ');
  for (char& c : out) c = alphabet[UniformIndex(rng, alphabet.size())];
  return out;
}

TEST(EditDistance, ClassicCases) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
  EXPECT_EQ(EditDistance("a", "b"), 1u);
}

TEST(EditDistance, SymmetricAndBoundedByLongerLength) {
  EXPECT_EQ(EditDistance("casa", "cassa"), EditDistance("cassa", "casa"));
  EXPECT_LE(EditDistance("amore", "morte"), 5u);
}

TEST(EditDistance, InsertionOnlyEqualsLengthDifference) {
  EXPECT_EQ(EditDistance("ab", "aXbY"), 2u);
  EXPECT_EQ(EditDistance("ciao", "ciaone"), 2u);
}

TEST(BoundedEditDistance, AgreesWithFullComputationWithinBound) {
  const std::vector<std::string> words = GenerateKeywords(60, 5);
  for (size_t i = 0; i < words.size(); ++i) {
    for (size_t j = i; j < words.size(); j += 7) {
      const size_t full = EditDistance(words[i], words[j]);
      for (size_t bound : {1u, 3u, 8u, 30u}) {
        const size_t bounded = BoundedEditDistance(words[i], words[j], bound);
        if (full <= bound) {
          EXPECT_EQ(bounded, full) << words[i] << " / " << words[j];
        } else {
          EXPECT_GT(bounded, bound) << words[i] << " / " << words[j];
        }
      }
    }
  }
}

TEST(BoundedEditDistance, QuickRejectOnLengthGap) {
  EXPECT_GT(BoundedEditDistance("ab", "abcdefgh", 3), 3u);
  EXPECT_EQ(BoundedEditDistance("abc", "abc", 0), 0u);
  EXPECT_GT(BoundedEditDistance("abc", "abd", 0), 0u);
}

TEST(WeightedEditDistance, UnitCostsMatchPlainEditDistance) {
  const WeightedEditDistance w(1.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(w("kitten", "sitting"), 3.0);
  EXPECT_DOUBLE_EQ(w("", "ab"), 2.0);
}

TEST(WeightedEditDistance, ExpensiveSubstitutionPrefersInsertDelete) {
  // substitution cost 3 > insert + delete: a mismatch costs 2.
  const WeightedEditDistance w(1.0, 1.0, 3.0);
  EXPECT_DOUBLE_EQ(w("a", "b"), 2.0);
}

TEST(WeightedEditDistance, AsymmetricCostsWeighDirection) {
  const WeightedEditDistance w(2.0, 1.0, 1.5);
  EXPECT_DOUBLE_EQ(w("", "aa"), 4.0);  // Two inserts.
  EXPECT_DOUBLE_EQ(w("aa", ""), 2.0);  // Two deletes.
}

TEST(WeightedEditDistance, RejectsNonPositiveCosts) {
  EXPECT_THROW(WeightedEditDistance(0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(WeightedEditDistance(1.0, -1.0, 1.0), std::invalid_argument);
}

TEST(EditDistanceMetricDistanceWithin, LimitEqualToTrueDistanceIsExact) {
  // d("kitten", "sitting") = 3: the boundary limit must return the exact
  // distance, not the out-of-range sentinel.
  const EditDistanceMetric metric;
  EXPECT_DOUBLE_EQ(metric.DistanceWithin("kitten", "sitting", 3.0), 3.0);
  EXPECT_TRUE(std::isinf(metric.DistanceWithin("kitten", "sitting", 2.0)));
  // A fractional limit between d-1 and d is still exceeded.
  EXPECT_TRUE(std::isinf(metric.DistanceWithin("kitten", "sitting", 2.5)));
  // And a fractional limit just above d still returns d exactly.
  EXPECT_DOUBLE_EQ(metric.DistanceWithin("kitten", "sitting", 3.5), 3.0);
}

TEST(EditDistanceMetricDistanceWithin, EmptyStrings) {
  const EditDistanceMetric metric;
  EXPECT_DOUBLE_EQ(metric.DistanceWithin("", "", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(metric.DistanceWithin("", "abc", 3.0), 3.0);
  EXPECT_DOUBLE_EQ(metric.DistanceWithin("abc", "", 3.0), 3.0);
  EXPECT_TRUE(std::isinf(metric.DistanceWithin("", "abc", 2.0)));
}

TEST(EditDistanceMetricDistanceWithin, LimitZero) {
  const EditDistanceMetric metric;
  EXPECT_DOUBLE_EQ(metric.DistanceWithin("same", "same", 0.0), 0.0);
  EXPECT_TRUE(std::isinf(metric.DistanceWithin("same", "sane", 0.0)));
  // Negative limits can never be met, even by identical strings.
  EXPECT_TRUE(std::isinf(metric.DistanceWithin("same", "same", -1.0)));
}

TEST(EditDistanceMetricDistanceWithin, AgreesWithUnboundedOnKeywords) {
  // Cross-check the banded computation against the full metric: within
  // the limit both agree exactly; past it the bounded form reports +inf.
  const EditDistanceMetric metric;
  const auto words = GenerateKeywords(60, 911);
  for (size_t i = 0; i < words.size(); ++i) {
    for (size_t j = i + 1; j < words.size(); j += 7) {
      const double exact = metric(words[i], words[j]);
      for (const double limit : {0.0, 1.0, 2.0, 3.0, exact, exact + 1.0}) {
        const double got = metric.DistanceWithin(words[i], words[j], limit);
        if (exact <= limit) {
          EXPECT_DOUBLE_EQ(got, exact)
              << words[i] << " / " << words[j] << " limit " << limit;
        } else {
          EXPECT_TRUE(std::isinf(got))
              << words[i] << " / " << words[j] << " limit " << limit;
        }
      }
    }
  }
}

TEST(EditDistanceMetricDistanceWithin, InfiniteLimitIsTheFullMetric) {
  const EditDistanceMetric metric;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(metric.DistanceWithin("kitten", "sitting", inf), 3.0);
  EXPECT_DOUBLE_EQ(metric.DistanceWithin("", "", inf), 0.0);
}

TEST(EditDistanceMetricDistanceWithin, HugeBoundsReturnTheExactDistance) {
  // Bounds of 2^64 and more must not reach a double -> size_t conversion:
  // it is undefined, and gcc -O3 made 1e20 and 1e300 a band of 0 (answer 1).
  const EditDistanceMetric metric;
  for (const double bound :
       {1e20, 1e300, std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(metric.DistanceWithin("ciao", "cane", bound), 3.0) << bound;
    EXPECT_EQ(metric.DistanceWithin("ciao", "gatto", bound), 4.0) << bound;
    EXPECT_EQ(metric.DistanceWithin("", "luna", bound), 4.0) << bound;
  }
  EXPECT_TRUE(std::isinf(metric.DistanceWithin(
      "ciao", "ciao", std::numeric_limits<double>::quiet_NaN())));
}

TEST(BoundedEditDistance, LargestBoundIsTheFullDistance) {
  // bound + i must not wrap in the banded DP (strings longer than the
  // kernel's 64 bytes) any more than in the kernel.
  const size_t huge = std::numeric_limits<size_t>::max();
  auto rng = MakeEngine(17);
  for (const size_t len : {5u, 64u, 65u, 120u}) {
    const std::string a = RandomString(rng, len, "abcd");
    const std::string b = RandomString(rng, len + 3, "abcd");
    EXPECT_EQ(BoundedEditDistance(a, b, huge), ReferenceEditDistance(a, b))
        << len;
  }
}

TEST(EditDistanceKernel, AllShortStringsOverThreeLetters) {
  // Every ordered pair of strings of length 0..6 over {a, b, c}.
  const std::vector<std::string> words = AllStrings("abc", 6);
  const auto prepared = PrepareAll(words);
  for (size_t i = 0; i < words.size(); ++i) {
    for (size_t j = 0; j < words.size(); ++j) {
      ASSERT_TRUE(
          MatchesReference(words[i], words[j], &prepared[i], &prepared[j]));
    }
  }
}

TEST(EditDistanceKernel, HighBytesAndEmbeddedNul) {
  // Bytes >= 0x80 index the match table as unsigned values, and '\0' is
  // an ordinary byte, not a terminator.
  EXPECT_EQ(EditDistance("\xe1", "a"), 1u);  // 0xe1 and 0x61 differ by 0x80.
  EXPECT_EQ(EditDistance(std::string("a\0b", 3), "ab"), 1u);
  EXPECT_EQ(EditDistance(std::string("\0", 1), ""), 1u);
  EXPECT_EQ(EditDistance(std::string("\0\0", 2), std::string("\0", 1)), 1u);
  const std::string alphabet("\0a\xe1\x80\xff", 5);
  const std::vector<std::string> words = AllStrings(alphabet, 4);
  const auto prepared = PrepareAll(words);
  for (size_t i = 0; i < words.size(); ++i) {
    for (size_t j = 0; j < words.size(); ++j) {
      ASSERT_TRUE(
          MatchesReference(words[i], words[j], &prepared[i], &prepared[j]));
    }
  }
  auto rng = MakeEngine(23);
  for (const size_t len : {63u, 64u, 65u}) {
    const std::string a = RandomString(rng, len, alphabet);
    std::string b = a;
    b[0] = '\x7f';
    b[len - 1] = '\0';
    const std::string c = RandomString(rng, len + 2, alphabet);
    const EditDistanceMetric metric;
    const auto pa = metric.Prepare(a);
    const auto pb = metric.Prepare(b);
    const auto pc = metric.Prepare(c);
    ASSERT_TRUE(MatchesReference(a, b, &pa, &pb));
    ASSERT_TRUE(MatchesReference(a, c, &pa, &pc));
  }
}

TEST(EditDistanceKernel, WordBoundaryAndDpFallbackLengths) {
  // The shorter side is 63 or 64 bytes (the kernel's last bits), or 65 and
  // 200 bytes (the DP fallback). Every partner is at least as long, so the
  // shorter side keeps its length: copies with substitutions (first and
  // last position too), insertions, and unrelated strings.
  auto rng = MakeEngine(29);
  const std::string alphabet = "abcd";
  const EditDistanceMetric metric;
  for (const size_t len : {63u, 64u, 65u, 200u}) {
    const std::string a = RandomString(rng, len, alphabet);
    const auto pa = metric.Prepare(a);
    std::vector<std::string> partners = {a};
    std::string edge = a;
    edge[0] = 'x';
    edge[len - 1] = 'y';
    partners.push_back(edge);
    for (size_t edits = 1; edits <= 4; ++edits) {
      std::string sub = a;
      std::string ins = a;
      for (size_t e = 0; e < edits; ++e) {
        sub[UniformIndex(rng, len)] = alphabet[UniformIndex(rng, 4)];
        ins.insert(UniformIndex(rng, ins.size() + 1), 1, 'x');
      }
      partners.push_back(sub);
      partners.push_back(ins);
    }
    partners.push_back("z" + a);
    partners.push_back(a + "z");
    for (const size_t extra : {0u, 1u, 13u, 205u}) {
      partners.push_back(RandomString(rng, len + extra, alphabet));
    }
    for (const std::string& b : partners) {
      // The evaluators run both ways in the first call, so the swapped
      // call checks the one-shot functions only.
      const auto pb = metric.Prepare(b);
      ASSERT_TRUE(MatchesReference(a, b, &pa, &pb)) << "length " << len;
      ASSERT_TRUE(MatchesReference(b, a)) << "length " << len;
    }
  }
}

TEST(HammingDistance, CountsMismatches) {
  EXPECT_DOUBLE_EQ(HammingDistance("karolin", "kathrin"), 3.0);
  EXPECT_DOUBLE_EQ(HammingDistance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(HammingDistance("abc", "abc"), 0.0);
}

TEST(HammingDistance, LengthMismatchThrows) {
  EXPECT_THROW(HammingDistance("ab", "abc"), std::invalid_argument);
}

}  // namespace
}  // namespace mcm

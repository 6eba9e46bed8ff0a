#include "mcm/metric/set_metrics.h"

#include <gtest/gtest.h>

#include "mcm/common/random.h"
#include "mcm/dataset/shape_datasets.h"
#include "mcm/metric/bytes.h"

namespace mcm {
namespace {

TEST(DirectedHausdorff, KnownValues) {
  const PointSet a = {{0, 0}, {1, 0}};
  const PointSet b = {{0, 0}};
  EXPECT_DOUBLE_EQ(DirectedHausdorff(a, b), 1.0);  // (1,0) is 1 from (0,0).
  EXPECT_DOUBLE_EQ(DirectedHausdorff(b, a), 0.0);  // (0,0) is in a.
}

TEST(HausdorffDistance, SymmetricMaxOfDirected) {
  const PointSet a = {{0, 0}, {1, 0}};
  const PointSet b = {{0, 0}};
  EXPECT_DOUBLE_EQ(HausdorffDistance(a, b), 1.0);
  EXPECT_DOUBLE_EQ(HausdorffDistance(b, a), 1.0);
  EXPECT_DOUBLE_EQ(HausdorffDistance(a, a), 0.0);
}

TEST(HausdorffDistance, TranslationShiftsDistance) {
  const PointSet square = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  PointSet shifted;
  for (const auto& p : square) shifted.push_back({p[0] + 0.5f, p[1]});
  EXPECT_DOUBLE_EQ(HausdorffDistance(square, shifted), 0.5);
}

TEST(HausdorffDistance, EmptySetRejected) {
  EXPECT_THROW(HausdorffDistance({}, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(HausdorffDistance({{0, 0}}, {}), std::invalid_argument);
}

TEST(HausdorffDistance, MetricAxiomsOnRandomShapes) {
  const auto shapes = GenerateShapes(25, 349);
  const HausdorffMetric metric;
  for (size_t i = 0; i < shapes.size(); ++i) {
    for (size_t j = 0; j < shapes.size(); j += 3) {
      const double dij = metric(shapes[i], shapes[j]);
      EXPECT_GE(dij, 0.0);
      EXPECT_NEAR(dij, metric(shapes[j], shapes[i]), 1e-12);
      if (i == j) {
        EXPECT_DOUBLE_EQ(dij, 0.0);
      }
      const size_t k = (i + j + 1) % shapes.size();
      EXPECT_LE(dij, metric(shapes[i], shapes[k]) +
                         metric(shapes[k], shapes[j]) + 1e-9);
    }
  }
}

TEST(JaccardDistance, KnownValues) {
  EXPECT_DOUBLE_EQ(JaccardDistance({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardDistance({1, 2}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({1}, {2}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({}, {5}), 1.0);
}

TEST(JaccardDistance, UnsortedRejected) {
  EXPECT_THROW(JaccardDistance({2, 1}, {1, 2}), std::invalid_argument);
}

TEST(JaccardDistance, TriangleInequalityOnRandomSets) {
  RandomEngine rng = MakeEngine(353);
  auto random_set = [&]() {
    std::vector<uint64_t> s;
    for (uint64_t v = 0; v < 30; ++v) {
      if (UniformUnit(rng) < 0.4) s.push_back(v);
    }
    return s;
  };
  const JaccardMetric metric;
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = random_set(), b = random_set(), c = random_set();
    EXPECT_LE(metric(a, b), metric(a, c) + metric(c, b) + 1e-12);
  }
}

TEST(PointSetTraits, SerializationRoundTrip) {
  const PointSet shape = {{0.1f, 0.2f}, {0.3f, 0.4f}, {0.5f, 0.6f}};
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  PointSetTraits::Serialize(shape, w);
  EXPECT_EQ(buf.size(), PointSetTraits::SerializedSize(shape));
  ByteReader r(buf.data(), buf.size());
  const PointSet parsed = PointSetTraits::Deserialize(r);
  EXPECT_EQ(parsed, shape);
}

TEST(GenerateShapes, DeterministicAndWellFormed) {
  ShapeSpec spec;
  const auto shapes = GenerateShapes(100, 359, spec);
  EXPECT_EQ(shapes.size(), 100u);
  for (const auto& s : shapes) {
    EXPECT_EQ(s.size(), spec.points_per_shape);
    for (const auto& p : s) {
      ASSERT_EQ(p.size(), 2u);
      EXPECT_GE(p[0], 0.0f);
      EXPECT_LE(p[0], 1.0f);
    }
  }
  EXPECT_EQ(shapes, GenerateShapes(100, 359, spec));
}

TEST(GenerateShapes, SameFamilyShapesAreClose) {
  // With 2 families, pairwise Hausdorff distances are bimodal.
  ShapeSpec spec;
  spec.num_families = 2;
  const auto shapes = GenerateShapes(60, 367, spec);
  const HausdorffMetric metric;
  size_t close = 0, far = 0;
  for (size_t i = 0; i < shapes.size(); i += 2) {
    for (size_t j = i + 1; j < shapes.size(); j += 3) {
      const double d = metric(shapes[i], shapes[j]);
      if (d < 0.1) ++close;
      if (d > 0.1) ++far;
    }
  }
  EXPECT_GT(close, 0u);
  EXPECT_GT(far, 0u);
}

}  // namespace
}  // namespace mcm

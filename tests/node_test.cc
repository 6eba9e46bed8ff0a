#include "mcm/mtree/node.h"

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_probe.h"
#include "mcm/metric/set_metrics.h"
#include "mcm/metric/traits.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;
using StrTraits = StringTraits<>;

constexpr size_t kPageSize = 4096;

TEST(MTreeNode, LeafSerializationRoundTripVectors) {
  MTreeNode<VecTraits> node;
  node.is_leaf = true;
  node.leaf_entries.push_back({{0.1f, 0.2f, 0.3f}, 42, 0.5, {}});
  node.leaf_entries.push_back({{0.9f, 0.8f, 0.7f}, 43, 0.25, {}});

  std::vector<uint8_t> buf;
  node.Serialize(&buf);
  EXPECT_EQ(buf.size(), node.SerializedSize());

  const auto parsed = MTreeNode<VecTraits>::Deserialize(buf.data(), buf.size());
  ASSERT_TRUE(parsed.is_leaf);
  ASSERT_EQ(parsed.leaf_entries.size(), 2u);
  EXPECT_EQ(parsed.leaf_entries[0].object, (FloatVector{0.1f, 0.2f, 0.3f}));
  EXPECT_EQ(parsed.leaf_entries[0].oid, 42u);
  EXPECT_DOUBLE_EQ(parsed.leaf_entries[0].parent_distance, 0.5);
  EXPECT_EQ(parsed.leaf_entries[1].oid, 43u);
}

TEST(MTreeNode, InternalSerializationRoundTripStrings) {
  MTreeNode<StrTraits> node;
  node.is_leaf = false;
  node.routing_entries.push_back({"parola", 2.5, 1.0, 7, {}});
  node.routing_entries.push_back({"verso", 3.0, 2.0, 9, {}});

  std::vector<uint8_t> buf;
  node.Serialize(&buf);
  EXPECT_EQ(buf.size(), node.SerializedSize());

  const auto parsed = MTreeNode<StrTraits>::Deserialize(buf.data(), buf.size());
  ASSERT_FALSE(parsed.is_leaf);
  ASSERT_EQ(parsed.routing_entries.size(), 2u);
  EXPECT_EQ(parsed.routing_entries[0].object, "parola");
  EXPECT_DOUBLE_EQ(parsed.routing_entries[0].covering_radius, 2.5);
  EXPECT_EQ(parsed.routing_entries[0].child, 7u);
  EXPECT_EQ(parsed.routing_entries[1].object, "verso");
}

TEST(MTreeNode, EmptyNodeRoundTrip) {
  MTreeNode<VecTraits> node;
  std::vector<uint8_t> buf;
  node.Serialize(&buf);
  EXPECT_EQ(buf.size(), MTreeNode<VecTraits>::HeaderSize());
  const auto parsed = MTreeNode<VecTraits>::Deserialize(buf.data(), buf.size());
  EXPECT_TRUE(parsed.is_leaf);
  EXPECT_EQ(parsed.NumEntries(), 0u);
}

TEST(MTreeNode, EntrySizesAccountForObjectPayload) {
  const FloatVector v(10, 0.5f);
  EXPECT_EQ(MTreeNode<VecTraits>::LeafEntrySize(v),
            4u + 40u + 8u + 8u);  // dim prefix + floats + oid + parent dist.
  EXPECT_EQ(MTreeNode<VecTraits>::RoutingEntrySize(v),
            4u + 40u + 8u + 8u + 4u);  // + radius replaces oid, + child id.
  EXPECT_EQ(MTreeNode<StrTraits>::LeafEntrySize("abcde"), 4u + 5u + 8u + 8u);
}

TEST(MTreeNode, DeserializeTruncatedBufferThrows) {
  MTreeNode<VecTraits> node;
  node.leaf_entries.push_back({{0.5f}, 1, 0.0, {}});
  std::vector<uint8_t> buf;
  node.Serialize(&buf);
  EXPECT_THROW(
      MTreeNode<VecTraits>::Deserialize(buf.data(), buf.size() - 4),
      std::out_of_range);
}

// ---------------------------------------------------------------------------
// In-place decoding: DeserializeInto a reused node must leave exactly what a
// fresh Deserialize produces, whatever the node held before.
// ---------------------------------------------------------------------------

template <typename Traits>
void ExpectSameNode(const MTreeNode<Traits>& a, const MTreeNode<Traits>& b,
                    size_t step) {
  ASSERT_EQ(a.is_leaf, b.is_leaf) << "step " << step;
  ASSERT_EQ(a.leaf_entries.size(), b.leaf_entries.size()) << "step " << step;
  ASSERT_EQ(a.routing_entries.size(), b.routing_entries.size())
      << "step " << step;
  for (size_t i = 0; i < a.leaf_entries.size(); ++i) {
    const auto& x = a.leaf_entries[i];
    const auto& y = b.leaf_entries[i];
    EXPECT_EQ(x.object, y.object) << "step " << step << " leaf " << i;
    EXPECT_EQ(x.oid, y.oid) << "step " << step << " leaf " << i;
    EXPECT_EQ(x.parent_distance, y.parent_distance) << "step " << step;
    EXPECT_EQ(x.ancestor_distances, y.ancestor_distances) << "step " << step;
  }
  for (size_t i = 0; i < a.routing_entries.size(); ++i) {
    const auto& x = a.routing_entries[i];
    const auto& y = b.routing_entries[i];
    EXPECT_EQ(x.object, y.object) << "step " << step << " routing " << i;
    EXPECT_EQ(x.covering_radius, y.covering_radius) << "step " << step;
    EXPECT_EQ(x.parent_distance, y.parent_distance) << "step " << step;
    EXPECT_EQ(x.child, y.child) << "step " << step;
    EXPECT_EQ(x.ancestor_distances, y.ancestor_distances) << "step " << step;
  }
}

/// Decodes every node of `sequence`, serialized into a zero-padded page,
/// into ONE reused node, and checks it against a fresh decode and against
/// the original after each step.
template <typename Traits>
void ExpectReuseMatchesFresh(const std::vector<MTreeNode<Traits>>& sequence) {
  MTreeNode<Traits> reused;
  for (size_t step = 0; step < sequence.size(); ++step) {
    std::vector<uint8_t> page;
    sequence[step].Serialize(&page);
    ASSERT_LE(page.size(), kPageSize);
    page.resize(kPageSize, 0);
    MTreeNode<Traits>::DeserializeInto(page.data(), page.size(), &reused);
    const auto fresh =
        MTreeNode<Traits>::Deserialize(page.data(), page.size());
    ExpectSameNode(reused, fresh, step);
    ExpectSameNode(reused, sequence[step], step);
  }
}

template <typename Traits>
MTreeNode<Traits> Leaf(
    const std::vector<typename Traits::Object>& objects,
    const std::vector<std::vector<double>>& ancestors = {}) {
  MTreeNode<Traits> node;
  node.is_leaf = true;
  for (size_t i = 0; i < objects.size(); ++i) {
    node.leaf_entries.push_back(
        {objects[i], 100 + i, 0.5 * static_cast<double>(i),
         i < ancestors.size() ? ancestors[i] : std::vector<double>{}});
  }
  return node;
}

template <typename Traits>
MTreeNode<Traits> Routing(
    const std::vector<typename Traits::Object>& objects,
    const std::vector<std::vector<double>>& ancestors = {}) {
  MTreeNode<Traits> node;
  node.is_leaf = false;
  for (size_t i = 0; i < objects.size(); ++i) {
    node.routing_entries.push_back(
        {objects[i], 1.5 + static_cast<double>(i), 0.25,
         static_cast<NodeId>(7 + i),
         i < ancestors.size() ? ancestors[i] : std::vector<double>{}});
  }
  return node;
}

TEST(MTreeNodeDeserializeInto, VectorTransitionsMatchFreshDecode) {
  using T = VecTraits;
  const FloatVector a{0.1f, 0.2f, 0.3f};
  const FloatVector b{0.9f, 0.8f};
  const FloatVector c(16, 0.25f);
  ExpectReuseMatchesFresh<T>({
      Leaf<T>({a, b, c, a, b}),
      Routing<T>({c, a}),       // leaf -> routing
      Leaf<T>({b, b, b}),       // routing -> leaf
      Leaf<T>({c}),             // longer -> shorter, longer object
      Leaf<T>({a, c, b, a}),    // shorter -> longer
      Routing<T>({a, b, c}),
      Routing<T>({b}),          // routing longer -> shorter
      Leaf<T>({}),              // empty leaf
      Routing<T>({c, c}),
  });
}

TEST(MTreeNodeDeserializeInto, AncestorArraysClearOnHistoricalLayout) {
  using T = VecTraits;
  const FloatVector a{0.1f, 0.2f};
  const FloatVector b{0.3f, 0.4f, 0.5f};
  ExpectReuseMatchesFresh<T>({
      Leaf<T>({a, b, a}, {{1.0, 2.0}, {3.0}, {}}),   // tag 3
      Leaf<T>({b, a, b}),                            // tag 1: arrays empty
      Leaf<T>({a, b}, {{4.0}, {5.0, 6.0, 7.0}}),      // tag 3 again
      Routing<T>({a, b}, {{8.0, 9.0}, {10.0}}),       // tag 2
      Routing<T>({b, a, b}),                         // tag 0: arrays empty
      Routing<T>({a}, {{11.0}}),                      // tag 2 again
      Leaf<T>({a}),                                  // tag 1
  });
}

TEST(MTreeNodeDeserializeInto, StringTransitionsMatchFreshDecode) {
  using T = StrTraits;
  ExpectReuseMatchesFresh<T>({
      Leaf<T>({"casa", "cosa", "una parola molto lunga oltre sedici"}),
      Routing<T>({"verso", ""}, {{1.0}, {2.0, 3.0}}),
      Leaf<T>({"a", "bb"}),
      Leaf<T>({"lunghissima parola di prova numero uno", "x", "yy", "z"}),
      Routing<T>({"q"}),
  });
}

TEST(MTreeNodeDeserializeInto, DeserializeOnlyTraitsMatchFreshDecode) {
  // PointSetTraits defines no DeserializeInto: objects are move-assigned.
  using T = PointSetTraits;
  const PointSet p{{0.0f, 1.0f}, {2.0f, 3.0f}};
  const PointSet q{{4.0f, 5.0f, 6.0f}};
  ExpectReuseMatchesFresh<T>({
      Leaf<T>({p, q, p}),
      Routing<T>({q}, {{1.0, 2.0}}),
      Leaf<T>({q}),
      Leaf<T>({p, p}, {{3.0}, {}}),
  });
}

TEST(MTreeNodeDeserializeInto, SameShapedPageReusesObjectBuffers) {
  using T = VecTraits;
  std::vector<uint8_t> first;
  Leaf<T>({FloatVector(16, 1.0f), FloatVector(16, 2.0f)}).Serialize(&first);
  std::vector<uint8_t> second;
  Leaf<T>({FloatVector(16, 3.0f), FloatVector(16, 4.0f)}).Serialize(&second);
  MTreeNode<T> node;
  MTreeNode<T>::DeserializeInto(first.data(), first.size(), &node);
  const float* buffer = node.leaf_entries[1].object.data();
  {
    test::AllocationProbe probe;
    MTreeNode<T>::DeserializeInto(second.data(), second.size(), &node);
    EXPECT_EQ(probe.count(), 0u);
  }
  EXPECT_EQ(node.leaf_entries[1].object.data(), buffer);
  EXPECT_EQ(node.leaf_entries[1].object, FloatVector(16, 4.0f));
}

// ---------------------------------------------------------------------------
// Hostile pages: a corrupt length must throw before anything is sized from
// it. Each crafted page claims at most 64 MiB, so a decoder that allocates
// first still fails the size check instead of exhausting memory.
// ---------------------------------------------------------------------------

/// A kPageSize page whose bytes start with `head` and are zero after it.
std::vector<uint8_t> CraftPage(const std::vector<uint8_t>& head) {
  std::vector<uint8_t> page(kPageSize, 0);
  std::copy(head.begin(), head.end(), page.begin());
  return page;
}

/// Decodes `page` fresh and into a reused node; both must throw
/// std::out_of_range and allocate less than a page at a time.
template <typename Traits>
void ExpectRejectedWithoutLargeAllocation(const std::vector<uint8_t>& page,
                                          const char* what) {
  MTreeNode<Traits> reused;
  reused.leaf_entries.resize(3);
  size_t largest_fresh = 0;
  size_t largest_reused = 0;
  {
    test::AllocationProbe probe;
    EXPECT_THROW(MTreeNode<Traits>::Deserialize(page.data(), page.size()),
                 std::out_of_range)
        << what;
    largest_fresh = probe.largest();
  }
  {
    test::AllocationProbe probe;
    EXPECT_THROW(
        MTreeNode<Traits>::DeserializeInto(page.data(), page.size(), &reused),
        std::out_of_range)
        << what;
    largest_reused = probe.largest();
  }
  EXPECT_LT(largest_fresh, kPageSize) << what;
  EXPECT_LT(largest_reused, kPageSize) << what;
}

std::vector<uint8_t> Bytes(std::initializer_list<std::vector<uint8_t>> parts) {
  std::vector<uint8_t> out;
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

template <typename T>
std::vector<uint8_t> Le(T value) {
  std::vector<uint8_t> out;
  ByteWriter(&out).Put<T>(value);
  return out;
}

TEST(MTreeNodeHostilePage, HugeEntryCountThrowsBeforeAllocating) {
  // Leaf tag, 1 Mi entries claimed (64 MiB of LeafEntry<FloatVector>).
  ExpectRejectedWithoutLargeAllocation<VecTraits>(
      CraftPage(Bytes({Le<uint8_t>(1), Le<uint32_t>(1u << 20)})),
      "leaf entry count");
  // Routing tag, 512 Ki entries claimed (36 MiB of RoutingEntry).
  ExpectRejectedWithoutLargeAllocation<VecTraits>(
      CraftPage(Bytes({Le<uint8_t>(0), Le<uint32_t>(1u << 19)})),
      "routing entry count");
}

TEST(MTreeNodeHostilePage, HugeObjectLengthThrowsBeforeAllocating) {
  // One leaf entry whose vector claims 16 Mi floats (64 MiB).
  ExpectRejectedWithoutLargeAllocation<VecTraits>(
      CraftPage(Bytes({Le<uint8_t>(1), Le<uint32_t>(1), Le<uint32_t>(1u << 24)})),
      "vector length");
  // One routing entry whose string claims 64 Mi bytes.
  ExpectRejectedWithoutLargeAllocation<StrTraits>(
      CraftPage(Bytes({Le<uint8_t>(0), Le<uint32_t>(1), Le<uint32_t>(1u << 26)})),
      "string length");
}

TEST(MTreeNodeHostilePage, HugeAncestorCountThrowsBeforeAllocating) {
  // Versioned leaf (tag 3), one entry: a 2-d vector, oid, parent distance,
  // then an ancestor array claiming 8 Mi doubles (64 MiB).
  ExpectRejectedWithoutLargeAllocation<VecTraits>(
      CraftPage(Bytes({Le<uint8_t>(3), Le<uint32_t>(1), Le<uint32_t>(2),
                       Le<float>(0.5f), Le<float>(0.25f), Le<uint64_t>(9),
                       Le<double>(0.125), Le<uint32_t>(1u << 23)})),
      "ancestor count");
}

}  // namespace
}  // namespace mcm

#include "mcm/mtree/node_store.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_probe.h"
#include "mcm/metric/traits.h"

namespace mcm {
namespace {

using Traits = VectorTraits<LInfDistance>;
using Node = MTreeNode<Traits>;

template <typename T>
std::unique_ptr<NodeStore<Traits>> MakeStore();

template <>
std::unique_ptr<NodeStore<Traits>> MakeStore<MemoryNodeStore<Traits>>() {
  return std::make_unique<MemoryNodeStore<Traits>>();
}

template <>
std::unique_ptr<NodeStore<Traits>> MakeStore<PagedNodeStore<Traits>>() {
  return std::make_unique<PagedNodeStore<Traits>>(
      std::make_unique<InMemoryPageFile>(512), 16);
}

template <typename T>
class NodeStoreTest : public ::testing::Test {};

using StoreTypes =
    ::testing::Types<MemoryNodeStore<Traits>, PagedNodeStore<Traits>>;
TYPED_TEST_SUITE(NodeStoreTest, StoreTypes);

TYPED_TEST(NodeStoreTest, WriteReadRoundTrip) {
  auto store = MakeStore<TypeParam>();
  const NodeId id = store->Allocate();
  Node node;
  node.is_leaf = true;
  node.leaf_entries.push_back({{0.25f, 0.75f}, 11, 0.5, {}});
  store->Write(id, node);
  const Node out = store->Read(id);
  ASSERT_EQ(out.leaf_entries.size(), 1u);
  EXPECT_EQ(out.leaf_entries[0].oid, 11u);
  EXPECT_EQ(out.leaf_entries[0].object, (FloatVector{0.25f, 0.75f}));
}

TYPED_TEST(NodeStoreTest, AccessCounterCountsReadsOnly) {
  auto store = MakeStore<TypeParam>();
  const NodeId id = store->Allocate();
  Node node;
  store->Write(id, node);
  EXPECT_EQ(store->access_count(), 0u);
  store->Read(id);
  store->Read(id);
  EXPECT_EQ(store->access_count(), 2u);
  store->ResetAccessCount();
  EXPECT_EQ(store->access_count(), 0u);
}

TYPED_TEST(NodeStoreTest, MultipleNodesKeepDistinctContents) {
  auto store = MakeStore<TypeParam>();
  std::vector<NodeId> ids;
  for (uint64_t i = 0; i < 10; ++i) {
    const NodeId id = store->Allocate();
    Node node;
    node.leaf_entries.push_back({{static_cast<float>(i)}, i, 0.0, {}});
    store->Write(id, node);
    ids.push_back(id);
  }
  EXPECT_EQ(store->NumNodes(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(store->Read(ids[i]).leaf_entries[0].oid, i);
  }
}

TYPED_TEST(NodeStoreTest, FreeReducesLiveCount) {
  auto store = MakeStore<TypeParam>();
  const NodeId a = store->Allocate();
  store->Allocate();
  EXPECT_EQ(store->NumNodes(), 2u);
  store->Free(a);
  EXPECT_EQ(store->NumNodes(), 1u);
}

TEST(MemoryNodeStore, ReadAfterFreeThrows) {
  MemoryNodeStore<Traits> store;
  const NodeId id = store.Allocate();
  store.Free(id);
  EXPECT_THROW(store.Read(id), std::out_of_range);
}

TEST(PagedNodeStore, OversizedNodeRejected) {
  PagedNodeStore<Traits> store(std::make_unique<InMemoryPageFile>(64), 4);
  const NodeId id = store.Allocate();
  Node node;
  node.leaf_entries.push_back({FloatVector(100, 0.0f), 1, 0.0, {}});
  EXPECT_THROW(store.Write(id, node), std::runtime_error);
}

TEST(PagedNodeStore, SurvivesBufferPoolPressure) {
  // Pool holds 2 frames; write 20 nodes, then read them all back.
  PagedNodeStore<Traits> store(std::make_unique<InMemoryPageFile>(256), 2);
  std::vector<NodeId> ids;
  for (uint64_t i = 0; i < 20; ++i) {
    const NodeId id = store.Allocate();
    Node node;
    node.leaf_entries.push_back({{static_cast<float>(i), 0.0f}, i, 0.0, {}});
    store.Write(id, node);
    ids.push_back(id);
  }
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(store.Read(ids[i]).leaf_entries[0].oid, i);
  }
  EXPECT_GT(store.pool().stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// ReadShared decodes into recycled nodes.
// ---------------------------------------------------------------------------

/// A leaf of `count` 16-d entries, or a routing node of `count` entries.
Node MakeNode(bool leaf, size_t count, float seed) {
  Node node;
  node.is_leaf = leaf;
  for (size_t i = 0; i < count; ++i) {
    const FloatVector v(16, seed + static_cast<float>(i));
    if (leaf) {
      node.leaf_entries.push_back({v, 1000 + i, 0.5, {}});
    } else {
      node.routing_entries.push_back(
          {v, 2.0, 0.25, static_cast<NodeId>(i), {}});
    }
  }
  return node;
}

void ExpectNodeEquals(const Node& got, const Node& want) {
  ASSERT_EQ(got.is_leaf, want.is_leaf);
  ASSERT_EQ(got.leaf_entries.size(), want.leaf_entries.size());
  ASSERT_EQ(got.routing_entries.size(), want.routing_entries.size());
  for (size_t i = 0; i < want.leaf_entries.size(); ++i) {
    EXPECT_EQ(got.leaf_entries[i].object, want.leaf_entries[i].object);
    EXPECT_EQ(got.leaf_entries[i].oid, want.leaf_entries[i].oid);
  }
  for (size_t i = 0; i < want.routing_entries.size(); ++i) {
    EXPECT_EQ(got.routing_entries[i].object, want.routing_entries[i].object);
    EXPECT_EQ(got.routing_entries[i].child, want.routing_entries[i].child);
  }
}

TEST(PagedNodeStore, ReadSharedRecyclesReleasedNodes) {
  PagedNodeStore<Traits> store(std::make_unique<InMemoryPageFile>(4096), 8,
                               /*cache_entries=*/0);
  const std::vector<Node> nodes = {MakeNode(true, 30, 1.0f),
                                   MakeNode(false, 12, 2.0f),
                                   MakeNode(true, 20, 3.0f)};
  std::vector<NodeId> ids;
  for (const Node& node : nodes) {
    ids.push_back(store.Allocate());
    store.Write(ids.back(), node);
  }
  QueryStats st;
  const Node* first_leaf = nullptr;
  {
    const auto node = store.ReadShared(ids[0], &st);
    ExpectNodeEquals(*node, nodes[0]);
    first_leaf = node.get();
  }
  {
    // A routing page takes a routing node, not the released leaf...
    const auto node = store.ReadShared(ids[1], &st);
    ExpectNodeEquals(*node, nodes[1]);
    EXPECT_NE(node.get(), first_leaf);
  }
  {
    // ...and the next leaf page decodes into the released leaf.
    const auto node = store.ReadShared(ids[2], &st);
    ExpectNodeEquals(*node, nodes[2]);
    EXPECT_EQ(node.get(), first_leaf);
  }
  // Nodes held at the same time are distinct.
  const auto a = store.ReadShared(ids[0], &st);
  const auto b = store.ReadShared(ids[0], &st);
  EXPECT_NE(a.get(), b.get());
  ExpectNodeEquals(*a, nodes[0]);
  ExpectNodeEquals(*b, nodes[0]);
  EXPECT_EQ(store.access_count(), 5u);
  EXPECT_EQ(st.buffer_hits + st.buffer_misses, 5u);
}

TEST(PagedNodeStore, SteadyStateReadSharedAllocatesNothing) {
  // Two frames for three pages: every read below misses and reuses the
  // evicted frame, and every page decodes into a recycled node of its kind.
  PagedNodeStore<Traits> store(std::make_unique<InMemoryPageFile>(4096), 2,
                               /*cache_entries=*/0);
  const std::vector<Node> nodes = {MakeNode(true, 31, 1.0f),
                                   MakeNode(false, 31, 2.0f),
                                   MakeNode(true, 31, 3.0f)};
  std::vector<NodeId> ids;
  for (const Node& node : nodes) {
    ids.push_back(store.Allocate());
    store.Write(ids.back(), node);
  }
  QueryStats st;
  for (int round = 0; round < 2; ++round) {  // Warm up.
    for (const NodeId id : ids) store.ReadShared(id, &st);
  }
  const uint64_t misses_before = store.pool().stats().misses;
  size_t allocations = 0;
  {
    test::AllocationProbe probe;
    for (int round = 0; round < 10; ++round) {
      for (const NodeId id : ids) store.ReadShared(id, &st);
    }
    allocations = probe.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(store.pool().stats().misses - misses_before, 30u);
  for (size_t i = 0; i < ids.size(); ++i) {
    ExpectNodeEquals(*store.ReadShared(ids[i], &st), nodes[i]);
  }
}

TEST(PagedNodeStore, HandedOutNodesOutliveTheStore) {
  std::shared_ptr<const Node> kept;
  const Node want = MakeNode(true, 5, 7.0f);
  {
    PagedNodeStore<Traits> store(std::make_unique<InMemoryPageFile>(4096), 4,
                                 /*cache_entries=*/0);
    const NodeId id = store.Allocate();
    store.Write(id, want);
    QueryStats st;
    kept = store.ReadShared(id, &st);
    store.ReadShared(id, &st);  // Released at once: back on the free list.
  }
  ExpectNodeEquals(*kept, want);
  kept.reset();  // Returns the node to a recycler only this node kept alive.
}

TEST(PagedNodeStore, DecodedCacheBranchDecodesIntoRecycledNodes) {
  PagedNodeStore<Traits> store(std::make_unique<InMemoryPageFile>(4096), 4,
                               /*cache_entries=*/2);
  std::vector<NodeId> ids;
  std::vector<Node> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(MakeNode(true, 8 + static_cast<size_t>(i),
                             static_cast<float>(i)));
    ids.push_back(store.Allocate());
    store.Write(ids.back(), nodes.back());
  }
  QueryStats st;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < ids.size(); ++i) {
      ExpectNodeEquals(*store.ReadShared(ids[i], &st), nodes[i]);
    }
  }
  // A cached node is shared, and a write invalidates it.
  const auto a = store.ReadShared(ids[3], &st);
  EXPECT_EQ(a.get(), store.ReadShared(ids[3], &st).get());
  store.Write(ids[3], nodes[0]);
  ExpectNodeEquals(*store.ReadShared(ids[3], &st), nodes[0]);
  ExpectNodeEquals(*a, nodes[3]);  // The old snapshot is untouched.
}

}  // namespace
}  // namespace mcm

// Recycled decode targets for PagedNodeStore::ReadShared.
//
// Decoding a page into a fresh node allocates the entry vector and one
// buffer per entry object; for a 4 KiB page of 16-d vectors that is most of
// the cost of a node read. NodeRecycler keeps nodes instead of freeing
// them: a read takes a node of the page's kind (leaf or routing) from a
// free list, decodes the page into it in place (MTreeNode::DeserializeInto)
// and hands it out in a shared_ptr whose deleter gives it back. The
// shared_ptr control blocks come from the recycler too (BlockAllocator), so
// a read whose page fits the recycled node's buffers allocates nothing.
//
// Ownership: the recycler is owned jointly by its store and by every node
// it has handed out (each control block's allocator holds a reference), so
// a node may outlive the store that decoded it.
//
// Locking: one annotated mutex guards the free lists. It is held only
// around a push or a pop, never while another lock is taken and never while
// a node is decoded or destroyed.

#ifndef MCM_MTREE_NODE_RECYCLER_H_
#define MCM_MTREE_NODE_RECYCLER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "mcm/common/mutex.h"
#include "mcm/common/thread_annotations.h"

namespace mcm {

/// Free lists of decoded nodes (`Node` is an MTreeNode) and of the control
/// blocks of the shared_ptrs that hand them out.
template <typename Node>
class NodeRecycler
    : public std::enable_shared_from_this<NodeRecycler<Node>> {
 public:
  /// Nodes kept per kind. A query's traversal holds one node at a time
  /// (ComplexRecurse one per recursion level), so a few dozen cover the
  /// batch executor's threads; a node given back to a full list is freed.
  static constexpr size_t kMaxFree = 32;

  NodeRecycler() {
    MutexLock lock(&mu_);
    for (auto& list : free_) list.reserve(kMaxFree);
    blocks_.reserve(2 * kMaxFree);
  }

  ~NodeRecycler() {
    MutexLock lock(&mu_);
    for (void* block : blocks_) ::operator delete(block);
  }

  NodeRecycler(const NodeRecycler&) = delete;
  NodeRecycler& operator=(const NodeRecycler&) = delete;

  /// Decodes page bytes into a recycled node and hands it out. Throws what
  /// Node::DeserializeInto throws on a corrupt page.
  std::shared_ptr<const Node> Decode(const uint8_t* data, size_t size) {
    const bool leaf = size > 0 && (data[0] & 1) != 0;  // The page's tag.
    std::unique_ptr<Node> node = Take(leaf);
    Node::DeserializeInto(data, size, node.get());
    return std::shared_ptr<const Node>(
        node.release(), GiveBack{this},
        BlockAllocator<Node>(this->shared_from_this()));
  }

 private:
  /// The handed-out shared_ptr's deleter. The raw pointer is safe: the
  /// deleter runs while its control block, whose allocator owns the
  /// recycler, still exists.
  struct GiveBack {
    void operator()(const Node* node) const {
      owner->Give(const_cast<Node*>(node));
    }
    NodeRecycler* owner;
  };

  /// Allocates the handed-out shared_ptrs' control blocks from the
  /// recycler. It holds the owning reference: libstdc++ and libc++ destroy
  /// the deleter before they deallocate the block through a copy of this
  /// allocator.
  template <typename T>
  struct BlockAllocator {
    using value_type = T;
    template <typename U>
    struct rebind {
      using other = BlockAllocator<U>;
    };

    explicit BlockAllocator(std::shared_ptr<NodeRecycler> o)
        : owner(std::move(o)) {}
    template <typename U>
    BlockAllocator(const BlockAllocator<U>& other)  // NOLINT: rebind copy.
        : owner(other.owner) {}

    T* allocate(size_t n) {
      static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
      return static_cast<T*>(owner->TakeBlock(n * sizeof(T)));
    }
    void deallocate(T* block, size_t n) {
      owner->GiveBlock(block, n * sizeof(T));
    }
    template <typename U>
    bool operator==(const BlockAllocator<U>& other) const {
      return owner == other.owner;
    }

    std::shared_ptr<NodeRecycler> owner;
  };

  std::unique_ptr<Node> Take(bool leaf) {
    {
      MutexLock lock(&mu_);
      auto& list = free_[leaf ? 1 : 0];
      if (!list.empty()) {
        std::unique_ptr<Node> node = std::move(list.back());
        list.pop_back();
        return node;
      }
    }
    return std::make_unique<Node>();
  }

  void Give(Node* raw) {
    std::unique_ptr<Node> node(raw);
    {
      MutexLock lock(&mu_);
      auto& list = free_[node->is_leaf ? 1 : 0];
      if (list.size() < kMaxFree) {
        list.push_back(std::move(node));
        return;
      }
    }
    // The list is full: `node` is freed here, outside the lock.
  }

  void* TakeBlock(size_t bytes) {
    {
      MutexLock lock(&mu_);
      if (bytes == block_bytes_ && !blocks_.empty()) {
        void* block = blocks_.back();
        blocks_.pop_back();
        return block;
      }
    }
    return ::operator new(bytes);
  }

  void GiveBlock(void* block, size_t bytes) {
    {
      MutexLock lock(&mu_);
      if (block_bytes_ == 0) block_bytes_ = bytes;
      if (bytes == block_bytes_ && blocks_.size() < 2 * kMaxFree) {
        blocks_.push_back(block);
        return;
      }
    }
    ::operator delete(block);
  }

  Mutex mu_;
  /// Free nodes by kind: [0] routing, [1] leaf.
  std::vector<std::unique_ptr<Node>> free_[2] MCM_GUARDED_BY(mu_);
  std::vector<void*> blocks_ MCM_GUARDED_BY(mu_);
  /// Size of the one control-block type this recycler allocates; 0 until
  /// the first block comes back.
  size_t block_bytes_ MCM_GUARDED_BY(mu_) = 0;
};

}  // namespace mcm

#endif  // MCM_MTREE_NODE_RECYCLER_H_

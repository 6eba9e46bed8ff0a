// M-tree node and entry layouts (Section 1.1 of the paper):
//   leaf entry:     [O_i, oid(O_i)]           plus the stored d(O_i, O_parent)
//   routing entry:  [O_r, r(N_r), ptr(N_r)]   plus the stored d(O_r, O_parent)
// Nodes serialize into fixed-size pages; SerializedSize() is the overflow
// test used by insertion, splitting and bulk loading.
//
// Witness-cascade extension (Symmetric-M-tree-style): each entry may
// additionally store its exact distances to the routing objects *above*
// its parent (ancestor_distances[i] = d(entry object, routing object at
// 0-based tree depth i)). The engine's witness bounds consult these to
// skip metric evaluations. Serialization is versioned by the header tag
// byte — 0/1 is the historical layout without the arrays, 2/3 carries a
// per-entry count + doubles — so index files written before the extension
// still load, and nodes whose entries all have empty arrays keep writing
// the historical bytes (bit-identical on-disk format).

#ifndef MCM_MTREE_NODE_H_
#define MCM_MTREE_NODE_H_

#include <cstdint>
#include <vector>

#include "mcm/metric/bytes.h"

namespace mcm {

/// Identifier of an M-tree node within its NodeStore.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNodeId = static_cast<NodeId>(-1);

/// Entry of a leaf node: an indexed object with its external identifier and
/// its distance to the parent routing object (the search's parent-distance
/// filter skips entries with it).
template <typename Object>
struct LeafEntry {
  Object object;
  uint64_t oid = 0;
  double parent_distance = 0.0;

  /// Witness cascade: d(object, ancestor routing object at depth i) for
  /// the ancestors strictly above the parent (index i = 0-based depth,
  /// root node = depth 0). Empty when the cascade is not installed; may be
  /// shorter than the full ancestor path (missing tail = unknown).
  std::vector<double> ancestor_distances;
};

/// Entry of an internal node: a routing object with its covering radius and
/// a pointer to the child it covers.
template <typename Object>
struct RoutingEntry {
  Object object;
  double covering_radius = 0.0;
  double parent_distance = 0.0;
  NodeId child = kInvalidNodeId;

  /// Witness cascade: distances to the ancestors strictly above the
  /// parent, indexed by 0-based depth (see LeafEntry::ancestor_distances).
  std::vector<double> ancestor_distances;
};

/// An M-tree node: either a leaf (LeafEntry list) or internal
/// (RoutingEntry list).
template <typename Traits>
struct MTreeNode {
  using Object = typename Traits::Object;

  bool is_leaf = true;
  std::vector<LeafEntry<Object>> leaf_entries;
  std::vector<RoutingEntry<Object>> routing_entries;

  size_t NumEntries() const {
    return is_leaf ? leaf_entries.size() : routing_entries.size();
  }

  /// Serialized byte footprint of one leaf entry.
  static size_t LeafEntrySize(const Object& object) {
    return Traits::SerializedSize(object) + sizeof(uint64_t) + sizeof(double);
  }

  /// Serialized byte footprint of one routing entry.
  static size_t RoutingEntrySize(const Object& object) {
    return Traits::SerializedSize(object) + 2 * sizeof(double) +
           sizeof(NodeId);
  }

  /// Fixed node header: format tag (leaf flag + layout version) + entry
  /// count.
  static size_t HeaderSize() { return sizeof(uint8_t) + sizeof(uint32_t); }

  /// True when any entry carries witness-cascade ancestor distances —
  /// i.e. when this node serializes in the versioned (tag 2/3) layout.
  bool HasAncestorDistances() const {
    if (is_leaf) {
      for (const auto& e : leaf_entries) {
        if (!e.ancestor_distances.empty()) return true;
      }
    } else {
      for (const auto& e : routing_entries) {
        if (!e.ancestor_distances.empty()) return true;
      }
    }
    return false;
  }

  /// Total bytes this node occupies when serialized into a page.
  size_t SerializedSize() const {
    size_t size = HeaderSize();
    const bool versioned = HasAncestorDistances();
    if (is_leaf) {
      for (const auto& e : leaf_entries) {
        size += LeafEntrySize(e.object);
        if (versioned) {
          size += sizeof(uint32_t) +
                  e.ancestor_distances.size() * sizeof(double);
        }
      }
    } else {
      for (const auto& e : routing_entries) {
        size += RoutingEntrySize(e.object);
        if (versioned) {
          size += sizeof(uint32_t) +
                  e.ancestor_distances.size() * sizeof(double);
        }
      }
    }
    return size;
  }

  /// Serializes into `out` (appended). Tag byte: 0 = internal, 1 = leaf
  /// (historical layout, no ancestor arrays); 2 = internal, 3 = leaf with
  /// a per-entry ancestor-distance block appended to each entry.
  void Serialize(std::vector<uint8_t>* out) const {
    ByteWriter w(out);
    const bool versioned = HasAncestorDistances();
    w.Put<uint8_t>(static_cast<uint8_t>((is_leaf ? 1 : 0) |
                                        (versioned ? 2 : 0)));
    auto put_ancestors = [&](const std::vector<double>& distances) {
      if (!versioned) return;
      w.Put<uint32_t>(static_cast<uint32_t>(distances.size()));
      for (double d : distances) w.Put<double>(d);
    };
    if (is_leaf) {
      w.Put<uint32_t>(static_cast<uint32_t>(leaf_entries.size()));
      for (const auto& e : leaf_entries) {
        Traits::Serialize(e.object, w);
        w.Put<uint64_t>(e.oid);
        w.Put<double>(e.parent_distance);
        put_ancestors(e.ancestor_distances);
      }
    } else {
      w.Put<uint32_t>(static_cast<uint32_t>(routing_entries.size()));
      for (const auto& e : routing_entries) {
        Traits::Serialize(e.object, w);
        w.Put<double>(e.covering_radius);
        w.Put<double>(e.parent_distance);
        w.Put<NodeId>(e.child);
        put_ancestors(e.ancestor_distances);
      }
    }
  }

  /// Parses a node from `data` (as produced by Serialize, either layout).
  static MTreeNode Deserialize(const uint8_t* data, size_t size) {
    MTreeNode node;
    DeserializeInto(data, size, &node);
    return node;
  }

  /// Deserialize() into an existing node, overwriting all of it: the entry
  /// vectors, each entry's object (in place when Traits defines
  /// DeserializeInto, else by move-assigning Traits::Deserialize) and its
  /// ancestor array keep their buffers, so decoding into a recycled node
  /// allocates only where the page needs more room than the node had.
  /// Every count read from the page is checked against the bytes left
  /// before anything is sized from it: a corrupt page throws
  /// std::out_of_range without a large allocation.
  static void DeserializeInto(const uint8_t* data, size_t size,
                              MTreeNode* node) {
    ByteReader r(data, size);
    const uint8_t tag = r.Get<uint8_t>();
    node->is_leaf = (tag & 1) != 0;
    const bool versioned = (tag & 2) != 0;
    // Fixed bytes of one entry, besides its object.
    const size_t entry_bytes =
        (node->is_leaf ? sizeof(uint64_t) + sizeof(double)
                       : 2 * sizeof(double) + sizeof(NodeId)) +
        (versioned ? sizeof(uint32_t) : 0);
    const uint32_t count = r.GetCount(entry_bytes);
    auto get_ancestors = [&](std::vector<double>* distances) {
      if (!versioned) {
        distances->clear();
        return;
      }
      const uint32_t n = r.GetCount(sizeof(double));
      distances->resize(n);
      r.GetBytes(distances->data(), n * sizeof(double));
    };
    if (node->is_leaf) {
      node->routing_entries.clear();
      node->leaf_entries.resize(count);
      for (auto& e : node->leaf_entries) {
        DeserializeObject(r, &e.object);
        e.oid = r.Get<uint64_t>();
        e.parent_distance = r.Get<double>();
        get_ancestors(&e.ancestor_distances);
      }
    } else {
      node->leaf_entries.clear();
      node->routing_entries.resize(count);
      for (auto& e : node->routing_entries) {
        DeserializeObject(r, &e.object);
        e.covering_radius = r.Get<double>();
        e.parent_distance = r.Get<double>();
        e.child = r.Get<NodeId>();
        get_ancestors(&e.ancestor_distances);
      }
    }
  }

 private:
  static void DeserializeObject(ByteReader& r, Object* object) {
    if constexpr (requires { Traits::DeserializeInto(r, object); }) {
      Traits::DeserializeInto(r, object);
    } else {
      *object = Traits::Deserialize(r);
    }
  }
};

}  // namespace mcm

#endif  // MCM_MTREE_NODE_H_

// Structural invariant checker for M-trees. Verifies, for the whole tree:
//
//   covering-radius   every object in the subtree of a routing entry lies
//                     within its covering radius (the defining M-tree
//                     property; the pruning lemmas are unsound without it);
//   parent-distance   stored parent distances equal d(parent routing
//                     object, entry object) — every search filters
//                     with these, so a stale value silently drops results;
//   node-overflow     every node's serialized form fits the configured
//                     node (page) size;
//   header-count      a node's serialized header entry count matches the
//                     entries it actually round-trips;
//   leaf-depth        all leaves at the same depth (the tree is balanced);
//   empty-node        no node is empty;
//   radius-sign       no negative covering radius;
//   size-mismatch     the number of leaf objects equals tree.size();
//   ancestor-distance persisted witness-cascade ancestor distances match
//                     the recomputed d(ancestor routing object, entry) and
//                     never cover more ancestors than lie above the parent.
//
// CheckMTree is pure observation (it reads nodes through the tree's store,
// so access counters do move — run it outside measured sections).
// InstallMTreeInvariantHook wires CheckMTree after every Insert/Delete when
// MCM_CHECK_INVARIANTS=1.

#ifndef MCM_CHECK_CHECK_MTREE_H_
#define MCM_CHECK_CHECK_MTREE_H_

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mcm/check/check.h"
#include "mcm/mtree/mtree.h"

namespace mcm {
namespace check {

namespace internal {

inline std::string NodeLabel(NodeId id) {
  std::ostringstream os;
  os << "node " << id;
  return os.str();
}

}  // namespace internal

/// Validates all M-tree invariants; `epsilon` absorbs floating-point slack
/// in the distance comparisons.
template <typename Traits>
CheckResult CheckMTree(const MTree<Traits>& tree, double epsilon = 1e-9) {
  using Object = typename Traits::Object;
  using Node = MTreeNode<Traits>;

  CheckResult result;
  if (tree.root() == kInvalidNodeId) {
    if (tree.size() != 0) {
      std::ostringstream os;
      os << "empty tree reports size() = " << tree.size();
      result.Add("size-mismatch", "root", os.str());
    }
    return result;
  }

  auto& store = tree.store();
  const auto& metric = tree.metric();
  size_t leaf_objects = 0;
  int leaf_depth = -1;

  // Witness-cascade entry layout (mtree/node.h): ancestor_distances[i]
  // must equal d(routing object at depth i, entry object) and the array
  // may only cover ancestors strictly above the parent (the parent's
  // distance is the entry's parent_distance). Lengths are structural and
  // checked always; values are only meaningful while the cascade is
  // installed (stale arrays are never consulted otherwise).
  auto check_ancestors =
      [&](const std::vector<double>& stored, const Object& object,
          const std::vector<std::pair<const Object*, double>>& balls,
          const std::string& where) {
        const size_t above_parent = balls.empty() ? 0 : balls.size() - 1;
        if (stored.size() > above_parent) {
          std::ostringstream os;
          os << "entry stores " << stored.size()
             << " ancestor distance(s) but only " << above_parent
             << " ancestor(s) lie above the parent";
          result.Add("ancestor-distance", where, os.str());
          return;
        }
        if (!tree.cascade_installed()) return;
        for (size_t i = 0; i < stored.size(); ++i) {
          const double d = metric(*balls[i].first, object);
          if (std::fabs(d - stored[i]) > epsilon) {
            std::ostringstream os;
            os << "stored ancestor distance [" << i << "] = " << stored[i]
               << " != actual " << d;
            result.Add("ancestor-distance", where, os.str());
          }
        }
      };

  // Pass 1: per-node structure plus parent-distance consistency. The
  // `balls` stack carries every (routing object, covering radius) on the
  // root-to-leaf path, so containment is verified against all ancestors.
  auto walk = [&](auto&& self, NodeId id, const Object* parent, int depth,
                  const std::vector<std::pair<const Object*, double>>& balls)
      -> void {
    const Node node = store.Read(id);
    const std::string label = internal::NodeLabel(id);

    if (node.SerializedSize() > tree.options().node_size_bytes) {
      std::ostringstream os;
      os << "serialized size " << node.SerializedSize()
         << " exceeds node size " << tree.options().node_size_bytes;
      result.Add("node-overflow", label, os.str());
    }
    if (node.NumEntries() == 0) {
      result.Add("empty-node", label, "node holds no entries");
    }

    // Round-trip the node and compare entry counts: catches serialized
    // headers that disagree with the entry list (and Traits asymmetries).
    {
      std::vector<uint8_t> bytes;
      node.Serialize(&bytes);
      const Node back = Node::Deserialize(bytes.data(), bytes.size());
      if (back.is_leaf != node.is_leaf ||
          back.NumEntries() != node.NumEntries()) {
        std::ostringstream os;
        os << "serialized header round-trips to "
           << (back.is_leaf ? "leaf" : "internal") << "/"
           << back.NumEntries() << " entries but node is "
           << (node.is_leaf ? "leaf" : "internal") << "/"
           << node.NumEntries();
        result.Add("header-count", label, os.str());
      }
    }

    if (node.is_leaf) {
      if (leaf_depth < 0) {
        leaf_depth = depth;
      } else if (leaf_depth != depth) {
        std::ostringstream os;
        os << "leaf at depth " << depth << " but earlier leaves at depth "
           << leaf_depth;
        result.Add("leaf-depth", label, os.str());
      }
      leaf_objects += node.leaf_entries.size();
      for (const auto& e : node.leaf_entries) {
        std::ostringstream where;
        where << label << ", oid " << e.oid;
        if (parent != nullptr) {
          const double d = metric(*parent, e.object);
          if (std::fabs(d - e.parent_distance) > epsilon) {
            std::ostringstream os;
            os << "stored parent distance " << e.parent_distance
               << " != actual " << d;
            result.Add("parent-distance", where.str(), os.str());
          }
        }
        for (const auto& [center, radius] : balls) {
          const double d = metric(*center, e.object);
          if (d > radius + epsilon) {
            std::ostringstream os;
            os << "object at distance " << d
               << " outside ancestor covering radius " << radius;
            result.Add("covering-radius", where.str(), os.str());
          }
        }
        check_ancestors(e.ancestor_distances, e.object, balls, where.str());
      }
      return;
    }

    for (const auto& e : node.routing_entries) {
      if (parent != nullptr) {
        const double d = metric(*parent, e.object);
        if (std::fabs(d - e.parent_distance) > epsilon) {
          std::ostringstream os;
          os << "stored parent distance " << e.parent_distance
             << " != actual " << d << " (routing entry, child " << e.child
             << ")";
          result.Add("parent-distance", label, os.str());
        }
      }
      if (e.covering_radius < 0.0) {
        std::ostringstream os;
        os << "negative covering radius " << e.covering_radius
           << " (child " << e.child << ")";
        result.Add("radius-sign", label, os.str());
      }
      check_ancestors(e.ancestor_distances, e.object, balls, label);
      auto next = balls;
      next.emplace_back(&e.object, e.covering_radius);
      // `next` points into the local `node` copy, which stays alive for
      // the duration of this recursive call.
      self(self, e.child, &e.object, depth + 1, next);
    }
  };
  walk(walk, tree.root(), nullptr, 0, {});

  if (leaf_objects != tree.size()) {
    std::ostringstream os;
    os << "tree.size() = " << tree.size() << " but leaves hold "
       << leaf_objects << " objects";
    result.Add("size-mismatch", "root", os.str());
  }
  return result;
}

/// When MCM_CHECK_INVARIANTS=1: validates `tree` immediately (covers
/// bulk-load and attach) and installs a post-mutation hook so every
/// Insert/Delete re-validates, throwing std::runtime_error on the first
/// violation. A no-op (and zero query-path cost) when the gate is unset.
template <typename Traits>
void InstallMTreeInvariantHook(MTree<Traits>& tree, double epsilon = 1e-9) {
  if (!InvariantChecksEnabled()) {
    return;
  }
  ThrowIfViolated(CheckMTree(tree, epsilon), "MTree invariants");
  tree.set_post_modify_hook([epsilon](const MTree<Traits>& t) {
    ThrowIfViolated(CheckMTree(t, epsilon), "MTree invariants");
  });
}

}  // namespace check
}  // namespace mcm

#endif  // MCM_CHECK_CHECK_MTREE_H_

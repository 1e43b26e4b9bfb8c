// Count-tree for itemset support counting (Terrovitis et al. [10], Sec. 5 of
// the VLDBJ paper): a prefix tree over (generalized) items, ordered by
// decreasing support, storing the support of every itemset of size <= m.
// Used by the AA loop in place of hash-based subset enumeration: building the
// tree is one pass, and violating itemsets are found by a DFS that prunes
// subtrees whose count already meets k (every descendant extends a subset
// whose support can only be lower or equal... the tree stores each itemset
// once, so the DFS simply reports nodes with 0 < count < k).
//
// Children vectors bump-allocate from a per-tree arena: tree build is
// millions of tiny sorted-insert allocations, and the arena turns each into
// a pointer bump freed wholesale with the tree. With a pool the build
// partitions the records into per-worker subtrees merged serially; children
// stay sorted by item, so the merged structure (and every DFS over it) is
// canonical — byte-identical violations regardless of worker count.

#ifndef SECRETA_ALGO_TRANSACTION_COUNT_TREE_H_
#define SECRETA_ALGO_TRANSACTION_COUNT_TREE_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "core/guarantees.h"
#include "kernels/arena.h"

namespace secreta {

/// \brief Prefix tree over sorted itemsets with per-node support counts.
class CountTree {
 public:
  /// Builds the tree of all itemsets of size <= m occurring in `records`
  /// (each record a sorted vector of gen ids). `pool` (may be null) fans the
  /// build out across per-worker subtrees; the result is identical.
  CountTree(const std::vector<std::vector<int32_t>>& records, int m,
            ThreadPool* pool = nullptr);

  /// Swaps one counted record for another: subtracts the itemsets of size
  /// <= m of `old_record` (which must be among the counted records) and adds
  /// those of `new_record`. Nodes whose count falls to 0 stay in the tree;
  /// Support and FindViolations treat them as absent, and a child's count
  /// never exceeds its parent's, so the tree answers exactly as a fresh build
  /// over the updated records would.
  void Replace(const std::vector<int32_t>& old_record,
               const std::vector<int32_t>& new_record);

  /// Support of `itemset` (must be sorted); 0 if absent.
  size_t Support(const std::vector<int32_t>& itemset) const;

  /// Itemsets with support in (0, k), up to `max_violations`, smallest
  /// support first among those found in DFS order.
  std::vector<KmViolation> FindViolations(int k, size_t max_violations) const;

  size_t num_nodes() const { return nodes_.size(); }

  /// Arena bytes backing the children vectors (observability/bench).
  size_t arena_bytes() const { return arena_.reserved_bytes(); }

 private:
  using ChildVec = std::vector<int32_t, ArenaAllocator<int32_t>>;

  struct Node {
    explicit Node(const ArenaAllocator<int32_t>& alloc) : children(alloc) {}

    int32_t item = -1;
    size_t count = 0;
    ChildVec children;  // node ids, sorted by item
  };

  // Shard subtree shell: root node only. The public constructor delegates
  // here, then inserts.
  CountTree();

  // Inserts all itemsets of records[begin, end).
  void InsertRecords(const std::vector<std::vector<int32_t>>& records,
                     size_t begin, size_t end);
  // Adds one to (or, with `remove`, subtracts one from) the count of every
  // itemset of size <= m of `record`.
  void CountItemsets(const std::vector<int32_t>& record, bool remove);
  // Adds `other`'s structure and counts into this tree.
  void MergeFrom(const CountTree& other);

  // Returns the child of `node` holding `item`, or -1.
  int32_t FindChild(int32_t node, int32_t item) const;
  // Returns the child of `node` holding `item`, creating it if needed.
  int32_t GetOrAddChild(int32_t node, int32_t item);

  // One pending extension in CountItemsets' subset enumeration.
  struct SubsetFrame {
    int32_t node;
    size_t start;
    int depth;
  };

  Arena arena_;              // declared before nodes_: outlives the vectors
  std::vector<Node> nodes_;  // nodes_[0] is the root (item -1)
  std::vector<SubsetFrame> stack_;  // CountItemsets scratch
  int m_;
};

}  // namespace secreta

#endif  // SECRETA_ALGO_TRANSACTION_COUNT_TREE_H_

// HierarchyCut: the mutable state of full-subtree global recoding over an
// item hierarchy (Apriori/LRA/VPA of Terrovitis et al. [10]). A cut maps each
// leaf to one ancestor; raising the cut generalizes items. The cut keeps the
// generalized records of one record subset in step with its raises, so the
// AA loop reads them without re-materializing the cut after every raise.

#ifndef SECRETA_ALGO_TRANSACTION_CUT_H_
#define SECRETA_ALGO_TRANSACTION_CUT_H_

#include <vector>

#include "core/context.h"
#include "core/results.h"

namespace secreta {

/// Materialized view of a cut over a record subset.
struct CutRecoding {
  TransactionRecoding recoding;
  /// Hierarchy node of each gen in `recoding.gens`.
  std::vector<NodeId> gen_nodes;
};

/// \brief A full-subtree generalization cut over the item hierarchy, with the
/// generalized records of a record subset.
class HierarchyCut {
 public:
  /// Starts with every leaf mapped to itself (identity recoding) over the
  /// records of `subset`.
  HierarchyCut(const TransactionContext& context, std::vector<size_t> subset);

  /// Replaces every cut node under `target` with `target` (raising the cut)
  /// and rewrites the records that hold an item under it. Returns the
  /// positions in the subset of the rewritten records.
  std::vector<size_t> RaiseTo(NodeId target);

  /// Current cut node covering `item`.
  NodeId NodeOf(ItemId item) const;

  /// The generalized records, one per subset row: the sorted distinct gen
  /// keys of the row's items, where a gen's key is the smallest item id its
  /// cut node covers (NodeOf(key) is the gen's node). A raised node's key is
  /// the smallest of the keys it absorbs, so keys survive raises, and they
  /// order gens exactly as Materialize's compact gen ids do: a count tree
  /// over these records is walked in the same order as one over the
  /// materialized records.
  const std::vector<std::vector<int32_t>>& records() const { return records_; }

  /// True if all items are suppressed (total-suppression fallback for the
  /// degenerate case where even the root generalization violates k^m).
  bool suppressed() const { return suppress_all_; }
  void SuppressAll() { suppress_all_ = true; }

  /// Builds the generalized transactions of the subset under the current
  /// cut, with gen labels and covers. `recoding.records[j]` corresponds to
  /// subset[j]. The gen pool contains only nodes actually used; item_map is
  /// filled (global recoding).
  CutRecoding Materialize() const;

  const TransactionContext& context() const { return *context_; }

 private:
  const TransactionContext* context_;
  std::vector<size_t> subset_;
  /// Current cut node for each leaf DFS position.
  std::vector<NodeId> node_of_pos_;
  std::vector<std::vector<int32_t>> records_;
  bool suppress_all_ = false;
};

}  // namespace secreta

#endif  // SECRETA_ALGO_TRANSACTION_CUT_H_

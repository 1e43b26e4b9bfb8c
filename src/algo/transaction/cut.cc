#include "algo/transaction/cut.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace secreta {

HierarchyCut::HierarchyCut(const TransactionContext& context,
                           std::vector<size_t> subset)
    : context_(&context), subset_(std::move(subset)) {
  const Hierarchy& h = context.hierarchy();
  node_of_pos_.resize(h.num_leaves());
  for (size_t item = 0; item < context.num_items(); ++item) {
    NodeId leaf = context.Leaf(static_cast<ItemId>(item));
    node_of_pos_[static_cast<size_t>(h.leaf_interval_begin(leaf))] = leaf;
  }
  // Every leaf is its own cut node, so each item is its own key.
  records_.reserve(subset_.size());
  for (size_t row : subset_) {
    const auto& items = context.dataset().items(row).raw();
    std::vector<int32_t> rec(items.begin(), items.end());
    std::sort(rec.begin(), rec.end());
    rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
    records_.push_back(std::move(rec));
  }
}

std::vector<size_t> HierarchyCut::RaiseTo(NodeId target) {
  const Hierarchy& h = context_->hierarchy();
  int32_t begin = h.leaf_interval_begin(target);
  int32_t end = h.leaf_interval_end(target);
  int32_t key = std::numeric_limits<int32_t>::max();
  for (int32_t pos = begin; pos < end; ++pos) {
    node_of_pos_[static_cast<size_t>(pos)] = target;
    ItemId item = context_->ItemOfLeaf(h.leaves()[static_cast<size_t>(pos)]);
    if (item != kInvalidValue) key = std::min(key, item);
  }
  // A gen lies under `target` exactly when its key's leaf does; all such
  // gens of a record collapse into the one gen of `target`.
  auto under_target = [&](int32_t gen_key) {
    int32_t pos = h.leaf_interval_begin(context_->Leaf(gen_key));
    return pos >= begin && pos < end;
  };
  std::vector<size_t> rewritten;
  for (size_t j = 0; j < records_.size(); ++j) {
    std::vector<int32_t>& rec = records_[j];
    auto kept = std::remove_if(rec.begin(), rec.end(), under_target);
    if (kept == rec.end()) continue;
    rec.erase(kept, rec.end());
    rec.insert(std::lower_bound(rec.begin(), rec.end(), key), key);
    rewritten.push_back(j);
  }
  return rewritten;
}

NodeId HierarchyCut::NodeOf(ItemId item) const {
  const Hierarchy& h = context_->hierarchy();
  NodeId leaf = context_->Leaf(item);
  return node_of_pos_[static_cast<size_t>(h.leaf_interval_begin(leaf))];
}

CutRecoding HierarchyCut::Materialize() const {
  const Hierarchy& h = context_->hierarchy();
  const Dataset& data = context_->dataset();
  CutRecoding out;
  out.recoding.item_map.assign(context_->num_items(), kSuppressedGen);
  if (suppress_all_) {
    out.recoding.records.assign(subset_.size(), {});
    for (size_t row : subset_) {
      out.recoding.suppressed_occurrences += data.items(row).raw().size();
    }
    return out;
  }
  std::unordered_map<NodeId, int32_t> gen_of_node;
  auto gen_for = [&](NodeId node) -> int32_t {
    auto [it, inserted] = gen_of_node.emplace(
        node, static_cast<int32_t>(out.recoding.gens.size()));
    if (inserted) {
      std::vector<ItemId> covers;
      for (NodeId leaf : h.LeavesUnder(node)) {
        covers.push_back(context_->ItemOfLeaf(leaf));
      }
      std::sort(covers.begin(), covers.end());
      out.recoding.gens.push_back({h.label(node), std::move(covers)});
      out.gen_nodes.push_back(node);
    }
    return it->second;
  };
  // Fill item_map for the whole domain so it reflects the global recoding.
  for (size_t item = 0; item < context_->num_items(); ++item) {
    out.recoding.item_map[item] = gen_for(NodeOf(static_cast<ItemId>(item)));
  }
  out.recoding.records.reserve(subset_.size());
  std::vector<int32_t> rec;
  for (size_t row : subset_) {
    rec.clear();
    for (ItemId item : data.items(row).raw()) {
      rec.push_back(out.recoding.item_map[static_cast<size_t>(item)]);
    }
    std::sort(rec.begin(), rec.end());
    rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
    out.recoding.records.push_back(rec);
  }
  return out;
}

}  // namespace secreta

#include "algo/transaction/apriori.h"

#include "algo/transaction/count_tree.h"
#include "metrics/information_loss.h"
#include "obs/trace.h"

namespace secreta {

Result<bool> RunAprioriLoop(HierarchyCut* cut, int k, int m, int min_depth,
                            bool suppress_on_failure, ThreadPool* pool,
                            const CancellationToken* cancel, LeafRange part) {
  const Hierarchy& h = cut->context().hierarchy();
  auto project = [&](const std::vector<int32_t>& rec) {
    std::vector<int32_t> out;
    out.reserve(rec.size());
    for (int32_t gen : rec) {
      NodeId node = cut->NodeOf(gen);
      if (h.leaf_interval_begin(node) >= part.begin &&
          h.leaf_interval_end(node) <= part.end) {
        out.push_back(gen);
      }
    }
    return out;
  };
  // The cut's records restricted to the part's gens.
  std::vector<std::vector<int32_t>> records;
  records.reserve(cut->records().size());
  for (const auto& rec : cut->records()) records.push_back(project(rec));
  bool established = true;
  for (int i = 1; i <= m; ++i) {
    // Count-tree support counting ([10] Sec. 5): one build per itemset size,
    // then a delta per raise over the rewritten records only.
    CountTree tree(records, i, pool);
    while (true) {
      SECRETA_RETURN_IF_ERROR(CheckCancelled(cancel, "apriori raise"));
      auto violations = tree.FindViolations(k, 1);
      if (violations.empty()) break;
      // Candidate raises: the distinct cut nodes of the violating itemset
      // that are still below the raise ceiling.
      NodeId best_target = kNoNode;
      double best_cost = 0;
      for (int32_t gen : violations[0].itemset) {
        NodeId node = cut->NodeOf(gen);
        if (h.depth(node) <= min_depth) continue;  // cannot raise further
        NodeId parent = h.parent(node);
        double cost = NodeNcp(h, parent);
        if (best_target == kNoNode || cost < best_cost) {
          best_target = parent;
          best_cost = cost;
        }
      }
      if (best_target == kNoNode) {
        // Every node of the violating itemset is at the ceiling.
        if (suppress_on_failure) {
          cut->SuppressAll();
          return true;
        }
        established = false;
        break;
      }
      for (size_t j : cut->RaiseTo(best_target)) {
        std::vector<int32_t> rec = project(cut->records()[j]);
        tree.Replace(records[j], rec);
        records[j] = std::move(rec);
      }
    }
  }
  return established;
}

Result<TransactionRecoding> AprioriAnonymizer::AnonymizeSubset(
    const TransactionContext& context, const std::vector<size_t>& subset,
    const AnonParams& params) {
  SECRETA_TRACE_SPAN("algo.Apriori");
  SECRETA_RETURN_IF_ERROR(params.Validate());
  if (!context.has_hierarchy()) {
    return Status::FailedPrecondition("Apriori requires an item hierarchy");
  }
  HierarchyCut cut(context, subset);
  SECRETA_ASSIGN_OR_RETURN(
      bool done, RunAprioriLoop(&cut, params.k, params.m, /*min_depth=*/0,
                                /*suppress_on_failure=*/true, pool_, cancel_));
  (void)done;  // with suppress_on_failure the loop always succeeds
  return std::move(cut.Materialize().recoding);
}

}  // namespace secreta

// Apriori Anonymization (AA) of Terrovitis et al. [10]: k^m-anonymity by
// global full-subtree generalization over the item hierarchy. For each
// itemset size i = 1..m, repeatedly finds an i-itemset with support in
// (0, k) and raises the cheapest cut node involved, until no violation
// remains.

#ifndef SECRETA_ALGO_TRANSACTION_APRIORI_H_
#define SECRETA_ALGO_TRANSACTION_APRIORI_H_

#include <cstdint>
#include <limits>

#include "algo/transaction/cut.h"
#include "core/algorithm.h"

namespace secreta {

class AprioriAnonymizer : public TransactionAnonymizer {
 public:
  std::string name() const override { return "Apriori"; }
  bool requires_hierarchy() const override { return true; }

  Result<TransactionRecoding> AnonymizeSubset(
      const TransactionContext& context, const std::vector<size_t>& subset,
      const AnonParams& params) override;
};

/// Leaf-position interval [begin, end) of the item hierarchy.
struct LeafRange {
  int32_t begin = 0;
  int32_t end = std::numeric_limits<int32_t>::max();
};

/// \brief The AA loop shared by Apriori, LRA and VPA.
///
/// Runs on `cut`'s records, counting only the gens whose cut node lies
/// inside `part` (VPA's vertical part; the default is the whole domain), and
/// never raises a node above depth `min_depth` (0 allows the root; VPA uses
/// 1 to stay inside the root's child subtrees). Returns true if
/// k^m-anonymity was established. When a violation persists with every
/// involved node unraisable: `suppress_on_failure` true suppresses all items
/// (guarantee preserved, returns true); false leaves that violation to the
/// caller, goes on with the next itemset size and returns false. The count
/// tree of each itemset size is built once (`pool`, may be null, fans the
/// build out) and then updated by delta for the records each raise
/// rewrites; `cancel` (may be null) is polled once per raise iteration.
Result<bool> RunAprioriLoop(HierarchyCut* cut, int k, int m, int min_depth,
                            bool suppress_on_failure,
                            ThreadPool* pool = nullptr,
                            const CancellationToken* cancel = nullptr,
                            LeafRange part = {});

}  // namespace secreta

#endif  // SECRETA_ALGO_TRANSACTION_APRIORI_H_

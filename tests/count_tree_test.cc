// Tests for the count-tree: agreement with the reference (hash-based)
// support counting on hand-built and randomized inputs, and of delta-updated
// trees with fresh builds.

#include "algo/transaction/count_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/random.h"

namespace secreta {
namespace {

TEST(CountTreeTest, SupportsOfKnownItemsets) {
  std::vector<std::vector<int32_t>> records{{1, 2, 3}, {1, 2}, {2, 3}, {4}};
  CountTree tree(records, 2);
  EXPECT_EQ(tree.Support({1}), 2u);
  EXPECT_EQ(tree.Support({2}), 3u);
  EXPECT_EQ(tree.Support({1, 2}), 2u);
  EXPECT_EQ(tree.Support({2, 3}), 2u);
  EXPECT_EQ(tree.Support({1, 3}), 1u);
  EXPECT_EQ(tree.Support({4}), 1u);
  EXPECT_EQ(tree.Support({5}), 0u);
  EXPECT_EQ(tree.Support({1, 4}), 0u);
  // m = 2: triples are not stored.
  EXPECT_EQ(tree.Support({1, 2, 3}), 0u);
}

TEST(CountTreeTest, EmptyItemsetHasZeroSupport) {
  CountTree tree({{1}}, 1);
  EXPECT_EQ(tree.Support({}), 0u);
}

TEST(CountTreeTest, FindViolationsMatchesReference) {
  std::vector<std::vector<int32_t>> records{{1, 2, 3}, {1, 2}, {2, 3}, {4}};
  for (int m = 1; m <= 3; ++m) {
    for (int k = 2; k <= 4; ++k) {
      auto tree_violations =
          CountTree(records, m).FindViolations(k, 1000);
      auto reference = FindKmViolations(records, k, m, nullptr, 1000);
      // Same sets of violating itemsets.
      std::map<std::vector<int32_t>, size_t> a, b;
      for (const auto& v : tree_violations) a[v.itemset] = v.support;
      for (const auto& v : reference) b[v.itemset] = v.support;
      EXPECT_EQ(a, b) << "k=" << k << " m=" << m;
    }
  }
}

TEST(CountTreeTest, RandomizedAgreementWithReference) {
  Rng rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<int32_t>> records;
    size_t n = 40;
    for (size_t r = 0; r < n; ++r) {
      std::vector<int32_t> rec;
      size_t len = static_cast<size_t>(rng.UniformInt(0, 6));
      for (size_t idx : rng.Sample(12, len)) {
        rec.push_back(static_cast<int32_t>(idx));
      }
      std::sort(rec.begin(), rec.end());
      records.push_back(std::move(rec));
    }
    int m = static_cast<int>(rng.UniformInt(1, 3));
    int k = static_cast<int>(rng.UniformInt(2, 6));
    auto tree_violations = CountTree(records, m).FindViolations(k, 100000);
    auto reference = FindKmViolations(records, k, m, nullptr, 100000);
    std::map<std::vector<int32_t>, size_t> a, b;
    for (const auto& v : tree_violations) a[v.itemset] = v.support;
    for (const auto& v : reference) b[v.itemset] = v.support;
    EXPECT_EQ(a, b) << "trial " << trial << " k=" << k << " m=" << m;
  }
}

// The AA loop keeps one tree per itemset size and swaps in the records each
// raise rewrites. After any sequence of raises the delta-updated tree must
// answer exactly as a fresh build: the same first violation (the one the
// loop acts on) and the same supports, including for itemsets that vanished.
TEST(CountTreeTest, ReplaceMatchesFreshBuildAfterRaises) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<int32_t>> records(40);
    for (auto& rec : records) {
      size_t len = static_cast<size_t>(rng.UniformInt(1, 6));
      for (size_t idx : rng.Sample(24, len)) {
        rec.push_back(static_cast<int32_t>(idx));
      }
      std::sort(rec.begin(), rec.end());
    }
    int m = static_cast<int>(rng.UniformInt(1, 3));
    int k = static_cast<int>(rng.UniformInt(2, 6));
    CountTree delta(records, m);
    for (int raise = 0; raise < 12; ++raise) {
      // A raise merges the keys [lo, hi) into lo, as a cut raise merges the
      // gens under a node into the one keyed by their smallest item.
      int32_t lo = static_cast<int32_t>(rng.UniformInt(0, 22));
      int32_t hi = static_cast<int32_t>(rng.UniformInt(lo + 1, 24));
      for (auto& rec : records) {
        std::vector<int32_t> raised;
        for (int32_t key : rec) raised.push_back(key >= lo && key < hi ? lo : key);
        std::sort(raised.begin(), raised.end());
        raised.erase(std::unique(raised.begin(), raised.end()), raised.end());
        if (raised == rec) continue;
        delta.Replace(rec, raised);
        rec = std::move(raised);
      }
      CountTree fresh(records, m);
      auto want = fresh.FindViolations(k, 1);
      auto got = delta.FindViolations(k, 1);
      ASSERT_EQ(want.size(), got.size()) << "trial " << trial;
      if (!want.empty()) {
        EXPECT_EQ(want[0].itemset, got[0].itemset) << "trial " << trial;
        EXPECT_EQ(want[0].support, got[0].support) << "trial " << trial;
      }
      for (int probe = 0; probe < 50; ++probe) {
        std::vector<int32_t> itemset;
        size_t len = static_cast<size_t>(rng.UniformInt(1, m));
        for (size_t idx : rng.Sample(24, len)) {
          itemset.push_back(static_cast<int32_t>(idx));
        }
        std::sort(itemset.begin(), itemset.end());
        EXPECT_EQ(delta.Support(itemset), fresh.Support(itemset))
            << "trial " << trial;
      }
    }
  }
}

TEST(CountTreeTest, ViolationsSortedBySupport) {
  std::vector<std::vector<int32_t>> records{{1}, {1}, {1}, {2}, {3}, {3}};
  auto violations = CountTree(records, 1).FindViolations(3, 10);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_LE(violations[0].support, violations[1].support);
  EXPECT_EQ(violations[0].itemset, (std::vector<int32_t>{2}));
}

TEST(CountTreeTest, MaxViolationsCap) {
  std::vector<std::vector<int32_t>> records{{1}, {2}, {3}, {4}};
  auto violations = CountTree(records, 1).FindViolations(2, 2);
  EXPECT_EQ(violations.size(), 2u);
}

}  // namespace
}  // namespace secreta

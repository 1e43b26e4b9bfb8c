// Golden fingerprints of the RT pipeline's releases. Each cell runs one of
// the five pairings of the comparison grid (Cluster+Apriori, Incognito+COAT,
// TopDown+PCTA, BottomUp+LRA and Cluster+VPA: together all 4 relational and
// all 5 transaction algorithms) with RTmerger, m = 2 and
// k in {5, 10}, on two synthetic datasets, and hashes the whole release:
// the relational recoding, then every transaction gen (label and covers),
// every generalized record and the suppressed-occurrence count. A speed-up
// of any algorithm on this path must leave every fingerprint unchanged.
// Re-record the table only for a change that is meant to alter releases.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "algo/rt/rt_anonymizer.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "engine/registry.h"
#include "hierarchy/hierarchy_builder.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

// The contexts borrow the dataset and the hierarchies; the fixture is built
// in place and never moved.
struct RtFixture {
  explicit RtFixture(uint64_t data_seed) : seed(data_seed) {
    SyntheticOptions options;
    options.num_records = 500;
    options.demographic_skew = 0.6;
    options.seed = seed;
    dataset = std::move(GenerateRtDataset(options)).ValueOrDie();
    columns = std::move(BuildAllColumnHierarchies(dataset)).ValueOrDie();
    items = std::move(BuildItemHierarchy(dataset)).ValueOrDie();
    relational.emplace(
        std::move(RelationalContext::Create(dataset, columns)).ValueOrDie());
    transaction.emplace(
        std::move(TransactionContext::Create(dataset, &items)).ValueOrDie());
  }

  uint64_t seed;
  Dataset dataset;
  std::vector<Hierarchy> columns;
  Hierarchy items;
  std::optional<RelationalContext> relational;
  std::optional<TransactionContext> transaction;
};

void AppendU64(std::string* out, uint64_t v) {
  for (int b = 0; b < 8; ++b) out->push_back(static_cast<char>(v >> (8 * b)));
}

// FNV-1a over a length-prefixed serialization of the release.
uint64_t Fingerprint(const RtResult& result) {
  std::string bytes;
  const RelationalRecoding& rel = result.relational;
  AppendU64(&bytes, rel.num_records());
  AppendU64(&bytes, rel.num_qi());
  for (size_t r = 0; r < rel.num_records(); ++r) {
    for (size_t qi = 0; qi < rel.num_qi(); ++qi) {
      AppendU64(&bytes, static_cast<uint64_t>(rel.at(r, qi)));
    }
  }
  const TransactionRecoding& txn = result.transaction;
  AppendU64(&bytes, txn.gens.size());
  for (const auto& gen : txn.gens) {
    AppendU64(&bytes, gen.label.size());
    bytes += gen.label;
    AppendU64(&bytes, gen.covers.size());
    for (ItemId item : gen.covers) AppendU64(&bytes, static_cast<uint64_t>(item));
  }
  AppendU64(&bytes, txn.records.size());
  for (const auto& rec : txn.records) {
    AppendU64(&bytes, rec.size());
    for (int32_t g : rec) AppendU64(&bytes, static_cast<uint64_t>(g));
  }
  AppendU64(&bytes, txn.suppressed_occurrences);
  return Fnv1a64(bytes);
}

struct Golden {
  uint64_t data_seed;
  const char* relational;
  const char* transaction;
  int k;
  uint64_t fingerprint;
};

// Runs the cell with both algorithms on the shared pool, as the engine does
// (AlgoParallelTest.RtTransactionPhasePoolInvariant pins the unpooled run to
// the pooled one).
Result<RtResult> RunCell(const RtFixture& fx, const Golden& cell) {
  SECRETA_ASSIGN_OR_RETURN(auto rel, MakeRelationalAnonymizer(cell.relational));
  SECRETA_ASSIGN_OR_RETURN(auto txn,
                           MakeTransactionAnonymizer(cell.transaction));
  rel->set_pool(&SharedEvalPool());
  txn->set_pool(&SharedEvalPool());
  AnonParams params;
  params.k = cell.k;
  params.m = 2;
  RtAnonymizer rt(rel, txn, MergerKind::kRTmerger);
  return rt.Anonymize(*fx.relational, *fx.transaction, params);
}

// Recorded from the release-producing code before the incremental AA loop
// and the parallel transaction phase; both must reproduce it bit for bit.
constexpr Golden kGolden[] = {
    {1, "Cluster", "Apriori", 5, 0x3336ab6890a8b5f9ULL},
    {1, "Cluster", "Apriori", 10, 0x9a6cc1e411ddfa2dULL},
    {1, "Incognito", "COAT", 5, 0xc84d1de51c5d6c04ULL},
    {1, "Incognito", "COAT", 10, 0x5dc2539c5459c340ULL},
    {1, "TopDown", "PCTA", 5, 0x4edf9f998869df04ULL},
    {1, "TopDown", "PCTA", 10, 0xb7d034190595140dULL},
    {1, "BottomUp", "LRA", 5, 0x10110787065aac4aULL},
    {1, "BottomUp", "LRA", 10, 0x0e68f09a1fbe92c8ULL},
    {1, "Cluster", "VPA", 5, 0xbdf3faf8b205be98ULL},
    {1, "Cluster", "VPA", 10, 0xd9f0aaf6763d3544ULL},
    {2, "Cluster", "Apriori", 5, 0x95017a157b8314f2ULL},
    {2, "Cluster", "Apriori", 10, 0xf6fc8ec623be9be8ULL},
    {2, "Incognito", "COAT", 5, 0x1b21f067a1001734ULL},
    {2, "Incognito", "COAT", 10, 0x8ac694e919a56be6ULL},
    {2, "TopDown", "PCTA", 5, 0xd39623f55daadd18ULL},
    {2, "TopDown", "PCTA", 10, 0x8096b10b8bb7ffc8ULL},
    {2, "BottomUp", "LRA", 5, 0xd4249c3d5eca9558ULL},
    {2, "BottomUp", "LRA", 10, 0x143b897ca7f9d4cfULL},
    {2, "Cluster", "VPA", 5, 0x86232717e49722b9ULL},
    {2, "Cluster", "VPA", 10, 0x35c9034116291acdULL},
};

TEST(RtGoldenTest, ReleasesMatchRecordedFingerprints) {
  std::optional<RtFixture> fx;
  for (const Golden& golden : kGolden) {
    if (!fx || fx->seed != golden.data_seed) fx.emplace(golden.data_seed);
    ASSERT_OK_AND_ASSIGN(RtResult result, RunCell(*fx, golden));
    EXPECT_EQ(Fingerprint(result), golden.fingerprint)
        << "seed=" << golden.data_seed << " " << golden.relational << "+"
        << golden.transaction << " k=" << golden.k;
  }
}

}  // namespace
}  // namespace secreta

// Shared helpers for the SECRETA test suites.

#ifndef SECRETA_TESTS_TEST_UTIL_H_
#define SECRETA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "common/status.h"
#include "data/dataset.h"
#include "datagen/synthetic.h"

#define ASSERT_OK(expr)                                     \
  do {                                                      \
    const ::secreta::Status _st = (expr);                   \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                \
  } while (false)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    const ::secreta::Status _st = (expr);                   \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                \
  } while (false)

// Unwraps a Result<T> or fails the test.
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  ASSERT_OK_AND_ASSIGN_IMPL(                                   \
      SECRETA_CONCAT(_assert_result_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr)              \
  auto tmp = (expr);                                           \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();            \
  lhs = std::move(tmp).value();

namespace secreta::testing {

/// A small deterministic RT dataset for fast tests.
inline Dataset SmallRtDataset(size_t n = 200, uint64_t seed = 5) {
  SyntheticOptions options;
  options.num_records = n;
  options.num_items = 30;
  options.num_origins = 8;
  options.num_occupations = 5;
  options.age_min = 20;
  options.age_max = 59;
  options.min_items_per_record = 1;
  options.max_items_per_record = 5;
  options.seed = seed;
  auto ds = GenerateRtDataset(options);
  return std::move(ds).ValueOrDie();
}

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

}  // namespace secreta::testing

#endif  // SECRETA_TESTS_TEST_UTIL_H_

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "export/json_writer.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

Percentile NearestRank(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  out.value = values[index];
  out.above = values.size() - 1 - index;
  return out;
}

double Remainder(double total, const std::vector<double>& parts) {
  for (double part : parts) total -= part;
  return total;
}

double AlternatingOverhead(const std::vector<double>& block_seconds) {
  std::vector<double> ratios;
  for (size_t b = 1; b + 1 < block_seconds.size(); b += 2) {
    ratios.push_back(2 * block_seconds[b] /
                     (block_seconds[b - 1] + block_seconds[b + 1]));
  }
  return ratios.empty() ? 0 : Median(ratios) - 1;
}

double WireRound(double value) {
  secreta::JsonWriter writer;
  writer.Number(value);
  return std::strtod(writer.TakeString().c_str(), nullptr);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double OpCounts::failed_fraction() const {
  const uint64_t total = attempted();
  return total == 0 ? 0 : static_cast<double>(not_ok()) / double(total);
}

OpCounts& OpCounts::operator+=(const OpCounts& other) {
  ok += other.ok;
  failed += other.failed;
  rejected += other.rejected;
  mismatched += other.mismatched;
  return *this;
}

}  // namespace perfbench

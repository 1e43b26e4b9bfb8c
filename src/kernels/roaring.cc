#include "kernels/roaring.h"

#include <algorithm>

#include "kernels/kernels.h"

namespace secreta {

namespace {

constexpr size_t kArrayMax = 4096;    // max array-container cardinality
constexpr size_t kBitsetWords = 1024; // 65536 bits

size_t ContainerBytes(const RoaringBitmap::ContainerType type,
                      size_t cardinality, size_t num_runs) {
  switch (type) {
    case RoaringBitmap::ContainerType::kArray:
      return 2 * cardinality;
    case RoaringBitmap::ContainerType::kBitset:
      return 8 * kBitsetWords;
    case RoaringBitmap::ContainerType::kRun:
      return 4 * num_runs;
  }
  return 0;
}

// Bits set in `bits` within [start, end] inclusive (low-16-bit positions).
size_t BitsetRangeCount(const std::vector<uint64_t>& bits, uint32_t start,
                        uint32_t end) {
  size_t first_word = start >> 6;
  size_t last_word = end >> 6;
  uint64_t first_mask = ~uint64_t{0} << (start & 63);
  uint64_t last_mask = (end & 63) == 63
                           ? ~uint64_t{0}
                           : ((uint64_t{1} << ((end & 63) + 1)) - 1);
  if (first_word == last_word) {
    uint64_t masked = bits[first_word] & first_mask & last_mask;
    return kernels::PopcountRange(&masked, 1);
  }
  uint64_t head = bits[first_word] & first_mask;
  uint64_t tail = bits[last_word] & last_mask;
  size_t count = kernels::PopcountRange(&head, 1) +
                 kernels::PopcountRange(&tail, 1);
  if (last_word > first_word + 1) {
    count += kernels::PopcountRange(bits.data() + first_word + 1,
                                    last_word - first_word - 1);
  }
  return count;
}

size_t CountRunsInArray(const std::vector<uint16_t>& values) {
  size_t runs = values.empty() ? 0 : 1;
  for (size_t i = 1; i < values.size(); ++i) {
    runs += (values[i] != values[i - 1] + 1);
  }
  return runs;
}

size_t CountRunsInBitset(const std::vector<uint64_t>& bits) {
  size_t runs = 0;
  uint64_t carry = 0;  // bit 63 of the previous word
  for (uint64_t w : bits) {
    uint64_t starts = w & ~((w << 1) | carry);
    runs += kernels::PopcountRange(&starts, 1);
    carry = w >> 63;
  }
  return runs;
}

}  // namespace

void RoaringBitmap::Append(uint32_t value) {
  uint16_t key = static_cast<uint16_t>(value >> 16);
  uint16_t low = static_cast<uint16_t>(value & 0xffff);
  if (has_last_ && value <= last_) {
    // Strictly-increasing contract violated; ignore to keep the bitmap
    // consistent (builders always feed sorted unique ids).
    return;
  }
  if (containers_.empty() || containers_.back().key != key) {
    if (!containers_.empty()) Seal(&containers_.back());
    Container fresh;
    fresh.key = key;
    containers_.push_back(std::move(fresh));
  }
  Container& c = containers_.back();
  if (c.type == ContainerType::kArray) {
    if (c.cardinality < kArrayMax) {
      c.values.push_back(low);
    } else {
      // Overflowing array: promote to bitset mid-build.
      c.bits.assign(kBitsetWords, 0);
      for (uint16_t v : c.values) c.bits[v >> 6] |= uint64_t{1} << (v & 63);
      c.values.clear();
      c.values.shrink_to_fit();
      c.type = ContainerType::kBitset;
      c.bits[low >> 6] |= uint64_t{1} << (low & 63);
    }
  } else {
    c.bits[low >> 6] |= uint64_t{1} << (low & 63);
  }
  ++c.cardinality;
  ++cardinality_;
  has_last_ = true;
  last_ = value;
}

void RoaringBitmap::Finish() {
  if (!containers_.empty()) Seal(&containers_.back());
}

void RoaringBitmap::Seal(Container* c) {
  // Decide the cheapest representation: the build left either a sorted
  // array (<= 4096) or a bitset; a run container wins when few runs cover
  // the chunk (contiguous id ranges).
  size_t runs = c->type == ContainerType::kArray
                    ? CountRunsInArray(c->values)
                    : CountRunsInBitset(c->bits);
  size_t current_bytes = ContainerBytes(c->type, c->cardinality, runs);
  if (ContainerBytes(ContainerType::kRun, c->cardinality, runs) >=
      current_bytes) {
    c->values.shrink_to_fit();
    return;
  }
  std::vector<uint16_t> run_pairs;
  run_pairs.reserve(runs * 2);
  if (c->type == ContainerType::kArray) {
    for (size_t i = 0; i < c->values.size();) {
      size_t j = i + 1;
      while (j < c->values.size() && c->values[j] == c->values[j - 1] + 1) ++j;
      run_pairs.push_back(c->values[i]);
      run_pairs.push_back(static_cast<uint16_t>(j - i - 1));
      i = j;
    }
  } else {
    int32_t run_start = -1;
    for (uint32_t v = 0; v < 65536; ++v) {
      bool set = (c->bits[v >> 6] >> (v & 63)) & 1;
      if (set && run_start < 0) run_start = static_cast<int32_t>(v);
      if (!set && run_start >= 0) {
        run_pairs.push_back(static_cast<uint16_t>(run_start));
        run_pairs.push_back(static_cast<uint16_t>(v - 1 -
                                                  static_cast<uint32_t>(run_start)));
        run_start = -1;
      }
    }
    if (run_start >= 0) {
      run_pairs.push_back(static_cast<uint16_t>(run_start));
      run_pairs.push_back(
          static_cast<uint16_t>(65535 - static_cast<uint32_t>(run_start)));
    }
    c->bits.clear();
    c->bits.shrink_to_fit();
  }
  c->type = ContainerType::kRun;
  c->values = std::move(run_pairs);
}

RoaringBitmap RoaringBitmap::FromSorted(const uint32_t* data, size_t n) {
  RoaringBitmap bm;
  for (size_t i = 0; i < n; ++i) bm.Append(data[i]);
  bm.Finish();
  return bm;
}

bool RoaringBitmap::ContainerContains(const Container& c, uint16_t low) {
  switch (c.type) {
    case ContainerType::kArray:
      return std::binary_search(c.values.begin(), c.values.end(), low);
    case ContainerType::kBitset:
      return (c.bits[low >> 6] >> (low & 63)) & 1;
    case ContainerType::kRun: {
      // Find the last run starting at or before `low`.
      size_t lo = 0;
      size_t hi = c.values.size() / 2;
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (c.values[2 * mid] <= low) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == 0) return false;
      uint32_t start = c.values[2 * (lo - 1)];
      uint32_t len = c.values[2 * (lo - 1) + 1];
      return low <= start + len;
    }
  }
  return false;
}

bool RoaringBitmap::Contains(uint32_t value) const {
  uint16_t key = static_cast<uint16_t>(value >> 16);
  auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const Container& c, uint16_t k) { return c.key < k; });
  if (it == containers_.end() || it->key != key) return false;
  return ContainerContains(*it, static_cast<uint16_t>(value & 0xffff));
}

size_t RoaringBitmap::AndCardinalityPair(const Container& a,
                                         const Container& b) {
  // Canonicalize pair order: array < bitset < run by enum value.
  const Container* x = &a;
  const Container* y = &b;
  if (static_cast<int>(a.type) > static_cast<int>(b.type)) std::swap(x, y);
  if (x->type == ContainerType::kArray && y->type == ContainerType::kArray) {
    // uint16 two-pointer merge; arrays are <= 4096 elements, the 32-bit
    // kernels::IntersectCount kernel serves the full-width posting lists.
    size_t i = 0;
    size_t j = 0;
    size_t count = 0;
    while (i < x->values.size() && j < y->values.size()) {
      uint16_t u = x->values[i];
      uint16_t v = y->values[j];
      count += (u == v);
      i += (u <= v);
      j += (v <= u);
    }
    return count;
  }
  if (x->type == ContainerType::kArray) {
    size_t count = 0;
    for (uint16_t v : x->values) count += ContainerContains(*y, v);
    return count;
  }
  if (x->type == ContainerType::kBitset && y->type == ContainerType::kBitset) {
    return kernels::AndPopcount(x->bits.data(), y->bits.data(), kBitsetWords);
  }
  if (x->type == ContainerType::kBitset) {  // y is run
    size_t count = 0;
    for (size_t i = 0; i + 1 < y->values.size(); i += 2) {
      uint32_t start = y->values[i];
      uint32_t end = start + y->values[i + 1];
      count += BitsetRangeCount(x->bits, start, end);
    }
    return count;
  }
  // run x run: two-pointer interval overlap.
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i + 1 < x->values.size() && j + 1 < y->values.size()) {
    uint32_t xs = x->values[i];
    uint32_t xe = xs + x->values[i + 1];
    uint32_t ys = y->values[j];
    uint32_t ye = ys + y->values[j + 1];
    uint32_t lo = std::max(xs, ys);
    uint32_t hi = std::min(xe, ye);
    if (lo <= hi) count += hi - lo + 1;
    if (xe <= ye) i += 2;
    if (ye <= xe) j += 2;
  }
  return count;
}

size_t RoaringBitmap::AndCardinality(const RoaringBitmap& other) const {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < containers_.size() && j < other.containers_.size()) {
    uint16_t ka = containers_[i].key;
    uint16_t kb = other.containers_[j].key;
    if (ka == kb) {
      count += AndCardinalityPair(containers_[i], other.containers_[j]);
      ++i;
      ++j;
    } else if (ka < kb) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

void RoaringBitmap::IntersectPair(const Container& a, const Container& b,
                                  std::vector<uint16_t>* out) {
  if (a.type == ContainerType::kBitset && b.type == ContainerType::kBitset) {
    for (size_t w = 0; w < kBitsetWords; ++w) {
      uint64_t word = a.bits[w] & b.bits[w];
      while (word != 0) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
        out->push_back(static_cast<uint16_t>((w << 6) + bit));
        word &= word - 1;
      }
    }
    return;
  }
  if (a.type == ContainerType::kArray && b.type == ContainerType::kArray) {
    size_t i = 0;
    size_t j = 0;
    while (i < a.values.size() && j < b.values.size()) {
      uint16_t u = a.values[i];
      uint16_t v = b.values[j];
      if (u == v) out->push_back(u);
      i += (u <= v);
      j += (v <= u);
    }
    return;
  }
  // Mixed pair: walk the sparser container's values in order, filter through
  // the other. Runs expand lazily.
  const Container* probe = &a;
  const Container* filter = &b;
  if (a.cardinality > b.cardinality) std::swap(probe, filter);
  switch (probe->type) {
    case ContainerType::kArray:
      for (uint16_t v : probe->values) {
        if (ContainerContains(*filter, v)) out->push_back(v);
      }
      break;
    case ContainerType::kRun:
      for (size_t i = 0; i + 1 < probe->values.size(); i += 2) {
        uint32_t start = probe->values[i];
        uint32_t end = start + probe->values[i + 1];
        for (uint32_t v = start; v <= end; ++v) {
          if (ContainerContains(*filter, static_cast<uint16_t>(v))) {
            out->push_back(static_cast<uint16_t>(v));
          }
        }
      }
      break;
    case ContainerType::kBitset:
      for (size_t w = 0; w < kBitsetWords; ++w) {
        uint64_t word = probe->bits[w];
        while (word != 0) {
          unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
          uint16_t v = static_cast<uint16_t>((w << 6) + bit);
          if (ContainerContains(*filter, v)) out->push_back(v);
          word &= word - 1;
        }
      }
      break;
  }
}

RoaringBitmap RoaringBitmap::And(const RoaringBitmap& other) const {
  RoaringBitmap result;
  size_t i = 0;
  size_t j = 0;
  std::vector<uint16_t> values;
  while (i < containers_.size() && j < other.containers_.size()) {
    uint16_t ka = containers_[i].key;
    uint16_t kb = other.containers_[j].key;
    if (ka == kb) {
      values.clear();
      IntersectPair(containers_[i], other.containers_[j], &values);
      uint32_t base = static_cast<uint32_t>(ka) << 16;
      for (uint16_t v : values) result.Append(base | v);
      ++i;
      ++j;
    } else if (ka < kb) {
      ++i;
    } else {
      ++j;
    }
  }
  result.Finish();
  return result;
}

std::vector<uint32_t> RoaringBitmap::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(cardinality_);
  ForEachSet([&](uint32_t v) { out.push_back(v); });
  return out;
}

size_t RoaringBitmap::MemoryBytes() const {
  size_t bytes = containers_.size() * sizeof(Container);
  for (const Container& c : containers_) {
    bytes += c.values.capacity() * sizeof(uint16_t) +
             c.bits.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace secreta

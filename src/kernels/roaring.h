// Roaring-style compressed bitmap (Chambi, Lemire, Kaser, Godin: "Better
// bitmap performance with Roaring bitmaps"). The 32-bit value space is
// chunked by the high 16 bits; each populated chunk holds one container
// chosen by density:
//
//   array   sorted uint16 list            (cardinality <= 4096)
//   bitset  1024-word fixed bitmap        (cardinality  > 4096)
//   run     sorted (start, length-1) pairs when that beats both
//
// Sparse posting lists (an item held by 0.1% of records) shrink from 4 bytes
// per record to 2, dense ones to ~1 bit, and contiguous id ranges (sorted
// inserts, shard-local ids) to a handful of runs — while intersections run
// on the SIMD kernels (kernels::AndPopcount word blocks for bitset pairs,
// galloping/8-lane kernels::IntersectCount for array pairs).
//
// Immutable after Finish()/FromSorted(); thread-safe for concurrent const
// use. Values must be appended in strictly increasing order.

#ifndef SECRETA_KERNELS_ROARING_H_
#define SECRETA_KERNELS_ROARING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace secreta {

/// \brief Compressed bitmap over uint32 ids with per-chunk containers.
class RoaringBitmap {
 public:
  enum class ContainerType { kArray, kBitset, kRun };

  RoaringBitmap() = default;

  /// Builds from a strictly-increasing id list.
  static RoaringBitmap FromSorted(const uint32_t* data, size_t n);
  static RoaringBitmap FromSorted(const std::vector<uint32_t>& data) {
    return FromSorted(data.data(), data.size());
  }

  /// Appends `value`; must exceed every previously appended value.
  void Append(uint32_t value);
  /// Seals the bitmap: packs the trailing chunk and run-optimizes every
  /// container. Append must not be called afterwards.
  void Finish();

  /// Number of set ids. O(1) after Finish().
  size_t Cardinality() const { return cardinality_; }
  bool Empty() const { return cardinality_ == 0; }

  bool Contains(uint32_t value) const;

  /// |this ∩ other| without materializing the intersection.
  size_t AndCardinality(const RoaringBitmap& other) const;

  /// this ∩ other as a new (finished) bitmap.
  RoaringBitmap And(const RoaringBitmap& other) const;

  /// All ids, ascending.
  std::vector<uint32_t> ToVector() const;

  /// Calls fn(id) for every set id in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (const Container& c : containers_) {
      uint32_t base = static_cast<uint32_t>(c.key) << 16;
      switch (c.type) {
        case ContainerType::kArray:
          for (uint16_t v : c.values) fn(base | v);
          break;
        case ContainerType::kRun:
          for (size_t i = 0; i + 1 < c.values.size(); i += 2) {
            uint32_t start = c.values[i];
            uint32_t len = c.values[i + 1];
            for (uint32_t v = start; v <= start + len; ++v) fn(base | v);
          }
          break;
        case ContainerType::kBitset:
          for (size_t w = 0; w < c.bits.size(); ++w) {
            uint64_t word = c.bits[w];
            while (word != 0) {
              unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
              fn(base | static_cast<uint32_t>((w << 6) + bit));
              word &= word - 1;
            }
          }
          break;
      }
    }
  }

  /// Heap bytes of the container payloads (the compression win to report).
  size_t MemoryBytes() const;

  // -- container introspection (tests, stats) --------------------------------
  size_t num_containers() const { return containers_.size(); }
  ContainerType container_type(size_t i) const { return containers_[i].type; }
  uint16_t container_key(size_t i) const { return containers_[i].key; }

 private:
  /// One chunk: `values` holds sorted uint16s (kArray), (start, length-1)
  /// pairs (kRun), or is empty with `bits` populated (kBitset, 1024 words).
  struct Container {
    uint16_t key = 0;
    ContainerType type = ContainerType::kArray;
    uint32_t cardinality = 0;
    std::vector<uint16_t> values;
    std::vector<uint64_t> bits;
  };

  static void Seal(Container* c);
  static size_t AndCardinalityPair(const Container& a, const Container& b);
  /// Appends the sorted intersection of `a` and `b` (low 16 bits) to `out`.
  static void IntersectPair(const Container& a, const Container& b,
                            std::vector<uint16_t>* out);
  static bool ContainerContains(const Container& c, uint16_t low);

  std::vector<Container> containers_;  // sorted by key
  size_t cardinality_ = 0;
  bool has_last_ = false;
  uint32_t last_ = 0;
};

}  // namespace secreta

#endif  // SECRETA_KERNELS_ROARING_H_

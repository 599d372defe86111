/// \file hash.h
/// \brief Hashing utilities and a flat open-addressing int64 hash map used in
/// join/aggregation hot paths.

#ifndef VERTEXICA_COMMON_HASH_H_
#define VERTEXICA_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vertexica {

/// \brief Strong 64-bit integer mix (a Murmur3 finalizer variant).
inline uint64_t HashInt64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// \brief Partition id of an int64 key for `num_partitions` buckets — the
/// vertex-batching partition of a vertex id (§2.3).
inline int PartitionOf(int64_t key, int num_partitions) {
  return static_cast<int>(HashInt64(static_cast<uint64_t>(key)) %
                          static_cast<uint64_t>(num_partitions));
}

/// \brief FNV-1a over bytes.
inline uint64_t HashBytes(const void* data, std::size_t len,
                          uint64_t seed = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t HashString(const std::string& s) {
  return HashBytes(s.data(), s.size());
}

/// \brief Combines two hashes (boost::hash_combine style, 64-bit).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// \brief Open-addressing hash map from int64 key to a value of type V.
///
/// Linear probing over a power-of-two table. Keys may be any int64 value;
/// an explicit occupancy flag is stored so no key is reserved as a sentinel.
/// Used on join build sides and aggregation tables, where it is markedly
/// faster than `std::unordered_map`.
template <typename V>
class Int64HashMap {
 public:
  explicit Int64HashMap(std::size_t expected = 16) { Rehash(CapFor(expected)); }

  /// \brief Returns the value slot for `key`, inserting `init` if absent.
  V& GetOrInsert(int64_t key, const V& init = V{}) {
    if ((size_ + 1) * 10 >= cap_ * 7) Rehash(cap_ * 2);
    std::size_t idx = Probe(key);
    if (!slots_[idx].occupied) {
      slots_[idx].occupied = true;
      slots_[idx].key = key;
      slots_[idx].value = init;
      ++size_;
    }
    return slots_[idx].value;
  }

  /// \brief Returns a pointer to the value for `key`, or nullptr.
  V* Find(int64_t key) {
    const std::size_t idx = Probe(key);
    return slots_[idx].occupied ? &slots_[idx].value : nullptr;
  }
  const V* Find(int64_t key) const {
    const std::size_t idx = Probe(key);
    return slots_[idx].occupied ? &slots_[idx].value : nullptr;
  }

  bool Contains(int64_t key) const { return Find(key) != nullptr; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// \brief Invokes fn(key, value&) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& slot : slots_) {
      if (slot.occupied) fn(slot.key, slot.value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& slot : slots_) {
      if (slot.occupied) fn(slot.key, slot.value);
    }
  }

  void Clear() {
    for (auto& slot : slots_) slot.occupied = false;
    size_ = 0;
  }

 private:
  struct Slot {
    int64_t key = 0;
    V value{};
    bool occupied = false;
  };

  static std::size_t CapFor(std::size_t expected) {
    std::size_t cap = 16;
    while (cap * 7 < expected * 10) cap <<= 1;
    return cap;
  }

  std::size_t Probe(int64_t key) const {
    std::size_t idx = HashInt64(static_cast<uint64_t>(key)) & (cap_ - 1);
    while (slots_[idx].occupied && slots_[idx].key != key) {
      idx = (idx + 1) & (cap_ - 1);
    }
    return idx;
  }

  void Rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    cap_ = new_cap;
    slots_.assign(cap_, Slot{});
    size_ = 0;
    for (auto& slot : old) {
      if (slot.occupied) {
        GetOrInsert(slot.key, std::move(slot.value));
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vertexica

#endif  // VERTEXICA_COMMON_HASH_H_

// Open-addressing hash index for small POD keys + a string interner.
//
// The control plane's hot lookups (delta cache, op-health, scratch
// membership sets, string interning) were node-based std::map /
// std::unordered_map: one allocation per entry, a pointer chase per probe.
// At 10^5-10^6 targets that is the dominant tick cost. This header
// replaces them with flat, probe-local storage:
//
//  - FlatMap<K, V>: linear-probing open addressing over one contiguous
//    slot array, power-of-two capacity, backward-shift deletion (no
//    tombstones, so load factor never rots). Keys are small trivially
//    copyable PODs; find/insert/erase are O(1) expected with zero heap
//    traffic except on growth -- the steady-state contract pinned by
//    tests/alloc_regression_test.cc;
//  - FlatSet<K>: membership-only FlatMap;
//  - StringInterner: string -> dense uint32 id, payload bytes copied into
//    fixed blocks (stable views), collision-verified 64-bit hashing.
//    Lookup() never allocates and never inserts, which is what makes per-op
//    health-key resolution allocation-free.
//
// Iteration order is table order: deterministic for a fixed operation
// sequence, NOT insertion order. Nothing that feeds golden traces iterates
// these tables; aggregate counters and keyed lookups only.
//
// Not thread-safe. Exemplar lineage: Boostibot c_lib's hash_index (ROADMAP
// item 2): the index stores (hash, value) and the caller verifies payload
// equality, which is exactly how StringInterner resolves 64-bit collisions.
#ifndef LACHESIS_COMMON_HASH_INDEX_H_
#define LACHESIS_COMMON_HASH_INDEX_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace lachesis {

// FNV-1a over the bytes, then a SplitMix64 finalizer so short keys with
// low-entropy tails still spread over the table.
inline std::uint64_t HashBytes(const void* data, std::size_t size,
                               std::uint64_t seed = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

// Default hasher: the key's object representation. Only sound for keys
// without padding bytes; keys with padding must supply their own hasher.
template <typename K>
struct PodHash {
  static_assert(std::is_trivially_copyable_v<K>,
                "FlatMap keys must be trivially copyable PODs");
  std::uint64_t operator()(const K& key) const {
    return HashBytes(&key, sizeof(K));
  }
};

template <typename K, typename V, typename Hash = PodHash<K>>
class FlatMap {
 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  // Pointer to the mapped value, nullptr when absent. Never allocates.
  [[nodiscard]] V* Find(const K& key) {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash{}(key)&mask;
    while (full_[i]) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask;
    }
    return nullptr;
  }
  [[nodiscard]] const V* Find(const K& key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }
  [[nodiscard]] bool Contains(const K& key) const {
    return Find(key) != nullptr;
  }

  // Inserts or overwrites; returns the mapped value. Allocates only when
  // the table grows past its 3/4 load factor.
  V& Insert(const K& key, V value) {
    V* slot = FindOrInsert(key);
    *slot = std::move(value);
    return *slot;
  }

  // Returns the existing value, or a default-constructed one just inserted
  // (the FlatMap operator[]).
  V* FindOrInsert(const K& key) {
    ReserveFor(size_ + 1);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash{}(key)&mask;
    while (full_[i]) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask;
    }
    slots_[i].key = key;
    slots_[i].value = V{};
    full_[i] = 1;
    ++size_;
    return &slots_[i].value;
  }

  // Backward-shift deletion: the probe chain after the hole is compacted,
  // so lookups never wade through tombstones. Returns true when removed.
  bool Erase(const K& key) {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash{}(key)&mask;
    while (full_[i]) {
      if (slots_[i].key == key) break;
      i = (i + 1) & mask;
    }
    if (!full_[i]) return false;
    full_[i] = 0;
    std::size_t hole = i;
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (!full_[j]) break;
      const std::size_t ideal = Hash{}(slots_[j].key)&mask;
      // Move j back into the hole unless its ideal slot lies strictly
      // inside (hole, j] on the probe circle (then it is already as close
      // to home as it can get).
      const bool in_range = hole <= j ? (ideal > hole && ideal <= j)
                                      : (ideal > hole || ideal <= j);
      if (!in_range) {
        slots_[hole] = slots_[j];
        full_[hole] = 1;
        full_[j] = 0;
        hole = j;
      }
    }
    --size_;
    return true;
  }

  // Drops all entries but keeps the table memory (steady-state reuse).
  void Clear() {
    std::fill(full_.begin(), full_.end(), 0);
    size_ = 0;
  }

  // Grows the table so `count` entries fit without rehashing.
  void Reserve(std::size_t count) { ReserveFor(count); }

  // Visits every entry in table order (deterministic for a fixed op
  // sequence; not insertion order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (full_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  struct Slot {
    K key;
    V value;
  };

  void ReserveFor(std::size_t count) {
    // Grow at 3/4 load so probe chains stay short.
    if (!slots_.empty() && count * 4 <= slots_.size() * 3) return;
    std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    while (count * 4 > cap * 3) cap *= 2;
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_full = std::move(full_);
    slots_.assign(cap, Slot{});
    full_.assign(cap, 0);
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_full[i]) continue;
      std::size_t j = Hash{}(old_slots[i].key)&mask;
      while (full_[j]) j = (j + 1) & mask;
      slots_[j] = old_slots[i];
      full_[j] = 1;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> full_;  // 1 = occupied
  std::size_t size_ = 0;
};

// Membership-only FlatMap.
template <typename K, typename Hash = PodHash<K>>
class FlatSet {
 public:
  // True when newly inserted, false when already present.
  bool Insert(const K& key) {
    const std::size_t before = map_.size();
    map_.FindOrInsert(key);
    return map_.size() != before;
  }
  [[nodiscard]] bool Contains(const K& key) const { return map_.Contains(key); }
  bool Erase(const K& key) { return map_.Erase(key); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  void Clear() { map_.Clear(); }
  void Reserve(std::size_t count) { map_.Reserve(count); }

 private:
  struct Empty {};
  FlatMap<K, Empty, Hash> map_;
};

// String -> dense uint32 id interner. Id 0 is reserved for "" (interned at
// construction), matching the obs recorder's StrId convention. Payload
// bytes are copied into 64 KiB blocks that never move, so returned views
// are stable for the interner's lifetime; the index stores (hash, id) pairs
// and verifies bytes on every probe, so 64-bit hash collisions cost an
// extra compare, never a wrong id.
// Entries are never removed: growth is bounded by the number of distinct
// strings ever seen (targets, group names, policy names -- warmup-bounded
// in practice).
class StringInterner {
 public:
  StringInterner() { views_.push_back(std::string_view()); }

  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  // Returns the id of `s`, interning it first if new. "" -> 0.
  std::uint32_t Intern(std::string_view s) {
    if (s.empty()) return 0;
    const std::uint64_t hash = HashOf(s);
    std::uint32_t id = Probe(hash, s);
    if (id != kAbsent) return id;
    id = static_cast<std::uint32_t>(views_.size());
    views_.push_back(Store(s));
    InsertIndex(hash, id);
    return id;
  }

  // Non-inserting lookup: 0 when never interned (or empty). Never
  // allocates -- the allocation-free hot path for health-key resolution.
  [[nodiscard]] std::uint32_t Lookup(std::string_view s) const {
    if (s.empty()) return 0;
    const std::uint32_t id = Probe(HashOf(s), s);
    return id == kAbsent ? 0 : id;
  }

  // The interned bytes ("" for unknown ids). Stable until destruction.
  [[nodiscard]] std::string_view View(std::uint32_t id) const {
    return id < views_.size() ? views_[id] : std::string_view();
  }

  // Number of ids handed out, including id 0.
  [[nodiscard]] std::size_t size() const { return views_.size(); }

 private:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  struct IndexSlot {
    std::uint64_t hash = 0;
    std::uint32_t id = kAbsent;
  };

  static constexpr std::size_t kBlockBytes = 1 << 16;

  // Copies `s` into the last block, or into a new one when it does not fit;
  // a string longer than a block gets a block of its own, which is then
  // full. Blocks are not zero-filled: their pages become resident only as
  // strings are written.
  std::string_view Store(std::string_view s) {
    if (s.size() > kBlockBytes - block_used_) {
      blocks_.push_back(std::make_unique_for_overwrite<char[]>(
          std::max(s.size(), kBlockBytes)));
      block_used_ = 0;
    }
    char* copy = blocks_.back().get() + block_used_;
    std::memcpy(copy, s.data(), s.size());
    block_used_ = std::min(block_used_ + s.size(), kBlockBytes);
    return std::string_view(copy, s.size());
  }

  static std::uint64_t HashOf(std::string_view s) {
    // Hash 0 doubles as the empty-slot sentinel; remap the (vanishingly
    // rare) real 0 so it stays probeable.
    const std::uint64_t h = HashBytes(s.data(), s.size());
    return h == 0 ? 1 : h;
  }

  [[nodiscard]] std::uint32_t Probe(std::uint64_t hash,
                                    std::string_view s) const {
    if (index_.empty()) return kAbsent;
    const std::size_t mask = index_.size() - 1;
    std::size_t i = hash & mask;
    while (index_[i].hash != 0) {
      if (index_[i].hash == hash && views_[index_[i].id] == s) {
        return index_[i].id;
      }
      i = (i + 1) & mask;
    }
    return kAbsent;
  }

  void InsertIndex(std::uint64_t hash, std::uint32_t id) {
    if (index_.empty() || (views_.size()) * 4 > index_.size() * 3) {
      const std::size_t cap = index_.empty() ? 64 : index_.size() * 2;
      std::vector<IndexSlot> old = std::move(index_);
      index_.assign(cap, IndexSlot{});
      for (const IndexSlot& slot : old) {
        if (slot.hash != 0) Place(slot.hash, slot.id);
      }
    }
    Place(hash, id);
  }

  void Place(std::uint64_t hash, std::uint32_t id) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = hash & mask;
    while (index_[i].hash != 0) i = (i + 1) & mask;
    index_[i] = IndexSlot{hash, id};
  }

  std::vector<std::unique_ptr<char[]>> blocks_;
  std::size_t block_used_ = kBlockBytes;  // bytes taken of blocks_.back()
  std::vector<std::string_view> views_;
  std::vector<IndexSlot> index_;
};

}  // namespace lachesis

#endif  // LACHESIS_COMMON_HASH_INDEX_H_

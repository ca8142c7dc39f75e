// Bump-pointer scratch arena with block reuse.
//
// Per-tick control-plane work (scratch sets during RemoveQuery /
// reconciliation, interned string payloads) needs many small short-lived
// or append-only allocations. A general-purpose heap pays per-allocation
// metadata and, at 10^5-10^6 entities, allocator lock traffic and cache
// misses on every node. The arena replaces that with a bump pointer over
// geometrically grown blocks:
//
//  - Allocate() is a pointer bump (no per-allocation header, no free);
//  - Reset() rewinds to the first block and REUSES every block already
//    grown, so a warmed-up arena allocates nothing from the heap ever
//    again -- the steady-state contract the allocation-regression test
//    (tests/alloc_regression_test.cc) pins;
//  - blocks never move, so arena-backed payloads (e.g. interned string
//    bytes, see hash_index.h) are pointer-stable for the arena's lifetime
//    (until Reset or destruction).
//
// Not thread-safe; owners that share one (obs::Recorder) guard it with
// their own mutex. Alignment: every allocation is aligned to `align`
// (defaults to alignof(std::max_align_t) for raw bytes, alignof(T) for
// typed arrays).
#ifndef LACHESIS_COMMON_ARENA_H_
#define LACHESIS_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace lachesis {

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 1 << 16;  // 64 KiB

  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes < 64 ? 64 : block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  // Returns `size` bytes aligned to `align`. Never fails for size 0 (a
  // distinct, valid pointer is still returned). Oversized requests get a
  // dedicated block of exactly the requested size.
  void* Allocate(std::size_t size, std::size_t align = alignof(std::max_align_t)) {
    if (size == 0) size = 1;
    std::size_t offset = Align(offset_, align);
    if (block_ >= blocks_.size() || offset + size > blocks_[block_].size) {
      if (!AdvanceToFit(size, align)) NewBlock(size);
      offset = Align(offset_, align);
    }
    void* p = blocks_[block_].data.get() + offset;
    offset_ = offset + size;
    bytes_used_ += size;
    return p;
  }

  // Typed array allocation. Memory is uninitialized; trivially-destructible
  // payloads only (the arena never runs destructors).
  template <typename T>
  T* AllocateArray(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  // Copies `size` bytes into the arena and returns the stable copy.
  char* CopyBytes(const char* data, std::size_t size) {
    char* p = static_cast<char*>(Allocate(size, 1));
    for (std::size_t i = 0; i < size; ++i) p[i] = data[i];
    return p;
  }

  // Rewinds to empty WITHOUT releasing blocks: the next fill reuses them.
  // Everything previously allocated is invalidated.
  void Reset() {
    block_ = 0;
    offset_ = 0;
    bytes_used_ = 0;
  }

  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  static std::size_t Align(std::size_t offset, std::size_t align) {
    return (offset + align - 1) & ~(align - 1);
  }

  // Tries to move to an already-grown block that fits; returns false when a
  // fresh block is needed.
  bool AdvanceToFit(std::size_t size, std::size_t align) {
    while (block_ + 1 < blocks_.size()) {
      ++block_;
      offset_ = 0;
      if (Align(offset_, align) + size <= blocks_[block_].size) return true;
    }
    return false;
  }

  void NewBlock(std::size_t min_size) {
    // Geometric growth doubles the block size each time so a warmed arena
    // holds O(log total) blocks; oversized one-off requests get an exact
    // block without disturbing the growth schedule.
    std::size_t size = block_bytes_ << (blocks_.size() < 16 ? blocks_.size() : 16);
    if (size < min_size + alignof(std::max_align_t)) {
      size = min_size + alignof(std::max_align_t);
    }
    // Not zero-filled: a block's pages become resident only as its
    // allocations are written, so a large, partly used block costs little.
    Block b;
    b.data = std::make_unique_for_overwrite<char[]>(size);
    b.size = size;
    blocks_.push_back(std::move(b));
    block_ = blocks_.size() - 1;
    offset_ = 0;
  }

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t block_ = 0;   // current block index
  std::size_t offset_ = 0;  // bump offset inside the current block
  std::size_t bytes_used_ = 0;
};

}  // namespace lachesis

#endif  // LACHESIS_COMMON_ARENA_H_

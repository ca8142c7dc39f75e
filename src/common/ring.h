// Growable FIFO ring buffer.
//
// The simulator's per-tuple and per-wake containers -- tuple queues, wait
// lists and the RT runqueue's priority levels -- are nearly always empty or
// hold a handful of items. A std::deque allocates a 512-byte node when it is
// built and another each time its head or tail crosses a node boundary, so
// it keeps allocating in steady state. Ring keeps its items in one
// power-of-two buffer that doubles when full and never shrinks: once it has
// grown to the container's high water, pushes and pops allocate nothing.
// Nothing is allocated until the first push.
#ifndef LACHESIS_COMMON_RING_H_
#define LACHESIS_COMMON_RING_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace lachesis {

template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  // Precondition for Front and PopFront: !empty().
  [[nodiscard]] const T& Front() const {
    assert(count_ > 0);
    return slots_[head_];
  }

  void PushBack(T item) {
    GrowIfFull();
    slots_[Slot(count_)] = std::move(item);
    ++count_;
  }

  void PushFront(T item) {
    GrowIfFull();
    head_ = (head_ + slots_.size() - 1) & Mask();
    slots_[head_] = std::move(item);
    ++count_;
  }

  T PopFront() {
    assert(count_ > 0);
    T item = std::move(slots_[head_]);
    head_ = (head_ + 1) & Mask();
    --count_;
    return item;
  }

  // Removes the first item equal to `item`, keeping the order of the rest
  // (O(size)). Returns false when no item is equal.
  bool Erase(const T& item) {
    for (std::size_t i = 0; i < count_; ++i) {
      if (!(slots_[Slot(i)] == item)) continue;
      // Shift the tail segment forward one slot.
      for (std::size_t j = i + 1; j < count_; ++j) {
        slots_[Slot(j - 1)] = std::move(slots_[Slot(j)]);
      }
      --count_;
      return true;
    }
    return false;
  }

 private:
  [[nodiscard]] std::size_t Mask() const { return slots_.size() - 1; }
  // Buffer slot of the i-th item from the front.
  [[nodiscard]] std::size_t Slot(std::size_t i) const {
    return (head_ + i) & Mask();
  }

  void GrowIfFull() {
    if (count_ < slots_.size()) return;
    std::vector<T> grown(slots_.empty() ? 8 : slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(slots_[Slot(i)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace lachesis

#endif  // LACHESIS_COMMON_RING_H_

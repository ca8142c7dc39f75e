// Allocation-free runqueues for the simulated CFS/RT scheduler.
//
// CfsRunQueue replaces the per-cgroup std::set<pair<vruntime, key>> of the
// seed implementation: an index-based flat binary min-heap over scheduling
// entities, ordered by (vruntime, key). Each entity carries its current
// heap position (SchedEntity::rq_pos), so erase and reposition are O(log n)
// with no per-node allocation. Because the (vruntime, key) order is a total
// order (keys are unique), the heap minimum is the exact element std::set's
// begin() produced -- scheduling decisions are bit-identical.
//
// RtRunQueue mirrors the kernel's RT runqueue: a fixed 100-level array of
// FIFO rings (common/ring.h) plus a two-word priority bitmap for O(1)
// highest-priority lookup. Rings grow once to the working-set size and are
// then reused.
#ifndef LACHESIS_SIM_RUNQUEUE_H_
#define LACHESIS_SIM_RUNQUEUE_H_

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/ring.h"
#include "sim/weights.h"

namespace lachesis::sim {

// Maximum supported depth of the cgroup hierarchy (number of non-root
// ancestors of any entity). The paper's translators create at most
// query-group -> operator-group nests; 16 leaves ample headroom and lets
// per-thread ancestor paths live in fixed inline arrays.
inline constexpr std::size_t kMaxCgroupDepth = 16;

// Scheduling entity: a thread or a cgroup inside its parent's runqueue.
struct SchedEntity {
  bool is_group = false;
  std::uint64_t id = 0;  // thread index or cgroup index
  std::uint64_t weight = kNice0Weight;
  double vruntime = 0.0;
  std::uint64_t parent = 0;   // cgroup index of the containing group
  bool queued = false;
  std::int32_t rq_pos = -1;   // heap slot while queued, -1 otherwise
  [[nodiscard]] std::uint64_t key() const {
    return (static_cast<std::uint64_t>(is_group) << 63) | id;
  }
};

// Flat min-heap of queued children of one cgroup, ordered by
// (vruntime, key). Entries cache the entity pointer so the scheduler can go
// from heap minimum to entity without an index lookup.
class CfsRunQueue {
 public:
  struct Entry {
    double vruntime;
    std::uint64_t key;
    SchedEntity* ent;
  };

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  // The queued child with the smallest (vruntime, key). Precondition:
  // !empty().
  [[nodiscard]] const Entry& Min() const {
    assert(!heap_.empty());
    return heap_.front();
  }

  [[nodiscard]] double MinVruntime() const { return Min().vruntime; }

  // Smallest (vruntime, key) entry satisfying `fits`, or nullptr when none
  // does. Linear scan over the heap array -- used only by the
  // capacity-aware dispatch filter on the small cores of heterogeneous
  // machines, where runqueues hold at most a few dozen entities.
  template <typename Pred>
  [[nodiscard]] const Entry* MinWhere(Pred&& fits) const {
    const Entry* best = nullptr;
    for (const Entry& e : heap_) {
      if (!fits(e)) continue;
      if (best == nullptr || Less(e, *best)) best = &e;
    }
    return best;
  }

  void Insert(SchedEntity& ent) {
    assert(ent.rq_pos < 0);
    heap_.push_back(Entry{ent.vruntime, ent.key(), &ent});
    SiftUp(heap_.size() - 1);
  }

  void Erase(SchedEntity& ent) {
    assert(ent.rq_pos >= 0 &&
           static_cast<std::size_t>(ent.rq_pos) < heap_.size());
    const auto hole = static_cast<std::size_t>(ent.rq_pos);
    ent.rq_pos = -1;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (hole == heap_.size()) return;  // removed the tail slot
    heap_[hole] = last;
    heap_[hole].ent->rq_pos = static_cast<std::int32_t>(hole);
    Resift(hole);
  }

  // Repositions a queued entity after its vruntime changed.
  void Update(SchedEntity& ent, double new_vruntime) {
    assert(ent.rq_pos >= 0 &&
           static_cast<std::size_t>(ent.rq_pos) < heap_.size());
    ent.vruntime = new_vruntime;
    const auto pos = static_cast<std::size_t>(ent.rq_pos);
    heap_[pos].vruntime = new_vruntime;
    Resift(pos);
  }

 private:
  static bool Less(const Entry& lhs, const Entry& rhs) {
    if (lhs.vruntime != rhs.vruntime) return lhs.vruntime < rhs.vruntime;
    return lhs.key < rhs.key;
  }

  void Place(std::size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    entry.ent->rq_pos = static_cast<std::int32_t>(pos);
  }

  void SiftUp(std::size_t hole) {
    const Entry entry = heap_[hole];
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!Less(entry, heap_[parent])) break;
      Place(hole, heap_[parent]);
      hole = parent;
    }
    Place(hole, entry);
  }

  void SiftDown(std::size_t hole) {
    const Entry entry = heap_[hole];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * hole + 1;
      if (child >= n) break;
      if (child + 1 < n && Less(heap_[child + 1], heap_[child])) ++child;
      if (!Less(heap_[child], entry)) break;
      Place(hole, heap_[child]);
      hole = child;
    }
    Place(hole, entry);
  }

  void Resift(std::size_t pos) {
    if (pos > 0 && Less(heap_[pos], heap_[(pos - 1) / 2])) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  }

  std::vector<Entry> heap_;
};

// 100-level SCHED_FIFO runqueue with a priority bitmap, as in the kernel.
// Each level is a ring buffer supporting push-front (preempted threads
// resume ahead of their FIFO peers) without allocation in steady state.
class RtRunQueue {
 public:
  static constexpr int kLevels = 100;  // priorities 0..99; 0 unused (CFS)

  [[nodiscard]] bool empty() const { return bitmap_[0] == 0 && bitmap_[1] == 0; }

  // Highest non-empty priority, or -1 when the queue is empty.
  [[nodiscard]] int HighestPriority() const {
    if (bitmap_[1] != 0) {
      return 64 + 63 - std::countl_zero(bitmap_[1]);
    }
    if (bitmap_[0] != 0) {
      return 63 - std::countl_zero(bitmap_[0]);
    }
    return -1;
  }

  void PushBack(int priority, std::uint64_t tid) {
    Level(priority).PushBack(tid);
    MarkNonEmpty(priority);
  }

  void PushFront(int priority, std::uint64_t tid) {
    Level(priority).PushFront(tid);
    MarkNonEmpty(priority);
  }

  std::uint64_t PopFront(int priority) {
    Ring<std::uint64_t>& level = Level(priority);
    const std::uint64_t tid = level.PopFront();
    if (level.empty()) MarkEmpty(priority);
    return tid;
  }

  // Removes `tid` from wherever it sits in `priority`'s FIFO (priority
  // changes of queued threads; rare, O(level size)).
  void Erase(int priority, std::uint64_t tid) {
    Ring<std::uint64_t>& level = Level(priority);
    [[maybe_unused]] const bool found = level.Erase(tid);
    assert(found && "thread not on this RT level");
    if (level.empty()) MarkEmpty(priority);
  }

 private:
  Ring<std::uint64_t>& Level(int priority) {
    assert(priority > 0 && priority < kLevels);
    return levels_[static_cast<std::size_t>(priority)];
  }

  void MarkNonEmpty(int priority) {
    bitmap_[priority / 64] |= 1ULL << (priority % 64);
  }

  void MarkEmpty(int priority) {
    bitmap_[priority / 64] &= ~(1ULL << (priority % 64));
  }

  std::array<Ring<std::uint64_t>, kLevels> levels_;
  std::uint64_t bitmap_[2] = {0, 0};
};

// EDF runqueue for SCHED_DEADLINE threads: earliest absolute deadline
// first, thread index breaking ties deterministically. Utilization-based
// admission control bounds the number of deadline threads to a handful, so
// a flat vector with linear scans beats a heap on both code size and
// constant factor.
class DlRunQueue {
 public:
  struct Entry {
    std::int64_t deadline;  // absolute deadline (SimTime)
    std::uint64_t tid;
  };

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  void Push(std::uint64_t tid, std::int64_t deadline) {
    entries_.push_back(Entry{deadline, tid});
  }

  // The queued thread with the smallest (deadline, tid). Precondition:
  // !empty().
  [[nodiscard]] const Entry& Earliest() const {
    return entries_[EarliestPos()];
  }

  // Smallest (deadline, tid) entry satisfying `fits`, or nullptr when none
  // does -- the capacity-aware EDF pick on heterogeneous machines.
  template <typename Pred>
  [[nodiscard]] const Entry* EarliestWhere(Pred&& fits) const {
    const Entry* best = nullptr;
    for (const Entry& e : entries_) {
      if (!fits(e)) continue;
      if (best == nullptr || e.deadline < best->deadline ||
          (e.deadline == best->deadline && e.tid < best->tid)) {
        best = &e;
      }
    }
    return best;
  }

  std::uint64_t PopEarliest() {
    const std::size_t pos = EarliestPos();
    const std::uint64_t tid = entries_[pos].tid;
    entries_[pos] = entries_.back();
    entries_.pop_back();
    return tid;
  }

  // Removes `tid` wherever it sits (reservation changes of queued threads).
  void Erase(std::uint64_t tid) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].tid != tid) continue;
      entries_[i] = entries_.back();
      entries_.pop_back();
      return;
    }
    assert(false && "thread not on the deadline runqueue");
  }

 private:
  [[nodiscard]] std::size_t EarliestPos() const {
    assert(!entries_.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const Entry& b = entries_[best];
      if (e.deadline < b.deadline ||
          (e.deadline == b.deadline && e.tid < b.tid)) {
        best = i;
      }
    }
    return best;
  }

  std::vector<Entry> entries_;
};

}  // namespace lachesis::sim

#endif  // LACHESIS_SIM_RUNQUEUE_H_

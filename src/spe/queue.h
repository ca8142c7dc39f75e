// Inter-operator tuple queues.
//
// A TupleQueue connects physical operators. Capacity 0 models Storm/Liebre
// unbounded in-memory queues; a positive capacity models Flink's credit-based
// bounded exchanges, where a full queue blocks the producer thread
// (backpressure). Counters feed the SPE metric registry.
#ifndef LACHESIS_SPE_QUEUE_H_
#define LACHESIS_SPE_QUEUE_H_

#include <cstddef>
#include <cstdint>

#include "common/ring.h"
#include "sim/machine.h"
#include "spe/tuple.h"

namespace lachesis::spe {

class TupleQueue {
 public:
  TupleQueue(sim::Machine& machine, std::size_t capacity)
      : machine_(&machine),
        capacity_(capacity),
        not_empty_(machine),
        not_full_(machine) {}

  // Machine hosting the consumer; remote pushes use it to find the
  // destination simulator (which differs from the sender's in fleet mode).
  [[nodiscard]] sim::Machine& machine() const { return *machine_; }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool bounded() const { return capacity_ > 0; }
  [[nodiscard]] bool full() const {
    return bounded() && items_.size() >= capacity_;
  }

  // Precondition: !full(). Producers must check and wait on not_full().
  void Push(const Tuple& tuple) {
    items_.PushBack(tuple);
    ++pushed_;
    // Peak occupancy. Bounded queues are capped by construction, but
    // unbounded (Storm/Liebre) queues previously reported only
    // pushed/popped: a collapsing operator was invisible until OOM. The
    // high-water mark surfaces the collapse in the metric registry.
    if (items_.size() > high_water_) high_water_ = items_.size();
    not_empty_.NotifyOne();
    if (push_listener_ != nullptr) push_listener_->NotifyOne();
  }

  // Extra channel notified on every push; user-level schedulers park their
  // idle workers on one shared channel across all queues.
  void set_push_listener(sim::WaitChannel* listener) { push_listener_ = listener; }

  // Precondition: !empty().
  Tuple Pop() {
    Tuple t = items_.PopFront();
    ++popped_;
    if (bounded()) not_full_.NotifyOne();
    return t;
  }

  [[nodiscard]] const Tuple& Front() const { return items_.Front(); }

  [[nodiscard]] sim::WaitChannel& not_empty() { return not_empty_; }
  [[nodiscard]] sim::WaitChannel& not_full() { return not_full_; }

  [[nodiscard]] std::uint64_t total_pushed() const { return pushed_; }
  [[nodiscard]] std::uint64_t total_popped() const { return popped_; }
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

  // Age of the head-of-line tuple (time since it entered the system); 0 when
  // empty. Used by the FCFS policy goal.
  [[nodiscard]] SimDuration HeadAge(SimTime now) const {
    return items_.empty() ? 0 : now - items_.Front().produced;
  }

 private:
  sim::Machine* machine_;
  std::size_t capacity_;
  Ring<Tuple> items_;
  sim::WaitChannel not_empty_;
  sim::WaitChannel not_full_;
  sim::WaitChannel* push_listener_ = nullptr;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace lachesis::spe

#endif  // LACHESIS_SPE_QUEUE_H_

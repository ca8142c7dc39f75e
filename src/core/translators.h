// Translators: schedule -> OS scheduling parameters (paper §4, §5.3).
//
// Orthogonal to policies: the same policy can be enforced through nice, or
// cgroup cpu.shares, or both. Each translator normalizes the policy's
// real-valued priorities into the mechanism's discrete range using the
// schedule's spacing hint.
#ifndef LACHESIS_CORE_TRANSLATORS_H_
#define LACHESIS_CORE_TRANSLATORS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/op_health.h"
#include "core/os_adapter.h"
#include "core/schedule.h"

namespace lachesis::core {

class Translator {
 public:
  virtual ~Translator() = default;
  [[nodiscard]] virtual const std::string& name() const = 0;
  virtual void Apply(const Schedule& schedule, OsAdapter& os) = 0;

  // Bitmask (OpClassBit) of the OS mechanisms this translator needs to be
  // effective. The runner's capability degradation ladder demotes a binding
  // to a fallback translator while any required class's circuit breaker is
  // open, and promotes it back once a probe succeeds. The default (no
  // dependencies) means "never demote".
  [[nodiscard]] virtual std::uint32_t required_op_classes() const { return 0; }
};

// Single-priority schedules -> per-thread nice values. The highest priority
// is anchored at `nice_best`; linear priorities are min-max normalized over
// the nice interval, logarithmic ones use the paper's
// F(x) = n_max + (log p_max - log x)/log 1.25 mapping.
class NiceTranslator final : public Translator {
 public:
  // Linear priorities are min-max normalized into [nice_best, nice_worst]
  // (the paper's "min-max normalization ... to the required interval");
  // log-spaced ones anchor their max at nice_best via F(x).
  explicit NiceTranslator(int nice_best = -20, int nice_worst = 19)
      : nice_best_(nice_best), nice_worst_(nice_worst) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  void Apply(const Schedule& schedule, OsAdapter& os) override;
  [[nodiscard]] std::uint32_t required_op_classes() const override {
    return OpClassBit(OpClass::kSetNice);
  }

 private:
  int nice_best_;
  int nice_worst_;
  std::string name_ = "nice";
};

// Groups a schedule's entries by a key function without copying them. The
// key of every entry is computed once per Build into reused strings; groups
// come out in gid order (std::string ordering), each group's members in
// schedule order, and a group's priority is the max over its members.
class EntryGrouping {
 public:
  using GroupKeyFn = std::function<std::string(const EntityInfo&)>;

  // A null key function groups per operator: gid "op-" + entity path.
  explicit EntryGrouping(GroupKeyFn group_of = nullptr)
      : group_of_(std::move(group_of)) {}

  struct Group {
    double priority;
    std::size_t begin;  // position of the first member in the grouped order
    std::size_t end;
  };

  void Build(const Schedule& schedule);
  [[nodiscard]] const std::vector<Group>& groups() const { return groups_; }
  [[nodiscard]] const std::string& gid(const Group& group) const {
    return keys_[order_[group.begin]];
  }
  // The group's schedule entry indices; valid until the next Build.
  [[nodiscard]] std::span<const std::uint32_t> members(const Group& group) const {
    return {order_.data() + group.begin, group.end - group.begin};
  }

 private:
  GroupKeyFn group_of_;
  std::vector<std::string> keys_;      // per entry index
  std::vector<std::uint32_t> order_;   // entry indices by (gid, index)
  std::vector<Group> groups_;
};

// Grouping schedules -> cgroup cpu.shares. Entities are grouped by
// `group_of` (default: one cgroup per operator, as in the paper's
// multi-query experiment where 100 operators exceed nice's 40 levels);
// each group's priority is the max over members.
class CpuSharesTranslator final : public Translator {
 public:
  using GroupKeyFn = EntryGrouping::GroupKeyFn;

  explicit CpuSharesTranslator(GroupKeyFn group_of = nullptr)
      : grouping_(std::move(group_of)) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  void Apply(const Schedule& schedule, OsAdapter& os) override;

  [[nodiscard]] std::uint32_t required_op_classes() const override {
    return OpClassBit(OpClass::kSetGroupShares) |
           OpClassBit(OpClass::kMoveToGroup);
  }

 private:
  EntryGrouping grouping_;
  std::string name_ = "cpu.shares";
};

// CFS-bandwidth translator (paper §8's "CPU quotas" mechanism): groups
// entities like CpuSharesTranslator but enforces priorities as HARD per-
// period CPU budgets instead of relative weights. Unlike shares, quotas are
// not work-conserving: a low-priority group stays capped even when the CPU
// is otherwise idle -- useful for strict multi-tenant isolation.
class QuotaTranslator final : public Translator {
 public:
  using GroupKeyFn = EntryGrouping::GroupKeyFn;

  // Normalized priority 0 maps to `min_cores`, 1 to `max_cores` worth of CPU
  // per `period`.
  explicit QuotaTranslator(double min_cores = 0.25, double max_cores = 4.0,
                           SimDuration period = Millis(100),
                           GroupKeyFn group_of = nullptr);
  [[nodiscard]] const std::string& name() const override { return name_; }
  void Apply(const Schedule& schedule, OsAdapter& os) override;
  [[nodiscard]] std::uint32_t required_op_classes() const override {
    return OpClassBit(OpClass::kSetGroupQuota) |
           OpClassBit(OpClass::kMoveToGroup);
  }

 private:
  double min_cores_;
  double max_cores_;
  SimDuration period_;
  EntryGrouping grouping_;
  std::string name_ = "cpu.quota";
};

// Real-time boost translator (paper §8's "real-time threads" mechanism):
// promotes the single highest-priority operator to SCHED_FIFO (it preempts
// everything fair-class) and enforces the rest of the schedule with nice.
// Operators that lose the top spot are demoted back to the fair class --
// including operators that vanished from the schedule entirely (terminated
// or filtered out), which is why the boost set keeps the thread handles:
// reconciliation must be able to demote a thread it will never see again.
// Re-issued demotions/boosts are deduplicated by the delta layer.
class RtBoostTranslator final : public Translator {
 public:
  explicit RtBoostTranslator(int rt_priority = 10, int nice_best = -20)
      : rt_priority_(rt_priority), nice_(nice_best) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  void Apply(const Schedule& schedule, OsAdapter& os) override;
  [[nodiscard]] std::uint32_t required_op_classes() const override {
    return OpClassBit(OpClass::kSetRtPriority) |
           OpClassBit(OpClass::kSetNice);
  }

 private:
  int rt_priority_;
  NiceTranslator nice_;
  // Entity path -> thread currently in the RT class (at most one entry).
  std::map<std::string, ThreadHandle> boosted_;
  std::string name_ = "rt+nice";
};

// SCHED_DEADLINE translator: gives latency-critical operators a hard CPU
// reservation (`runtime` every `period`, deadline == period) and enforces
// the rest of the schedule with nice. Critical operators are the entries
// tagged Criticality::kLatencyCritical; when none are tagged the single
// highest-priority entry is reserved (mirroring RtBoostTranslator).
//
// Unlike an RT boost, a reservation is admission-controlled: the backend
// may reject it (utilization over-commit), which surfaces as an op error
// the delta layer backs off on -- the nice enforcement below still applies,
// so a rejected reservation degrades to priority scheduling instead of
// nothing. Operators that leave the critical set (or the schedule) are
// cleared via the stored handle with the all-zero triple.
class DeadlineTranslator final : public Translator {
 public:
  explicit DeadlineTranslator(SimDuration runtime = Millis(4),
                              SimDuration period = Millis(10),
                              int nice_best = -20)
      : runtime_(runtime), period_(period), nice_(nice_best) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  void Apply(const Schedule& schedule, OsAdapter& os) override;
  [[nodiscard]] std::uint32_t required_op_classes() const override {
    return OpClassBit(OpClass::kSetDeadline) | OpClassBit(OpClass::kSetNice);
  }

 private:
  SimDuration runtime_;
  SimDuration period_;
  NiceTranslator nice_;
  // Entity path -> thread currently holding a reservation.
  std::map<std::string, ThreadHandle> reserved_;
  std::string name_ = "deadline+nice";
};

// Capacity-hint decorator for heterogeneous machines: applies the wrapped
// translator unchanged, then steers the top `big_frac` fraction of entries
// (by priority; latency-critical entries always included) toward big cores
// with SetCpuAffinity(kPreferBig). Hints are best-effort -- they are NOT
// part of required_op_classes(), so a backend without affinity support
// degrades to the wrapped translator alone rather than down the ladder.
class CapacityHintTranslator final : public Translator {
 public:
  CapacityHintTranslator(std::unique_ptr<Translator> inner,
                         double big_frac = 0.25)
      : inner_(std::move(inner)),
        big_frac_(big_frac),
        name_(inner_->name() + "+affinity") {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  void Apply(const Schedule& schedule, OsAdapter& os) override;
  [[nodiscard]] std::uint32_t required_op_classes() const override {
    return inner_->required_op_classes();
  }

 private:
  std::unique_ptr<Translator> inner_;
  double big_frac_;
  // Entity path -> thread currently hinted toward big cores.
  std::map<std::string, ThreadHandle> hinted_;
  std::string name_;
};

// The multi-dimensional scheme of §6.6 (Fig 18): each query is confined to
// its own cgroup with equal cpu.shares (fair inter-query split), while the
// policy's priorities are enforced WITHIN each query through nice. Possible
// because nice values only compete inside their cgroup (§2).
class QuerySharesPlusNiceTranslator final : public Translator {
 public:
  explicit QuerySharesPlusNiceTranslator(std::uint64_t query_shares = 1024,
                                         int nice_best = -20)
      : query_shares_(query_shares), nice_(nice_best) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  void Apply(const Schedule& schedule, OsAdapter& os) override;
  [[nodiscard]] std::uint32_t required_op_classes() const override {
    return OpClassBit(OpClass::kSetGroupShares) |
           OpClassBit(OpClass::kMoveToGroup) | OpClassBit(OpClass::kSetNice);
  }

 private:
  std::uint64_t query_shares_;
  NiceTranslator nice_;
  std::string name_ = "cpu.shares+nice";
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_TRANSLATORS_H_

// The one name table a Lachesis binding is built from.
//
// A binding pairs a scheduling policy with a translator (paper §4: the
// user picks both per query). lachesisd's `[lachesis]` section
// (osctl/daemon_config.h) and the experiment harness (exp/scenario.h,
// exp/fleet.h) name that pair by the same strings, so a sim spec and a
// daemon config that name the same pair build the same policy and
// translator.
#ifndef LACHESIS_CORE_BINDINGS_H_
#define LACHESIS_CORE_BINDINGS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "core/runner.h"

namespace lachesis::core {

struct BindingSpec {
  std::string policy = "queue-size";
  std::string translator = "nice";
  SimDuration period = Seconds(1);
  // Queries whose operators are tagged latency-critical: the policy is
  // wrapped in CriticalChainPolicy. The deadline and RT translators reserve
  // for them; priority-only translators ignore the tag.
  std::vector<std::string> critical_queries;
  // The deadline translator's reservation: dl_runtime every dl_period.
  SimDuration dl_runtime = Millis(4);
  SimDuration dl_period = Millis(10);
};

// The policy `name` names: queue-size, fcfs, highest-rate, random,
// min-memory or pressure-stall. Any other name throws
// std::invalid_argument listing the accepted ones.
std::unique_ptr<SchedulingPolicy> MakePolicy(const std::string& name);

// The translator `name` names: nice, cpu.shares, quota, rt, deadline
// (reserving spec.dl_runtime every spec.dl_period) or cpu.shares+nice. Any
// other name throws std::invalid_argument listing the accepted ones.
std::unique_ptr<Translator> MakeTranslator(const std::string& name,
                                           const BindingSpec& spec);

// The capability degradation ladder of translator `name`, best-first, as
// the same table lists it; nice, the last resort, has none.
std::vector<std::unique_ptr<Translator>> MakeFallbackTranslators(
    const std::string& name, const BindingSpec& spec);

// The binding `spec` names, over `drivers` and `filter`: its policy
// (wrapped in CriticalChainPolicy when critical_queries is set), its
// translator and its period. It has no degradation ladder; lachesisd adds
// MakeFallbackTranslators when its `degradation` knob is on.
PolicyBinding MakeBinding(const BindingSpec& spec,
                          std::vector<SpeDriver*> drivers,
                          std::function<bool(const EntityInfo&)> filter = {});

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_BINDINGS_H_

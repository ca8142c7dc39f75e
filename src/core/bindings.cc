#include "core/bindings.h"

#include <array>
#include <stdexcept>

#include "core/policies.h"
#include "core/translators.h"

namespace lachesis::core {

namespace {

template <typename T>
std::unique_ptr<SchedulingPolicy> NewPolicy() {
  return std::make_unique<T>();
}

template <typename T>
std::unique_ptr<Translator> NewTranslator(const BindingSpec&) {
  return std::make_unique<T>();
}

struct PolicyEntry {
  const char* name;
  std::unique_ptr<SchedulingPolicy> (*make)();
};

struct TranslatorEntry {
  const char* name;
  std::unique_ptr<Translator> (*make)(const BindingSpec&);
  // The capability degradation ladder, best-first: the translators the
  // runner falls back to while this one's mechanism persistently fails
  // (e.g. no CAP_SYS_NICE for SCHED_FIFO, an unwritable cgroup root).
  // nice is the last resort everywhere: lowering priority needs no
  // privileges and no filesystem.
  std::array<const char*, 3> fallbacks;
};

constexpr PolicyEntry kPolicyTable[] = {
    {"queue-size", NewPolicy<QueueSizePolicy>},
    {"fcfs", NewPolicy<FcfsPolicy>},
    {"highest-rate", NewPolicy<HighestRatePolicy>},
    {"random", NewPolicy<RandomPolicy>},
    {"min-memory", NewPolicy<MinMemoryPolicy>},
    {"pressure-stall", NewPolicy<PressureStallPolicy>},
};
constexpr TranslatorEntry kTranslatorTable[] = {
    {"nice", NewTranslator<NiceTranslator>, {}},
    {"cpu.shares", NewTranslator<CpuSharesTranslator>, {"nice"}},
    {"quota", NewTranslator<QuotaTranslator>, {"nice"}},
    {"rt", NewTranslator<RtBoostTranslator>, {"cpu.shares", "nice"}},
    // A reservation needs sched_setattr and admission headroom; an RT
    // boost keeps the "critical work preempts" intent, then weights.
    {"deadline",
     [](const BindingSpec& spec) -> std::unique_ptr<Translator> {
       return std::make_unique<DeadlineTranslator>(spec.dl_runtime,
                                                   spec.dl_period);
     },
     {"rt", "cpu.shares", "nice"}},
    // Without cgroups the per-query split is lost; nice still orders the
    // operators, now across queries too.
    {"cpu.shares+nice", NewTranslator<QuerySharesPlusNiceTranslator>,
     {"nice"}},
};

// The entry `table` holds for `name`; any other name throws
// std::invalid_argument listing the accepted ones.
template <typename Entry, std::size_t N>
const Entry& Lookup(const Entry (&table)[N], const std::string& kind,
                    const std::string& name) {
  std::string accepted;
  for (const Entry& entry : table) {
    if (name == entry.name) return entry;
    accepted += (accepted.empty() ? "" : "|") + std::string(entry.name);
  }
  throw std::invalid_argument("unknown " + kind + " '" + name +
                              "' (expected " + accepted + ")");
}

}  // namespace

std::unique_ptr<SchedulingPolicy> MakePolicy(const std::string& name) {
  return Lookup(kPolicyTable, "policy", name).make();
}

std::unique_ptr<Translator> MakeTranslator(const std::string& name,
                                           const BindingSpec& spec) {
  return Lookup(kTranslatorTable, "translator", name).make(spec);
}

std::vector<std::unique_ptr<Translator>> MakeFallbackTranslators(
    const std::string& name, const BindingSpec& spec) {
  std::vector<std::unique_ptr<Translator>> fallbacks;
  for (const char* fallback :
       Lookup(kTranslatorTable, "translator", name).fallbacks) {
    if (fallback == nullptr) break;
    fallbacks.push_back(MakeTranslator(fallback, spec));
  }
  return fallbacks;
}

PolicyBinding MakeBinding(const BindingSpec& spec,
                          std::vector<SpeDriver*> drivers,
                          std::function<bool(const EntityInfo&)> filter) {
  PolicyBinding binding;
  binding.policy = MakePolicy(spec.policy);
  if (!spec.critical_queries.empty()) {
    binding.policy = std::make_unique<CriticalChainPolicy>(
        std::move(binding.policy), spec.critical_queries);
  }
  binding.translator = MakeTranslator(spec.translator, spec);
  binding.period = spec.period;
  binding.drivers = std::move(drivers);
  binding.filter = std::move(filter);
  return binding;
}

}  // namespace lachesis::core

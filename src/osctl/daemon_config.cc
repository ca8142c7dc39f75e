#include "osctl/daemon_config.h"

#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/policies.h"
#include "osctl/procfs.h"
#include "tsdb/tsdb.h"

namespace lachesis::osctl {

namespace {

template <typename Base, typename T>
std::unique_ptr<Base> Make(const DaemonConfig&) {
  return std::make_unique<T>();
}

template <typename Base>
using Factory = std::unique_ptr<Base> (*)(const DaemonConfig&);

struct PolicyEntry {
  const char* name;
  Factory<core::SchedulingPolicy> make;
};

struct TranslatorEntry {
  const char* name;
  Factory<core::Translator> make;
  // The capability degradation ladder, best-first: the translators the
  // runner falls back to while this one's mechanism persistently fails
  // (e.g. no CAP_SYS_NICE for SCHED_FIFO, an unwritable cgroup root).
  // nice is the last resort everywhere: lowering priority needs no
  // privileges and no filesystem.
  std::array<const char*, 3> fallbacks;
};

// The accepted `policy` and `translator` names, each with its factory.
constexpr PolicyEntry kPolicies[] = {
    {"queue-size", Make<core::SchedulingPolicy, core::QueueSizePolicy>},
    {"fcfs", Make<core::SchedulingPolicy, core::FcfsPolicy>},
    {"highest-rate", Make<core::SchedulingPolicy, core::HighestRatePolicy>},
    {"random", Make<core::SchedulingPolicy, core::RandomPolicy>},
    {"min-memory", Make<core::SchedulingPolicy, core::MinMemoryPolicy>},
};
constexpr TranslatorEntry kTranslators[] = {
    {"nice", Make<core::Translator, core::NiceTranslator>, {}},
    {"cpu.shares", Make<core::Translator, core::CpuSharesTranslator>,
     {"nice"}},
    {"quota", Make<core::Translator, core::QuotaTranslator>, {"nice"}},
    {"rt", Make<core::Translator, core::RtBoostTranslator>,
     {"cpu.shares", "nice"}},
    // A reservation needs sched_setattr and admission headroom; an RT
    // boost keeps the "critical work preempts" intent, then weights.
    {"deadline",
     [](const DaemonConfig& config) -> std::unique_ptr<core::Translator> {
       return std::make_unique<core::DeadlineTranslator>(
           Millis(config.dl_runtime_ms), Millis(config.dl_period_ms));
     },
     {"rt", "cpu.shares", "nice"}},
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

std::string Trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void Fail(int line, const std::string& message) {
  throw std::runtime_error("config line " + std::to_string(line) + ": " +
                           message);
}

// `value` when `table` holds it; otherwise a line-numbered error.
template <typename Entry, std::size_t N>
std::string CheckedName(const Entry (&table)[N], const std::string& key,
                        const std::string& value, int line) {
  try {
    Lookup(table, key, value);
  } catch (const std::invalid_argument& e) {
    Fail(line, e.what());
  }
  return value;
}

// True when operator `to` is `from` or lies downstream of it in `query`.
bool Reaches(const NativeQueryConfig& query, int from, int to) {
  std::vector<bool> seen(query.operators.size());
  std::vector<int> stack{from};
  while (!stack.empty()) {
    const int op = stack.back();
    stack.pop_back();
    if (op == to) return true;
    if (seen[static_cast<std::size_t>(op)]) continue;
    seen[static_cast<std::size_t>(op)] = true;
    for (const auto& [up, down] : query.edges) {
      if (up == op) stack.push_back(down);
    }
  }
  return false;
}

long ParseLong(const std::string& value, int line, const std::string& key) {
  std::size_t consumed = 0;
  long parsed = 0;
  try {
    parsed = std::stol(value, &consumed);
  } catch (const std::exception&) {
    Fail(line, key + " must be an integer, got '" + value + "'");
  }
  if (consumed != value.size()) {
    Fail(line, key + " must be an integer, got '" + value + "'");
  }
  return parsed;
}

bool ParseBool(const std::string& value, int line, const std::string& key) {
  if (value == "true" || value == "1" || value == "on" || value == "yes") {
    return true;
  }
  if (value == "false" || value == "0" || value == "off" || value == "no") {
    return false;
  }
  Fail(line, key + " must be a boolean (true/false), got '" + value + "'");
}

// Space-separated core id list, e.g. "4 5 6 7".
std::vector<int> ParseCoreList(const std::string& value, int line,
                               const std::string& key) {
  std::vector<int> cores;
  std::istringstream in(value);
  std::string token;
  while (in >> token) {
    const long core = ParseLong(token, line, key);
    if (core < 0) Fail(line, key + " core ids must be >= 0");
    cores.push_back(static_cast<int>(core));
  }
  return cores;
}

double ParseDouble(const std::string& value, int line, const std::string& key) {
  std::size_t consumed = 0;
  double parsed = 0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::exception&) {
    Fail(line, key + " must be a number, got '" + value + "'");
  }
  if (consumed != value.size()) {
    Fail(line, key + " must be a number, got '" + value + "'");
  }
  return parsed;
}

// A `provides` name is the raw metric's tsdb::RawMetricName, the suffix
// of the series NativeSpeDriver reads it from.
spe::RawMetric RawMetricFromName(const std::string& name, int line) {
  for (std::size_t i = 0; i < spe::kRawMetricCount; ++i) {
    const auto raw = static_cast<spe::RawMetric>(i);
    if (name == tsdb::RawMetricName(raw)) return raw;
  }
  Fail(line, "unknown metric '" + name + "'");
}

}  // namespace

DaemonConfig ParseDaemonConfig(const std::string& text) {
  DaemonConfig config;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  NativeQueryConfig* current_query = nullptr;
  NativeChainConfig* current_chain = nullptr;
  std::map<std::string, int> operator_index;  // within current query
  std::vector<int> query_lines;  // header line of each [query] section
  bool in_lachesis_section = false;

  while (std::getline(in, line)) {
    ++line_number;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = Trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') Fail(line_number, "unterminated section header");
      const std::string header = Trim(line.substr(1, line.size() - 2));
      if (header == "lachesis") {
        in_lachesis_section = true;
        current_query = nullptr;
        current_chain = nullptr;
      } else if (header.rfind("native-query", 0) == 0) {
        in_lachesis_section = false;
        current_query = nullptr;
        NativeChainConfig chain;
        chain.name = Trim(header.substr(12));
        if (chain.name.empty()) {
          Fail(line_number, "native-query section needs a name");
        }
        config.native_queries.push_back(std::move(chain));
        current_chain = &config.native_queries.back();
      } else if (header.rfind("query", 0) == 0) {
        in_lachesis_section = false;
        current_chain = nullptr;
        NativeQueryConfig query;
        query.name = Trim(header.substr(5));
        if (query.name.empty()) Fail(line_number, "query section needs a name");
        config.spe.queries.push_back(std::move(query));
        query_lines.push_back(line_number);
        current_query = &config.spe.queries.back();
        operator_index.clear();
      } else {
        Fail(line_number, "unknown section '" + header + "'");
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) Fail(line_number, "expected key = value");
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));

    if (in_lachesis_section) {
      if (key == "period_ms") {
        config.period_ms = ParseLong(value, line_number, key);
        if (config.period_ms <= 0) Fail(line_number, "period must be positive");
      } else if (key == "backoff_base_ms") {
        config.backoff_base_ms = ParseLong(value, line_number, key);
        if (config.backoff_base_ms <= 0) {
          Fail(line_number, "backoff_base_ms must be positive");
        }
      } else if (key == "backoff_cap_ms") {
        config.backoff_cap_ms = ParseLong(value, line_number, key);
        if (config.backoff_cap_ms < 0) {
          Fail(line_number, "backoff_cap_ms must be >= 0 (0 = uncapped)");
        }
      } else if (key == "breaker_threshold") {
        config.breaker_threshold = ParseLong(value, line_number, key);
        if (config.breaker_threshold < 1) {
          Fail(line_number, "breaker_threshold must be >= 1");
        }
      } else if (key == "breaker_probe_ms") {
        config.breaker_probe_ms = ParseLong(value, line_number, key);
        if (config.breaker_probe_ms <= 0) {
          Fail(line_number, "breaker_probe_ms must be positive");
        }
      } else if (key == "degradation") {
        config.degradation = ParseBool(value, line_number, key);
      } else if (key == "reconcile") {
        config.reconcile = ParseBool(value, line_number, key);
      } else if (key == "dl_runtime_ms") {
        config.dl_runtime_ms = ParseLong(value, line_number, key);
        if (config.dl_runtime_ms <= 0) {
          Fail(line_number, "dl_runtime_ms must be positive");
        }
      } else if (key == "dl_period_ms") {
        config.dl_period_ms = ParseLong(value, line_number, key);
        if (config.dl_period_ms <= 0) {
          Fail(line_number, "dl_period_ms must be positive");
        }
      } else if (key == "critical_queries") {
        std::istringstream names(value);
        std::string name;
        config.critical_queries.clear();
        while (names >> name) config.critical_queries.push_back(name);
      } else if (key == "native_pin_cores") {
        config.native_pin_cores = ParseCoreList(value, line_number, key);
      } else if (key == "big_cores") {
        config.big_cores = ParseCoreList(value, line_number, key);
      } else if (key == "little_cores") {
        config.little_cores = ParseCoreList(value, line_number, key);
      } else if (key == "trace_file") {
        config.trace_file = value;
      } else if (key == "trace_every_ticks") {
        config.trace_every_ticks = ParseLong(value, line_number, key);
        if (config.trace_every_ticks < 0) {
          Fail(line_number, "trace_every_ticks must be >= 0 (0 = on demand)");
        }
      } else if (key == "metrics_textfile") {
        config.metrics_textfile = value;
      } else if (key == "metrics_every_ticks") {
        config.metrics_every_ticks = ParseLong(value, line_number, key);
        if (config.metrics_every_ticks < 1) {
          Fail(line_number, "metrics_every_ticks must be >= 1");
        }
      } else if (key == "obs_ring_capacity") {
        config.obs_ring_capacity = ParseLong(value, line_number, key);
        if (config.obs_ring_capacity < 1) {
          Fail(line_number, "obs_ring_capacity must be >= 1");
        }
      } else if (key == "obs_verbose") {
        config.obs_verbose = ParseBool(value, line_number, key);
      } else if (key == "policy") {
        config.policy = CheckedName(kPolicies, key, value, line_number);
      } else if (key == "translator") {
        config.translator = CheckedName(kTranslators, key, value, line_number);
      } else if (key == "metrics_file") {
        config.spe.metrics_file = value;
      } else if (key == "provides") {
        std::istringstream names(value);
        std::string name;
        config.spe.provided.clear();
        while (names >> name) {
          config.spe.provided.insert(RawMetricFromName(name, line_number));
        }
      } else if (key == "cgroup_root") {
        config.cgroup_root = value;
      } else if (key == "proc_root") {
        config.spe.proc_root = value;
      } else if (key == "name") {
        config.spe.name = value;
      } else {
        Fail(line_number, "unknown key '" + key + "'");
      }
      continue;
    }

    if (current_chain != nullptr) {
      if (key == "rate_tps") {
        current_chain->rate_tps = ParseDouble(value, line_number, key);
        if (current_chain->rate_tps <= 0) {
          Fail(line_number, "rate_tps must be positive");
        }
      } else if (key == "queue_capacity") {
        current_chain->queue_capacity = ParseLong(value, line_number, key);
        if (current_chain->queue_capacity < 2) {
          Fail(line_number, "queue_capacity must be >= 2");
        }
      } else if (key == "source_channel") {
        current_chain->source_channel = ParseLong(value, line_number, key);
        if (current_chain->source_channel < 2) {
          Fail(line_number, "source_channel must be >= 2");
        }
      } else if (key == "operators") {
        std::istringstream fields(value);
        std::string token;
        while (fields >> token) {
          const auto colon = token.find(':');
          if (colon == std::string::npos || colon == 0 ||
              colon == token.size() - 1) {
            Fail(line_number, "operators entries must be '<name>:<cost_us>'");
          }
          NativeChainOp op;
          op.name = token.substr(0, colon);
          op.cost_us =
              ParseLong(token.substr(colon + 1), line_number, "cost_us");
          if (op.cost_us < 0) Fail(line_number, "cost_us must be >= 0");
          for (const NativeChainOp& existing : current_chain->operators) {
            if (existing.name == op.name) {
              Fail(line_number,
                   "duplicate operator '" + op.name + "' in chain");
            }
          }
          current_chain->operators.push_back(std::move(op));
        }
      } else {
        Fail(line_number, "unknown key '" + key + "'");
      }
      continue;
    }

    if (current_query == nullptr) {
      Fail(line_number, "key outside of any section");
    }
    if (key == "pid") {
      current_query->pid = ParseLong(value, line_number, key);
      if (current_query->pid <= 0) Fail(line_number, "pid must be positive");
    } else if (key.rfind("operator ", 0) == 0) {
      const std::string op_name = Trim(key.substr(9));
      if (operator_index.contains(op_name)) {
        Fail(line_number, "duplicate operator '" + op_name + "' in query");
      }
      std::istringstream fields(value);
      NativeOperatorConfig op;
      op.name = op_name;
      std::string role;
      if (!(fields >> op.thread_pattern >> op.series_prefix)) {
        Fail(line_number, "operator needs '<thread-pattern> <series-prefix>'");
      }
      if (op.thread_pattern.size() > kMaxThreadNameBytes) {
        Fail(line_number, "thread pattern '" + op.thread_pattern +
                              "' is longer than the " +
                              std::to_string(kMaxThreadNameBytes) +
                              " bytes the kernel keeps of a thread name");
      }
      if (fields >> role) {
        if (role == "ingress") {
          op.is_ingress = true;
        } else if (role == "egress") {
          op.is_egress = true;
        } else {
          Fail(line_number, "role must be 'ingress' or 'egress'");
        }
      }
      operator_index[op_name] =
          static_cast<int>(current_query->operators.size());
      current_query->operators.push_back(std::move(op));
    } else if (key == "edge") {
      std::istringstream fields(value);
      std::string from;
      std::string to;
      if (!(fields >> from >> to)) Fail(line_number, "edge needs two names");
      const auto from_it = operator_index.find(from);
      const auto to_it = operator_index.find(to);
      if (from_it == operator_index.end() || to_it == operator_index.end()) {
        Fail(line_number, "edge references unknown operator");
      }
      // The Highest Rate policy walks every path to a sink, and a path
      // around a cycle never reaches one.
      if (Reaches(*current_query, to_it->second, from_it->second)) {
        Fail(line_number, "edge '" + from + " " + to + "' closes a cycle");
      }
      current_query->edges.emplace_back(from_it->second, to_it->second);
    } else {
      Fail(line_number, "unknown key '" + key + "'");
    }
  }
  if (config.spe.queries.empty() && config.native_queries.empty()) {
    throw std::runtime_error(
        "config declares no [query ...] or [native-query ...] sections");
  }
  // The driver finds a query's threads through its engine's pid; without
  // one it would manage none of them.
  for (std::size_t q = 0; q < config.spe.queries.size(); ++q) {
    if (config.spe.queries[q].pid < 0) {
      Fail(query_lines[q], "query '" + config.spe.queries[q].name +
                               "' needs a pid = <engine pid> line");
    }
  }
  for (const NativeChainConfig& chain : config.native_queries) {
    if (chain.operators.size() < 2) {
      throw std::runtime_error("native-query '" + chain.name +
                               "' needs at least 2 operators "
                               "(ingress + egress)");
    }
    for (const NativeChainConfig& other : config.native_queries) {
      if (&chain != &other && chain.name == other.name) {
        throw std::runtime_error("duplicate native-query '" + chain.name + "'");
      }
    }
  }
  if (config.backoff_cap_ms > 0 &&
      config.backoff_cap_ms < config.backoff_base_ms) {
    throw std::runtime_error(
        "backoff_cap_ms must be >= backoff_base_ms when set");
  }
  if (config.dl_period_ms < config.dl_runtime_ms) {
    throw std::runtime_error("dl_period_ms must be >= dl_runtime_ms");
  }
  for (const int core : config.big_cores) {
    for (const int little : config.little_cores) {
      if (core == little) {
        throw std::runtime_error("core " + std::to_string(core) +
                                 " listed in both big_cores and little_cores");
      }
    }
  }
  return config;
}

DaemonConfig LoadDaemonConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read config file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return ParseDaemonConfig(text.str());
}

std::unique_ptr<core::SchedulingPolicy> MakePolicy(const std::string& name) {
  return Lookup(kPolicies, "policy", name).make(DaemonConfig{});
}

std::unique_ptr<core::Translator> MakeTranslator(const std::string& name,
                                                 const DaemonConfig& config) {
  return Lookup(kTranslators, "translator", name).make(config);
}

std::vector<std::unique_ptr<core::Translator>> MakeFallbackTranslators(
    const std::string& name, const DaemonConfig& config) {
  std::vector<std::unique_ptr<core::Translator>> fallbacks;
  for (const char* fallback :
       Lookup(kTranslators, "translator", name).fallbacks) {
    if (fallback == nullptr) break;
    fallbacks.push_back(MakeTranslator(fallback, config));
  }
  return fallbacks;
}

}  // namespace lachesis::osctl

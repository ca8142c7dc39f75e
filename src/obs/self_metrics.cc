#include "obs/self_metrics.h"

#include <cmath>
#include <cstdio>
#include <set>

#include "obs/atomic_file.h"

namespace lachesis::obs {

namespace {

// Counters are integral in practice; render them without a decimal point so
// the textfile is stable and diff-friendly. Non-integral values fall back to
// %.9g (C locale assumed, as elsewhere in the tree).
std::string FormatValue(double v) {
  if (std::floor(v) == v && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

const MetricValue* FindValue(const SelfMetricsSnapshot& snapshot,
                             std::string_view name) {
  for (const MetricValue& m : snapshot) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

const MetricDef* FindMetricDef(std::string_view name) {
  for (const MetricDef& def : kSelfMetricCatalog) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

std::string RenderPrometheusTextfile(const SelfMetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.size() * 96);
  for (const MetricDef& def : kSelfMetricCatalog) {
    const MetricValue* value = FindValue(snapshot, def.name);
    if (value == nullptr) continue;
    out += "# HELP ";
    out += def.name;
    out += " ";
    out += def.help;
    out += "\n# TYPE ";
    out += def.name;
    out += " ";
    out += def.type;
    out += "\n";
    out += def.name;
    out += " ";
    out += FormatValue(value->value);
    out += "\n";
  }
  for (const MetricValue& m : snapshot) {
    if (FindMetricDef(m.name) != nullptr) continue;
    out += "# HELP ";
    out += m.name;
    out += " (uncataloged)\n";
    out += m.name;
    out += " ";
    out += FormatValue(m.value);
    out += "\n";
  }
  return out;
}

std::vector<std::string> CatalogDiff(const SelfMetricsSnapshot& snapshot) {
  std::vector<std::string> problems;
  std::set<std::string> reported;
  for (const MetricValue& m : snapshot) {
    reported.insert(m.name);
    if (FindMetricDef(m.name) == nullptr) {
      problems.push_back("metric not in catalog: " + m.name);
    }
  }
  for (const MetricDef& def : kSelfMetricCatalog) {
    if (reported.count(def.name) == 0) {
      problems.push_back(std::string("cataloged metric never reported: ") +
                         def.name);
    }
  }
  return problems;
}

bool WritePrometheusTextfile(const SelfMetricsSnapshot& snapshot,
                             const std::string& path) {
  return WriteFileAtomically(path, RenderPrometheusTextfile(snapshot));
}

}  // namespace lachesis::obs

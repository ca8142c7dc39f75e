// Lachesis' SPE-agnostic entity model (paper §3, §4).
//
// Drivers convert engine-specific runtime structures into these abstract
// entities so policies, the metric provider and translators never see
// SPE-specific details (goal G2). An entity describes one physical operator:
// its identity, the logical operators it implements (fusion/fission mapping
// for Algorithm 2), and the kernel thread executing it (for translators).
#ifndef LACHESIS_CORE_ENTITIES_H_
#define LACHESIS_CORE_ENTITIES_H_

#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace lachesis::sim {
class Machine;
}

namespace lachesis::core {

// Handle to the kernel thread running a physical operator. The simulation
// backend uses {machine, sim_tid}; the real-Linux backend (src/osctl/) uses
// os_tid. Translators go through an OsAdapter, which knows which side it
// drives.
struct ThreadHandle {
  sim::Machine* machine = nullptr;
  ThreadId sim_tid{};
  long os_tid = -1;
};

// Abstract logical-DAG shape of one query, as exposed by a driver. Enough
// for high-level policies (HR path traversal) and transformation rules.
struct LogicalTopology {
  std::vector<std::string> names;
  std::vector<double> base_costs;  // static cost hints, ns (0 when unknown)
  std::vector<std::pair<int, int>> edges;
  std::vector<int> ingress_indices;
  std::vector<int> egress_indices;

  [[nodiscard]] int size() const { return static_cast<int>(names.size()); }
};

// One physical operator, as seen by Lachesis.
struct EntityInfo {
  OperatorId id;          // unique within a driver
  std::string path;       // metric-store path prefix for this operator
  QueryId query;
  std::string query_name;
  std::vector<int> logical_indices;  // fused logical operators (>=1)
  int replica = 0;
  bool is_ingress = false;
  bool is_egress = false;
  ThreadHandle thread;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_ENTITIES_H_

// /proc scanning: enumerate the threads of a running SPE process.
//
// Real deployments attach Lachesis to unmodified engines; drivers map
// operator names to kernel threads by matching the thread names (comm) the
// engines set (e.g. Storm executor threads are named after their
// component). The proc root is injectable for hermetic tests.
#ifndef LACHESIS_OSCTL_PROCFS_H_
#define LACHESIS_OSCTL_PROCFS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace lachesis::osctl {

struct OsThreadInfo {
  long tid = -1;
  std::string comm;  // thread name, /proc/<pid>/task/<tid>/comm
};

// Threads of process `pid`; empty when the process does not exist.
std::vector<OsThreadInfo> ListThreads(long pid,
                                      const std::string& proc_root = "/proc");

// The kernel keeps at most this many bytes of a thread name (comm), so a
// longer pattern can match no thread.
inline constexpr std::size_t kMaxThreadNameBytes = 15;

// The tid of the thread `pattern` names among `threads`: the thread whose
// comm equals the pattern; failing that, the lowest tid whose comm contains
// it; failing that, -1. Neither depends on the order of `threads`. (The
// exact rule matters because the native runtime names a source thread
// "src.<ingress>", so an ingress's pattern also matches its source.)
long ResolveThreadByName(const std::vector<OsThreadInfo>& threads,
                         std::string_view pattern);

}  // namespace lachesis::osctl

#endif  // LACHESIS_OSCTL_PROCFS_H_

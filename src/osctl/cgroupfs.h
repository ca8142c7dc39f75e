// cgroup CPU control through the cgroup filesystem.
//
// Supports both hierarchies the paper-era kernels offer:
//  - v1: <root>/<group>/cpu.shares (2..262144) and <root>/<group>/tasks
//  - v2: <root>/<group>/cpu.weight (1..10000)  and <root>/<group>/cgroup.threads
// The filesystem root is injectable so tests run against a temp directory;
// production use points it at e.g. /sys/fs/cgroup/cpu/lachesis (v1) or a
// delegated /sys/fs/cgroup/lachesis (v2, with cpu controller enabled and
// threaded mode for thread-granular moves). An empty root means no
// hierarchy: every write fails with errno ENODEV and no group is listed.
#ifndef LACHESIS_OSCTL_CGROUPFS_H_
#define LACHESIS_OSCTL_CGROUPFS_H_

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace lachesis::osctl {

enum class CgroupVersion { kV1, kV2 };

// Kernel formula mapping v1 cpu.shares to v2 cpu.weight.
constexpr std::uint64_t SharesToWeight(std::uint64_t shares) {
  if (shares < 2) shares = 2;
  if (shares > 262144) shares = 262144;
  return 1 + ((shares - 2) * 9999) / 262142;
}

// Approximate inverse (weight quantizes shares, so round-tripping is lossy;
// restart reconciliation tolerates that with at most one redundant write).
constexpr std::uint64_t WeightToShares(std::uint64_t weight) {
  if (weight < 1) weight = 1;
  if (weight > 10000) weight = 10000;
  return 2 + ((weight - 1) * 262142) / 9999;
}

class CgroupController {
 public:
  CgroupController(std::filesystem::path root, CgroupVersion version);

  // Creates the group directory if missing (and, for v2, enables threaded
  // mode). Returns false on I/O errors.
  bool EnsureGroup(const std::string& group);
  // Writes cpu.shares (v1) or the converted cpu.weight (v2).
  bool SetShares(const std::string& group, std::uint64_t shares);
  // Appends the tid to tasks (v1) / cgroup.threads (v2).
  bool MoveThread(const std::string& group, long tid);
  // CFS bandwidth: cpu.cfs_quota_us + cpu.cfs_period_us (v1) or cpu.max
  // (v2). quota_us <= 0 removes the limit ("-1" / "max").
  bool SetQuota(const std::string& group, long quota_us, long period_us);

  // --- read side (restart reconciliation) ---------------------------------
  // Group directories directly under the root (a previous daemon's groups
  // survive its exit: cgroups are kernel objects, not process state).
  [[nodiscard]] std::vector<std::string> ListGroups() const;
  // Current shares (v1: cpu.shares verbatim; v2: cpu.weight mapped back
  // through the approximate inverse). nullopt when unreadable.
  [[nodiscard]] std::optional<std::uint64_t> ReadShares(
      const std::string& group) const;
  // Current bandwidth as (quota_us, period_us); quota_us <= 0 = unlimited.
  [[nodiscard]] std::optional<std::pair<long, long>> ReadQuota(
      const std::string& group) const;
  // Tids currently in the group (tasks / cgroup.threads).
  [[nodiscard]] std::vector<long> ThreadsOf(const std::string& group) const;

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }
  [[nodiscard]] CgroupVersion version() const { return version_; }

  // Detects the mounted hierarchy under /sys/fs/cgroup; v2 when
  // cgroup.controllers exists at the top.
  static CgroupVersion DetectVersion(
      const std::filesystem::path& sysfs = "/sys/fs/cgroup");

 private:
  [[nodiscard]] std::filesystem::path GroupDir(const std::string& group) const;
  static bool WriteFile(const std::filesystem::path& path,
                        const std::string& value, bool append);

  std::filesystem::path root_;
  CgroupVersion version_;
};

}  // namespace lachesis::osctl

#endif  // LACHESIS_OSCTL_CGROUPFS_H_

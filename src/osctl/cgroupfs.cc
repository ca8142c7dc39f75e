#include "osctl/cgroupfs.h"

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <sstream>
#include <utility>

namespace lachesis::osctl {

namespace fs = std::filesystem;

namespace {

std::optional<std::string> ReadFirstLine(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  return line;
}

}  // namespace

CgroupController::CgroupController(fs::path root, CgroupVersion version)
    : root_(std::move(root)), version_(version) {}

fs::path CgroupController::GroupDir(const std::string& group) const {
  return root_ / group;
}

bool CgroupController::WriteFile(const fs::path& path, const std::string& value,
                                 bool append) {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!out) return false;
  out << value << "\n";
  return static_cast<bool>(out);
}

bool CgroupController::EnsureGroup(const std::string& group) {
  if (root_.empty()) {
    errno = ENODEV;  // no hierarchy configured
    return false;
  }
  std::error_code ec;
  const fs::path dir = GroupDir(group);
  if (!fs::exists(dir, ec)) {
    if (!fs::create_directories(dir, ec) || ec) return false;
  }
  if (version_ == CgroupVersion::kV2) {
    // Thread-granular scheduling requires the threaded cgroup type; the
    // write is idempotent. Best effort: a fake root in tests has no kernel
    // semantics, the file simply records the request.
    WriteFile(dir / "cgroup.type", "threaded", /*append=*/false);
  }
  return true;
}

bool CgroupController::SetShares(const std::string& group,
                                 std::uint64_t shares) {
  if (!EnsureGroup(group)) return false;
  if (version_ == CgroupVersion::kV1) {
    return WriteFile(GroupDir(group) / "cpu.shares", std::to_string(shares),
                     /*append=*/false);
  }
  return WriteFile(GroupDir(group) / "cpu.weight",
                   std::to_string(SharesToWeight(shares)), /*append=*/false);
}

bool CgroupController::MoveThread(const std::string& group, long tid) {
  if (!EnsureGroup(group)) return false;
  const char* file = version_ == CgroupVersion::kV1 ? "tasks" : "cgroup.threads";
  return WriteFile(GroupDir(group) / file, std::to_string(tid),
                   /*append=*/true);
}

bool CgroupController::SetQuota(const std::string& group, long quota_us,
                                long period_us) {
  if (!EnsureGroup(group)) return false;
  if (version_ == CgroupVersion::kV1) {
    const bool quota_ok =
        WriteFile(GroupDir(group) / "cpu.cfs_quota_us",
                  std::to_string(quota_us > 0 ? quota_us : -1),
                  /*append=*/false);
    const bool period_ok =
        period_us <= 0 ||
        WriteFile(GroupDir(group) / "cpu.cfs_period_us",
                  std::to_string(period_us), /*append=*/false);
    return quota_ok && period_ok;
  }
  const std::string value =
      quota_us > 0 ? std::to_string(quota_us) + " " + std::to_string(period_us)
                   : std::string("max");
  return WriteFile(GroupDir(group) / "cpu.max", value, /*append=*/false);
}

std::vector<std::string> CgroupController::ListGroups() const {
  std::vector<std::string> groups;
  std::error_code ec;
  fs::directory_iterator it(root_, ec);
  if (ec) return groups;
  for (const fs::directory_entry& entry : it) {
    std::error_code entry_ec;
    if (entry.is_directory(entry_ec) && !entry_ec) {
      groups.push_back(entry.path().filename().string());
    }
  }
  std::sort(groups.begin(), groups.end());
  return groups;
}

std::optional<std::uint64_t> CgroupController::ReadShares(
    const std::string& group) const {
  const char* file = version_ == CgroupVersion::kV1 ? "cpu.shares" : "cpu.weight";
  const auto line = ReadFirstLine(GroupDir(group) / file);
  if (!line) return std::nullopt;
  try {
    const std::uint64_t value = std::stoull(*line);
    return version_ == CgroupVersion::kV1 ? value : WeightToShares(value);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::pair<long, long>> CgroupController::ReadQuota(
    const std::string& group) const {
  try {
    if (version_ == CgroupVersion::kV1) {
      const auto quota = ReadFirstLine(GroupDir(group) / "cpu.cfs_quota_us");
      if (!quota) return std::nullopt;
      const auto period = ReadFirstLine(GroupDir(group) / "cpu.cfs_period_us");
      return std::make_pair(std::stol(*quota),
                            period ? std::stol(*period) : 100000L);
    }
    const auto line = ReadFirstLine(GroupDir(group) / "cpu.max");
    if (!line) return std::nullopt;
    std::istringstream in(*line);
    std::string quota_str;
    long period = 100000;
    in >> quota_str;
    if (!(in >> period)) period = 100000;
    const long quota = quota_str == "max" ? -1 : std::stol(quota_str);
    return std::make_pair(quota, period);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::vector<long> CgroupController::ThreadsOf(const std::string& group) const {
  std::vector<long> tids;
  const char* file = version_ == CgroupVersion::kV1 ? "tasks" : "cgroup.threads";
  std::ifstream in(GroupDir(group) / file);
  std::string line;
  while (std::getline(in, line)) {
    try {
      if (!line.empty()) tids.push_back(std::stol(line));
    } catch (const std::exception&) {
      // Skip malformed lines (a fake root is just a text file).
    }
  }
  return tids;
}

CgroupVersion CgroupController::DetectVersion(const fs::path& sysfs) {
  std::error_code ec;
  if (fs::exists(sysfs / "cgroup.controllers", ec)) return CgroupVersion::kV2;
  return CgroupVersion::kV1;
}

}  // namespace lachesis::osctl

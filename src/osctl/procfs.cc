#include "osctl/procfs.h"

#include <filesystem>
#include <fstream>

namespace lachesis::osctl {

std::vector<OsThreadInfo> ListThreads(long pid, const std::string& proc_root) {
  namespace fs = std::filesystem;
  std::vector<OsThreadInfo> result;
  const fs::path task_dir = fs::path(proc_root) / std::to_string(pid) / "task";
  std::error_code ec;
  if (!fs::is_directory(task_dir, ec)) return result;
  for (const auto& entry : fs::directory_iterator(task_dir, ec)) {
    if (ec) break;
    OsThreadInfo info;
    try {
      info.tid = std::stol(entry.path().filename().string());
    } catch (...) {
      continue;
    }
    std::ifstream comm(entry.path() / "comm");
    if (comm) {
      std::getline(comm, info.comm);
    }
    result.push_back(std::move(info));
  }
  return result;
}

long ResolveThreadByName(const std::vector<OsThreadInfo>& threads,
                         std::string_view pattern) {
  long exact = -1;
  long contains = -1;
  for (const OsThreadInfo& info : threads) {
    if (info.comm.find(pattern) == std::string::npos) continue;
    long& best = info.comm == pattern ? exact : contains;
    if (best < 0 || info.tid < best) best = info.tid;
  }
  return exact >= 0 ? exact : contains;
}

}  // namespace lachesis::osctl

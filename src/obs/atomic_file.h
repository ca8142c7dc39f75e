// Atomic file replacement for the exporters whose files other processes
// poll (the Prometheus textfile, the Chrome trace dump).
#ifndef LACHESIS_OBS_ATOMIC_FILE_H_
#define LACHESIS_OBS_ATOMIC_FILE_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace lachesis::obs {

// Writes `body` to `path` through a tmp file and a rename, so a reader
// never sees a torn file. Returns false (and removes the tmp file) on any
// I/O failure.
inline bool WriteFileAtomically(const std::string& path,
                                std::string_view body) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace lachesis::obs

#endif  // LACHESIS_OBS_ATOMIC_FILE_H_

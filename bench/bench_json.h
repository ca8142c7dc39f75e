// The one writer of the BENCH_*.json files the benches format themselves.
// It owns separators, nesting (two-space indent, one member per line),
// string escaping and number formatting; a bench only names its keys and
// values:
//
//   JsonWriter w;
//   w.BeginObject().Field("bench", "runner").BeginArray("series");
//   w.BeginObject().Field("ticks", 200).Field("ns_per_tick", 5.2e4)
//       .EndObject();
//   w.EndArray().EndObject();
//   w.WriteFile("BENCH_runner.json");
#ifndef LACHESIS_BENCH_BENCH_JSON_H_
#define LACHESIS_BENCH_BENCH_JSON_H_

#include <cassert>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/atomic_file.h"
#include "obs/json_escape.h"

namespace lachesis::bench {

class JsonWriter {
 public:
  // An object opens as an array element or the root (no key), or as a
  // member of the enclosing object (with a key); an array only as a member.
  JsonWriter& BeginObject() {
    NextElement();
    return Open('{');
  }
  JsonWriter& BeginObject(std::string_view key) { return Key(key).Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray(std::string_view key) { return Key(key).Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  // Members of the enclosing object.
  JsonWriter& Field(std::string_view key, std::string_view value) {
    Key(key);
    out_ += '"';
    obs::AppendJsonEscaped(out_, value);
    out_ += '"';
    return *this;
  }
  // Without this overload a string literal would convert to bool.
  JsonWriter& Field(std::string_view key, const char* value) {
    return Field(key, std::string_view(value));
  }
  JsonWriter& Field(std::string_view key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  template <typename Int>
    requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
  JsonWriter& Field(std::string_view key, Int value) {
    Key(key);
    out_ += std::to_string(value);
    return *this;
  }
  // Ten significant digits; JSON has no NaN or infinity, so those are null.
  JsonWriter& Field(std::string_view key, double value) {
    Key(key);
    if (!std::isfinite(value)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    out_ += buf;
    return *this;
  }

  // The document so far; complete once the root container is closed.
  [[nodiscard]] const std::string& str() const { return out_; }

  // Writes the closed document, newline-terminated, through a tmp file and
  // a rename, and reports the path on stdout (stderr on failure).
  bool WriteFile(const std::string& path) const {
    assert(open_.empty() && !out_.empty());
    if (!obs::WriteFileAtomically(path, out_ + "\n")) {
      std::fprintf(stderr, "[bench-json] cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("[bench-json] wrote %s\n", path.c_str());
    return true;
  }

 private:
  // Starts the next element of the enclosing container on its own line.
  void NextElement() {
    if (open_.empty()) return;
    if (!open_.back()) out_ += ',';
    open_.back() = false;
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }
  JsonWriter& Key(std::string_view key) {
    NextElement();
    out_ += '"';
    obs::AppendJsonEscaped(out_, key);
    out_ += "\": ";
    return *this;
  }
  JsonWriter& Open(char bracket) {
    out_ += bracket;
    open_.push_back(true);
    return *this;
  }
  JsonWriter& Close(char bracket) {
    assert(!open_.empty());
    const bool empty = open_.back();
    open_.pop_back();
    if (!empty) {
      out_ += '\n';
      out_.append(2 * open_.size(), ' ');
    }
    out_ += bracket;
    return *this;
  }

  std::string out_;
  // One entry per open container: true while it has no element yet.
  std::vector<bool> open_;
};

}  // namespace lachesis::bench

#endif  // LACHESIS_BENCH_BENCH_JSON_H_

// JSON string escaping, shared by the Chrome trace exporter and the
// benches' BENCH_*.json writer.
#ifndef LACHESIS_OBS_JSON_ESCAPE_H_
#define LACHESIS_OBS_JSON_ESCAPE_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace lachesis::obs {

// Appends `s` to `out` as the body of a JSON string literal (without the
// surrounding quotes).
inline void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace lachesis::obs

#endif  // LACHESIS_OBS_JSON_ESCAPE_H_

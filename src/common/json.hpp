// The pieces every hand-written JSON report in the tree shares: string
// escaping and the "0x..." form in which reports print 64-bit hashes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace spider {

/// `s` escaped for the body of a JSON string: quote, backslash, \n, \t and
/// \r by name, every other control byte as \u00XX, all other bytes
/// (UTF-8 included) as they are.
inline std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `v` as "0x" and 16 lowercase hex digits.
inline std::string to_hex(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kDigits[(v >> shift) & 0xf];
  }
  return out;
}

}  // namespace spider

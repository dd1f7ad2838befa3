// Small string helpers used by the HTTP parser and trace I/O.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mfhttp {

// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

// Remove leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

// The one ASCII case-fold in the codebase: every case-insensitive
// comparison (header names in the parser, proxy, and cache; URL schemes)
// folds through this so they can never disagree on locale or non-ASCII
// bytes the way mixed std::tolower call sites can.
constexpr char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

// Case-insensitive ASCII comparison (HTTP header names).
bool iequals(std::string_view a, std::string_view b);

// FNV-1a over the case-folded bytes: iequals(a, b) implies
// ifold_hash(a) == ifold_hash(b). The header-name interner's probe key.
std::uint64_t ifold_hash(std::string_view s);

// Transparent hash for std::string-keyed unordered containers, so a
// string_view looks a key up without building a std::string (pair it with
// std::equal_to<>).
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

// Lowercase ASCII copy.
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

// printf-style formatting into std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace mfhttp

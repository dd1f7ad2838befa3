#include "util/cli_options.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <system_error>
#include <utility>

#include "util/check.h"

namespace mfhttp {
namespace {

// from_chars on an unsigned type accepts digits only: no sign, no leading
// space, and overflow is an error rather than a silent clamp (strtoul maps
// "-1" to SIZE_MAX and clamps overflow with only errno set).
std::optional<std::size_t> parse_positive(std::string_view s) {
  std::size_t v = 0;
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc() || end != last || v == 0) return std::nullopt;
  return v;
}

}  // namespace

CliOptions::CliOptions(std::string program) : program_(std::move(program)) {}

CliOptions& CliOptions::add_string(std::string flag, std::string value_name,
                                   std::string help, std::string* out) {
  MFHTTP_CHECK(out != nullptr);
  options_.push_back(
      {std::move(flag), std::move(value_name), std::move(help), out, nullptr});
  return *this;
}

CliOptions& CliOptions::add_flag(std::string flag, std::string help, bool* out) {
  MFHTTP_CHECK(out != nullptr);
  options_.push_back({std::move(flag), {}, std::move(help), nullptr, out});
  return *this;
}

bool CliOptions::parse(int& argc, char** argv, std::string* error) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Option* match = nullptr;
    std::string_view inline_value;
    bool has_inline = false;
    for (const Option& o : options_) {
      if (arg == o.flag) {
        match = &o;
        break;
      }
      // "--flag=value" form (value flags only).
      if (o.str_out != nullptr && arg.size() > o.flag.size() + 1 &&
          arg.substr(0, o.flag.size()) == o.flag && arg[o.flag.size()] == '=') {
        match = &o;
        inline_value = arg.substr(o.flag.size() + 1);
        has_inline = true;
        break;
      }
    }
    if (match == nullptr) {
      argv[out++] = argv[i];
      continue;
    }
    if (match->bool_out != nullptr) {
      *match->bool_out = true;
      continue;
    }
    if (has_inline) {
      *match->str_out = std::string(inline_value);
      continue;
    }
    if (i + 1 >= argc) {
      if (error != nullptr)
        *error = format_error(match->flag, "", "missing required value");
      return false;
    }
    *match->str_out = argv[++i];
  }
  argc = out;
  argv[argc] = nullptr;
  return true;
}

void CliOptions::parse_or_exit(int& argc, char** argv) {
  std::string error;
  if (parse(argc, argv, &error)) return;
  std::fprintf(stderr, "%s\n%s", error.c_str(), usage().c_str());
  std::exit(2);
}

std::string CliOptions::usage() const {
  std::ostringstream out;
  out << "usage: " << program_;
  for (const Option& o : options_) {
    out << " [" << o.flag;
    if (!o.value_name.empty()) out << " <" << o.value_name << ">";
    out << "]";
  }
  out << "\n";
  for (const Option& o : options_) {
    out << "  " << o.flag;
    if (!o.value_name.empty()) out << " <" << o.value_name << ">";
    out << "\n      " << o.help << "\n";
  }
  return out.str();
}

std::string CliOptions::format_error(std::string_view flag,
                                     std::string_view value,
                                     std::string_view why) {
  std::string out = "error: ";
  out += flag;
  if (!value.empty()) {
    out += ' ';
    out += value;
  }
  out += ": ";
  out += why;
  return out;
}

void CliOptions::fail(std::string_view flag, std::string_view value,
                      std::string_view why) {
  std::fprintf(stderr, "%s\n", format_error(flag, value, why).c_str());
  std::exit(2);
}

std::size_t CliOptions::positive_size(std::string_view flag,
                                      std::string_view s) {
  const std::optional<std::size_t> v = parse_positive(s);
  if (!v.has_value()) fail(flag, s, "expected a positive integer");
  return *v;
}

std::vector<std::size_t> CliOptions::positive_size_list(std::string_view flag,
                                                        std::string_view s) {
  std::vector<std::size_t> out;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    const std::optional<std::size_t> v = parse_positive(s.substr(pos, comma - pos));
    if (!v.has_value())
      fail(flag, s, "expected comma-separated positive integers");
    out.push_back(*v);
    if (comma == s.size()) return out;
    pos = comma + 1;
  }
}

}  // namespace mfhttp

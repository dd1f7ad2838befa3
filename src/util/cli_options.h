// Declarative argv flag extraction — the one CLI parser.
//
// A binary registers the flags it understands, parse() extracts exactly
// those from argv (removing them), and everything unrecognized stays in
// place, in order. What to do with the leftovers is the caller's policy:
// cli::StandardOptions rejects leftover flags and keeps positional
// arguments.
//
// Error formatting is shared too. A malformed command line ("--flag" with
// no value) reports through parse(); a flag whose *value* later fails to
// parse or load (bad count, missing file, bad JSON) reports through
// format_error()/fail(), so every binary prints the identical
//
//   error: --flag <value>: <why>
//
// shape and exits 2. A flag the caller named but whose payload cannot be
// used must never degrade to a silent default run — a bench that "passed"
// without its fault plan or cache config is a lie.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace mfhttp {

class CliOptions {
 public:
  // `program` seeds the usage line (typically argv[0]'s basename).
  explicit CliOptions(std::string program);

  // Registers "--flag <value>" / "--flag=<value>". `out` keeps its prior
  // content (the default) when the flag is absent. `flag` includes the
  // leading dashes.
  CliOptions& add_string(std::string flag, std::string value_name,
                         std::string help, std::string* out);

  // Registers a valueless boolean flag; presence sets *out = true.
  CliOptions& add_flag(std::string flag, std::string help, bool* out);

  // Extracts every registered flag from argv, compacting argv in place.
  // Unregistered arguments are left untouched, in order. Returns false
  // (with the shared error format in *error) when a value flag is last on
  // the line with nothing following it.
  bool parse(int& argc, char** argv, std::string* error = nullptr);

  // parse(), but a bad command line prints the error plus usage() to
  // stderr and exits 2.
  void parse_or_exit(int& argc, char** argv);

  std::string usage() const;

  // The shared post-parse error shape: "error: --flag <value>: <why>".
  static std::string format_error(std::string_view flag, std::string_view value,
                                  std::string_view why);
  // Prints format_error to stderr and exits 2.
  [[noreturn]] static void fail(std::string_view flag, std::string_view value,
                                std::string_view why);

  // A count flag's value: a base-10 integer >= 1 that fits std::size_t.
  // Anything else — empty, signed ("-1"), trailing junk, zero, overflow —
  // fail()s naming `flag`.
  static std::size_t positive_size(std::string_view flag, std::string_view s);
  // A comma-separated list of positive_size values ("1,2,4"); an empty list
  // or an empty element ("3,") fail()s.
  static std::vector<std::size_t> positive_size_list(std::string_view flag,
                                                     std::string_view s);

 private:
  struct Option {
    std::string flag;
    std::string value_name;  // empty for boolean flags
    std::string help;
    std::string* str_out = nullptr;
    bool* bool_out = nullptr;
  };

  std::string program_;
  std::vector<Option> options_;
};

}  // namespace mfhttp

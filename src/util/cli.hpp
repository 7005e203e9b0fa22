// Minimal command-line flag parsing for the CLI tool and examples:
// "--name value" and "--name=value" forms, typed getters with defaults,
// and an unknown-flag check so typos fail loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace valocal {

/// Non-negative decimal count (a thread count, a size). Aborts with a
/// message naming `name` — a flag such as "--threads" or an
/// environment variable such as "VALOCAL_THREADS" — on an empty,
/// malformed (trailing junk included) or negative value.
std::size_t parse_count(const std::string& text, const std::string& name);

/// parse_count applied to environment variable `name`; `fallback` when
/// the variable is unset. A set-but-empty variable is malformed.
std::size_t env_count(const char* name, std::size_t fallback);

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name,
                       std::int64_t fallback) const;
  /// Non-negative integer flag (a count or a size). Aborts with a
  /// message naming the flag on an empty, malformed or negative value.
  std::size_t get_count(const std::string& name, std::size_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// Aborts with a usage message listing the offending flags unless
  /// every provided flag is in `known`.
  void check_known(const std::vector<std::string>& known) const;

  const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace valocal

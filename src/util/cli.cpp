#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/assertx.hpp"

namespace valocal {

namespace {

/// Signed decimal integer; aborts naming `name` unless all of `text`
/// parses.
std::int64_t parse_int(const std::string& text, const std::string& name) {
  char* end = nullptr;
  const std::int64_t value = std::strtoll(text.c_str(), &end, 10);
  VALOCAL_REQUIRE(!text.empty() && end != nullptr && *end == '\0',
                  ("malformed integer value for " + name).c_str());
  return value;
}

}  // namespace

std::size_t parse_count(const std::string& text, const std::string& name) {
  const std::int64_t value = parse_int(text, name);
  VALOCAL_REQUIRE(value >= 0, ("negative value for " + name).c_str());
  return static_cast<std::size_t>(value);
}

std::size_t env_count(const char* name, std::size_t fallback) {
  const char* text = std::getenv(name);
  return text == nullptr ? fallback : parse_count(text, name);
}

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";  // bare flag
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.contains(name);
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : parse_int(it->second, "--" + name);
}

std::size_t CliArgs::get_count(const std::string& name,
                               std::size_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : parse_count(it->second, "--" + name);
}

double CliArgs::get_double(const std::string& name,
                           double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  VALOCAL_REQUIRE(end != nullptr && *end == '\0',
                  "malformed floating-point flag value");
  return value;
}

void CliArgs::check_known(const std::vector<std::string>& known) const {
  bool ok = true;
  for (const auto& [name, value] : flags_) {
    bool found = false;
    for (const auto& k : known)
      if (k == name) {
        found = true;
        break;
      }
    if (!found) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      ok = false;
    }
  }
  if (!ok) std::exit(2);
}

}  // namespace valocal

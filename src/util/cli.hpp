#pragma once

/// \file cli.hpp
/// Minimal command-line flag parsing for the bench and example binaries.
///
/// Supports `--name=value`, `--name value`, and boolean `--name` /
/// `--no-name` forms. Unknown flags raise `std::invalid_argument` so typos
/// in experiment invocations fail loudly instead of silently running the
/// default configuration; so does giving one flag twice (including the
/// conflicting `--x ... --no-x` pair), which would otherwise silently
/// resolve last-one-wins.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lynceus::util {

class CliFlags {
 public:
  /// Parses `argv`. `spec` lists the accepted flag names (without dashes);
  /// any other flag is an error.
  CliFlags(int argc, const char* const* argv,
           const std::vector<std::string>& spec);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace lynceus::util

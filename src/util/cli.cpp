#include "util/cli.hpp"

#include <algorithm>
#include <stdexcept>

namespace lynceus::util {

CliFlags::CliFlags(int argc, const char* const* argv,
                   const std::vector<std::string>& spec) {
  auto known = [&spec](const std::string& name) {
    return std::find(spec.begin(), spec.end(), name) != spec.end();
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (arg.rfind("no-", 0) == 0 && known(arg.substr(3))) {
      name = arg.substr(3);
      value = "false";
    } else {
      name = arg;
      // `--flag value` form: consume the next token if it is not a flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (!known(name)) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
    // Repeated (or conflicting, e.g. `--x ... --no-x`) flags are a hard
    // error: last-one-wins silence hides typos in long experiment command
    // lines, where the dropped value can invalidate hours of results.
    if (!values_.emplace(name, value).second) {
      throw std::invalid_argument(
          "flag --" + name +
          " given more than once (conflicting or repeated values)");
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string CliFlags::get_string(const std::string& name,
                                 const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  // Checked full-string parse: a bare std::stoll would throw an uncaught
  // bare "stoll" on `--la=abc` / `--la=` (and silently accept `--la=2x`),
  // which surfaces as a crash instead of a usage error in the tools.
  std::size_t consumed = 0;
  std::int64_t parsed = 0;
  try {
    parsed = std::stoll(it->second, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (it->second.empty() || consumed != it->second.size()) {
    throw std::invalid_argument("flag --" + name +
                                " expects an integer, got '" + it->second +
                                "'");
  }
  return parsed;
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(it->second, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (it->second.empty() || consumed != it->second.size()) {
    throw std::invalid_argument("flag --" + name +
                                " expects a number, got '" + it->second +
                                "'");
  }
  return parsed;
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              v + "'");
}

}  // namespace lynceus::util

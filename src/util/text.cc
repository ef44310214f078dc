#include "util/text.h"

#include <cmath>
#include <cstdio>

namespace wolt::util {

void EmitDouble(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

std::optional<double> ParseDouble(const std::string& s) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(s, &consumed);
    if (consumed != s.size() || !std::isfinite(v)) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::vector<double>> ParseDoubleList(const std::string& csv) {
  std::vector<double> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto v = ParseDouble(item);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

std::optional<std::unordered_map<std::string, std::string>> ParseKv(
    std::istream& in) {
  std::unordered_map<std::string, std::string> kv;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

bool LineReader::Next(std::istringstream& parsed) {
  while (std::getline(in_, line_)) {
    ++line_number_;
    const std::size_t first = line_.find_first_not_of(" \t\r");
    if (first == std::string::npos || line_[first] == '#') continue;
    // Re-seed in place; move-assigning a fresh stream trips GCC 12's
    // -Wstringop-overflow under the sanitizers (a false positive).
    parsed.str(line_);
    parsed.clear();
    return true;
  }
  return false;
}

}  // namespace wolt::util

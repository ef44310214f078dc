// Text helpers shared by the two line-oriented file formats (networks in
// model/io.cc, workload traces in sim/workload.cc): an exact-round-trip
// double emitter and strict number, number-list and key=value parsers with
// one accept set for both loaders.
#pragma once

#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

namespace wolt::util {

// Writes `v` as %.17g, which round-trips every double exactly.
void EmitDouble(std::ostream& out, double v);

// The whole token as one finite double (std::stod syntax). Trailing junk
// and every non-finite spelling ("nan", "inf", "infinity", ...) are
// rejected: one infinite rate or load silently poisons the Evaluator's
// aggregates, so malformed input must die at the loader with a typed error.
std::optional<double> ParseDouble(const std::string& s);

// Comma-separated ParseDouble tokens; any bad token rejects the list.
std::optional<std::vector<double>> ParseDoubleList(const std::string& csv);

// The remaining whitespace-separated "key=value" tokens of a line (later
// keys overwrite earlier ones). A token without '=' or with an empty key
// rejects the line.
std::optional<std::unordered_map<std::string, std::string>> ParseKv(
    std::istream& in);

// Line source of both formats: skips blank lines and '#' comments and
// counts physical lines for typed error reports.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  // Advances to the next non-blank, non-comment line and re-seeds `parsed`
  // with it. Returns false at EOF.
  bool Next(std::istringstream& parsed);
  // 1-based number of the line last read (0 before the first).
  int line_number() const { return line_number_; }

 private:
  std::istream& in_;
  std::string line_;
  int line_number_ = 0;
};

}  // namespace wolt::util

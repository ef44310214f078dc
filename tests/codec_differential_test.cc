// Differential battery for the control-plane wire codec. The codec in
// core/controller.cc splits lines through std::string_view and reads and
// writes numbers with std::from_chars / std::to_chars. The reference below
// is the codec it replaced, kept verbatim: istringstream word splitting, an
// unordered_map of fields, strict std::stod / std::stoll and printf("%g").
// Both must accept exactly the same lines, decode them to bit-identical
// messages and encode every message to the same bytes. The inputs are
// seeded valid lines of all five message types, byte-mutated copies of
// them, a list of edge tokens in every numeric slot, number-shaped byte
// soup, and random double bit patterns for the encoders.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/controller.h"
#include "fault/plane.h"
#include "util/rng.h"

namespace wolt::core {
namespace {

// --- The reference codec (the pre-string_view implementation) ------------

namespace reference {

std::string JoinDoubles(const std::vector<double>& xs) {
  std::string out;
  char buf[64];
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (k) out += ',';
    std::snprintf(buf, sizeof(buf), "%g", xs[k]);
    out += buf;
  }
  return out;
}

std::optional<double> ParseDouble(const std::string& s) {
  if (s.empty() ||
      s.find_first_not_of("0123456789.+-eE") != std::string::npos) {
    return std::nullopt;
  }
  try {
    std::size_t consumed = 0;
    const double value = std::stod(s, &consumed);
    if (consumed != s.size() || !std::isfinite(value)) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::int64_t> ParseInt64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(s, &consumed);
    if (consumed != s.size()) return std::nullopt;
    return static_cast<std::int64_t>(value);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<int> ParseInt(const std::string& s) {
  const auto wide = ParseInt64(s);
  if (!wide || *wide < std::numeric_limits<int>::min() ||
      *wide > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(*wide);
}

std::optional<std::vector<double>> ParseDoubles(const std::string& csv) {
  if (!csv.empty() && csv.back() == ',') return std::nullopt;
  std::vector<double> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto value = ParseDouble(item);
    if (!value) return std::nullopt;
    out.push_back(*value);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::optional<std::unordered_map<std::string, std::string>> ParseFields(
    const std::string& line, const std::string& expected_type) {
  std::istringstream in(line);
  std::string type;
  if (!(in >> type) || type != expected_type) return std::nullopt;
  std::unordered_map<std::string, std::string> fields;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    if (!fields.emplace(token.substr(0, eq), token.substr(eq + 1)).second) {
      return std::nullopt;
    }
  }
  return fields;
}

bool OnlyKeys(const std::unordered_map<std::string, std::string>& fields,
              std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : fields) {
    (void)value;
    bool known = false;
    for (const char* a : allowed) known = known || key == a;
    if (!known) return false;
  }
  return true;
}

bool AllNonNegative(const std::vector<double>& xs) {
  return std::all_of(xs.begin(), xs.end(), [](double x) { return x >= 0.0; });
}

std::string Encode(const ScanReport& msg) {
  std::string out = "SCAN user=" + std::to_string(msg.user_id) +
                    " rates=" + JoinDoubles(msg.rates_mbps);
  if (!msg.rssi_dbm.empty()) out += " rssi=" + JoinDoubles(msg.rssi_dbm);
  if (msg.associated_extender) {
    out += " assoc=" + std::to_string(*msg.associated_extender);
  }
  if (msg.demand_mbps) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", *msg.demand_mbps);
    out += " demand=";
    out += buf;
  }
  return out;
}

std::string Encode(const AssociationDirective& msg) {
  return "DIRECTIVE user=" + std::to_string(msg.user_id) +
         " extender=" + std::to_string(msg.extender);
}

std::string Encode(const DirectiveAck& msg) {
  return "ACK user=" + std::to_string(msg.user_id) +
         " extender=" + std::to_string(msg.extender);
}

std::string Encode(const DepartureNotice& msg) {
  return "DEPART user=" + std::to_string(msg.user_id);
}

std::string Encode(const CapacityReport& msg) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", msg.capacity_mbps);
  return "CAPACITY extender=" + std::to_string(msg.extender) + " mbps=" + buf;
}

std::optional<ScanReport> DecodeScanReport(const std::string& line) {
  const auto fields = ParseFields(line, "SCAN");
  if (!fields || !fields->count("user") || !fields->count("rates") ||
      !OnlyKeys(*fields, {"user", "rates", "rssi", "assoc", "demand"})) {
    return std::nullopt;
  }
  ScanReport msg;
  const auto user = ParseInt64(fields->at("user"));
  if (!user) return std::nullopt;
  msg.user_id = *user;
  const auto rates = ParseDoubles(fields->at("rates"));
  if (!rates || !AllNonNegative(*rates)) return std::nullopt;
  msg.rates_mbps = *rates;
  if (fields->count("rssi")) {
    const auto rssi = ParseDoubles(fields->at("rssi"));
    if (!rssi || rssi->size() != msg.rates_mbps.size()) return std::nullopt;
    msg.rssi_dbm = *rssi;
  }
  if (fields->count("assoc")) {
    const auto assoc = ParseInt(fields->at("assoc"));
    if (!assoc || *assoc < -1) return std::nullopt;
    msg.associated_extender = *assoc;
  }
  if (fields->count("demand")) {
    const auto demand = ParseDouble(fields->at("demand"));
    if (!demand || *demand < 0.0) return std::nullopt;
    msg.demand_mbps = *demand;
  }
  return msg;
}

std::optional<AssociationDirective> DecodeAssociationDirective(
    const std::string& line) {
  const auto fields = ParseFields(line, "DIRECTIVE");
  if (!fields || !fields->count("user") || !fields->count("extender") ||
      !OnlyKeys(*fields, {"user", "extender"})) {
    return std::nullopt;
  }
  const auto user = ParseInt64(fields->at("user"));
  const auto extender = ParseInt(fields->at("extender"));
  if (!user || !extender || *extender < 0) return std::nullopt;
  return AssociationDirective{*user, *extender};
}

std::optional<DirectiveAck> DecodeDirectiveAck(const std::string& line) {
  const auto fields = ParseFields(line, "ACK");
  if (!fields || !fields->count("user") || !fields->count("extender") ||
      !OnlyKeys(*fields, {"user", "extender"})) {
    return std::nullopt;
  }
  const auto user = ParseInt64(fields->at("user"));
  const auto extender = ParseInt(fields->at("extender"));
  if (!user || !extender || *extender < 0) return std::nullopt;
  return DirectiveAck{*user, *extender};
}

std::optional<DepartureNotice> DecodeDepartureNotice(const std::string& line) {
  const auto fields = ParseFields(line, "DEPART");
  if (!fields || !fields->count("user") || !OnlyKeys(*fields, {"user"})) {
    return std::nullopt;
  }
  const auto user = ParseInt64(fields->at("user"));
  if (!user) return std::nullopt;
  return DepartureNotice{*user};
}

std::optional<CapacityReport> DecodeCapacityReport(const std::string& line) {
  const auto fields = ParseFields(line, "CAPACITY");
  if (!fields || !fields->count("extender") || !fields->count("mbps") ||
      !OnlyKeys(*fields, {"extender", "mbps"})) {
    return std::nullopt;
  }
  const auto extender = ParseInt(fields->at("extender"));
  const auto mbps = ParseDouble(fields->at("mbps"));
  if (!extender || *extender < 0 || !mbps || *mbps < 0.0) return std::nullopt;
  return CapacityReport{*extender, *mbps};
}

}  // namespace reference

// --- Comparison helpers ----------------------------------------------------

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint64_t> Bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (double x : xs) out.push_back(Bits(x));
  return out;
}

// Human-readable rendering of a line with its control bytes escaped.
std::string Show(const std::string& line) {
  std::string out;
  for (const unsigned char c : line) {
    if (c >= 0x20 && c < 0x7f) {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

// All five decoders of both codecs on the same bytes: the same accept
// decision and bit-identical fields.
void ExpectSameDecode(const std::string& line) {
  SCOPED_TRACE(Show(line));
  {
    const auto got = DecodeScanReport(line);
    const auto want = reference::DecodeScanReport(line);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) {
      EXPECT_EQ(got->user_id, want->user_id);
      EXPECT_EQ(Bits(got->rates_mbps), Bits(want->rates_mbps));
      EXPECT_EQ(Bits(got->rssi_dbm), Bits(want->rssi_dbm));
      EXPECT_EQ(got->associated_extender, want->associated_extender);
      ASSERT_EQ(got->demand_mbps.has_value(), want->demand_mbps.has_value());
      if (got->demand_mbps) {
        EXPECT_EQ(Bits(*got->demand_mbps), Bits(*want->demand_mbps));
      }
    }
  }
  {
    const auto got = DecodeAssociationDirective(line);
    const auto want = reference::DecodeAssociationDirective(line);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) {
      EXPECT_EQ(got->user_id, want->user_id);
      EXPECT_EQ(got->extender, want->extender);
    }
  }
  {
    const auto got = DecodeDirectiveAck(line);
    const auto want = reference::DecodeDirectiveAck(line);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) {
      EXPECT_EQ(got->user_id, want->user_id);
      EXPECT_EQ(got->extender, want->extender);
    }
  }
  {
    const auto got = DecodeDepartureNotice(line);
    const auto want = reference::DecodeDepartureNotice(line);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) {
      EXPECT_EQ(got->user_id, want->user_id);
    }
  }
  {
    const auto got = DecodeCapacityReport(line);
    const auto want = reference::DecodeCapacityReport(line);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) {
      EXPECT_EQ(got->extender, want->extender);
      EXPECT_EQ(Bits(got->capacity_mbps), Bits(want->capacity_mbps));
    }
  }
}

// --- Seeded message generators --------------------------------------------

// A wire-realistic rate: mostly MCS-like values with a few decimals, with
// zeros, integers, large and tiny magnitudes mixed in.
double RandomRate(util::Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0: return 0.0;
    case 1: return static_cast<double>(rng.UniformInt(1, 1300));
    case 2: return rng.Uniform(0.0, 1e-3);
    case 3: return rng.Uniform(1e5, 1e12);
    default: return rng.Uniform(0.0, 866.7);
  }
}

std::int64_t RandomId(util::Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0: return rng.UniformInt(0, 1000);
    case 1: return -static_cast<std::int64_t>(rng.UniformInt(0, 1 << 30));
    case 2: return static_cast<std::int64_t>(rng.Next());
    default: return rng.UniformInt(0, 1 << 30);
  }
}

ScanReport RandomScan(util::Rng& rng) {
  ScanReport scan;
  scan.user_id = RandomId(rng);
  const int n = rng.UniformInt(1, 8);
  for (int j = 0; j < n; ++j) scan.rates_mbps.push_back(RandomRate(rng));
  if (rng.Bernoulli(0.5)) {
    for (int j = 0; j < n; ++j) {
      scan.rssi_dbm.push_back(rng.Uniform(-95.0, -20.0));
    }
  }
  if (rng.Bernoulli(0.5)) scan.associated_extender = rng.UniformInt(-1, n);
  if (rng.Bernoulli(0.3)) scan.demand_mbps = RandomRate(rng);
  return scan;
}

// One valid line of each message type.
std::vector<std::string> RandomValidLines(util::Rng& rng) {
  const int ext = rng.UniformInt(0, 40);
  return {
      Encode(RandomScan(rng)),
      Encode(AssociationDirective{RandomId(rng), ext}),
      Encode(DirectiveAck{RandomId(rng), ext}),
      Encode(DepartureNotice{RandomId(rng)}),
      Encode(CapacityReport{ext, RandomRate(rng)}),
  };
}

// --- Tests -----------------------------------------------------------------

TEST(CodecDifferentialTest, SeededValidMessagesEncodeAndDecodeIdentically) {
  util::Rng rng(0xC0DEC);
  for (int iter = 0; iter < 3000; ++iter) {
    const ScanReport scan = RandomScan(rng);
    ASSERT_EQ(Encode(scan), reference::Encode(scan));
    const AssociationDirective d{RandomId(rng), rng.UniformInt(0, 1 << 20)};
    ASSERT_EQ(Encode(d), reference::Encode(d));
    const DirectiveAck a{RandomId(rng), rng.UniformInt(0, 1 << 20)};
    ASSERT_EQ(Encode(a), reference::Encode(a));
    const DepartureNotice bye{RandomId(rng)};
    ASSERT_EQ(Encode(bye), reference::Encode(bye));
    const CapacityReport cap{rng.UniformInt(0, 64), RandomRate(rng)};
    ASSERT_EQ(Encode(cap), reference::Encode(cap));

    for (const std::string& line : RandomValidLines(rng)) {
      ExpectSameDecode(line);
    }
    // A valid line must decode (the comparison must not be vacuous).
    ASSERT_TRUE(DecodeScanReport(Encode(scan)).has_value());
  }
}

TEST(CodecDifferentialTest, ByteMutatedLinesDecodeIdentically) {
  // Substitutions, insertions and deletions drawn from bytes that matter to
  // the grammar (separators of every whitespace kind, '=', ',', signs,
  // exponent letters, NUL) plus arbitrary bytes.
  const std::string interesting = std::string(" \t\n\v\f\r=,.+-eE0x9\0", 18);
  util::Rng rng(0xB17E);
  for (int iter = 0; iter < 6000; ++iter) {
    for (std::string line : RandomValidLines(rng)) {
      const int edits = rng.UniformInt(1, 3);
      for (int e = 0; e < edits && !line.empty(); ++e) {
        const std::size_t at = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int>(line.size()) - 1));
        const char byte =
            rng.Bernoulli(0.7)
                ? interesting[static_cast<std::size_t>(rng.UniformInt(
                      0, static_cast<int>(interesting.size()) - 1))]
                : static_cast<char>(rng.UniformInt(0, 255));
        switch (rng.UniformInt(0, 2)) {
          case 0: line[at] = byte; break;
          case 1: line.insert(at, 1, byte); break;
          default: line.erase(at, 1); break;
        }
      }
      ExpectSameDecode(line);
    }
  }

  // The fault plane's corruptor: the byte mangling the chaos harness and
  // the fleet's wire inject.
  fault::FaultPlaneParams params;
  for (auto& w : params.per_class) w.corrupt = 1.0;
  fault::FaultPlane plane(params, /*seed=*/11);
  for (int iter = 0; iter < 2000; ++iter) {
    for (const std::string& line : RandomValidLines(rng)) {
      for (const auto& d : plane.Transmit(fault::MessageClass::kScan, line)) {
        ExpectSameDecode(d.bytes);
      }
    }
  }
}

// Number tokens on the edges of the grammar, each tried in every numeric
// slot of every message type.
std::vector<std::string> EdgeTokens() {
  std::vector<std::string> tokens = {
      "", "0", "-0", "+0", "0.0", "-0.0", "+0.0", "00", "007", "-007",
      "1", "+1", "-1", "+-1", "-+1", "--1", "++1", "+", "-", ".", "-.", "+.",
      ".5", "-.5", "+.5", "5.", "5.e1", "1e", "1e+", "1e-", "1e5", "1E5",
      "1e+5", "1e-5", "+1e5", "-1e5", "1e5.5", "1.5.3", "1-2", "1+2", "e5",
      "E", "1ee5", "1e309", "-1e309", "1e308", "1.7976931348623157e308",
      "1.7976931348623158e308", "1.7976931348623159e308", "1e-307",
      "2.2250738585072014e-308", "2.2250738585072011e-308",
      "2.225073858507201e-308", "4.9406564584124654e-324", "1e-320",
      "-1e-320", "1e-323", "1e-324", "1e-400", "-1e-400", "0e-400", "0e400",
      "1e99999999999999999999", "1e-99999999999999999999",
      "0.000000000000000000000000000000000000000001",
      "123456789012345678901234567890", "0x10", "0X1p3", "0x", "inf", "-inf",
      "+inf", "INF", "infinity", "Infinity", "nan", "NaN", "-nan", "nan(1)",
      "1,2", "1,,2", ",1", "1,", ",", ",,", "1, 2", "1 ,2", "1\t2",
      "2147483647", "2147483648", "-2147483648", "-2147483649",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "+9223372036854775807", "+9223372036854775808",
      "18446744073709551616", "1.0", "1e0", "12abc", "abc", "=", "1=2",
      std::string("1\0", 2), std::string("\0" "1", 2)};
  return tokens;
}

TEST(CodecDifferentialTest, EdgeTokensDecodeIdentically) {
  const std::vector<std::string> templates = {
      "SCAN user=@ rates=1,2",        "SCAN user=1 rates=@",
      "SCAN user=1 rates=@,2",        "SCAN user=1 rates=2,@",
      "SCAN user=1 rates=1 rssi=@",   "SCAN user=1 rates=1,2 rssi=-50,@",
      "SCAN user=1 rates=1 assoc=@",  "SCAN user=1 rates=1 demand=@",
      "DIRECTIVE user=@ extender=1",  "DIRECTIVE user=1 extender=@",
      "ACK user=@ extender=1",        "ACK user=1 extender=@",
      "DEPART user=@",                "CAPACITY extender=@ mbps=1",
      "CAPACITY extender=1 mbps=@",
  };
  for (const std::string& tmpl : templates) {
    for (const std::string& token : EdgeTokens()) {
      std::string line = tmpl;
      line.replace(line.find('@'), 1, token);
      ExpectSameDecode(line);
    }
  }
}

TEST(CodecDifferentialTest, FieldLayoutEdgesDecodeIdentically) {
  const std::vector<std::string> lines = {
      "", " ", "\t\n\v\f\r", "SCAN", "SCAN ", "DEPART", "DEPART user",
      "DEPART user=", "DEPART =1", "DEPART user==1", "DEPART user=1=2",
      "DEPART user=1 user=1", "DEPART user=1 user=2", "DEPART user=1 x=1",
      "DEPART user=1 x=1 x=1", "DEPART user=1 =", "DEPART user=1 junk",
      "  DEPART user=1", "DEPART user=1  ", "DEPART\tuser=1",
      "DEPART\ruser=1\r", "DEPART\vuser=1", "DEPART\fuser=1\n",
      "DEPART\n\nuser=1", "\tDEPART user=1\t", "DEPART  user=1",
      "depart user=1",
      "DEPARTuser=1", "DEPART\xa0user=1", std::string("DEPART\0user=1", 13),
      "SCAN user=1 rates=1 rates=1", "SCAN rates=1 user=1",
      "SCAN demand=0 assoc=-1 rssi=-1 rates=0 user=0",
      "SCAN user=1 rates=1 rssi=", "SCAN user=1 rates=1 assoc=",
      "SCAN user=1 rates=1 demand=", "SCAN user=1 rates=1 Rates=1",
      "SCAN user=1 rates=1 assoc=-1", "SCAN user=1 rates=1 assoc=-2",
      "SCAN user=1 rates=1,2 rssi=1", "SCAN user=1 rates=1 rssi=1,2",
      "SCAN user=1 rates=-0,0", "SCAN user=1 rates=-1",
      "CAPACITY extender=0 mbps=-0", "CAPACITY extender=-0 mbps=0",
      "CAPACITY mbps=1 extender=2", "ACK extender=1 user=2",
      "DIRECTIVE user=1 extender=1 user=1", "ACK user=1 extender=-0",
  };
  for (const std::string& line : lines) ExpectSameDecode(line);
}

TEST(CodecDifferentialTest, NumberShapedSoupDecodesIdentically) {
  // Short tokens over the numeric whitelist: where from_chars and strtod
  // could disagree on grammar, rounding or range, if anywhere.
  const std::string alphabet = "0123456789.+-eE";
  util::Rng rng(0x50F7);
  for (int iter = 0; iter < 40000; ++iter) {
    std::string token;
    const int len = rng.UniformInt(1, 12);
    for (int k = 0; k < len; ++k) {
      // Digits dominate so that many tokens are valid numbers.
      token += rng.Bernoulli(0.6)
                   ? static_cast<char>('0' + rng.UniformInt(0, 9))
                   : alphabet[static_cast<std::size_t>(rng.UniformInt(
                         0, static_cast<int>(alphabet.size()) - 1))];
    }
    ExpectSameDecode("CAPACITY extender=1 mbps=" + token);
    ExpectSameDecode("SCAN user=" + token + " rates=1 rssi=" + token);
  }
}

TEST(CodecDifferentialTest, EncodersWritePrintfPercentG) {
  std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.1,
      1e-5,
      1e-4,
      123456.0,
      1234567.0,
      999999.5,
      9999995.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  util::Rng rng(0x9E7);
  for (int k = 0; k < 20000; ++k) {
    values.push_back(std::bit_cast<double>(rng.Next()));  // any bit pattern
    // Subnormals: exponent bits zero, random mantissa.
    values.push_back(
        std::bit_cast<double>(rng.Next() & 0x800FFFFFFFFFFFFFull));
    values.push_back(rng.Uniform(-1e7, 1e7));
    values.push_back(std::ldexp(rng.NextDouble(), rng.UniformInt(-60, 60)));
  }
  for (const double x : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", x);
    const std::string want = buf;
    ASSERT_EQ(Encode(CapacityReport{0, x}), "CAPACITY extender=0 mbps=" + want)
        << std::hex << Bits(x);
    ScanReport scan;
    scan.rates_mbps = {x, x};
    scan.demand_mbps = x;
    ASSERT_EQ(Encode(scan), reference::Encode(scan)) << std::hex << Bits(x);
  }
}

}  // namespace
}  // namespace wolt::core

// Golden-file coverage for the trace serialization (sim/workload.h),
// following the io_golden_test pattern: the committed corpus under
// tests/data/trace_corpus must match a fresh in-memory generation
// byte-for-byte (generation is a pure function of its seed) AND round-trip
// through parse -> serialize as the identity; every file under
// tests/data/trace_malformed must be rejected with the typed
// model::IoErrorKind its name promises — never a crash. Regenerate the
// corpus after an intentional format change with:
//   WOLT_REGEN_TRACE_GOLDEN=1 ./tests/workload_golden_test
#include "sim/workload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/scenario.h"
#include "util/rng.h"

#ifndef WOLT_TEST_DATA_DIR
#error "WOLT_TEST_DATA_DIR must point at tests/data"
#endif

namespace wolt::sim {
namespace {

namespace fs = std::filesystem;

fs::path DataDir() { return fs::path(WOLT_TEST_DATA_DIR); }

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool RegenRequested() {
  const char* env = std::getenv("WOLT_REGEN_TRACE_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

struct CorpusEntry {
  std::string name;
  WorkloadParams params;
  std::uint64_t seed = 0;
};

// The committed corpus: one trace per mobility model, covering every load
// curve and the background-traffic channel. Small horizons keep the files
// reviewable.
std::vector<CorpusEntry> Corpus() {
  std::vector<CorpusEntry> entries;

  CorpusEntry teleport;
  teleport.name = "teleport_constant.trace";
  teleport.params.horizon = 5.0;
  teleport.params.arrival_rate = 1.0;
  teleport.params.mean_session = 4.0;
  teleport.params.initial_users = 2;
  teleport.params.mobility.model = MobilityModel::kTeleport;
  teleport.params.move_tick = 1.0;
  teleport.seed = 101;
  entries.push_back(teleport);

  CorpusEntry waypoint;
  waypoint.name = "waypoint_diurnal.trace";
  waypoint.params.horizon = 5.0;
  waypoint.params.arrival_rate = 1.0;
  waypoint.params.mean_session = 4.0;
  waypoint.params.initial_users = 2;
  waypoint.params.mobility.model = MobilityModel::kWaypoint;
  waypoint.params.move_tick = 1.0;
  waypoint.params.load = LoadCurve::kDiurnal;
  waypoint.params.load_period = 4.0;
  waypoint.seed = 202;
  entries.push_back(waypoint);

  CorpusEntry hotspot;
  hotspot.name = "hotspot_bursty_bg.trace";
  hotspot.params.horizon = 5.0;
  hotspot.params.arrival_rate = 1.0;
  hotspot.params.mean_session = 4.0;
  hotspot.params.initial_users = 2;
  hotspot.params.mobility.model = MobilityModel::kHotspot;
  hotspot.params.move_tick = 1.0;
  hotspot.params.load = LoadCurve::kBursty;
  hotspot.params.burst_rate = 1.0;
  hotspot.params.background_share = 0.5;
  hotspot.seed = 303;
  entries.push_back(hotspot);

  return entries;
}

// The corpus topology: fixed scenario, fixed seed — regeneration and
// verification must agree on the base network bit-for-bit.
model::Network CorpusNetwork(const ScenarioGenerator& generator) {
  util::Rng rng(424242);
  return generator.Generate(rng);
}

ScenarioGenerator CorpusGenerator() {
  ScenarioParams p;
  p.num_extenders = 3;
  p.num_users = 0;
  return ScenarioGenerator(p);
}

TEST(WorkloadGoldenTest, CorpusMatchesGenerationAndRoundTrips) {
  const ScenarioGenerator generator = CorpusGenerator();
  const model::Network base = CorpusNetwork(generator);
  const fs::path dir = DataDir() / "trace_corpus";

  if (RegenRequested()) {
    fs::create_directories(dir);
    for (const CorpusEntry& entry : Corpus()) {
      const WorkloadTrace trace =
          GenerateTrace(generator, base, entry.params, entry.seed);
      ASSERT_TRUE(SaveTraceFile(trace, (dir / entry.name).string()));
    }
    GTEST_SKIP() << "regenerated trace corpus under " << dir;
  }

  for (const CorpusEntry& entry : Corpus()) {
    const std::string golden = ReadFile(dir / entry.name);
    ASSERT_FALSE(golden.empty()) << dir / entry.name;

    // Generation is a pure function of (scenario, params, seed): a fresh
    // generation must reproduce the committed bytes exactly. A mismatch
    // means the generator or the format drifted — regenerate deliberately
    // with WOLT_REGEN_TRACE_GOLDEN=1 and review the diff.
    const WorkloadTrace fresh =
        GenerateTrace(generator, base, entry.params, entry.seed);
    EXPECT_EQ(TraceToString(fresh), golden) << entry.name;

    // Parse -> serialize is the identity on serializer output.
    const TraceLoadResult parsed = TraceFromStringDetailed(golden);
    ASSERT_TRUE(parsed.ok())
        << entry.name << ": " << model::ToString(parsed.error.kind)
        << " at line " << parsed.error.line << ": " << parsed.error.message;
    EXPECT_EQ(TraceToString(*parsed.trace), golden) << entry.name;

    // And a second round trip is a fixed point.
    const TraceLoadResult again =
        TraceFromStringDetailed(TraceToString(*parsed.trace));
    ASSERT_TRUE(again.ok()) << entry.name;
    EXPECT_EQ(TraceToString(*again.trace), TraceToString(*parsed.trace));
  }
}

TEST(WorkloadGoldenTest, MalformedCorpusRejectedWithTypedErrors) {
  const std::map<std::string, model::IoErrorKind> expected = {
      {"truncated.trace", model::IoErrorKind::kTruncated},
      {"bad_header.trace", model::IoErrorKind::kBadHeader},
      {"bad_version.trace", model::IoErrorKind::kBadHeader},
      {"bad_count.trace", model::IoErrorKind::kBadCount},
      {"bad_record.trace", model::IoErrorKind::kBadRecord},
      {"bad_keyvalue.trace", model::IoErrorKind::kBadKeyValue},
      {"bad_number.trace", model::IoErrorKind::kBadNumber},
      {"bad_dimension.trace", model::IoErrorKind::kBadDimension},
      {"trailing.trace", model::IoErrorKind::kTrailingInput},
      // Semantic defects: the loader enforces the same invariants the
      // generator guarantees, so replay never sees an impossible stream.
      {"time_backwards.trace", model::IoErrorKind::kBadRecord},
      {"arrive_twice.trace", model::IoErrorKind::kBadRecord},
      {"depart_inactive.trace", model::IoErrorKind::kBadRecord},
      {"move_inactive.trace", model::IoErrorKind::kBadRecord},
      {"past_horizon.trace", model::IoErrorKind::kBadRecord},
      {"negative_rate.trace", model::IoErrorKind::kBadNumber},
      {"bad_share.trace", model::IoErrorKind::kBadNumber},
  };
  int files = 0;
  for (const auto& entry :
       fs::directory_iterator(DataDir() / "trace_malformed")) {
    ++files;
    const auto it = expected.find(entry.path().filename().string());
    ASSERT_NE(it, expected.end())
        << entry.path() << " has no expected error kind; add it to the map";

    const TraceLoadResult res =
        TraceFromStringDetailed(ReadFile(entry.path()));
    EXPECT_FALSE(res.ok()) << entry.path();
    EXPECT_EQ(res.error.kind, it->second)
        << entry.path() << ": got " << model::ToString(res.error.kind)
        << " at line " << res.error.line << ": " << res.error.message;
    EXPECT_FALSE(res.error.message.empty()) << entry.path();
  }
  EXPECT_EQ(files, static_cast<int>(expected.size()));
}

TEST(WorkloadGoldenTest, MissingFileGivesTypedError) {
  const TraceLoadResult res =
      LoadTraceFile((DataDir() / "trace_corpus" / "nope.trace").string());
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error.kind, model::IoErrorKind::kTruncated);
}

// Byte-soup: mutated serializations and raw random bytes must always come
// back as ok-or-typed-error, and a successful parse must re-serialize
// without throwing.
TEST(WorkloadGoldenTest, ByteSoupNeverCrashes) {
  if (RegenRequested()) GTEST_SKIP() << "regen run";
  const std::string base =
      ReadFile(DataDir() / "trace_corpus" / "waypoint_diurnal.trace");
  ASSERT_FALSE(base.empty());
  util::Rng rng(123456789);

  for (int trial = 0; trial < 500; ++trial) {
    std::string text = base;
    const int mutations = rng.UniformInt(1, 8);
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(text.size()) - 1));
      switch (rng.UniformInt(0, 3)) {
        case 0:
          text[pos] =
              static_cast<char>(text[pos] ^ (1 << rng.UniformInt(0, 7)));
          break;
        case 1:
          text[pos] = static_cast<char>(rng.UniformInt(0, 255));
          break;
        case 2:
          text.erase(text.begin() + static_cast<std::ptrdiff_t>(pos));
          break;
        case 3:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos),
                      static_cast<char>(rng.UniformInt(0, 255)));
          break;
      }
    }
    const TraceLoadResult res = TraceFromStringDetailed(text);
    if (res.ok()) {
      EXPECT_NO_THROW(TraceToString(*res.trace));
    } else {
      EXPECT_NE(res.error.kind, model::IoErrorKind::kNone);
    }
  }

  for (int trial = 0; trial < 200; ++trial) {
    std::string text(static_cast<std::size_t>(rng.UniformInt(0, 400)), '\0');
    for (char& c : text) c = static_cast<char>(rng.UniformInt(0, 255));
    const TraceLoadResult res = TraceFromStringDetailed(text);
    if (!res.ok()) {
      EXPECT_NE(res.error.kind, model::IoErrorKind::kNone);
    }
  }
}

}  // namespace
}  // namespace wolt::sim

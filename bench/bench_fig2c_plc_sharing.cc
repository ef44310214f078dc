// Fig. 2c — time-fair PLC medium sharing: with k extenders simultaneously
// active, each delivers ~1/k of its isolation throughput (with higher
// absolute throughput for the better link). Reproduced with the slot-level
// IEEE 1901 CSMA simulator.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "plc/csma1901.h"
#include "testbed/traces.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace wolt;
  bench::PrintHeader(
      "Fig. 2c — time-fair sharing between active PLC extenders",
      "Activate 1..4 extenders simultaneously; paper: each link delivers\n"
      "1/k of its isolation throughput.");

  const plc::Csma1901Params mac;
  // Link MAC rates chosen so isolation throughputs match Fig. 2b's
  // 60/90/120/160 Mbit/s.
  const double unit = plc::IsolationThroughput(1.0, mac);
  const std::vector<double> iso = {60.0, 90.0, 120.0, 160.0};
  std::vector<double> mac_rates;
  for (double v : iso) mac_rates.push_back(v / unit);

  util::Rng rng(2020);
  util::Table table({"active_extenders", "link", "isolation_mbps",
                     "shared_mbps(sim)", "fraction(sim)", "paper_fraction"});
  const auto& fractions = testbed::Fig2cSharingFractions();
  for (int k = 1; k <= 4; ++k) {
    const std::vector<double> rates(mac_rates.begin(), mac_rates.begin() + k);
    const plc::Csma1901Result sim =
        plc::SimulateCsma1901(rates, 20.0, mac, rng);
    for (int j = 0; j < k; ++j) {
      const double measured =
          sim.stations[static_cast<std::size_t>(j)].throughput_mbps;
      table.AddRow({std::to_string(k), "link" + std::to_string(j + 1),
                    util::Fmt(iso[static_cast<std::size_t>(j)], 0),
                    util::Fmt(measured, 1),
                    util::Fmt(measured / iso[static_cast<std::size_t>(j)], 3),
                    util::Fmt(fractions[static_cast<std::size_t>(k - 1)].value,
                              3)});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: the per-link fraction tracks 1/k (time fairness),\n"
      "with small contention overhead below the ideal at larger k.\n");
  bench::PrintFooter();
  return 0;
}

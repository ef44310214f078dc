// Fig. 4c — fidelity of the flow-level simulator: the paper validates its
// simulator against the physical testbed on matched small-scale scenarios.
// Without the hardware we validate one level down: the flow-level evaluator
// (Eq. 1 WiFi sharing + time-fair PLC) against the slot-level 802.11 DCF
// and IEEE 1901 CSMA simulators, plus the noisy testbed emulation against
// the noiseless model across matched topologies.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/wolt.h"
#include "plc/csma1901.h"
#include "sim/hifi.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "wifi/dcf_sim.h"

int main() {
  using namespace wolt;
  bench::PrintHeader(
      "Fig. 4c — simulator fidelity validation",
      "(a) Flow-level WiFi formula vs slot-level DCF;\n"
      "(b) flow-level PLC time shares vs slot-level 1901 CSMA;\n"
      "(c) emulated-testbed (noisy) vs simulator (noiseless) aggregates.");

  util::Rng rng(2020);

  // (a) WiFi: Eq. 1 with effective rates vs DCF sim across rate mixes.
  std::printf("(a) WiFi cell aggregate: Eq. 1 model vs slot-level DCF\n");
  const wifi::DcfParams dcf;
  util::Table wifi_table({"phy_rates", "model_mbps", "dcf_sim_mbps",
                          "error"});
  const std::vector<std::vector<double>> mixes = {
      {65.0, 65.0}, {65.0, 26.0}, {52.0, 13.0, 6.5}, {39.0, 39.0, 19.5, 6.5}};
  for (const auto& mix : mixes) {
    std::string label;
    for (double r : mix) {
      if (!label.empty()) label += "/";
      label += util::Fmt(r, 0);
    }
    const double model = wifi::AnalyticCellThroughput(mix, dcf);
    const wifi::DcfResult sim = wifi::SimulateDcf(mix, 5.0, dcf, rng);
    wifi_table.AddRow({label, util::Fmt(model, 2),
                       util::Fmt(sim.aggregate_mbps, 2),
                       util::FmtPct(sim.aggregate_mbps / model - 1.0)});
  }
  wifi_table.Print();

  // (b) PLC: 1/k time shares vs 1901 sim airtime.
  std::printf("\n(b) PLC airtime share: time-fair model vs slot-level 1901\n");
  const plc::Csma1901Params mac;
  util::Table plc_table({"active_extenders", "model_share", "sim_share_mean",
                         "max_abs_error"});
  for (int k = 1; k <= 4; ++k) {
    const std::vector<double> rates(static_cast<std::size_t>(k), 100.0);
    const plc::Csma1901Result sim =
        plc::SimulateCsma1901(rates, 20.0, mac, rng);
    double max_err = 0.0, mean = 0.0;
    for (const auto& st : sim.stations) {
      max_err = std::max(max_err, std::abs(st.airtime_share - 1.0 / k));
      mean += st.airtime_share / k;
    }
    plc_table.AddRow({std::to_string(k), util::Fmt(1.0 / k, 3),
                      util::Fmt(mean, 3), util::Fmt(max_err, 3)});
  }
  plc_table.Print();

  // (c) Emulated testbed vs simulator on matched topologies (3 extenders,
  // 7 users — the paper's validation scale).
  std::printf("\n(c) emulated testbed (5%% meas. noise) vs simulator\n");
  const testbed::LabTestbed lab;
  core::WoltPolicy wolt;
  util::Table match_table({"topology", "sim_aggregate", "testbed_aggregate",
                           "error"});
  std::vector<double> errors;
  for (int t = 0; t < 8; ++t) {
    util::Rng topo_rng = rng.Fork();
    const model::Network net = lab.GenerateTopology(topo_rng);
    const model::Assignment a = wolt.AssociateFresh(net);
    const double sim_value =
        model::Evaluator().AggregateThroughput(net, a);
    const auto measured = lab.MeasureUserThroughputs(net, a, rng);
    const double testbed_value = util::Sum(measured);
    errors.push_back(std::abs(testbed_value / sim_value - 1.0));
    match_table.AddRow({std::to_string(t), util::Fmt(sim_value, 1),
                        util::Fmt(testbed_value, 1),
                        util::FmtPct(testbed_value / sim_value - 1.0)});
  }
  match_table.Print();
  std::printf("mean |error| = %s (paper: 'very consistent')\n",
              util::FmtPct(util::Mean(errors)).c_str());

  // (d) Full MAC-level composition (sim/hifi): both hops simulated at slot
  // level and composed, vs the flow-level evaluator, on WOLT assignments.
  std::printf("\n(d) composed slot-level simulation vs flow-level model\n");
  util::Table hifi_table({"topology", "flow_model", "mac_composed",
                          "error"});
  std::vector<double> hifi_errors;
  for (int t = 0; t < 6; ++t) {
    util::Rng topo_rng = rng.Fork();
    const model::Network net = lab.GenerateTopology(topo_rng);
    const model::Assignment a = wolt.AssociateFresh(net);
    const double flow = model::Evaluator().AggregateThroughput(net, a);
    const sim::HifiResult hifi =
        sim::SimulateHifi(net, a, sim::HifiParams{}, rng);
    hifi_errors.push_back(std::abs(hifi.aggregate_mbps / flow - 1.0));
    hifi_table.AddRow({std::to_string(t), util::Fmt(flow, 1),
                       util::Fmt(hifi.aggregate_mbps, 1),
                       util::FmtPct(hifi.aggregate_mbps / flow - 1.0)});
  }
  hifi_table.Print();
  std::printf("mean |error| = %s\n",
              util::FmtPct(util::Mean(hifi_errors)).c_str());
  bench::PrintFooter();
  return 0;
}

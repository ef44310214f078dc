// Abl-5 — quantifying the paper's channel assumption: §V-A assumes every
// extender operates on a non-overlapping WiFi channel, hence zero
// inter-cell interference. With 15 extenders and three orthogonal 2.4 GHz
// channels that cannot literally hold; this bench measures how much
// aggregate the assumption is worth, and how much of the loss a proper
// channel plan (graph colouring over the interference graph) recovers
// compared to everyone camping on channel 1.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/greedy.h"
#include "core/wolt.h"
#include "util/rng.h"
#include "util/table.h"
#include "wifi/channels.h"

int main() {
  using namespace wolt;
  bench::PrintHeader(
      "Abl-5 — the non-overlapping-channel assumption (§V-A)",
      "Enterprise floor (15 extenders, 36 users, 30 trials); WOLT-S\n"
      "associations evaluated under three channel regimes.");

  const sim::ScenarioGenerator gen(bench::EnterpriseParams(36));
  const wifi::ChannelPlanParams plan{3, 60.0};

  core::WoltOptions so;
  so.subset_search = true;
  core::WoltPolicy wolts(so);

  double free_air = 0.0, colored = 0.0, same_channel = 0.0;
  std::size_t colored_conflicts = 0, same_conflicts = 0;
  const int kTrials = 30;
  util::Rng rng(2020);
  for (int t = 0; t < kTrials; ++t) {
    util::Rng trial_rng = rng.Fork();
    const model::Network net = gen.Generate(trial_rng);
    const model::Assignment a = wolts.AssociateFresh(net);

    free_air +=
        model::Evaluator().AggregateThroughput(net, a) / kTrials;

    const std::vector<int> plan_channels = wifi::AssignChannels(net, plan);
    model::EvalOptions with_plan;
    with_plan.wifi_channel = plan_channels;
    with_plan.carrier_sense_range_m = plan.interference_range_m;
    colored +=
        model::Evaluator(with_plan).AggregateThroughput(net, a) / kTrials;
    colored_conflicts +=
        wifi::CountConflicts(net, plan_channels, plan.interference_range_m);

    const std::vector<int> one_channel = wifi::SameChannelPlan(net);
    model::EvalOptions with_one;
    with_one.wifi_channel = one_channel;
    with_one.carrier_sense_range_m = plan.interference_range_m;
    same_channel +=
        model::Evaluator(with_one).AggregateThroughput(net, a) / kTrials;
    same_conflicts +=
        wifi::CountConflicts(net, one_channel, plan.interference_range_m);
  }

  util::Table table({"channel_regime", "aggregate_mbps", "vs_assumption",
                     "conflicts/trial"});
  table.AddRow({"non-overlapping (paper assumption)", util::Fmt(free_air, 1),
                "+0.0%", "0.0"});
  table.AddRow({"3 channels, colouring plan", util::Fmt(colored, 1),
                util::FmtPct(colored / free_air - 1.0),
                util::Fmt(static_cast<double>(colored_conflicts) / kTrials,
                          1)});
  table.AddRow({"single shared channel", util::Fmt(same_channel, 1),
                util::FmtPct(same_channel / free_air - 1.0),
                util::Fmt(static_cast<double>(same_conflicts) / kTrials, 1)});
  table.Print();
  std::printf(
      "\nTakeaway: at 15 extenders on one floor, three orthogonal channels\n"
      "cannot fully deliver the paper's interference-free assumption — even\n"
      "a colouring plan loses roughly half the aggregate, though it still\n"
      "recovers ~3x over a single shared channel. The assumption is fine at\n"
      "the paper's 3-extender testbed scale but optimistic at enterprise\n"
      "density (the carrier-sense range spans several grid cells).\n");
  bench::PrintFooter();
  return 0;
}

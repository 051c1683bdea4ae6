// Ablation: detection-triggered quarantine. The paper assumes
// immunization starts at a chosen infection level; Zou et al.'s
// early-warning monitors make that operational — a dark-space monitor
// sees a fraction of all scans and raises the alarm. This bench sweeps
// the monitored fraction and shows when the alarm fires, how much of
// the network is already infected by then, and what the outbreak
// finally costs with alarm-triggered patching (with and without
// backbone rate limiting underneath).
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "graph/builders.hpp"
#include "simulator/runner.hpp"

int main(int argc, char** argv) {
  using namespace dq;
  const auto options = bench::options_from_args(argc, argv);
  std::cout << std::fixed << std::setprecision(2);

  Rng rng(options.seed ^ 0x2545f4914f6cdd1dULL);
  const sim::Network net(graph::make_barabasi_albert(1000, 2, rng));

  auto run = [&](double observe_prob, bool rate_limited) {
    sim::SimulationConfig cfg;
    cfg.worm.contact_rate = 0.8;
    cfg.worm.initial_infected = 1;
    cfg.max_ticks = 120.0;
    cfg.seed = options.seed;
    cfg.detector.enabled = true;
    cfg.detector.observe_probability = observe_prob;
    cfg.detector.threshold = 25;
    cfg.immunization.enabled = true;
    cfg.immunization.start_on_detection = true;
    cfg.immunization.rate = 0.1;
    if (rate_limited) {
      cfg.deployment.backbone_limited = true;
      cfg.deployment.weight_by_routing_load = false;
      cfg.deployment.base_link_capacity = 2.0;
      cfg.deployment.min_link_capacity = 2.0;
    }
    // Average raw runs so we can report detection ticks too.
    double detect = 0.0, infected_at_detect = 0.0, final_ever = 0.0;
    for (std::size_t r = 0; r < options.sim_runs; ++r) {
      sim::SimulationConfig one = cfg;
      one.seed = sim::run_seed(cfg.seed, r);
      const sim::RunResult result = sim::ShardedSimulation(net, one, 1).run();
      detect += result.detection_tick < 0 ? cfg.max_ticks
                                          : result.detection_tick;
      infected_at_detect +=
          result.detection_tick < 0
              ? result.ever_infected.back_value()
              : result.ever_infected.interpolate(result.detection_tick);
      final_ever += result.ever_infected.back_value();
    }
    const double n = static_cast<double>(options.sim_runs);
    return std::tuple{detect / n, infected_at_detect / n, final_ever / n};
  };

  for (bool rl : {false, true}) {
    std::cout << (rl ? "\nwith backbone rate limiting (2 pkt/tick "
                       "flat):\n"
                     : "no rate limiting:\n");
    std::cout << "  dark-space share   alarm tick   infected@alarm   "
                 "final ever infected\n";
    for (double observe : {0.001, 0.005, 0.02, 0.1, 0.3}) {
      const auto [tick, at_alarm, final_ever] = run(observe, rl);
      std::cout << "  " << std::setw(15) << observe << "   "
                << std::setw(10) << tick << "   " << std::setw(13)
                << 100.0 * at_alarm << "%   " << std::setw(15)
                << 100.0 * final_ever << "%\n";
    }
  }
  std::cout << "\nreadings: bigger monitors catch the worm earlier and "
               "cap the outbreak lower; rate limiting shifts every alarm "
               "earlier relative to the epidemic — the 'buys time' "
               "claim of Section 6.2, now with the detector in the "
               "loop.\n";
  return 0;
}

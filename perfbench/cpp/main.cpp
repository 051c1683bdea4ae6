// dqbench: runs one product-path workload in this process and prints
// its metrics (see perfbench/README.md).
//
//   dqbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Exit status: 0 when every output check passed, 1 when a check failed
// (the RESULT line still says which), 2 on bad arguments or an error
// before any result (nothing is printed on stdout then).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "dqbench: %s\nusage: dqbench --workload "
               "serve_ndjson|serve_paced|campaign_cold|sim_scale|selfcheck "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dqb::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0))
        return usage("--seconds must be a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage("--trace must be 0 or 1");
      args.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  try {
    if (args.workload == "serve_ndjson") return dqb::run_serve_ndjson(args);
    if (args.workload == "serve_paced") return dqb::run_serve_paced(args);
    if (args.workload == "campaign_cold") return dqb::run_campaign_cold(args);
    if (args.workload == "sim_scale") return dqb::run_sim_scale(args);
    if (args.workload == "selfcheck") {
      std::string detail;
      const bool ok = dqb::serve_selfcheck(detail);
      std::printf("selfcheck %s: %s\n", ok ? "ok" : "FAILED", detail.c_str());
      return ok ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dqbench: %s: %s\n", args.workload.c_str(), e.what());
    return 2;
  }
  return usage(("unknown workload '" + args.workload + "'").c_str());
}

// The scenario registry: the only place a benchmark sweep point is declared.
//
// One named, deterministic experiment per entry. Each figure/ablation group
// registers its full sweep, and a subset of those points (`bench`) joins the
// default BENCH run, next to two fast smoke scenarios for CI, two profiler
// scenarios that exercise the cascade / critical-path subsystem, the chaos
// fault sweep and the micro group. bench_runner executes the BENCH points and
// serializes the result set as a schema-versioned BENCH_<n>.json
// (tools/bench_compare.py diffs two such files and fails on regression);
// `bench_runner --table=NAME` runs a group's full sweep and prints the
// figure's table (bench/views.cpp).
//
// Naming: "<group>/<variant>/<axis>:<value>", so substring filters like
// "--filter=fig7" or "--filter=smoke" select natural slices.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace nicwarp::bench {

struct Scenario {
  std::string name;
  std::string group;  // "fig4", "abl_credit", "smoke", "profile", ...
  harness::ExperimentConfig cfg;
  // Part of the default BENCH run (--list, --filter, --out). The other
  // points complete a figure's sweep and run only under --table.
  bool bench{true};
};

// Every registered scenario, in a fixed deterministic order. Each group's
// points are contiguous.
std::vector<Scenario> all_scenarios();

}  // namespace nicwarp::bench

// The benchmark's four workloads, each spelled out field by field so that
// the benchmark depends only on harness::ExperimentConfig and never on the
// scenario registries under bench/.
#pragma once

#include <cstdint>
#include <string_view>

#include "harness/experiment.hpp"

namespace perfbench {

struct Workload {
  std::string_view name;
  // The measured configuration at model seed `seed`.
  nicwarp::harness::ExperimentConfig (*make)(std::uint64_t seed);
  // A differently configured run of the same model and seed. Time-Warp must
  // commit exactly the same events under it (same committed count and
  // signature), which checks the measured run's outputs on any seed.
  nicwarp::harness::ExperimentConfig (*make_reference)(std::uint64_t seed);
};

// nullptr when `name` is not a workload.
const Workload* find_workload(std::string_view name);

}  // namespace perfbench

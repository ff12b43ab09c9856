// Hot-path micro benchmarks for the `micro` bench group.
//
// These measure the discrete-event core directly — no testbed, no model —
// so a regression in Engine::schedule/run, Server jobs or the
// LogicalProcess pending-queue machinery shows up as a wall-clock jump on
// exactly the operation that slowed down, not as noise inside an end-to-end
// scenario. Each bench runs a fixed deterministic workload: `ops` and
// `checksum` gate bit-exactly (tools/bench_compare.py --tolerance=0) while
// `wall_seconds` gates loosely (--wall-tolerance).
//
// Each `_legacy` twin runs the same workload on a faithful copy of the code
// path it replaced — `micro/engine/run_churn_legacy` on the
// std::priority_queue + unordered_map + std::function scheduler,
// `micro/server/job_churn_legacy` on the deque-of-closures Server — so the
// speedup stays visible, and honest, in every BENCH json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nicwarp::bench {

struct MicroResult {
  std::int64_t ops{0};       // deterministic: operations performed
  std::int64_t checksum{0};  // deterministic: workload fingerprint
  double wall_seconds{0.0};  // noisy: measured around the workload only
};

struct MicroBench {
  std::string name;  // "micro/<subsystem>/<case>", filterable like scenarios
  MicroResult (*run)();
};

const std::vector<MicroBench>& micro_benches();

// Comm/NIC datapath kernels (micro_comm.cpp): pooled datapath vs faithful
// pre-pool `_legacy` twins over identical deterministic schedules. Folded
// into micro_benches() after the engine/LP group.
const std::vector<MicroBench>& micro_comm_benches();

}  // namespace nicwarp::bench

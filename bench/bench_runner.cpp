// bench_runner — the benchmark-regression harness and the figure tables.
//
// By default it runs every BENCH scenario of the registry (bench/scenarios.cpp:
// points off every figure/ablation sweep plus smoke, profiler, chaos and
// micro scenarios) sequentially, measuring host wall time around each, and
// writes one schema-versioned JSON document:
//
//   $ ./bench_runner --list                       # names only, no runs
//   $ ./bench_runner --filter=smoke --out=b.json  # substring-selected subset
//   $ ./bench_runner --out=bench/baselines/BENCH_0001.json
//
// The document separates deterministic metrics (simulated seconds, committed
// events, rollbacks, wire packets, signatures — identical on every machine
// for a given seed) from noisy ones (wall seconds, rusage), so
// tools/bench_compare.py can gate tightly on the former and loosely on the
// latter. Scenarios run sequentially precisely so per-scenario wall time is
// not polluted by sibling runs.
//
// `--table=NAME[,NAME...]` (or `--table=all`) instead runs the full sweeps
// behind the paper's figures and the ablations, in parallel, and prints each
// figure's table, CSV and tail-latency table (bench/views.cpp); it writes no
// JSON:
//
//   $ ./bench_runner --table=all > bench_output.txt
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/latency.hpp"
#include "micro.hpp"
#include "scenarios.hpp"
#include "views.hpp"

namespace {

using nicwarp::bench::MicroBench;
using nicwarp::bench::MicroResult;
using nicwarp::bench::Scenario;
using nicwarp::harness::ExperimentResult;

// v2: tail-latency summaries (lat_* objects) joined the deterministic block
// and every scenario reports them (all-zero when recording is off).
constexpr int kBenchSchemaVersion = 2;

// Same stable double formatting as the profiler's JSON export.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

struct ScenarioRun {
  const Scenario* sc{nullptr};
  ExperimentResult r;
  double wall_seconds{0.0};
};

void write_scenario_json(std::ostream& os, const ScenarioRun& run) {
  const ExperimentResult& r = run.r;
  const double committed_rate =
      r.sim_seconds > 0.0 ? static_cast<double>(r.committed_events) / r.sim_seconds : 0.0;
  const double rollback_eff =
      r.events_processed > 0 ? static_cast<double>(r.committed_events) /
                                   static_cast<double>(r.events_processed)
                             : 0.0;
  // Mean simulated time between GVT estimations — the "GVT latency" the
  // figures care about (how stale the commit horizon runs).
  const double gvt_latency_us =
      r.gvt_estimations > 0 ? r.sim_seconds * 1e6 / static_cast<double>(r.gvt_estimations)
                            : 0.0;

  os << "    {\"name\": \"" << run.sc->name << "\", \"group\": \"" << run.sc->group
     << "\",\n     \"deterministic\": {"
     << "\"completed\": " << (r.completed ? "true" : "false")
     << ", \"sim_seconds\": " << fmt(r.sim_seconds)
     << ", \"committed_events\": " << r.committed_events
     << ", \"events_processed\": " << r.events_processed
     << ", \"events_rolled_back\": " << r.events_rolled_back
     << ", \"rollbacks\": " << r.rollbacks
     << ", \"committed_rate_per_sim_sec\": " << fmt(committed_rate)
     << ", \"rollback_efficiency\": " << fmt(rollback_eff)
     << ", \"gvt_estimations\": " << r.gvt_estimations
     << ", \"gvt_rounds\": " << r.gvt_rounds
     << ", \"gvt_latency_us\": " << fmt(gvt_latency_us)
     << ", \"wire_packets\": " << r.wire_packets
     << ", \"wire_bytes\": " << r.wire_bytes
     << ", \"event_msgs_generated\": " << r.event_msgs_generated
     << ", \"antis_generated\": " << r.antis_generated
     << ", \"nic_drops\": " << r.dropped_by_nic
     << ", \"filtered_antis\": " << r.filtered_antis
     << ", \"antis_suppressed\": " << r.antis_suppressed
     << ", \"signature\": " << r.signature;
  if (run.sc->cfg.shards > 1) {
    // Sharded scenarios only: keeping these keys out of shards=1 rows leaves
    // every pre-sharding baseline block byte-identical. shard_rounds is
    // deterministic — the LBTS decisions are data-dependent, not
    // timing-dependent.
    os << ", \"shards\": " << run.sc->cfg.shards
       << ", \"shard_rounds\": " << r.shard_rounds;
  }
  if (run.sc->cfg.fault.enabled()) {
    // Chaos scenarios: injection and recovery volumes are seeded and fully
    // deterministic, so they gate exactly like the commit metrics.
    os << ", \"fault_drops\": " << r.fault_drops
       << ", \"fault_dups\": " << r.fault_dups
       << ", \"fault_corrupts\": " << r.fault_corrupts
       << ", \"fault_delays\": " << r.fault_delays
       << ", \"retransmits\": " << r.retransmits
       << ", \"naks_sent\": " << r.naks_sent
       << ", \"retx_timeouts\": " << r.retx_timeouts
       << ", \"retx_evicted\": " << r.retx_evicted
       << ", \"rel_crc_discards\": " << r.rel_crc_discards
       << ", \"rel_dup_discards\": " << r.rel_dup_discards
       << ", \"rel_gap_discards\": " << r.rel_gap_discards
       << ", \"gvt_token_regens\": " << r.gvt_token_regens
       << ", \"gvt_tokens_stale\": " << r.gvt_tokens_stale
       << ", \"credit_resyncs\": " << r.credit_resyncs;
  }
  if (r.profile != nullptr) {
    const auto& p = *r.profile;
    os << ", \"work_efficiency\": " << fmt(p.work_efficiency)
       << ", \"time_vs_lower_bound\": " << fmt(p.time_vs_lower_bound)
       << ", \"critical_path_events\": " << p.critical_path.critical_path_events
       << ", \"cascade_roots\": " << p.cascades.roots
       << ", \"cascade_max_depth\": " << p.cascades.max_depth
       << ", \"nic_drops_attributed\": " << p.cascades.nic_drops_attributed;
  }
  // Tail-latency summaries. Every sample is simulated time, so bucket
  // counts, min/max, and interpolated quantiles are all byte-deterministic
  // and gate at --tolerance=0 like the commit metrics. All-zero (count 0)
  // when the scenario runs with recording off.
  os << ", \"latency_enabled\": " << (r.latency.enabled ? "true" : "false");
  const auto& lat_names = nicwarp::LatencyReport::metric_names();
  for (std::size_t i = 0; i < lat_names.size(); ++i) {
    os << ", \"lat_" << lat_names[i] << "\": ";
    r.latency.metric(i).to_json(os);
  }
  // Wall-clock phase attribution rides in the NOISY block: the numbers are
  // machine-dependent and must never join a byte-identity comparison.
  os << "},\n     \"noisy\": {\"wall_seconds\": " << fmt(run.wall_seconds);
  if (r.phase_enabled) {
    for (std::size_t i = 0; i < nicwarp::kPhaseCount; ++i) {
      os << ", \"phase_" << nicwarp::phase_name(static_cast<nicwarp::Phase>(i))
         << "_seconds\": " << fmt(r.phase_seconds[i]);
    }
  }
  os << "}}";
}

struct MicroRun {
  const MicroBench* mb{nullptr};
  MicroResult r;
};

// Micro benches share the scenarios array (and therefore the compare tool's
// machinery): `ops` and `checksum` are bit-deterministic, wall_seconds is the
// noisy payload the --wall-tolerance gate exists for.
void write_micro_json(std::ostream& os, const MicroRun& run) {
  os << "    {\"name\": \"" << run.mb->name << "\", \"group\": \"micro\",\n"
     << "     \"deterministic\": {\"completed\": true, \"ops\": " << run.r.ops
     << ", \"checksum\": " << run.r.checksum
     << "},\n     \"noisy\": {\"wall_seconds\": " << fmt(run.r.wall_seconds) << "}}";
}

void write_bench_json(std::ostream& os, const std::vector<ScenarioRun>& runs,
                      const std::vector<MicroRun>& micro_runs) {
  os << "{\n  \"type\": \"nicwarp-bench\",\n  \"schema_version\": "
     << kBenchSchemaVersion << ",\n  \"seed\": 23,\n  \"scenarios\": [\n";
  bool first = true;
  for (const ScenarioRun& run : runs) {
    if (!first) os << ",\n";
    first = false;
    write_scenario_json(os, run);
  }
  for (const MicroRun& run : micro_runs) {
    if (!first) os << ",\n";
    first = false;
    write_micro_json(os, run);
  }
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double user_s = static_cast<double>(ru.ru_utime.tv_sec) +
                        static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  const double sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
                       static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  os << "\n  ],\n  \"rusage\": {\"max_rss_kb\": " << ru.ru_maxrss
     << ", \"user_seconds\": " << fmt(user_s)
     << ", \"system_seconds\": " << fmt(sys_s) << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string filter;
  std::string out_path;
  std::optional<std::string> tables;
  bool list_only = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (arg.rfind(flag, 0) != 0) return nullptr;
      if (arg.size() > n && arg[n] == '=') return arg.c_str() + n + 1;
      if (arg.size() == n && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (arg == "--list") {
      list_only = true;
    } else if (const char* v = value("--filter")) {
      filter = v;
    } else if (const char* path = value("--out")) {
      out_path = path;
    } else if (const char* names = value("--table")) {
      tables = names;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_runner [--list] [--filter=SUBSTR] [--out=FILE]\n"
          "       bench_runner --table=NAME[,NAME...]|all\n"
          "  --list     print matching scenario names and exit\n"
          "  --filter   run only scenarios whose name contains SUBSTR\n"
          "  --out      write the BENCH JSON here (default: stdout)\n"
          "  --table    run the named figure/ablation sweeps and print their\n"
          "             tables instead (no JSON)\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }

  if (tables) return nicwarp::bench::print_tables(*tables);

  const std::vector<Scenario> all = nicwarp::bench::all_scenarios();
  std::vector<const Scenario*> selected;
  for (const Scenario& s : all) {
    if (s.bench && (filter.empty() || s.name.find(filter) != std::string::npos)) {
      selected.push_back(&s);
    }
  }
  const std::vector<MicroBench>& micro_all = nicwarp::bench::micro_benches();
  std::vector<const MicroBench*> micro_selected;
  for (const MicroBench& mb : micro_all) {
    if (filter.empty() || mb.name.find(filter) != std::string::npos) {
      micro_selected.push_back(&mb);
    }
  }
  if (list_only) {
    for (const Scenario* s : selected) std::printf("%s\n", s->name.c_str());
    for (const MicroBench* mb : micro_selected) std::printf("%s\n", mb->name.c_str());
    return 0;
  }
  if (selected.empty() && micro_selected.empty()) {
    std::fprintf(stderr, "no scenarios match filter '%s'\n", filter.c_str());
    return 2;
  }

  std::vector<ScenarioRun> runs;
  runs.reserve(selected.size());
  int failures = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Scenario* sc = selected[i];
    std::fprintf(stderr, "[%2zu/%zu] %s ...\n", i + 1, selected.size(),
                 sc->name.c_str());
    // Phase attribution is wall-clock-only; turning it on cannot perturb the
    // deterministic block, so every scenario reports it.
    nicwarp::harness::ExperimentConfig cfg = sc->cfg;
    cfg.phase.enabled = true;
    const auto t0 = std::chrono::steady_clock::now();
    ExperimentResult r = nicwarp::harness::run_experiment(cfg);
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.completed) {
      std::fprintf(stderr, "         WARNING: hit the simulated-time cap\n");
      ++failures;
    }
    ScenarioRun run;
    run.sc = sc;
    run.r = std::move(r);
    run.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    runs.push_back(std::move(run));
  }

  std::vector<MicroRun> micro_runs;
  micro_runs.reserve(micro_selected.size());
  if (!micro_selected.empty()) {
    // Frequency-governor warmup: the micro benches are sub-second, so on a
    // cold-clocked core the first measurements read up to 2x slow and trip
    // the wall gate. ~300ms of busy work ramps the core first.
    volatile std::uint64_t sink = 0;
    const auto w0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - w0 < std::chrono::milliseconds(300)) {
      for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i * 2654435761ULL;
    }
  }
  for (std::size_t i = 0; i < micro_selected.size(); ++i) {
    const MicroBench* mb = micro_selected[i];
    std::fprintf(stderr, "[%2zu/%zu] %s ...\n", i + 1, micro_selected.size(),
                 mb->name.c_str());
    MicroRun run;
    run.mb = mb;
    run.r = mb->run();
    micro_runs.push_back(std::move(run));
  }

  if (out_path.empty()) {
    write_bench_json(std::cout, runs, micro_runs);
  } else {
    std::ofstream os(out_path);
    if (!os.good()) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", out_path.c_str());
      return 2;
    }
    write_bench_json(os, runs, micro_runs);
    std::fprintf(stderr, "wrote %zu scenarios -> %s\n",
                 runs.size() + micro_runs.size(), out_path.c_str());
  }
  return failures > 0 ? 1 : 0;
}

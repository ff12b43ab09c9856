// Experiment runner: builds a full testbed (cluster + firmware + comm +
// kernels + workload) from one config struct, runs it to Time-Warp
// termination, and extracts the metric set the paper's figures report.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/host_comm.hpp"
#include "core/latency.hpp"
#include "core/phase_profiler.hpp"
#include "core/timeseries.hpp"
#include "core/trace.hpp"
#include "hw/cluster.hpp"
#include "models/phold.hpp"
#include "profile/collector.hpp"
#include "models/police.hpp"
#include "models/raid.hpp"
#include "warped/kernel.hpp"

namespace nicwarp::harness {

enum class ModelKind { kRaid, kPolice, kPhold };

// Structured tracing knobs. Tracing is off (and costs one predicted-false
// branch per site) unless `categories` is non-empty.
struct TraceConfig {
  // Comma-separated category list ("msg,gvt,cancel,rollback,credit" or
  // "all"); empty disables tracing entirely.
  std::string categories;
  std::size_t capacity = 1u << 16;  // ring slots; oldest records overwritten
  std::string chrome_out;  // write Chrome trace_event JSON here after the run
  std::string jsonl_out;   // write one-record-per-line JSONL here
};

// Counter time-series knobs. Sampling is on when any field is set.
struct MetricsConfig {
  std::int64_t sample_every_gvt_rounds = 0;  // 0 = off (1 = every adoption)
  std::int64_t sample_virtual_dt = 0;  // extra samples per GVT advance of dt
  std::string out_path;                // write sample JSONL here after the run

  bool enabled() const {
    return sample_every_gvt_rounds > 0 || sample_virtual_dt > 0 || !out_path.empty();
  }
};

// Online profiler knobs (src/profile): cascade causality + critical-path
// lower bound. On when `enabled` is set or a JSON output path is given.
struct ProfileConfig {
  bool enabled = false;
  std::string json_out;  // write the ProfileReport JSON here after the run

  bool on() const { return enabled || !json_out.empty(); }
};

// Tail-latency histogram knobs (core/latency). On when `enabled` is set or a
// JSON output path is given. All samples are simulated times, so the
// resulting histograms are byte-identical across reruns of the same seed.
struct LatencyConfig {
  bool enabled = false;
  std::string json_out;  // write the {"type":"latency_report"} JSON here

  bool on() const { return enabled || !json_out.empty(); }
};

// Per-entity hotspot heatmap (core/entity_stats). On when `enabled` is set
// or a JSON output path is given. Everything in it is counts and simulated
// time, so the report is byte-identical across reruns of the same seed.
struct HeatmapConfig {
  bool enabled = false;
  std::string json_out;  // write the {"type":"heatmap"} JSON here

  bool on() const { return enabled || !json_out.empty(); }
};

// Wall-clock phase profiler (core/phase_profiler). Deliberately NOISY —
// results surface only in noisy output blocks, never in deterministic ones.
struct PhaseConfig {
  bool enabled = false;
};

// GVT-progress watchdog: if GVT stops advancing for longer than
// `stall_wall_seconds` of real time while the engine still has work, dump a
// diagnostic snapshot (when `snapshot_out` is set) and throw. 0 disables.
// Wall-clock by design: a healthy run's outputs are unaffected, and a stall
// is a bug regardless of where the wall budget lands.
struct WatchdogConfig {
  double stall_wall_seconds = 0.0;
  std::string snapshot_out;  // write the {"type":"watchdog_snapshot"} JSON here

  bool on() const { return stall_wall_seconds > 0.0; }
};

struct ExperimentConfig {
  ModelKind model = ModelKind::kRaid;
  models::RaidParams raid;
  models::PoliceParams police;
  models::PholdParams phold;

  std::uint32_t nodes = 8;
  // Host-thread sharding (docs/SHARDING.md): partition the node ranks across
  // this many engine slices, one worker thread each, synchronized by the
  // conservative-window LBTS protocol. 1 (the default) is the classic
  // single-threaded run and its outputs are byte-identical to pre-sharding
  // builds. Multi-shard runs are seed-stable across reruns but are a
  // *different* event schedule than shards=1. Incompatible with cfg.profile
  // (the cascade collector is single-threaded).
  std::uint32_t shards = 1;
  // Pin worker thread s to CPU (s mod hardware_concurrency) (Linux only;
  // ignored elsewhere). Off by default: the scheduler usually does fine, and
  // pinning oversubscribed shards onto one core hurts.
  bool pin_threads = false;
  warped::GvtMode gvt_mode = warped::GvtMode::kHostMattern;
  std::int64_t gvt_period = 100;   // "GVT Period (Events)" on the figures' x axes
  bool early_cancel = false;       // install the cancellation firmware
  bool piggyback = true;           // ablation A1 (NIC-GVT token/handshake rides)
  warped::RollbackScope rollback_scope = warped::RollbackScope::kLp;
  // WARPED-style tuning knobs (extensions; see DESIGN.md):
  warped::CancellationMode cancellation = warped::CancellationMode::kAggressive;
  std::int64_t state_save_period = 1;  // 0 = adaptive checkpoint interval
  warped::StateSaveMode state_mode = warped::StateSaveMode::kCopy;
  bool credit_repair = true;       // ablation A2 (§3.2 sequence-number fix)

  hw::CostModel cost{};
  // Deterministic fabric chaos (inert by default). A non-trivial plan
  // force-enables the NIC reliability sublayer (cost.rel_enabled) — faults
  // without recovery deadlock Time-Warp (lost events, wedged credit windows,
  // dead GVT tokens). Use raw hw::Cluster to study the unprotected modes.
  hw::FaultPlan fault{};
  std::uint64_t seed = 42;
  double max_sim_seconds = 900.0;  // wall-clock (simulated) safety cap
  bool paranoia_checks = false;    // expensive LP-level pairing checks (tests)

  TraceConfig trace;      // observability: structured event traces
  MetricsConfig metrics;  // observability: GVT-cadence counter samples
  ProfileConfig profile;  // observability: cascade / critical-path profiler
  LatencyConfig latency;  // observability: tail-latency histograms
  HeatmapConfig heatmap;  // observability: per-entity hotspot attribution
  PhaseConfig phase;      // observability: wall-clock phase timers (noisy)
  WatchdogConfig watchdog;  // liveness: fail fast on a stalled GVT
};

struct ExperimentResult {
  bool completed = false;     // reached GVT == +inf before the cap
  double sim_seconds = 0.0;   // the paper's "Simulation Time (sec)"

  std::int64_t committed_events = 0;
  std::int64_t events_processed = 0;
  std::int64_t events_rolled_back = 0;
  std::int64_t rollbacks = 0;
  std::int64_t events_replayed = 0;  // coast-forward (periodic state saving)
  std::int64_t lazy_matched = 0;     // lazy cancellation: regenerated sends

  // State-saving work (sums across kernels). Snapshot counts/bytes reflect
  // clones actually cut; undo_bytes_logged / undo_rewinds are nonzero only
  // under StateSaveMode::kIncremental.
  std::int64_t state_saves = 0;
  std::int64_t state_save_bytes = 0;
  std::int64_t undo_bytes_logged = 0;
  std::int64_t undo_rewinds = 0;

  // Event messages generated at hosts (includes ones later cancelled) —
  // the paper's "overall messages generated" (Fig. 8).
  std::int64_t event_msgs_generated = 0;
  std::int64_t antis_generated = 0;
  // Packets that actually crossed the wire — the paper's "messages sent"
  // (Fig. 6b).
  std::int64_t wire_packets = 0;
  std::int64_t wire_bytes = 0;

  std::int64_t dropped_by_nic = 0;    // early cancellation, positives
  std::int64_t filtered_antis = 0;    // early cancellation, negatives
  std::int64_t antis_suppressed = 0;  // host never emitted them

  std::int64_t gvt_rounds = 0;
  std::int64_t gvt_estimations = 0;

  // LBTS rounds the shard-0 worker completed (0 on single-shard runs).
  std::int64_t shard_rounds = 0;

  // Fault injection (zero unless cfg.fault is enabled).
  std::int64_t fault_drops = 0;
  std::int64_t fault_dups = 0;
  std::int64_t fault_corrupts = 0;
  std::int64_t fault_delays = 0;
  // Reliability-layer recovery work (zero on a healthy fabric).
  std::int64_t retransmits = 0;
  std::int64_t naks_sent = 0;
  std::int64_t retx_timeouts = 0;
  std::int64_t retx_evicted = 0;      // nonzero == a loss became unrecoverable
  std::int64_t rel_crc_discards = 0;
  std::int64_t rel_dup_discards = 0;
  std::int64_t rel_gap_discards = 0;
  std::int64_t gvt_token_regens = 0;
  std::int64_t gvt_tokens_stale = 0;
  std::int64_t credit_resyncs = 0;

  std::int64_t signature = 0;  // schedule-independent result fingerprint
  VirtualTime final_gvt{VirtualTime::zero()};

  // Non-empty when run_parallel caught an exception from this config's run:
  // the sweep survives, this row carries the reason instead of metrics.
  std::string error;
  bool failed() const { return !error.empty(); }

  // Counter snapshots taken at GVT cadence (empty unless cfg.metrics set).
  std::vector<TimeSample> series;
  // Profiler output (null unless cfg.profile is on). shared_ptr because
  // results are copied around by the sweep/bench registries.
  std::shared_ptr<const profile::ProfileReport> profile;
  // Trace-recorder accounting (zero unless cfg.trace.categories set).
  std::uint64_t trace_records = 0;
  std::uint64_t trace_overwritten = 0;
  // Tail-latency summary (all-zero unless cfg.latency is on). Fully
  // deterministic: counts, min/max, and interpolated quantiles alike.
  LatencyReport latency;
  // Per-entity heatmap JSON (empty unless cfg.heatmap is on). Deterministic:
  // integer counts and simulated nanoseconds only.
  std::string heatmap_json;
  // Wall-clock phase attribution (zero unless cfg.phase.enabled). NOISY —
  // report only next to wall_seconds, never in a deterministic block.
  bool phase_enabled = false;
  std::array<double, kPhaseCount> phase_seconds{};
  std::array<std::uint64_t, kPhaseCount> phase_calls{};

  std::string to_string() const;
};

// A fully-wired testbed; exposed so tests and examples can poke at parts.
struct Testbed {
  std::unique_ptr<hw::Cluster> cluster;
  std::vector<std::unique_ptr<comm::HostComm>> comms;
  std::vector<std::unique_ptr<warped::Kernel>> kernels;
  // Non-null when cfg.metrics is enabled; fed by rank 0's kernel.
  std::unique_ptr<TimeSeriesSampler> sampler;
  // Non-null when cfg.profile is on; one collector serves every kernel.
  std::unique_ptr<profile::ProfileCollector> profiler;
  // Copied from the config by build_testbed; drives run_to_completion's
  // choice between the single-threaded loop and the sharded round protocol.
  std::uint32_t shards = 1;
  bool pin_threads = false;
  // Filled by the sharded run: LBTS rounds shard 0 completed.
  std::int64_t shard_rounds = 0;

  bool all_stopped() const;
  // Runs until every kernel terminated or the cap; returns completed flag.
  // When `watchdog` is armed, a GVT stall dumps its snapshot and throws
  // std::runtime_error (run_parallel turns that into a failed result row).
  bool run_to_completion(double max_sim_seconds,
                         const WatchdogConfig& watchdog = {});
};

// Throws std::invalid_argument when `cfg` cannot build a testbed (e.g. zero
// nodes or a zero-object model) instead of misbehaving downstream.
Testbed build_testbed(const ExperimentConfig& cfg);
ExperimentResult extract_result(Testbed& tb, bool completed);
ExperimentResult run_experiment(const ExperimentConfig& cfg);

// Runs independent experiments on a thread pool (each run is single-threaded
// and deterministic; parallelism is across sweep points only).
//
// A config whose run throws does NOT kill the sweep (an escaped exception in
// a worker thread would std::terminate the process): the exception is caught
// per-config, logged with the failing config's index, and returned as a
// failed ExperimentResult (result.failed() true, result.error = reason);
// every other config still runs to completion.
std::vector<ExperimentResult> run_parallel(const std::vector<ExperimentConfig>& cfgs,
                                           unsigned max_threads = 0);

}  // namespace nicwarp::harness

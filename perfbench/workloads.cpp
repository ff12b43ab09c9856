#include "workloads.hpp"

#include <array>

namespace perfbench {

namespace {

using nicwarp::harness::ExperimentConfig;
using nicwarp::harness::ModelKind;
using nicwarp::warped::CancellationMode;
using nicwarp::warped::GvtMode;
using nicwarp::warped::RollbackScope;
using nicwarp::warped::StateSaveMode;

// The Time-Warp knobs every workload sets, at the values the paper's
// figures use; each workload then overrides what makes it different.
ExperimentConfig base(ModelKind model, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.model = model;
  cfg.seed = seed;
  cfg.nodes = 8;
  cfg.shards = 1;
  cfg.pin_threads = false;
  cfg.gvt_mode = GvtMode::kNic;
  cfg.gvt_period = 200;
  cfg.early_cancel = false;
  cfg.piggyback = true;
  cfg.rollback_scope = RollbackScope::kLp;
  cfg.cancellation = CancellationMode::kAggressive;
  cfg.state_save_period = 1;
  cfg.state_mode = StateSaveMode::kCopy;
  cfg.credit_repair = true;
  cfg.fault = {};
  cfg.max_sim_seconds = 600.0;
  cfg.paranoia_checks = false;
  return cfg;
}

// PHOLD: a trivial model body, so host time goes to the engine, the
// servers and stats bookkeeping. No cancel firmware, host GVT or
// reliability layer runs.
ExperimentConfig phold(std::uint64_t seed) {
  ExperimentConfig cfg = base(ModelKind::kPhold, seed);
  cfg.phold.objects = 64;
  cfg.phold.population = 4;
  cfg.phold.mean_delay = 10;
  cfg.phold.horizon = 1000;
  return cfg;
}

ExperimentConfig phold_reference(std::uint64_t seed) {
  ExperimentConfig cfg = phold(seed);
  cfg.gvt_mode = GvtMode::kHostMattern;
  return cfg;
}

// POLICE at the congestion point with NIC early cancellation: the paper's
// headline case. Rollback-bound; the LP and the cancel firmware carry load.
ExperimentConfig police_cancel(std::uint64_t seed) {
  ExperimentConfig cfg = base(ModelKind::kPolice, seed);
  cfg.police.stations = 150;
  cfg.cost.host_event_exec_us = 8.0;
  cfg.cost.nic_per_packet_us = 11.25;
  cfg.early_cancel = true;
  return cfg;
}

// No NIC cancellation. Aggressive host cancellation alone thrashes at this
// congestion point (about 8x the processed events), so the reference also
// switches to lazy cancellation, which keeps it cheap.
ExperimentConfig police_cancel_reference(std::uint64_t seed) {
  ExperimentConfig cfg = police_cancel(seed);
  cfg.early_cancel = false;
  cfg.cancellation = CancellationMode::kLazy;
  return cfg;
}

// RAID under host Mattern GVT on a lossy fabric: GVT runs on the host, the
// NICs run the baseline firmware and the reliability sublayer retransmits.
ExperimentConfig raid_mattern_lossy(std::uint64_t seed) {
  ExperimentConfig cfg = base(ModelKind::kRaid, seed);
  cfg.raid.sources = 10;
  cfg.raid.forks = 8;
  cfg.raid.disks = 8;
  cfg.raid.total_requests = 1000;
  cfg.cost.host_event_exec_us = 18.0;
  cfg.gvt_mode = GvtMode::kHostMattern;
  cfg.gvt_period = 1;
  cfg.fault.drop_rate = 0.02;
  cfg.fault.seed = 11;
  return cfg;
}

ExperimentConfig raid_mattern_lossy_reference(std::uint64_t seed) {
  ExperimentConfig cfg = raid_mattern_lossy(seed);
  cfg.fault = {};
  return cfg;
}

// PHOLD split across two host threads: the only workload that runs
// sim::ShardSync and the cross-shard mailboxes. The 40 us links give the
// conservative windows useful width.
ExperimentConfig phold_sharded(std::uint64_t seed) {
  ExperimentConfig cfg = phold(seed);
  cfg.nodes = 16;
  cfg.cost.link_latency_us = 40.0;
  cfg.shards = 2;
  return cfg;
}

ExperimentConfig phold_sharded_reference(std::uint64_t seed) {
  ExperimentConfig cfg = phold_sharded(seed);
  cfg.shards = 1;
  return cfg;
}

constexpr std::array<Workload, 4> kWorkloads{{
    {"phold", phold, phold_reference},
    {"police_cancel", police_cancel, police_cancel_reference},
    {"raid_mattern_lossy", raid_mattern_lossy, raid_mattern_lossy_reference},
    {"phold_sharded", phold_sharded, phold_sharded_reference},
}};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench

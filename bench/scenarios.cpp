#include "scenarios.hpp"

#include <algorithm>
#include <initializer_list>

namespace nicwarp::bench {

namespace {

using harness::ExperimentConfig;
using harness::ModelKind;

// The two calibrated testbed presets every scenario builds on (see
// EXPERIMENTS.md):
//  * gvt_preset    — the configuration for the GVT figures (Figs. 4, 5a, 5b);
//  * cancel_preset — the congestion-point configuration for the early-
//                    cancellation figures (Figs. 6, 7, 8), where the paper's
//                    system demonstrably operated (e.g. RAID's ~350 messages
//                    per disk request in Fig. 6b).
ExperimentConfig gvt_preset(ModelKind model) {
  ExperimentConfig cfg;
  cfg.model = model;
  cfg.nodes = 8;
  cfg.seed = 23;
  cfg.rollback_scope = warped::RollbackScope::kLp;
  cfg.max_sim_seconds = 600;
  if (model == ModelKind::kRaid) {
    cfg.raid.sources = 10;  // paper: "10 processes ... 8 forks ... 8 disks"
    cfg.raid.forks = 8;
    cfg.raid.disks = 8;
    cfg.raid.total_requests = 8000;
    cfg.cost.host_event_exec_us = 18.0;
  } else if (model == ModelKind::kPolice) {
    cfg.police.stations = 900;
    cfg.cost.host_event_exec_us = 8.0;  // POLICE is fine-grained
  }
  return cfg;
}

ExperimentConfig cancel_preset(ModelKind model) {
  ExperimentConfig cfg = gvt_preset(model);
  cfg.gvt_mode = warped::GvtMode::kNic;
  cfg.gvt_period = 200;
  // Operate the testbed at its congestion point: the LANai4-class NIC is
  // the bottleneck and the baseline is rollback-bound, which is the regime
  // where in-place cancellation pays (and where the paper's message counts
  // place its system).
  cfg.cost.nic_per_packet_us = 11.25;
  if (model == ModelKind::kRaid) {
    cfg.raid.sources = 16;  // paper §4.2: "16 source processes"
  }
  return cfg;
}

void add(std::vector<Scenario>& out, std::string group, std::string variant,
         ExperimentConfig cfg, bool bench = true) {
  Scenario s;
  s.name = group + "/" + variant;
  s.group = std::move(group);
  s.cfg = std::move(cfg);
  s.bench = bench;
  out.push_back(std::move(s));
}

// True when `v` is one of the sweep values the BENCH run keeps.
template <typename T>
bool one_of(T v, std::initializer_list<T> values) {
  return std::find(values.begin(), values.end(), v) != values.end();
}

}  // namespace

std::vector<Scenario> all_scenarios() {
  std::vector<Scenario> out;

  // --- smoke: small and fast; the CI gate runs only these ---
  {
    ExperimentConfig cfg = gvt_preset(ModelKind::kRaid);
    cfg.gvt_mode = warped::GvtMode::kNic;
    cfg.raid.total_requests = 2000;
    add(out, "smoke", "raid", cfg);

    cfg = gvt_preset(ModelKind::kPolice);
    cfg.gvt_mode = warped::GvtMode::kNic;
    cfg.police.stations = 300;
    add(out, "smoke", "police", cfg);
  }

  // --- profile: the cascade / critical-path profiler on both models at the
  // congestion point, where rollback structure is richest ---
  for (ModelKind m : {ModelKind::kRaid, ModelKind::kPolice}) {
    ExperimentConfig cfg = cancel_preset(m);
    cfg.early_cancel = true;
    if (m == ModelKind::kRaid) cfg.raid.total_requests = 4000;
    cfg.profile.enabled = true;
    add(out, "profile", m == ModelKind::kRaid ? "raid" : "police", cfg);
  }

  // --- fig4: RAID GVT period sweep, WARPED vs NIC GVT ---
  for (std::int64_t p : {1, 10, 100, 1000, 10000, 100000}) {
    for (auto mode : {warped::GvtMode::kHostMattern, warped::GvtMode::kNic}) {
      ExperimentConfig cfg = gvt_preset(ModelKind::kRaid);
      cfg.gvt_period = p;
      cfg.gvt_mode = mode;
      add(out, "fig4",
          std::string(mode == warped::GvtMode::kNic ? "nicgvt" : "warped") +
              "/period:" + std::to_string(p),
          cfg, one_of<std::int64_t>(p, {1, 100, 10000}));
    }
  }

  // --- fig5 (a+b share the sweep): POLICE GVT period sweep ---
  for (std::int64_t p : {1, 10, 100, 1000, 10000}) {
    for (auto mode : {warped::GvtMode::kHostMattern, warped::GvtMode::kNic}) {
      ExperimentConfig cfg = gvt_preset(ModelKind::kPolice);
      cfg.gvt_period = p;
      cfg.gvt_mode = mode;
      add(out, "fig5",
          std::string(mode == warped::GvtMode::kNic ? "nicgvt" : "warped") +
              "/period:" + std::to_string(p),
          cfg, one_of<std::int64_t>(p, {1, 100, 10000}));
    }
  }

  // --- fig6 (a+b share the sweep): RAID early cancellation vs request count.
  // Scaled 1:10 from the paper's 50k-400k so each point completes in
  // seconds; the shape across sizes is what is reproduced. ---
  for (std::int64_t r : {5000, 10000, 20000, 40000}) {
    for (bool cancel : {false, true}) {
      ExperimentConfig cfg = cancel_preset(ModelKind::kRaid);
      cfg.raid.total_requests = r;
      cfg.early_cancel = cancel;
      add(out, "fig6",
          std::string(cancel ? "cancel" : "warped") + "/requests:" + std::to_string(r),
          cfg, one_of<std::int64_t>(r, {5000, 10000}));
    }
  }

  // --- fig7/fig8 (shared sweep): POLICE early cancellation vs station count ---
  for (std::int64_t s : {900, 1000, 2000, 3000, 4000}) {
    for (bool cancel : {false, true}) {
      ExperimentConfig cfg = cancel_preset(ModelKind::kPolice);
      cfg.police.stations = s;
      cfg.early_cancel = cancel;
      add(out, "fig7",
          std::string(cancel ? "cancel" : "warped") + "/stations:" + std::to_string(s),
          cfg, one_of<std::int64_t>(s, {900, 2000}));
    }
  }

  // --- abl_piggyback (A1): token piggybacking on/off at aggressive period ---
  for (ModelKind m : {ModelKind::kRaid, ModelKind::kPolice}) {
    for (bool piggyback : {true, false}) {
      ExperimentConfig cfg = gvt_preset(m);
      cfg.gvt_mode = warped::GvtMode::kNic;
      cfg.gvt_period = 10;
      cfg.piggyback = piggyback;
      add(out, "abl_piggyback",
          std::string(m == ModelKind::kRaid ? "raid" : "police") + "/" +
              (piggyback ? "on" : "off"),
          cfg);
    }
  }

  // --- abl_credit (A2): sequence-number credit repair on/off ---
  for (std::int64_t s : {900, 2000}) {
    for (bool repair : {true, false}) {
      ExperimentConfig cfg = cancel_preset(ModelKind::kPolice);
      cfg.police.stations = s;
      cfg.early_cancel = true;
      cfg.credit_repair = repair;
      add(out, "abl_credit",
          std::string(repair ? "repair" : "norepair") +
              (s == 900 ? "" : "/stations:" + std::to_string(s)),
          cfg, s == 900);
    }
  }

  // --- abl_nic_speed (A3): NIC per-packet cost sweep, a host-Mattern
  // baseline against both optimizations on the same hardware ---
  for (double n : {2.0, 6.0, 10.0, 11.25, 11.75}) {
    ExperimentConfig base = gvt_preset(ModelKind::kPolice);
    base.gvt_mode = warped::GvtMode::kHostMattern;
    base.gvt_period = 200;
    base.cost.nic_per_packet_us = n;
    base.max_sim_seconds = 30;  // bound the deep-thrash points
    const std::string us = "nic_us:" + std::to_string(n).substr(0, 5);
    add(out, "abl_nic_speed", "base/" + us, base, false);

    ExperimentConfig opt = base;
    opt.gvt_mode = warped::GvtMode::kNic;
    opt.early_cancel = true;
    add(out, "abl_nic_speed", us, opt, one_of(n, {2.0, 11.25}));
  }

  // --- abl_pgvt (A4): GVT algorithm three-way ---
  for (std::int64_t p : {10, 100, 1000}) {
    for (auto mode : {warped::GvtMode::kHostMattern, warped::GvtMode::kPGvt,
                      warped::GvtMode::kNic}) {
      ExperimentConfig cfg = gvt_preset(ModelKind::kRaid);
      cfg.gvt_period = p;
      cfg.gvt_mode = mode;
      const char* v = mode == warped::GvtMode::kHostMattern ? "mattern"
                      : mode == warped::GvtMode::kPGvt      ? "pgvt"
                                                            : "nicgvt";
      add(out, "abl_pgvt",
          std::string(v) + (p == 100 ? "" : "/period:" + std::to_string(p)), cfg,
          p == 100);
    }
  }

  // --- abl_state (A5): state-saving period on a mild (RAID) and a
  // rollback-heavy (POLICE) workload, plus the adaptive checkpoint interval
  // (period 0) and the incremental undo-log. Committed events and signature
  // must match the fixed-period points exactly — state saving is a cost
  // knob, never a correctness knob. ---
  for (ModelKind m : {ModelKind::kRaid, ModelKind::kPolice}) {
    const bool raid = m == ModelKind::kRaid;
    const std::string model = raid ? "" : "police/";
    ExperimentConfig cfg = gvt_preset(m);
    cfg.gvt_mode = warped::GvtMode::kNic;
    cfg.gvt_period = 200;
    for (std::int64_t p : {1, 2, 4, 8, 16, 64, 0}) {
      cfg.state_save_period = p;
      add(out, "abl_state", model + (p == 0 ? "adaptive" : "period:" + std::to_string(p)),
          cfg, raid && one_of<std::int64_t>(p, {1, 8, 64, 0}));
    }
    // Period 0 here paces only the fallback snapshots the undo log keeps.
    cfg.state_mode = warped::StateSaveMode::kIncremental;
    add(out, "abl_state", model + "incr", cfg, raid);
  }

  // --- chaos: fault-sweep scenarios. Deterministic seeded fault plans; the
  // committed-state metrics (committed/signature) must stay EXACTLY equal to
  // the matching fault-free runs — recovery costs time, never correctness.
  // Wall-clock metrics show the price of the reliability layer's replays. ---
  for (double loss : {0.001, 0.01}) {
    for (bool cancel : {false, true}) {
      ExperimentConfig cfg = cancel_preset(ModelKind::kRaid);
      cfg.raid.total_requests = 5000;
      cfg.early_cancel = cancel;
      cfg.fault.drop_rate = loss;
      cfg.fault.seed = 11;
      add(out, "chaos",
          std::string(cancel ? "cancel" : "warped") + "/raid_loss:" +
              (loss < 0.005 ? "0.1%" : "1%"),
          cfg);
    }
  }
  {
    // Mixed-fault POLICE run: drops + dups + corruption + delay together.
    ExperimentConfig cfg = cancel_preset(ModelKind::kPolice);
    cfg.police.stations = 900;
    cfg.early_cancel = true;
    cfg.fault.drop_rate = 0.01;
    cfg.fault.dup_rate = 0.005;
    cfg.fault.corrupt_rate = 0.005;
    cfg.fault.delay_rate = 0.01;
    cfg.fault.seed = 11;
    add(out, "chaos", "cancel/police_mixed", cfg);
  }
  {
    // Token-loss stress on the host-Mattern ring (sequenced kHostGvtToken
    // recovery) as a counterpoint to the NIC-GVT regeneration path above.
    ExperimentConfig cfg = gvt_preset(ModelKind::kRaid);
    cfg.gvt_mode = warped::GvtMode::kHostMattern;
    cfg.raid.total_requests = 5000;
    cfg.fault.drop_rate = 0.02;
    cfg.fault.seed = 11;
    add(out, "chaos", "mattern/raid_loss:2%", cfg);
  }

  // --- fig_tail: tail amplification vs fault rate, per GVT manager and
  // cancellation mode. The only BENCH group with latency recording on:
  // every point reports deterministic p50/p99/p99.9 delivery and commit
  // latencies, and the loss:0 point of each variant is the normalization
  // base for the amplification chart (tools/plot_figures.py). ---
  for (std::string variant : {"mattern", "nicgvt_cancel", "nicgvt_lazy"}) {
    for (double loss : {0.0, 0.005, 0.01}) {
      ExperimentConfig cfg;
      if (variant == "nicgvt_lazy") {
        // Lazy cancellation runs off the congestion point (the abl_lazy
        // operating point) without the NIC drop machinery: held outputs
        // lengthen the commit tail when a lossy fabric forces replays.
        cfg = gvt_preset(ModelKind::kRaid);
        cfg.gvt_mode = warped::GvtMode::kNic;
        cfg.gvt_period = 200;
        cfg.cancellation = warped::CancellationMode::kLazy;
      } else {
        cfg = cancel_preset(ModelKind::kRaid);
        cfg.early_cancel = variant == "nicgvt_cancel";
        if (!cfg.early_cancel) cfg.gvt_mode = warped::GvtMode::kHostMattern;
      }
      cfg.raid.total_requests = 3000;
      cfg.fault.drop_rate = loss;
      cfg.fault.seed = 11;
      cfg.latency.enabled = true;
      const char* l = loss == 0.0 ? "0%" : (loss < 0.0075 ? "0.5%" : "1%");
      add(out, "fig_tail", variant + "/loss:" + l, cfg,
          variant != "nicgvt_lazy" || loss != 0.005);
    }
  }

  // --- abl_lazy (A6): aggressive vs lazy cancellation ---
  for (ModelKind m : {ModelKind::kRaid, ModelKind::kPolice}) {
    for (auto mode : {warped::CancellationMode::kAggressive,
                      warped::CancellationMode::kLazy}) {
      ExperimentConfig cfg = gvt_preset(m);
      cfg.gvt_mode = warped::GvtMode::kNic;
      cfg.gvt_period = 200;
      cfg.cancellation = mode;
      add(out, "abl_lazy",
          std::string(m == ModelKind::kRaid ? "raid" : "police") + "/" +
              (mode == warped::CancellationMode::kLazy ? "lazy" : "aggressive"),
          cfg);
    }
  }

  // --- micro: end-to-end companion to the micro/engine + micro/lp hot-path
  // benches (bench/micro.cpp). PHOLD is pure event churn — schedule / cancel
  // / rollback with a trivial model body — so its wall-clock tracks the DES
  // core's overhead more directly than the paper-figure scenarios do. ---
  {
    ExperimentConfig cfg;
    cfg.model = ModelKind::kPhold;
    cfg.nodes = 8;
    cfg.seed = 23;
    cfg.gvt_mode = warped::GvtMode::kNic;
    cfg.gvt_period = 200;
    cfg.phold.objects = 64;
    cfg.phold.population = 4;
    cfg.phold.horizon = 20000;
    add(out, "micro", "phold/e2e", cfg);
  }

  // --- micro/shard: host-thread sharding on the PHOLD churn workload
  // (docs/SHARDING.md). s1 is the legacy single-threaded twin — same config,
  // same seed — so the wall-clock ratio s1/sN is the sharding speedup and the
  // committed/signature rows prove the partitioned run commits the same
  // events. The link latency is raised to 40us to give the conservative
  // windows useful width; all three variants share it, so they stay
  // comparable with each other (not with micro/phold/e2e above). ---
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    ExperimentConfig cfg;
    cfg.model = ModelKind::kPhold;
    cfg.nodes = 16;
    cfg.seed = 23;
    cfg.gvt_mode = warped::GvtMode::kNic;
    cfg.gvt_period = 200;
    cfg.phold.objects = 64;
    cfg.phold.population = 4;
    cfg.phold.horizon = 20000;
    cfg.cost.link_latency_us = 40.0;
    cfg.shards = shards;
    add(out, "micro", "shard_phold/s" + std::to_string(shards), cfg);
  }

  return out;
}

}  // namespace nicwarp::bench

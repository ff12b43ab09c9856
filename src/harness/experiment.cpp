#include "harness/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "core/assert.hpp"
#include "core/log.hpp"
#include "firmware/combined_firmware.hpp"
#include "sim/shard_sync.hpp"
#include "warped/gvt_mattern.hpp"
#include "warped/gvt_nic.hpp"
#include "warped/gvt_pgvt.hpp"

namespace nicwarp::harness {

namespace {

hw::FirmwareFactory make_firmware_factory(const ExperimentConfig& cfg) {
  firmware::GvtFirmwareOptions gopts;
  gopts.period = cfg.gvt_period;
  gopts.piggyback_tokens = cfg.piggyback;
  firmware::CancelFirmwareOptions copts;
  copts.lp_scope = cfg.rollback_scope == warped::RollbackScope::kLp;

  const bool nic_gvt = cfg.gvt_mode == warped::GvtMode::kNic;
  const bool cancel = cfg.early_cancel;
  return [=](NodeId) -> std::unique_ptr<hw::Firmware> {
    if (nic_gvt && cancel) return std::make_unique<firmware::CombinedFirmware>(gopts, copts);
    if (nic_gvt) return std::make_unique<firmware::GvtFirmware>(gopts);
    if (cancel) return std::make_unique<firmware::CancelFirmware>(copts);
    return std::make_unique<hw::BaselineFirmware>();
  };
}

std::unique_ptr<warped::GvtManager> make_manager(const ExperimentConfig& cfg) {
  switch (cfg.gvt_mode) {
    case warped::GvtMode::kHostMattern: {
      warped::MatternOptions o;
      o.period = cfg.gvt_period;
      return std::make_unique<warped::MatternGvtManager>(o);
    }
    case warped::GvtMode::kNic: {
      warped::NicGvtHostOptions o;
      o.piggyback = cfg.piggyback;
      o.piggyback_window_us = cfg.cost.handshake_piggyback_window_us;
      return std::make_unique<warped::NicGvtManager>(o);
    }
    case warped::GvtMode::kPGvt: {
      warped::PGvtOptions o;
      o.period = cfg.gvt_period;
      return std::make_unique<warped::PGvtManager>(o);
    }
  }
  NW_UNREACHABLE("unknown GVT mode");
}

models::BuiltModel build_model(const ExperimentConfig& cfg) {
  switch (cfg.model) {
    case ModelKind::kRaid: return models::build_raid(cfg.raid, cfg.nodes);
    case ModelKind::kPolice: return models::build_police(cfg.police, cfg.nodes);
    case ModelKind::kPhold: return models::build_phold(cfg.phold, cfg.nodes);
  }
  NW_UNREACHABLE("unknown model");
}

void emit_vt(std::ostream& os, VirtualTime v) {
  if (v.is_inf()) {
    os << "null";
  } else {
    os << v.t;
  }
}

// The watchdog's post-mortem: which virtual time each kernel is stuck at,
// what the GVT token machinery last saw, and how full each NIC ring is —
// enough to tell a lost token from a wedged credit window from a dead LP.
void write_watchdog_snapshot(std::ostream& os, Testbed& tb,
                             const WatchdogConfig& wd, VirtualTime stuck_gvt) {
  sim::Engine& eng = tb.cluster->engine();
  os << "{\"type\": \"watchdog_snapshot\", \"schema_version\": 1,\n"
     << " \"wall_budget_seconds\": " << wd.stall_wall_seconds << ",\n"
     << " \"engine_now_ns\": " << eng.now().ns << ",\n"
     << " \"engine_pending_tasks\": " << eng.pending() << ",\n"
     << " \"stuck_gvt\": ";
  emit_vt(os, stuck_gvt);
  os << ",\n \"kernels\": [";
  for (std::size_t i = 0; i < tb.kernels.size(); ++i) {
    warped::Kernel& k = *tb.kernels[i];
    hw::Node& node = tb.cluster->node(static_cast<NodeId>(i));
    if (i > 0) os << ",";
    os << "\n  {\"rank\": " << i << ", \"gvt\": ";
    emit_vt(os, k.gvt());
    os << ", \"safe_local_min\": ";
    emit_vt(os, k.safe_local_min());
    os << ", \"stopped\": " << (k.stopped() ? 1 : 0)
       << ", \"events_processed\": " << k.lp().events_processed()
       << ", \"pending_events\": " << k.lp().total_pending()
       << ", \"gvt_epoch\": " << node.mailbox().gvt_epoch
       << ", \"nic_ring_slots_in_use\": " << node.nic().slots_in_use() << "}";
  }
  os << "\n]}\n";
}

}  // namespace

Testbed build_testbed(const ExperimentConfig& cfg) {
  // Validate by throwing, not NW_CHECK-aborting: sweeps (run_parallel) must
  // be able to report one bad grid point without killing the whole process.
  if (cfg.nodes == 0) {
    throw std::invalid_argument("ExperimentConfig.nodes must be >= 1");
  }
  if (cfg.shards == 0 || cfg.shards > cfg.nodes) {
    throw std::invalid_argument(
        "ExperimentConfig.shards must satisfy 1 <= shards <= nodes");
  }
  if (cfg.profile.on() && cfg.shards > 1) {
    throw std::invalid_argument(
        "ExperimentConfig.profile is incompatible with shards > 1: the "
        "cascade collector is single-threaded");
  }
  if ((cfg.model == ModelKind::kRaid && cfg.raid.total_requests <= 0) ||
      (cfg.model == ModelKind::kPolice && cfg.police.stations <= 0) ||
      (cfg.model == ModelKind::kPhold && cfg.phold.objects <= 0)) {
    throw std::invalid_argument("ExperimentConfig model workload must be non-empty");
  }
  Testbed tb;
  hw::CostModel cost = cfg.cost;
  // Chaos implies recovery: without the reliability sublayer a lossy fabric
  // deadlocks Time-Warp (lost events, wedged credit windows, dead tokens).
  if (cfg.fault.enabled()) cost.rel_enabled = true;
  tb.cluster = std::make_unique<hw::Cluster>(cost, cfg.nodes,
                                             make_firmware_factory(cfg), cfg.seed,
                                             cfg.fault, cfg.shards);
  tb.shards = cfg.shards;
  tb.pin_threads = cfg.pin_threads;
  if (!cfg.trace.categories.empty()) {
    tb.cluster->configure_trace(parse_trace_categories(cfg.trace.categories),
                                cfg.trace.capacity);
  }
  if (cfg.latency.on()) {
    tb.cluster->set_latency_enabled(true);
  }
  if (cfg.heatmap.on()) {
    tb.cluster->configure_entity(cfg.nodes);
  }
  if (cfg.phase.enabled) {
    tb.cluster->enable_phases();
  }
  if (cfg.metrics.enabled()) {
    TimeSeriesSampler::Options sopts;
    sopts.every_gvt_rounds = cfg.metrics.sample_every_gvt_rounds > 0
                                 ? cfg.metrics.sample_every_gvt_rounds
                                 : (cfg.metrics.sample_virtual_dt > 0 ? 0 : 1);
    sopts.min_virtual_dt = cfg.metrics.sample_virtual_dt;
    tb.sampler = std::make_unique<TimeSeriesSampler>(tb.cluster->stats(), sopts);
  }
  models::BuiltModel model = build_model(cfg);

  comm::CommOptions comm_opts;
  comm_opts.credit_repair = cfg.credit_repair;

  for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
    tb.comms.push_back(std::make_unique<comm::HostComm>(tb.cluster->node(n), comm_opts));
  }
  NW_CHECK_MSG(!(cfg.early_cancel &&
                 cfg.cancellation == warped::CancellationMode::kLazy),
               "NIC early cancellation requires aggressive cancellation: the "
               "drop machinery assumes every doomed message gets an anti");
  if (cfg.profile.on()) {
    tb.profiler = std::make_unique<profile::ProfileCollector>();
  }
  warped::KernelOptions kopts;
  kopts.rollback_scope = cfg.rollback_scope;
  kopts.cancellation = cfg.cancellation;
  kopts.state_save_period = cfg.state_save_period;
  kopts.state_mode = cfg.state_mode;
  kopts.paranoia_checks = cfg.paranoia_checks;
  kopts.profile = tb.profiler.get();
  for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
    // Only rank 0 feeds the sampler: a cluster-wide GVT adoption must yield
    // one sample, not world_size duplicates.
    kopts.sampler = (n == 0) ? tb.sampler.get() : nullptr;
    auto kernel = std::make_unique<warped::Kernel>(
        tb.cluster->node(n), *tb.comms[n], model.partition, make_manager(cfg), kopts,
        cfg.seed);
    for (auto& obj : model.per_node[n]) kernel->add_object(std::move(obj));
    tb.kernels.push_back(std::move(kernel));
  }
  return tb;
}

bool Testbed::all_stopped() const {
  for (const auto& k : kernels) {
    if (!k->stopped()) return false;
  }
  return true;
}

namespace {

// The sharded run loop: one worker thread per shard, advancing in
// conservative windows under the two-phase LBTS exchange (sim/shard_sync.hpp,
// docs/SHARDING.md). Per shard s, round r (starting at 1):
//
//   Phase A  await fence[p] >= r-1 from every peer (all round-(r-1) mailbox
//            pushes are then visible), drain inbound entries stamped <= r-1
//            onto the engine, publish (h = next_time, done, best GVT) as the
//            round-r snapshot.
//   Phase B  await every shard's round-r snapshot, decide floor = min h and
//            all_done = AND done — identically on every shard — then run the
//            window [.., floor + lookahead - 1] and publish fence = r.
//
// The wall-clock GVT watchdog lives on the shard-0 worker and keys off the
// *published* best GVT, not the floor: the kernels' idle-poll timers keep
// every engine non-empty, so the floor advances even when GVT is wedged.
bool run_sharded(Testbed& tb, double max_sim_seconds,
                 const WatchdogConfig& watchdog) {
  hw::Cluster& cl = *tb.cluster;
  const std::uint32_t num_shards = cl.shards();
  sim::ShardSync sync(num_shards);
  const std::int64_t cap_ns = SimTime::from_seconds(max_sim_seconds).ns;
  const std::int64_t lookahead_ns = cl.lookahead().ns;
  NW_CHECK_MSG(lookahead_ns > 0, "sharded run requires positive lookahead");

  std::vector<std::vector<warped::Kernel*>> by_shard(num_shards);
  for (std::size_t i = 0; i < tb.kernels.size(); ++i) {
    by_shard[cl.shard_of(static_cast<NodeId>(i))].push_back(tb.kernels[i].get());
  }
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    // Blocked-push hook: staging our own inbound rings is what lets the peer
    // we are pushing to always make progress (deadlock freedom, see
    // hw/shard_mailbox.hpp).
    cl.set_shard_idle_hook(s, [&cl, &sync, s] {
      cl.stage_shard_inbound(s);
      return sync.aborted();
    });
  }
  // start() touches only the kernel's own shard engine; do it here, single
  // threaded, before any worker exists.
  for (auto& k : tb.kernels) k->start();

  std::vector<std::string> errors(num_shards);
  std::atomic<bool> stalled{false};
  std::atomic<std::int64_t> rounds0{0};

  auto worker = [&](std::uint32_t s) {
    try {
      sim::Engine& eng = cl.engine(s);
      const auto idle = [&cl, s] { cl.stage_shard_inbound(s); };
      VirtualTime wd_best = VirtualTime::zero();
      auto wd_last = std::chrono::steady_clock::now();
      for (std::uint64_t r = 1;; ++r) {
        if (!sync.await_fences(s, r - 1, idle)) break;  // aborted
        cl.stage_shard_inbound(s);
        cl.drain_shard_inbound(s, r - 1);
        cl.shard_round(s) = r;  // outbound pushes below are stamped r
        bool done = true;
        std::int64_t best_gvt = VirtualTime::zero().t;
        for (const warped::Kernel* k : by_shard[s]) {
          if (!k->stopped()) done = false;
          best_gvt = std::max(best_gvt, k->gvt().t);
        }
        sync.publish(s, r, eng.next_time().ns, done, best_gvt);
        if (!sync.await_rounds(r, idle)) break;  // aborted
        const sim::ShardSync::Decision d = sync.decide();
        if (d.all_done || d.floor_ns == sim::ShardSync::kInfNs ||
            d.floor_ns > cap_ns) {
          // Uniform decision: every shard reads the same round-r snapshot
          // and takes this exit in the same round.
          if (s == 0) rounds0.store(static_cast<std::int64_t>(r),
                                    std::memory_order_relaxed);
          sync.set_fence(s, r);
          break;
        }
        const SimTime deadline{std::min(d.floor_ns + (lookahead_ns - 1), cap_ns)};
        // run_until can return early on a latched kernel stop(); keep going
        // until the window is genuinely exhausted.
        while (!sync.aborted() && eng.next_time() <= deadline) {
          eng.run_until(deadline);
        }
        sync.set_fence(s, r);
        if (s != 0) continue;
        rounds0.store(static_cast<std::int64_t>(r), std::memory_order_relaxed);
        if (!watchdog.on()) continue;
        const VirtualTime g{sync.global_best_gvt()};
        if (wd_best < g) {
          wd_best = g;
          wd_last = std::chrono::steady_clock::now();
          continue;
        }
        const double stalled_for =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wd_last)
                .count();
        if (stalled_for < watchdog.stall_wall_seconds) continue;
        if (cl.trace(0).enabled(TraceCat::kWatchdog)) {
          cl.trace(0).record(
              {eng.now(), wd_best, TraceCat::kWatchdog,
               TracePoint::kWatchdogStall, false, 0, kInvalidNode, kInvalidEvent,
               static_cast<std::uint64_t>(watchdog.stall_wall_seconds * 1000.0),
               static_cast<std::uint64_t>(eng.pending())});
        }
        stalled.store(true, std::memory_order_relaxed);
        sync.abort();
        break;
      }
    } catch (const std::exception& e) {
      errors[s] = e.what();
      sync.abort();
    } catch (...) {
      errors[s] = "unknown exception";
      sync.abort();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    threads.emplace_back(worker, s);
#ifdef __linux__
    if (tb.pin_threads) {
      cpu_set_t set;
      CPU_ZERO(&set);
      const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
      CPU_SET(s % cores, &set);
      pthread_setaffinity_np(threads.back().native_handle(), sizeof(set), &set);
    }
#endif
  }
  for (auto& t : threads) t.join();
  tb.shard_rounds = rounds0.load(std::memory_order_relaxed);

  if (stalled.load(std::memory_order_relaxed)) {
    const VirtualTime stuck{sync.global_best_gvt()};
    if (!watchdog.snapshot_out.empty()) {
      std::ofstream os(watchdog.snapshot_out);
      NW_CHECK_MSG(os.good(), "cannot open watchdog snapshot file");
      write_watchdog_snapshot(os, tb, watchdog, stuck);
    }
    std::ostringstream msg;
    msg << "GVT watchdog: no GVT advance past " << stuck.t << " within "
        << watchdog.stall_wall_seconds << "s of wall time (sharded run, "
        << num_shards << " shards, " << tb.shard_rounds << " LBTS rounds)";
    throw std::runtime_error(msg.str());
  }
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (!errors[s].empty()) {
      throw std::runtime_error("shard " + std::to_string(s) +
                               " worker failed: " + errors[s]);
    }
  }
  return tb.all_stopped();
}

}  // namespace

bool Testbed::run_to_completion(double max_sim_seconds,
                                const WatchdogConfig& watchdog) {
  if (shards > 1) return run_sharded(*this, max_sim_seconds, watchdog);
  for (auto& k : kernels) k->start();
  sim::Engine& eng = cluster->engine();
  const SimTime cap = SimTime::from_seconds(max_sim_seconds);
  const SimTime chunk = SimTime::from_us(50000);  // 50 ms of simulated time
  // Watchdog state: the best GVT any kernel has adopted, and the wall-clock
  // instant it last improved. The engine staying busy while this stands
  // still is the signature of a dead token / wedged window, not slowness.
  VirtualTime best_gvt = VirtualTime::zero();
  auto last_advance = std::chrono::steady_clock::now();
  while (!all_stopped() && eng.pending() > 0 && eng.now() < cap) {
    eng.run_until(SimTime{std::min(cap.ns, (eng.now() + chunk).ns)});
    if (!watchdog.on()) continue;
    VirtualTime g = VirtualTime::zero();
    for (const auto& k : kernels) g = VirtualTime::max(g, k->gvt());
    if (best_gvt < g) {
      best_gvt = g;
      last_advance = std::chrono::steady_clock::now();
      continue;
    }
    const double stalled_for =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      last_advance)
            .count();
    if (stalled_for < watchdog.stall_wall_seconds) continue;
    if (cluster->trace().enabled(TraceCat::kWatchdog)) {
      cluster->trace().record(
          {eng.now(), best_gvt, TraceCat::kWatchdog, TracePoint::kWatchdogStall,
           false, 0, kInvalidNode, kInvalidEvent,
           static_cast<std::uint64_t>(watchdog.stall_wall_seconds * 1000.0),
           static_cast<std::uint64_t>(eng.pending())});
    }
    if (!watchdog.snapshot_out.empty()) {
      std::ofstream os(watchdog.snapshot_out);
      NW_CHECK_MSG(os.good(), "cannot open watchdog snapshot file");
      write_watchdog_snapshot(os, *this, watchdog, best_gvt);
    }
    std::ostringstream msg;
    msg << "GVT watchdog: no GVT advance past " << best_gvt.t << " within "
        << watchdog.stall_wall_seconds << "s of wall time (engine busy, "
        << eng.pending() << " tasks pending at simulated " << eng.now().ns
        << "ns)";
    throw std::runtime_error(msg.str());
  }
  return all_stopped();
}

ExperimentResult extract_result(Testbed& tb, bool completed) {
  ExperimentResult r;
  r.completed = completed;
  // Execution time = the instant the last kernel detected termination (the
  // engine may have coasted past it on housekeeping timers).
  SimTime done = SimTime::zero();
  for (const auto& k : tb.kernels) done = std::max(done, k->stop_time());
  r.sim_seconds = completed ? done.seconds() : tb.cluster->now_max().seconds();
  const StatsRegistry& st = tb.cluster->merged_stats();

  for (const auto& k : tb.kernels) {
    const warped::LogicalProcess& lp = k->lp();
    r.events_processed += static_cast<std::int64_t>(lp.events_processed());
    r.events_rolled_back += static_cast<std::int64_t>(lp.events_rolled_back());
    r.rollbacks += static_cast<std::int64_t>(lp.rollbacks());
    r.state_saves += static_cast<std::int64_t>(lp.state_saves());
    r.state_save_bytes += static_cast<std::int64_t>(lp.state_save_bytes());
    r.undo_bytes_logged += static_cast<std::int64_t>(lp.undo_bytes_logged());
    r.undo_rewinds += static_cast<std::int64_t>(lp.undo_rewinds());
    r.signature = static_cast<std::int64_t>(static_cast<std::uint64_t>(r.signature) +
                                            static_cast<std::uint64_t>(lp.signature_sum()));
    r.final_gvt = VirtualTime::max(r.final_gvt, k->gvt());
  }
  r.committed_events = r.events_processed - r.events_rolled_back;

  r.event_msgs_generated = st.value("tw.events_sent");
  r.antis_generated = st.value("tw.antis_sent") + st.value("tw.antis_suppressed");
  r.wire_packets = st.value("net.packets");
  r.wire_bytes = st.value("net.bytes");
  r.dropped_by_nic = st.value("cancel.dropped_positive");
  r.filtered_antis = st.value("cancel.filtered_anti");
  r.antis_suppressed = st.value("tw.antis_suppressed");
  r.events_replayed = st.value("tw.events_replayed");
  r.lazy_matched = st.value("tw.lazy_matched");
  r.gvt_rounds = st.value("gvt.rounds");
  r.gvt_estimations = st.value("gvt.estimations");
  r.shard_rounds = tb.shard_rounds;

  r.fault_drops = st.value("net.fault_drops");
  r.fault_dups = st.value("net.fault_dups");
  r.fault_corrupts = st.value("net.fault_corrupts");
  r.fault_delays = st.value("net.fault_delays");
  r.retransmits = st.value("nic.retransmits");
  r.naks_sent = st.value("nic.naks_sent");
  r.retx_timeouts = st.value("nic.retx_timeouts");
  r.retx_evicted = st.value("nic.retx_evicted");
  r.rel_crc_discards = st.value("nic.rel_crc_discards");
  r.rel_dup_discards = st.value("nic.rel_dup_discards");
  r.rel_gap_discards = st.value("nic.rel_gap_discards");
  r.gvt_token_regens = st.value("gvt.token_regens");
  r.gvt_tokens_stale = st.value("gvt.tokens_stale");
  r.credit_resyncs = st.value("comm.credit_resyncs");

  if (tb.sampler != nullptr) {
    // Close the series with the end-of-run state (final GVT is +inf on a
    // completed run; the sampler serializes that as null).
    tb.sampler->force_sample(tb.cluster->engine().now(), r.final_gvt);
    r.series = tb.sampler->samples();
  }
  {
    const TraceRecorder& tr = tb.cluster->merged_trace();
    r.trace_records = tr.total_recorded();
    r.trace_overwritten = tr.overwritten();
  }
  r.latency = tb.cluster->merged_latency().report();

  if (tb.cluster->entity().enabled()) {
    // Roll the per-LP counters into the owning shard's registry (each rank
    // belongs to exactly one shard, so the merge below is a disjoint union);
    // the link/node rows were filled on the hot paths as the run went.
    for (std::size_t i = 0; i < tb.kernels.size(); ++i) {
      const warped::LogicalProcess& lp = tb.kernels[i]->lp();
      LpHeat h;
      h.processed = lp.events_processed();
      h.rolled_back = lp.events_rolled_back();
      h.committed = lp.events_processed() - lp.events_rolled_back();
      h.rollbacks = lp.rollbacks();
      h.max_rollback_depth = lp.max_rollback_depth();
      h.replayed = lp.events_replayed();
      h.state_saves = lp.state_saves();
      h.state_save_bytes = lp.state_save_bytes();
      const NodeId rank = static_cast<NodeId>(i);
      tb.cluster->entity(tb.cluster->shard_of(rank)).set_lp(rank, h);
    }
    std::ostringstream os;
    tb.cluster->merged_entity().to_json(os);
    r.heatmap_json = os.str();
  }
  if (tb.cluster->phases().enabled()) {
    r.phase_enabled = true;
    const PhaseProfiler& pp = tb.cluster->merged_phases();
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const Phase ph = static_cast<Phase>(p);
      r.phase_seconds[p] = pp.seconds(ph);
      r.phase_calls[p] = pp.calls(ph);
    }
  }

  if (tb.profiler != nullptr && !tb.kernels.empty()) {
    profile::ProfileCollector::FinishParams fp;
    fp.sim_seconds = r.sim_seconds;
    fp.event_cost_us = tb.kernels[0]->cost().host_event_exec_us;
    r.profile = std::make_shared<profile::ProfileReport>(tb.profiler->finish(fp));
  }
  return r;
}

namespace {

void write_experiment_outputs(const ExperimentConfig& cfg, Testbed& tb,
                              const ExperimentResult& r) {
  auto open = [](const std::string& path) {
    std::ofstream os(path);
    NW_CHECK_MSG(os.good(), "cannot open output file");
    return os;
  };
  if (!cfg.trace.chrome_out.empty()) {
    auto os = open(cfg.trace.chrome_out);
    tb.cluster->merged_trace().export_chrome_json(os);
  }
  if (!cfg.trace.jsonl_out.empty()) {
    auto os = open(cfg.trace.jsonl_out);
    tb.cluster->merged_trace().export_jsonl(os);
  }
  if (tb.sampler != nullptr && !cfg.metrics.out_path.empty()) {
    auto os = open(cfg.metrics.out_path);
    tb.sampler->export_jsonl(os);
  }
  if (r.profile != nullptr && !cfg.profile.json_out.empty()) {
    auto os = open(cfg.profile.json_out);
    r.profile->to_json(os);
  }
  if (!cfg.latency.json_out.empty()) {
    auto os = open(cfg.latency.json_out);
    r.latency.to_json(os);
  }
  if (!cfg.heatmap.json_out.empty()) {
    auto os = open(cfg.heatmap.json_out);
    os << r.heatmap_json;
  }
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  Testbed tb = build_testbed(cfg);
  const bool completed = tb.run_to_completion(cfg.max_sim_seconds, cfg.watchdog);
  ExperimentResult r = extract_result(tb, completed);
  write_experiment_outputs(cfg, tb, r);
  return r;
}

std::vector<ExperimentResult> run_parallel(const std::vector<ExperimentConfig>& cfgs,
                                           unsigned max_threads) {
  if (max_threads == 0) max_threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<ExperimentResult> results(cfgs.size());
  std::atomic<std::size_t> next{0};
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(max_threads, cfgs.size()));
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= cfgs.size()) return;
        // An exception escaping a worker thread would std::terminate the
        // whole sweep; catch per-config and record a failed result instead.
        try {
          results[i] = run_experiment(cfgs[i]);
        } catch (const std::exception& e) {
          results[i] = ExperimentResult{};
          results[i].error = e.what();
        } catch (...) {
          results[i] = ExperimentResult{};
          results[i].error = "unknown exception";
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].failed()) {
      NW_WARN("run_parallel: config %zu of %zu failed: %s", i, cfgs.size(),
              results[i].error.c_str());
    }
  }
  return results;
}

std::string ExperimentResult::to_string() const {
  std::ostringstream os;
  if (failed()) {
    os << "FAILED error=\"" << error << "\"";
    return os.str();
  }
  os << "sim_seconds=" << sim_seconds << " committed=" << committed_events
     << " processed=" << events_processed << " rollbacks=" << rollbacks
     << " wire_packets=" << wire_packets << " dropped_by_nic=" << dropped_by_nic
     << " gvt_rounds=" << gvt_rounds << " completed=" << (completed ? 1 : 0);
  return os.str();
}

}  // namespace nicwarp::harness

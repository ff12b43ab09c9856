#include "warped/kernel.hpp"

#include "core/assert.hpp"

namespace nicwarp::warped {

namespace {

hw::Packet event_to_packet(const EventMsg& ev, NodeId dst_node, const hw::CostModel& cm) {
  hw::Packet pkt;
  pkt.hdr.kind = hw::PacketKind::kEvent;
  pkt.hdr.dst = dst_node;
  pkt.hdr.src_obj = ev.src_obj;
  pkt.hdr.dst_obj = ev.dst_obj;
  pkt.hdr.event_id = ev.id;
  pkt.hdr.send_ts = ev.send_ts;
  pkt.hdr.recv_ts = ev.recv_ts;
  pkt.hdr.negative = ev.negative;
  pkt.hdr.size_bytes = static_cast<std::uint32_t>(
      cm.event_msg_bytes + 8 * static_cast<std::int64_t>(ev.data.size()));
  pkt.app = ev.data;
  return pkt;
}

EventMsg packet_to_event(const hw::Packet& pkt) {
  EventMsg ev;
  ev.src_obj = pkt.hdr.src_obj;
  ev.dst_obj = pkt.hdr.dst_obj;
  ev.id = pkt.hdr.event_id;
  ev.send_ts = pkt.hdr.send_ts;
  ev.recv_ts = pkt.hdr.recv_ts;
  ev.negative = pkt.hdr.negative;
  ev.data = pkt.app;
  return ev;
}

}  // namespace

Kernel::Kernel(hw::Node& node, comm::HostComm& comm, std::shared_ptr<const Partition> part,
               std::unique_ptr<GvtManager> mgr, KernelOptions opts, std::uint64_t seed)
    : node_(node),
      comm_(comm),
      part_(std::move(part)),
      mgr_(std::move(mgr)),
      opts_(opts),
      world_size_(0),
      lp_(node.id(), node.stats(), seed, opts.rollback_scope, opts.cancellation,
          opts.state_save_period, opts.state_mode),
      jitter_rng_(seed ^ node.id(), "kernel.jitter"),
      kernels_terminated_(node.stats(), "tw.kernels_terminated"),
      drop_notices_(node.stats(), "tw.drop_notices"),
      events_sent_(node.stats(), "tw.events_sent"),
      antis_sent_(node.stats(), "tw.antis_sent") {
  NW_CHECK(part_ != nullptr);
  NW_CHECK(mgr_ != nullptr);
  lp_.set_paranoia(opts.paranoia_checks);
  // The profiler needs to know which executions each rollback undid.
  lp_.set_collect_undone(opts.profile != nullptr);
  // The LP is purely virtual-time; hand it the node clock so fossil
  // collection can compute modeled commit latencies.
  lp_.set_latency(&node.latency(), [this] { return node_.engine().now(); });
  lp_.set_phases(&node.phases());
  comm_.set_deliver([this](hw::Packet pkt) { on_deliver(std::move(pkt)); });
  mgr_->attach(*this);
}

void Kernel::start() {
  NW_CHECK(!started_);
  started_ = true;
  // World size = number of distinct nodes in the partition's codomain is the
  // cluster size; the node knows it via its NIC.
  world_size_ = node_.nic().world_size();

  hw::Mailbox& mb = node_.mailbox();
  mb.rank = node_.id();
  mb.world_size = world_size_;
  mb.timewarp_initialised = true;

  // Object initialization is real host work.
  node_.host_cpu().submit_dynamic(*this, kInit, 0);

  idle_tick();
}

SimTime Kernel::start_job(std::uint32_t stage, std::uint64_t) {
  switch (static_cast<Stage>(stage)) {
    case kInit: {
      double cost_us = node_.cost().host_event_exec_us;  // setup overhead
      std::vector<EventMsg> initial = lp_.initialize_objects();
      for (auto& ev : initial) dispatch_event(std::move(ev), cost_us);
      mgr_->start();
      return node_.cost().us(cost_us);
    }
    case kStep:
      return do_step();
    case kControl:
      break;
  }
  NW_UNREACHABLE("kernel job stage without a start hook");
}

void Kernel::finish_job(std::uint32_t stage, std::uint64_t arg) {
  switch (static_cast<Stage>(stage)) {
    case kInit:
      pump();
      return;
    case kStep:
      step_active_ = false;
      pump();
      return;
    case kControl: {
      const hw::PacketRef ref = hw::PacketRef::from_bits(arg);
      hw::PacketPool& pool = node_.pool();
      if (pool.get(ref).hdr.dst == rank()) {
        // Degenerate self-send (e.g. a 1-node ring): handled locally, after
        // paying the same control-handling cost.
        mgr_->on_control(pool.get(ref));
        pool.release(ref);
      } else {
        comm_.send(ref);
      }
      return;
    }
  }
  NW_UNREACHABLE("unknown kernel job stage");
}

VirtualTime Kernel::safe_local_min() const {
  return VirtualTime::min(lp_.lvt(), comm_.min_staged_event_ts());
}

void Kernel::send_control(hw::Packet pkt) {
  // The packet waits in the node's pool, not in the job, while the task
  // queues behind other host work.
  const hw::PacketRef ref = node_.pool().acquire(std::move(pkt));
  node_.host_cpu().submit(cost().us(cost().host_gvt_ctrl_us), *this, kControl,
                          ref.bits());
}

void Kernel::on_new_gvt(VirtualTime g) {
  ScopedPhaseTimer phase_scope(&node_.phases(), Phase::kGvt);
  if (node_.trace().enabled(TraceCat::kGvt)) {
    node_.trace().record({now(), g, TraceCat::kGvt, TracePoint::kGvtHostAdopt,
                          false, rank(), kInvalidNode, kInvalidEvent,
                          node_.mailbox().gvt_epoch, 0});
  }
  if (opts_.sampler != nullptr) opts_.sampler->on_gvt(now(), g);
  const std::size_t reclaimed = lp_.fossil_collect(g);
  if (reclaimed > 0) {
    node_.run_host_task(
        cost().us(cost().host_fossil_per_event_us * static_cast<double>(reclaimed)),
        nullptr);
  }
  if (g.is_inf() && !stopped_) {
    stopped_ = true;
    stop_time_ = node_.engine().now();
    kernels_terminated_.add(1);
  }
}

SimTime Kernel::jittered_exec_cost() {
  const double j = node_.cost().host_exec_jitter;
  const double f = 1.0 + j * (2.0 * jitter_rng_.next_double() - 1.0);
  return cost().us(cost().host_event_exec_us * f);
}

void Kernel::drain_drop_notices(double& cost_us) {
  hw::Mailbox& mb = node_.mailbox();
  while (!mb.drop_notices.empty()) {
    const hw::DropNotice n = mb.drop_notices.front();
    mb.drop_notices.pop_front();
    if (opts_.profile != nullptr) {
      opts_.profile->on_nic_drop(rank(), n.id, n.negative, n.cause_anti);
    }
    mgr_->on_nic_drop(n);
    comm_.refund_credits(n.dst, 1);
    drop_notices_.add(1);
    cost_us += 0.2;  // one uncached mailbox read
  }
}

void Kernel::pump() {
  if (step_active_ || stopped_ || !started_) return;
  if (!lp_.has_ready_event()) return;  // idle_tick keeps the manager alive
  step_active_ = true;
  node_.host_cpu().submit_dynamic(*this, kStep, 0);
}

SimTime Kernel::do_step() {
  double cost_us = 0.0;
  drain_drop_notices(cost_us);

  if (!lp_.has_ready_event() || stopped_) return cost().us(cost_us + 0.5);

  LogicalProcess::ExecResult r;
  {
    ScopedPhaseTimer phase_scope(&node_.phases(), Phase::kEventExec);
    r = lp_.execute_next();
  }
  NW_CHECK(r.executed);
  if (opts_.profile != nullptr) {
    opts_.profile->on_execute(rank(), r.obj, r.id, r.ts);
    // Send edges for the positives only; the lazy-flush antis in r.antis
    // belong to older generators, not this execution.
    for (const EventMsg& s : r.sends) {
      opts_.profile->on_send(rank(), r.id, s.id, s.dst_obj, s.recv_ts);
    }
  }
  // State-saving cost. Copy saving with a fixed period keeps the historical
  // amortized charge (cost/period every step — byte-identical to the
  // pre-incremental kernels). Adaptive and incremental modes charge what the
  // step actually did: a full clone only on snapshot steps, plus the
  // per-byte undo-logging tax.
  double save_us = 0.0;
  if (opts_.state_mode == StateSaveMode::kCopy && opts_.state_save_period >= 1) {
    save_us = cost().host_state_save_us / static_cast<double>(opts_.state_save_period);
  } else {
    if (r.snapshot_saved) save_us += cost().host_state_save_us;
    save_us += cost().host_undo_byte_us * static_cast<double>(r.undo_bytes);
  }
  SimTime c = jittered_exec_cost() + cost().us(save_us);
  for (auto& ev : r.antis) dispatch_event(std::move(ev), cost_us);
  for (auto& ev : r.sends) dispatch_event(std::move(ev), cost_us);

  // Keep the NIC's liveness hint fresh (a plain store into mapped SRAM).
  node_.mailbox().events_processed = static_cast<std::int64_t>(lp_.events_processed());
  mgr_->on_event_processed();
  return c + cost().us(cost_us);
}

void Kernel::dispatch_event(EventMsg ev, double& cost_us) {
  const NodeId dst_node = part_->of(ev.dst_obj);

  // NOTE: the paper also lets the host suppress anti-messages by consulting
  // the shared dropped-id buffer at generation time (§3.2). That check is
  // inherently racy against anti-messages already in flight toward the NIC:
  // a dispatch-time suppression can steal the pool entry an in-flight anti
  // was owed, letting it escape to the wire as an orphan that later
  // annihilates a VALID positive. We therefore do all filtering at the NIC
  // (on_host_tx), where channel-FIFO order makes the pairing exact; the
  // saved work is the same minus one I/O-bus crossing per filtered anti.

  if (dst_node == rank()) {
    cost_us += cost().host_local_msg_us;
    const EventId cause_id = ev.id;
    const bool cause_negative = ev.negative;
    apply_insert_result(lp_.insert(std::move(ev)), cost_us, cause_id,
                        cause_negative, kInvalidNode);
    return;
  }

  hw::Packet pkt = event_to_packet(ev, dst_node, cost());
  pkt.hdr.anti_counter_pb = lp_.anti_counter_piggyback(ev.src_obj);
  mgr_->stamp_outgoing(pkt.hdr);
  cost_us += cost().host_msg_send_us;
  (ev.negative ? antis_sent_ : events_sent_).add(1);
  if (node_.trace().enabled(TraceCat::kMsg)) {
    node_.trace().record({now(), ev.recv_ts, TraceCat::kMsg,
                          TracePoint::kHostEnqueue, ev.negative, rank(), dst_node,
                          ev.id, pkt.hdr.size_bytes, 0});
  }
  comm_.send(std::move(pkt));
}

void Kernel::apply_insert_result(const LogicalProcess::InsertResult& res,
                                 double& cost_us, EventId cause_id,
                                 bool cause_negative, NodeId cause_src) {
  if (res.rollback) {
    cost_us += cost().host_rollback_fixed_us +
               cost().host_rollback_per_event_us * static_cast<double>(res.events_undone);
    // Coast-forward replays re-execute model code in full.
    cost_us += cost().host_event_exec_us * static_cast<double>(res.events_replayed);
    // The record names its trigger: (event_id, negative, peer) identify the
    // straggler or anti so offline analysis can rebuild the cascade forest.
    if (node_.trace().enabled(TraceCat::kRollback)) {
      node_.trace().record({now(), lp_.lvt(), TraceCat::kRollback,
                            TracePoint::kRollback, cause_negative, rank(),
                            cause_src, cause_id,
                            static_cast<std::uint64_t>(res.events_undone),
                            static_cast<std::uint64_t>(res.events_replayed)});
    }
    // Report BEFORE dispatching the antis: a local anti can trigger the next
    // rollback re-entrantly, and its cascade parent must exist by then.
    if (opts_.profile != nullptr) {
      RollbackProfile rb;
      rb.node = rank();
      rb.at = now();
      rb.cause_id = cause_id;
      rb.cause_negative = cause_negative;
      rb.cause_src = cause_src;
      rb.events_undone = res.events_undone;
      rb.events_replayed = res.events_replayed;
      rb.undone = res.undone_ids;
      rb.antis.reserve(res.antis.size());
      for (const EventMsg& anti : res.antis) rb.antis.push_back(anti.id);
      opts_.profile->on_rollback(rb);
    }
  }
  // Aggressive cancellation: dispatch the antis now (may cascade locally).
  for (const EventMsg& anti : res.antis) dispatch_event(anti, cost_us);
}

void Kernel::on_deliver(hw::Packet pkt) {
  // Runs inside the host receive task (its base cost is already charged).
  switch (pkt.hdr.kind) {
    case hw::PacketKind::kEvent: {
      mgr_->on_event_received(pkt.hdr);
      if (node_.trace().enabled(TraceCat::kMsg)) {
        node_.trace().record({now(), pkt.hdr.recv_ts, TraceCat::kMsg,
                              TracePoint::kHostDeliver, pkt.hdr.negative, rank(),
                              pkt.hdr.src, pkt.hdr.event_id, 0, 0});
      }
      // Full delivery leg: origin HostComm::send -> this kernel insert, in
      // virtual time (recv_ts - send_ts) and modeled elapsed microseconds.
      if (node_.latency().enabled() && pkt.hdr.sent_at.ns > 0) {
        node_.latency().record_delivery(pkt.hdr.recv_ts.t - pkt.hdr.send_ts.t,
                                        (now() - pkt.hdr.sent_at).micros());
      }
      double cost_us = 0.0;
      drain_drop_notices(cost_us);
      apply_insert_result(lp_.insert(packet_to_event(pkt), /*from_network=*/true),
                          cost_us, pkt.hdr.event_id, pkt.hdr.negative, pkt.hdr.src);
      if (cost_us > 0.0) node_.run_host_task(cost().us(cost_us), nullptr);
      pump();
      return;
    }
    case hw::PacketKind::kHostGvtToken:
    case hw::PacketKind::kGvtBroadcast:
    case hw::PacketKind::kNicGvtToken:
    case hw::PacketKind::kPGvtRequest:
    case hw::PacketKind::kPGvtReport:
    case hw::PacketKind::kAck: {
      ScopedPhaseTimer phase_scope(&node_.phases(), Phase::kGvt);
      mgr_->on_control(pkt);
      pump();
      return;
    }
    case hw::PacketKind::kCreditUpdate:
      return;  // consumed by HostComm before it gets here
    case hw::PacketKind::kNak:
      return;  // NIC reliability traffic; never crosses the I/O bus
  }
}

void Kernel::idle_tick() {
  if (stopped_) return;
  node_.engine().schedule(SimTime::from_us(opts_.idle_poll_us), [this] {
    if (stopped_) return;
    double cost_us = 0.0;
    drain_drop_notices(cost_us);
    mgr_->idle_poll();
    pump();
    idle_tick();
  });
}

}  // namespace nicwarp::warped

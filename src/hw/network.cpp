#include "hw/network.hpp"

#include "core/assert.hpp"

namespace nicwarp::hw {

Network::Network(sim::Engine& engine, StatsRegistry& stats, const CostModel& cost,
                 PacketPool& pool, std::uint32_t num_nodes, TraceRecorder* trace,
                 EntityStats* entity)
    : engine_(engine),
      trace_(trace ? *trace : TraceRecorder::null_recorder()),
      entity_(entity ? *entity : EntityStats::null_stats()),
      cost_(cost),
      pool_(pool),
      packets_(stats, "net.packets"),
      bytes_(stats, "net.bytes"),
      xshard_packets_(stats, "net.xshard_packets"),
      fault_token_drops_(stats, "net.fault_token_drops"),
      fault_drops_(stats, "net.fault_drops"),
      fault_corrupts_(stats, "net.fault_corrupts"),
      fault_delays_(stats, "net.fault_delays"),
      fault_dups_(stats, "net.fault_dups") {
  NW_CHECK_MSG(num_nodes < (1u << 31), "link stage packs src << 1");
  links_.reserve(num_nodes);
  clients_.assign(num_nodes, nullptr);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    links_.push_back(
        std::make_unique<sim::Server>(engine, "link" + std::to_string(i), &stats));
  }
}

void Network::set_fault_plan(const FaultPlan& plan) {
  fault_ = plan;
  fault_rngs_.clear();
  if (!fault_.enabled()) return;
  fault_rngs_.reserve(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    fault_rngs_.emplace_back(fault_.seed, "fault.link" + std::to_string(i));
  }
}

void Network::set_link_client(NodeId src, LinkClient& client) {
  NW_CHECK(src < clients_.size());
  clients_[src] = &client;
}

void Network::transmit(NodeId src, PacketRef ref, bool host_pkt) {
  NW_CHECK(src < links_.size());
  const PacketHeader& hdr = pool_.get(ref).hdr;
  NW_CHECK_MSG(hdr.dst < links_.size(), "packet to unknown node");
  NW_CHECK_MSG(hdr.dst != src, "network loopback not modelled; local sends bypass the NIC");
  links_[src]->submit(cost_.wire_time(hdr.size_bytes), *this,
                      (src << 1) | (host_pkt ? 1u : 0u), ref.bits());
}

SimTime Network::start_job(std::uint32_t, std::uint64_t) {
  NW_UNREACHABLE("link jobs have a fixed cost");
}

void Network::finish_job(std::uint32_t stage, std::uint64_t arg) {
  const NodeId src = stage >> 1;
  const PacketRef ref = PacketRef::from_bits(arg);
  const PacketHeader& h = pool_.get(ref).hdr;
  packets_.add(1);
  bytes_.add(h.size_bytes);
  if (entity_.enabled()) entity_.record_link_packet(src, h.dst, h.size_bytes);
  if (h.kind == PacketKind::kEvent && trace_.enabled(TraceCat::kMsg)) {
    trace_.record({engine_.now(), h.recv_ts, TraceCat::kMsg, TracePoint::kWireDepart,
                   h.negative, src, h.dst, h.event_id, h.size_bytes, 0});
  }
  if (clients_[src] != nullptr) clients_[src]->on_link_free((stage & 1u) != 0);
  if (fault_.enabled()) {
    deliver_with_faults(src, ref);
  } else {
    schedule_delivery(ref, SimTime::zero());
  }
}

void Network::schedule_delivery(PacketRef ref, SimTime extra) {
  const NodeId dst = pool_.get(ref).hdr.dst;
  const SimTime dt = cost_.us(cost_.link_latency_us) + extra;
  if (!remote_.empty() && remote_[dst]) {
    // Off-shard destination: the packet leaves this shard's pool as a value
    // and crosses via the shard mailbox; the destination engine delivers it
    // at the same absolute instant the local path would have.
    xshard_packets_.add(1);
    remote_push_(dst, engine_.now() + dt, pool_.take(ref));
    return;
  }
  engine_.schedule(dt, *this, ref.bits());
}

void Network::fire(std::uint64_t arg) {
  const PacketRef ref = PacketRef::from_bits(arg);
  ++delivered_;
  sink_(pool_.get(ref).hdr.dst, ref);
}

void Network::deliver_with_faults(NodeId src, PacketRef ref) {
  Rng& rng = fault_rngs_[src];
  // Targeted GVT-token loss is checked first and draws ONLY when armed, so
  // plans without it keep byte-identical fault schedules below.
  if (fault_.token_drop_rate > 0.0) {
    const PacketHeader& h = pool_.get(ref).hdr;
    if (h.kind == PacketKind::kNicGvtToken || h.kind == PacketKind::kHostGvtToken) {
      if (rng.next_double() < fault_.token_drop_rate) {
        fault_token_drops_.add(1);
        if (entity_.enabled()) entity_.record_link_fault(src, h.dst);
        if (trace_.enabled(TraceCat::kFault)) {
          trace_.record({engine_.now(), h.recv_ts, TraceCat::kFault,
                         TracePoint::kFaultDrop, h.negative, src, h.dst,
                         h.event_id, h.bip_seq, 0});
        }
        pool_.release(ref);
        return;
      }
    }
  }
  // A FIXED number of draws per packet, consumed unconditionally, so the
  // fault schedule of packet N never depends on which faults hit packets
  // 1..N-1 (stream alignment across sweeps of a single rate knob).
  const double u_drop = rng.next_double();
  const double u_dup = rng.next_double();
  const double u_corrupt = rng.next_double();
  const double u_delay = rng.next_double();
  const double u_delay_amt = rng.next_double();
  const double u_dup_delay = rng.next_double();

  Packet& pkt = pool_.get(ref);
  const auto fault_trace = [&](TracePoint point, std::uint64_t a) {
    if (trace_.enabled(TraceCat::kFault)) {
      trace_.record({engine_.now(), pkt.hdr.recv_ts, TraceCat::kFault, point,
                     pkt.hdr.negative, src, pkt.hdr.dst, pkt.hdr.event_id, a, 0});
    }
  };

  if (u_drop < fault_.drop_rate) {
    fault_drops_.add(1);
    if (entity_.enabled()) entity_.record_link_fault(src, pkt.hdr.dst);
    fault_trace(TracePoint::kFaultDrop, pkt.hdr.bip_seq);
    pool_.release(ref);
    return;  // the fabric ate it; recovery is the NIC's problem
  }
  if (u_corrupt < fault_.corrupt_rate) {
    fault_corrupts_.add(1);
    if (entity_.enabled()) entity_.record_link_fault(src, pkt.hdr.dst);
    fault_trace(TracePoint::kFaultCorrupt, pkt.hdr.bip_seq);
    pkt.hdr.crc ^= 0xdeadbeefu;  // never maps a stamped crc back to itself
  }
  SimTime extra = SimTime::zero();
  if (u_delay < fault_.delay_rate) {
    extra = SimTime::from_ns(
        static_cast<std::int64_t>(u_delay_amt * fault_.delay_max_us * 1e3));
    fault_delays_.add(1);
    if (entity_.enabled()) entity_.record_link_fault(src, pkt.hdr.dst);
    fault_trace(TracePoint::kFaultDelay, static_cast<std::uint64_t>(extra.ns));
  }
  if (u_dup < fault_.dup_rate) {
    fault_dups_.add(1);
    if (entity_.enabled()) entity_.record_link_fault(src, pkt.hdr.dst);
    fault_trace(TracePoint::kFaultDup, pkt.hdr.bip_seq);
    schedule_delivery(pool_.clone(ref),
                      extra + SimTime::from_ns(static_cast<std::int64_t>(
                                  u_dup_delay * fault_.delay_max_us * 1e3)));
  }
  schedule_delivery(ref, extra);
}

}  // namespace nicwarp::hw

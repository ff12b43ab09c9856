#include "hw/node.hpp"

#include "core/assert.hpp"

namespace nicwarp::hw {

Node::Node(sim::Engine& engine, StatsRegistry& stats, const CostModel& cost, NodeId id,
           std::uint32_t world_size, Network& network, PacketPool& pool,
           std::unique_ptr<Firmware> firmware, TraceRecorder* trace,
           LatencyRecorder* latency, EntityStats* entity, PhaseProfiler* phases)
    : engine_(engine),
      stats_(stats),
      cost_(cost),
      id_(id),
      world_size_(world_size),
      pool_(pool),
      host_cpu_(engine, "host" + std::to_string(id) + ".cpu", &stats),
      bus_(engine, "bus" + std::to_string(id), &stats),
      phases_(phases ? phases : &PhaseProfiler::null_profiler()),
      tx_packets_(stats, "host.tx_packets") {
  nic_ = std::make_unique<Nic>(engine, stats, cost, id, world_size, network, bus_,
                               pool, std::move(firmware), trace, latency, entity);
  nic_->set_host_deliver([this](PacketRef ref) {
    // The packet landed in host memory; charge the host receive path
    // (interrupt + protocol stack) before the comm layer sees it.
    host_cpu_.submit(host_recv_cost(pool_.get(ref)), *this, kHostRecv, ref.bits());
  });
}

void Node::dma_to_nic(PacketRef ref) {
  nic_->reserve_tx_slot();
  tx_packets_.add(1);
  bus_.submit(cost_.bus_transfer(pool_.get(ref).hdr.size_bytes), *this, kTxDma,
              ref.bits());
}

SimTime Node::start_job(std::uint32_t, std::uint64_t) {
  NW_UNREACHABLE("node jobs have a fixed cost");
}

void Node::finish_job(std::uint32_t stage, std::uint64_t arg) {
  const PacketRef ref = PacketRef::from_bits(arg);
  switch (static_cast<Stage>(stage)) {
    case kTxDma:
      nic_->accept_from_host(ref);
      return;
    case kHostRecv:
      NW_CHECK_MSG(raw_rx_ != nullptr, "no raw rx handler installed");
      raw_rx_(ref);
      return;
  }
  NW_UNREACHABLE("unknown node job stage");
}

void Node::set_tx_ready_cb(std::function<void()> fn) {
  nic_->set_tx_slot_freed(std::move(fn));
}

SimTime Node::host_recv_cost(const Packet& pkt) const {
  switch (pkt.hdr.kind) {
    case PacketKind::kEvent:
      return cost_.us(cost_.host_msg_recv_us);
    case PacketKind::kHostGvtToken:
    case PacketKind::kGvtBroadcast:
    case PacketKind::kPGvtReport:
    case PacketKind::kPGvtRequest:
      return cost_.us(cost_.host_gvt_ctrl_us);
    case PacketKind::kNicGvtToken:
      // Should normally be consumed on the NIC; if one surfaces, it is a
      // cheap notification.
      return cost_.us(cost_.host_mailbox_write_us);
    case PacketKind::kCreditUpdate:
    case PacketKind::kAck:
      return cost_.us(cost_.host_msg_recv_us * 0.5);
    case PacketKind::kNak:
      // Link-level NAKs live entirely inside the NIC reliability sublayer;
      // one reaching the host means the NIC failed to consume it.
      NW_UNREACHABLE("kNak surfaced to the host");
  }
  NW_UNREACHABLE("unknown packet kind");
}

}  // namespace nicwarp::hw

// Tests for the hardware layer: cost model, network links, NIC rings and
// backpressure, node packet paths, cluster wiring.
#include <gtest/gtest.h>

#include "hw/cluster.hpp"
#include "hw/cost_model.hpp"

namespace nicwarp::hw {
namespace {

CostModel test_cost() {
  CostModel c;
  // Round numbers so timing assertions are exact.
  c.bus_bandwidth_mb_s = 100.0;  // 10 ns/B
  c.bus_setup_us = 1.0;
  c.link_bandwidth_mb_s = 100.0;
  c.link_latency_us = 2.0;
  c.nic_per_packet_us = 1.0;
  c.host_msg_recv_us = 5.0;
  c.nic_send_ring_slots = 2;
  return c;
}

Packet make_event_packet(NodeId dst, std::uint32_t bytes = 100) {
  Packet p;
  p.hdr.kind = PacketKind::kEvent;
  p.hdr.dst = dst;
  p.hdr.size_bytes = bytes;
  return p;
}

// ---------------------------------------------------------------------------
// CostModel
// ---------------------------------------------------------------------------

TEST(CostModelTest, DerivedTransferTimes) {
  const CostModel c = test_cost();
  EXPECT_EQ(c.bus_transfer(100).ns, 1000 + 100 * 10);  // setup + bytes/bw
  EXPECT_EQ(c.wire_time(100).ns, 1000);
  EXPECT_EQ(c.us(2.5).ns, 2500);
}

TEST(CostModelTest, ParamOverrides) {
  ParamSet p = ParamSet::parse(
      "cm.host_event_exec_us=99.5 cm.nic_send_ring_slots=7 cm.mpi_credit_window=16");
  const CostModel c = CostModel::from_params(p);
  EXPECT_DOUBLE_EQ(c.host_event_exec_us, 99.5);
  EXPECT_EQ(c.nic_send_ring_slots, 7);
  EXPECT_EQ(c.mpi_credit_window, 16);
  // Untouched fields keep their defaults.
  const CostModel d;
  EXPECT_DOUBLE_EQ(c.bus_setup_us, d.bus_setup_us);
}

TEST(CostModelTest, DefaultsAreLANai4Calibrated) {
  const CostModel c;
  // The NIC must be priced as the bottleneck (see DESIGN.md §5).
  EXPECT_GT(c.nic_per_packet_us, c.host_msg_send_us * 0.5);
  EXPECT_GT(c.host_event_exec_us, 0.0);
  EXPECT_EQ(c.nic_sram_bytes, 1 << 20);  // LANai4: 1 MB
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

// Stands in for the NIC as the client of one injection link.
class LinkFreeLog final : public LinkClient {
 public:
  explicit LinkFreeLog(const sim::Engine& e) : e_(e) {}
  void on_link_free(bool host_pkt) override {
    at.push_back(e_.now().ns);
    host.push_back(host_pkt);
  }
  std::vector<std::int64_t> at;
  std::vector<bool> host;

 private:
  const sim::Engine& e_;
};

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture() : cost_(test_cost()), net_(engine_, stats_, cost_, pool_, 3) {
    net_.set_link_client(0, link0_);
  }
  // Sugar over the pooled interfaces: tests think in value-typed Packets.
  void transmit(NodeId src, Packet pkt, bool host_pkt = true) {
    net_.transmit(src, pool_.acquire(std::move(pkt)), host_pkt);
  }
  void set_sink(std::function<void(NodeId, Packet)> fn) {
    net_.set_sink([this, fn = std::move(fn)](NodeId dst, PacketRef ref) {
      fn(dst, pool_.take(ref));
    });
  }
  sim::Engine engine_;
  StatsRegistry stats_;
  CostModel cost_;
  PacketPool pool_;
  Network net_;
  LinkFreeLog link0_{engine_};
};

TEST_F(NetworkFixture, DeliversWithSerializationPlusLatency) {
  std::int64_t delivered_at = -1;
  set_sink([&](NodeId dst, Packet p) {
    EXPECT_EQ(dst, 1u);
    EXPECT_EQ(p.hdr.size_bytes, 100u);
    delivered_at = engine_.now().ns;
  });
  transmit(0, make_event_packet(1));
  engine_.run();
  // 100 B at 100 MB/s = 1000 ns serialize + 2000 ns latency.
  EXPECT_EQ(delivered_at, 3000);
}

TEST_F(NetworkFixture, PerSourceLinkSerializes) {
  std::vector<std::int64_t> deliveries;
  set_sink([&](NodeId, Packet) { deliveries.push_back(engine_.now().ns); });
  transmit(0, make_event_packet(1));
  transmit(0, make_event_packet(2));
  engine_.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 3000);
  EXPECT_EQ(deliveries[1], 4000);  // second waited for the link
}

TEST_F(NetworkFixture, DistinctSourcesDoNotContend) {
  std::vector<std::int64_t> deliveries;
  set_sink([&](NodeId, Packet) { deliveries.push_back(engine_.now().ns); });
  transmit(0, make_event_packet(2));
  transmit(1, make_event_packet(2));
  engine_.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 3000);
  EXPECT_EQ(deliveries[1], 3000);  // parallel links
}

TEST_F(NetworkFixture, LinkFreeCallbackFiresAtSerializeEnd) {
  set_sink([](NodeId, Packet) {});
  transmit(0, make_event_packet(1));
  transmit(0, make_event_packet(2), /*host_pkt=*/false);
  transmit(1, make_event_packet(2));  // link 1 has no client
  engine_.run();
  // Each before the latency portion; the second waited for the first.
  EXPECT_EQ(link0_.at, (std::vector<std::int64_t>{1000, 2000}));
  EXPECT_EQ(link0_.host, (std::vector<bool>{true, false}));
}

TEST_F(NetworkFixture, ChannelFifoPreserved) {
  std::vector<int> order;
  set_sink([&](NodeId, Packet p) { order.push_back(static_cast<int>(p.app[0])); });
  for (int i = 0; i < 5; ++i) {
    Packet p = make_event_packet(1, 64);
    p.app = {i};
    transmit(0, std::move(p));
  }
  engine_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(net_.packets_delivered(), 5u);
  EXPECT_EQ(stats_.value("net.packets"), 5);
  EXPECT_EQ(stats_.value("net.bytes"), 5 * 64);
}

// ---------------------------------------------------------------------------
// Cluster / Node / Nic end-to-end paths
// ---------------------------------------------------------------------------

class ClusterFixture : public ::testing::Test {
 protected:
  ClusterFixture()
      : cluster_(test_cost(), 2,
                 [](NodeId) { return std::make_unique<BaselineFirmware>(); }, 1) {}
  Cluster cluster_;
};

TEST_F(ClusterFixture, HostToHostPacketDelivery) {
  std::vector<Packet> received;
  cluster_.node(1).set_raw_rx(
      [&](PacketRef ref) { received.push_back(cluster_.pool().take(ref)); });
  cluster_.node(0).set_raw_rx([](PacketRef) { FAIL() << "wrong node"; });

  Packet p = make_event_packet(1);
  p.hdr.src = 0;
  p.app = {42};
  cluster_.node(0).dma_to_nic(std::move(p));
  cluster_.run();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].app.at(0), 42);
  // Path: bus (2000) + nic hook (1000) + wire (1000+2000) + nic hook (1000)
  // + bus (2000) + host recv task (5000) = 14000 ns.
  EXPECT_EQ(cluster_.engine().now().ns, 14000);
}

TEST_F(ClusterFixture, SendRingBackpressure) {
  Nic& nic = cluster_.node(0).nic();
  EXPECT_TRUE(nic.tx_slot_available());
  nic.reserve_tx_slot();
  nic.reserve_tx_slot();  // capacity is 2 in test_cost()
  EXPECT_FALSE(nic.tx_slot_available());
}

TEST_F(ClusterFixture, SlotFreedAfterWireDrain) {
  cluster_.node(1).set_raw_rx([&](PacketRef ref) { cluster_.pool().release(ref); });
  int freed = 0;
  cluster_.node(0).set_tx_ready_cb([&] { ++freed; });
  cluster_.node(0).dma_to_nic(make_event_packet(1));
  cluster_.node(0).dma_to_nic(make_event_packet(1));
  cluster_.run();
  EXPECT_EQ(freed, 2);
  EXPECT_EQ(cluster_.node(0).nic().slots_in_use(), 0u);
}

TEST_F(ClusterFixture, HostRecvCostDependsOnKind) {
  const Node& n = const_cast<Cluster&>(cluster_).node(0);
  Packet ev = make_event_packet(1);
  Packet tok;
  tok.hdr.kind = PacketKind::kHostGvtToken;
  EXPECT_EQ(const_cast<Node&>(n).host_recv_cost(ev).ns,
            test_cost().us(test_cost().host_msg_recv_us).ns);
  EXPECT_EQ(const_cast<Node&>(n).host_recv_cost(tok).ns,
            test_cost().us(test_cost().host_gvt_ctrl_us).ns);
}

TEST_F(ClusterFixture, PerNodeRngStreamsDifferButAreReproducible) {
  const std::uint64_t a0 = cluster_.node_rng(0).next_u64();
  const std::uint64_t b0 = cluster_.node_rng(1).next_u64();
  EXPECT_NE(a0, b0);
  Cluster fresh(test_cost(), 2,
                [](NodeId) { return std::make_unique<BaselineFirmware>(); }, 1);
  EXPECT_EQ(fresh.node_rng(0).next_u64(), a0);
}

// A firmware that drops every outbound event, to exercise the drop path.
class DropAllFirmware : public Firmware {
 public:
  HookResult on_host_tx(Packet& pkt) override {
    if (pkt.hdr.kind == PacketKind::kEvent) return {Action::kDrop, SimTime::from_ns(10)};
    return {Action::kForward, SimTime::from_ns(10)};
  }
  SimTime on_wire_tx(Packet&) override { return SimTime::zero(); }
  HookResult on_net_rx(Packet&) override { return {Action::kForward, SimTime::zero()}; }
};

TEST(NicFirmwareTest, HostTxDropFreesSlotAndSendsNothing) {
  Cluster cluster(test_cost(), 2,
                  [](NodeId) { return std::make_unique<DropAllFirmware>(); }, 1);
  bool received = false;
  cluster.node(1).set_raw_rx([&](PacketRef ref) {
    cluster.pool().release(ref);
    received = true;
  });
  int freed = 0;
  cluster.node(0).set_tx_ready_cb([&] { ++freed; });
  cluster.node(0).dma_to_nic(make_event_packet(1));
  cluster.run();
  EXPECT_FALSE(received);
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(cluster.stats().value("net.packets"), 0);
}

// A firmware that consumes incoming packets on the NIC (never reaches host).
class ConsumeRxFirmware : public BaselineFirmware {
 public:
  HookResult on_net_rx(Packet&) override { return {Action::kConsume, SimTime::from_ns(5)}; }
};

TEST(NicFirmwareTest, NetRxConsumeSavesBusAndHost) {
  Cluster cluster(test_cost(), 2,
                  [](NodeId) { return std::make_unique<ConsumeRxFirmware>(); }, 1);
  bool received = false;
  cluster.node(1).set_raw_rx([&](PacketRef ref) {
    cluster.pool().release(ref);
    received = true;
  });
  cluster.node(0).dma_to_nic(make_event_packet(1));
  cluster.run();
  EXPECT_FALSE(received);
  EXPECT_EQ(cluster.stats().value("net.packets"), 1);  // it did cross the wire
  // Receiver's bus never moved (only the sender's tx DMA ran).
  EXPECT_EQ(cluster.stats().value("bus1.jobs"), 0);
}

// Emitted NIC control packets take priority and bypass host slots.
class EmitterFirmware : public BaselineFirmware {
 public:
  void attach(NicContext& ctx) override {
    Firmware::attach(ctx);
    if (ctx.node_id() == 0) {
      ctx.schedule(SimTime::from_ns(100), [this] {
        Packet tok;
        tok.hdr.kind = PacketKind::kNicGvtToken;
        tok.hdr.dst = 1;
        tok.hdr.size_bytes = 64;
        ctx_->emit(std::move(tok));
        return SimTime::from_ns(1);
      });
    }
  }
  HookResult on_net_rx(Packet& pkt) override {
    if (pkt.hdr.kind == PacketKind::kNicGvtToken) {
      ctx_->stats().counter("test.tokens_seen").add(1);
      return {Action::kConsume, SimTime::zero()};
    }
    return BaselineFirmware::on_net_rx(pkt);
  }
};

TEST(NicFirmwareTest, EmittedControlTrafficFlowsNicToNic) {
  Cluster cluster(test_cost(), 2,
                  [](NodeId) { return std::make_unique<EmitterFirmware>(); }, 1);
  cluster.node(1).set_raw_rx(
      [](PacketRef) { FAIL() << "token must be consumed on the NIC"; });
  cluster.run();
  EXPECT_EQ(cluster.stats().value("test.tokens_seen"), 1);
  EXPECT_EQ(cluster.stats().value("nic.emitted"), 1);
  // No host CPU was involved anywhere.
  EXPECT_EQ(cluster.stats().value("host0.cpu.jobs"), 0);
  EXPECT_EQ(cluster.stats().value("host1.cpu.jobs"), 0);
}

}  // namespace
}  // namespace nicwarp::hw

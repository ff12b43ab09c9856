// pGVT-style acknowledgement-based GVT (WARPED's second algorithm; the
// paper uses Mattern because pGVT "has a higher overhead" — ablation A4
// quantifies that).
//
// Every remote event message (positive or anti) is acknowledged by the
// receiving CM with a small kAck control packet. Each LP keeps
//  * the set of unacknowledged sends (their min recv_ts bounds in-flight
//    messages), and
//  * a low-water mark of every timestamp it saw since its last report
//    (bounds rollback-induced LVT regression between reports).
// A manager at LP0 periodically broadcasts a report request; GVT is the min
// over all fresh reports and is broadcast back.
#pragma once

#include <map>
#include <set>
#include <unordered_map>

#include "warped/gvt_manager.hpp"

namespace nicwarp::warped {

struct PGvtOptions {
  std::int64_t period = 100;
  double idle_initiate_us = 300.0;
};

class PGvtManager final : public GvtManager {
 public:
  explicit PGvtManager(PGvtOptions opts) : opts_(opts) {}

  void attach(KernelApi& api) override;
  void start() override;
  void on_event_processed() override;
  void stamp_outgoing(hw::PacketHeader& hdr) override;
  void on_event_received(const hw::PacketHeader& hdr) override;
  void on_control(const hw::Packet& pkt) override;
  void on_nic_drop(const hw::DropNotice& n) override;
  void idle_poll() override;

  std::size_t unacked() const { return outstanding_.size(); }

  // One (event id, negative) key can cover several in-flight copies: after a
  // rollback the kernel re-sends the same event id while the original copy
  // (or its anti) may still be unacknowledged. The entry therefore counts
  // copies; it pins the GVT floor until *every* copy is acked or reported
  // dropped by the NIC. A plain set here is the classic silent bug: the
  // first ack would release the timestamp while a copy is still in flight.
  struct Pending {
    std::int64_t copies{0};
    VirtualTime ts{VirtualTime::inf()};
  };

 private:
  static std::uint64_t key(EventId id, bool negative) {
    return (id << 1) | (negative ? 1u : 0u);
  }
  bool is_root() const { return api_->rank() == 0; }
  void maybe_initiate(bool force);
  VirtualTime local_report();
  void send_ack(const hw::PacketHeader& hdr);

  PGvtOptions opts_;

  void release_outstanding(std::uint64_t k);

  std::unordered_map<std::uint64_t, Pending> outstanding_;  // unacked sends
  VirtualTime low_water_{VirtualTime::inf()};  // since last report

  // Root gather state.
  bool gathering_{false};
  std::uint64_t gather_epoch_{0};
  std::set<NodeId> reporters_;  // nodes whose report for gather_epoch_ arrived
  VirtualTime gather_min_{VirtualTime::inf()};
  std::int64_t events_at_last_init_{0};
  SimTime last_completion_{SimTime::zero()};

  CounterHandle estimations_;  // gvt.*, one handle per counter name
  CounterHandle rounds_;
  CounterHandle acks_;
};

}  // namespace nicwarp::warped

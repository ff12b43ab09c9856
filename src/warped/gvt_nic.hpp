// Host half of the paper's NIC-level GVT (§3.1).
//
// Everything token-related lives in firmware::GvtFirmware on the NIC; the
// host's only jobs are the ones Figure 2 of the paper assigns it:
//  * keep the NIC's events_processed hint fresh (done by the Kernel);
//  * answer the NIC's handshake request with T (the host's safe local
//    minimum), preferably by piggybacking on the next outgoing event message
//    ("encodes the values ... in four unused fields in the Basic Event
//    Message"), else by a dedicated mailbox write after a short window;
//  * adopt new GVT values the NIC reports.
//
// Consistency: the host answers only after the NIC's *request notification
// packet* arrives — that packet travels the same FIFO rx path as event
// traffic, so by reply time every event message the NIC had already received
// at the wire is inserted in the LP and reflected in the reply's T. This
// FIFO barrier is the model's version of the paper's "handshaking is carried
// out to enforce consistency".
#pragma once

#include "warped/gvt_manager.hpp"

namespace nicwarp::warped {

struct NicGvtHostOptions {
  // How long to wait for an outgoing event to carry the handshake reply
  // before paying for a dedicated mailbox write.
  double piggyback_window_us = 25.0;
  bool piggyback = true;  // ablation A1: always use the dedicated write
};

class NicGvtManager final : public GvtManager {
 public:
  explicit NicGvtManager(NicGvtHostOptions opts) : opts_(opts) {}

  void attach(KernelApi& api) override;
  void stamp_outgoing(hw::PacketHeader& hdr) override;
  void on_control(const hw::Packet& pkt) override;
  void idle_poll() override;

 private:
  void answer_by_mailbox_write();
  VirtualTime host_t() const { return api_->safe_local_min(); }

  NicGvtHostOptions opts_;
  bool request_pending_{false};   // notification received, reply not yet sent
  std::uint64_t request_epoch_{0};
  bool reply_timer_armed_{false};

  CounterHandle handshake_piggybacked_;  // gvt.*, one handle per counter name
  CounterHandle handshake_mailbox_;
};

}  // namespace nicwarp::warped

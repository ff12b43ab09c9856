#include "warped/gvt_nic.hpp"

namespace nicwarp::warped {

void NicGvtManager::attach(KernelApi& api) {
  GvtManager::attach(api);
  handshake_piggybacked_ = CounterHandle(api.stats(), "gvt.handshake_piggybacked");
  handshake_mailbox_ = CounterHandle(api.stats(), "gvt.handshake_mailbox");
}

void NicGvtManager::stamp_outgoing(hw::PacketHeader& hdr) {
  if (hdr.kind != hw::PacketKind::kEvent) return;
  if (opts_.piggyback && request_pending_) {
    // Free ride: the reply travels in the event message's unused fields and
    // the NIC strips it in its on_host_tx hook.
    hdr.gvt_handshake = true;
    hdr.gvt.epoch = request_epoch_;
    hdr.gvt.t = host_t();
    request_pending_ = false;
    api_->mailbox().handshake_requested = false;
    handshake_piggybacked_.add(1);
  }
}

void NicGvtManager::on_control(const hw::Packet& pkt) {
  switch (pkt.hdr.kind) {
    case hw::PacketKind::kNicGvtToken: {
      // The NIC asked for host values ("ControlMessagePending"). Thanks to
      // the FIFO rx path, every event the NIC received before asking is
      // already inserted in the LP. Wait briefly for a piggyback
      // opportunity, then fall back to a dedicated mailbox write.
      request_pending_ = true;
      request_epoch_ = pkt.hdr.gvt.epoch;
      if (!opts_.piggyback) {
        answer_by_mailbox_write();
        return;
      }
      if (!reply_timer_armed_) {
        reply_timer_armed_ = true;
        api_->schedule(SimTime::from_us(opts_.piggyback_window_us), [this] {
          reply_timer_armed_ = false;
          if (request_pending_) answer_by_mailbox_write();
        });
      }
      return;
    }
    case hw::PacketKind::kGvtBroadcast:
      // The NIC already wrote the value to the mailbox.
      publish_gvt(api_->mailbox().gvt);
      return;
    default:
      return;
  }
}

void NicGvtManager::idle_poll() {
  // Adopt any GVT the NIC published while we were not looking.
  if (api_->mailbox().gvt > gvt()) publish_gvt(api_->mailbox().gvt);
}

void NicGvtManager::answer_by_mailbox_write() {
  api_->run_host_task(api_->cost().us(api_->cost().host_mailbox_write_us), [this] {
    if (!request_pending_) return;  // a piggyback beat us to it
    hw::Mailbox& mb = api_->mailbox();
    mb.host_values.valid = true;
    mb.host_values.epoch = request_epoch_;
    mb.host_values.lvt = host_t();
    mb.host_values.white_delta = 0;            // wire-level counting owns V
    mb.host_values.tmin = VirtualTime::inf();  // wire-level coloring owns Tmin
    request_pending_ = false;
    mb.handshake_requested = false;
    handshake_mailbox_.add(1);
  });
}

}  // namespace nicwarp::warped

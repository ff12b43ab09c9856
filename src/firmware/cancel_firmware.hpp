// Early message cancellation on the NIC (§3.2 of the paper).
//
// When an anti-message for object O (receive timestamp ta) passes through
// the NIC on its way up to the host, any *positive* event message from O
// still sitting in the send ring with send_ts > ta — and generated before
// the host processed that anti (decided by the piggybacked per-object
// anti counter) — is dropped in place: it is doomed to be cancelled anyway,
// so dropping saves its wire/bus/host costs, its eventual anti-message, and
// the rollback it would have caused at the destination.
//
// Bookkeeping shared with the host (the paper's 10-entry per-object rings):
//  * dropped positive ids go into mailbox.dropped_ids[O] so the host
//    suppresses the matching anti-message at rollback time;
//  * anti-messages the host already emitted before noticing are filtered
//    here (on_host_tx / ring scan) — FIFO ordering guarantees such an anti
//    is always behind its positive, never past it;
//  * every drop/filter is also appended to mailbox.drop_notices so the
//    host-side GVT accounting (Mattern's white counts, pGVT's pending acks)
//    stays sound;
//  * per-destination drop counts are stamped into `dropped_pb` on the next
//    departing packet (receivers also detect the BIP sequence gap — §3.2's
//    credit-repair fix).
//
// Safety valves: if a per-object ring or the notice queue is full, or the
// per-object anti-record table overflows, the firmware simply stops dropping
// (correctness never depends on a drop happening).
#pragma once

#include <unordered_map>
#include <vector>

#include "hw/firmware.hpp"

namespace nicwarp::firmware {

struct CancelFirmwareOptions {
  std::size_t max_anti_records_per_object = 32;
  // Match the kernel's rollback scope. When true (LP-wide rollback, the
  // paper's Fig. 3b semantics), an anti's timestamp dooms queued positives
  // from ANY object on this node; when false, only those from the anti's
  // destination object.
  bool lp_scope = true;
};

class CancelFirmware : public hw::Firmware {
 public:
  explicit CancelFirmware(CancelFirmwareOptions opts = {}) : opts_(opts) {}

  void attach(hw::NicContext& ctx) override;
  HookResult on_host_tx(hw::Packet& pkt) override;
  SimTime on_wire_tx(hw::Packet& pkt) override;
  HookResult on_net_rx(hw::Packet& pkt) override;

 private:
  struct AntiRecord {
    VirtualTime ta;    // the anti's receive timestamp
    std::uint64_t k;   // host anti-counter value once the host processes it
    EventId anti_id{kInvalidEvent};  // the anti itself (drop attribution)
  };

  // Record-table key under the configured scope.
  ObjectId record_key(ObjectId obj) const;
  // True if `hdr` (a positive, not yet on the wire) is doomed; on a match
  // `cause` receives the dooming anti's id.
  bool doomed(const hw::PacketHeader& hdr, EventId* cause) const;
  // Records a drop in the shared structures; returns false (and undoes
  // nothing) when shared space is exhausted — caller must then not drop.
  bool record_drop(const hw::PacketHeader& hdr, EventId cause_anti);
  void prune_records(ObjectId obj, std::uint64_t host_counter);
  SimTime scan_send_ring();

  CancelFirmwareOptions opts_;
  // Destination objects living on this node, with pending anti records.
  std::unordered_map<ObjectId, std::vector<AntiRecord>> records_;
  // Count of antis forwarded to the host per local destination object.
  std::unordered_map<ObjectId, std::uint64_t> antis_delivered_;
  // Per-destination-node drop counts awaiting a dropped_pb ride.
  std::unordered_map<NodeId, std::uint32_t> pending_dropped_pb_;

  CounterHandle dropped_positive_;  // cancel.*, one handle per counter name
  CounterHandle filtered_anti_;
  CounterHandle record_overflow_;
};

}  // namespace nicwarp::firmware

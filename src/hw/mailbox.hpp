// The "global buffer shared between the host and the NIC" (§3.1).
//
// On the real hardware this is a region of NIC SRAM mapped into the host's
// address space. Both sides read and write it without synchronization, which
// is exactly the consistency hazard the paper discusses: a value the NIC
// reads may be stale with respect to in-flight host work, and vice versa.
// In the model, staleness arises naturally because the host only touches the
// mailbox inside host-CPU tasks and the NIC inside NIC-CPU jobs, which are
// serialized at different simulated instants.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "core/flat_ring.hpp"
#include "core/types.hpp"

namespace nicwarp::hw {

// Host -> NIC GVT handshake payload: the values the host encodes "in four
// unused fields in the Basic Event Message" when the NIC requests them.
struct HostGvtValues {
  bool valid{false};
  std::uint64_t epoch{0};
  std::int64_t white_delta{0};          // V contribution from the host side
  VirtualTime tmin{VirtualTime::inf()}; // min ts of outgoing RED messages
  VirtualTime lvt{VirtualTime::inf()};  // host LVT
};

// Record of a packet the NIC dropped in place (or an anti-message it
// filtered). The host drains these to keep its own accounting sound: the
// Mattern manager un-counts the colored send, pGVT clears the pending
// acknowledgement, and the kernel's statistics stay truthful.
struct DropNotice {
  EventId id{kInvalidEvent};
  ObjectId src_obj{kInvalidObject};
  NodeId dst{kInvalidNode};
  std::uint32_t color_epoch{0};
  VirtualTime recv_ts{VirtualTime::zero()};
  bool negative{false};
  // For a dropped positive: the anti-message whose NIC arrival doomed it
  // (the profiler's causal edge). kInvalidEvent when unknown; always
  // kInvalidEvent for filtered antis (they are their own cause).
  EventId cause_anti{kInvalidEvent};
};

struct Mailbox {
  // --- initialization (host writes once at startup) ---
  bool timewarp_initialised{false};  // paper: TimewarpInitialised
  std::uint32_t rank{0};
  std::uint32_t world_size{0};

  // --- liveness hints (host writes, NIC polls) ---
  std::int64_t events_processed{0};  // gates GVT initiation at the root NIC

  // --- GVT handshake (paper: ControlMessagePending / ReceivedHostVariables) ---
  bool handshake_requested{false};   // NIC sets; host clears when answering
  std::uint64_t handshake_epoch{0};  // NIC sets; host echoes in its reply
  HostGvtValues host_values{};       // host writes; NIC consumes (clears valid)

  // --- GVT result (NIC writes, host reads) ---
  VirtualTime gvt{VirtualTime::zero()};
  std::uint64_t gvt_epoch{0};

  // --- early cancellation: dropped-event-ID buffers (§3.2) ---
  // "For every object on the LP we allocate a buffer of size 10 ... so that
  // it can be accessed by both the host and the NIC." NIC inserts the ids of
  // positive messages it drops; the host removes an id to suppress the
  // matching anti-message; the NIC also filters antis that raced past the
  // host's check. record_dropped enforces the size bound.
  std::unordered_map<ObjectId, FlatRing<EventId>> dropped_ids;

  // Accounting notices for every drop/filter (see DropNotice). New DROPS are
  // refused above the soft limit so that the matching anti FILTERS — which
  // cannot be refused without orphaning an anti on the wire — always find
  // room below the hard limit. Losing a filter notice would silently leak a
  // flow-control credit.
  static constexpr std::size_t kDropNoticeSoftLimit = 32768;
  static constexpr std::size_t kMaxDropNotices = 65536;
  std::deque<DropNotice> drop_notices;

  // Records `id` as dropped for `obj`, whose buffer holds `slots` ids.
  // Returns false, recording nothing, when that buffer is full.
  bool record_dropped(ObjectId obj, EventId id, std::int64_t slots) {
    const std::size_t cap = static_cast<std::size_t>(slots);
    auto [it, created] = dropped_ids.try_emplace(obj);
    if (created) it->second.reserve(cap);
    if (it->second.size() >= cap) return false;
    it->second.push_back(id);
    return true;
  }

  // Returns true (and removes the entry) if `id` is recorded as dropped for
  // `obj` — used by the host to suppress an anti-message, and by the NIC to
  // filter one that was already sent.
  bool take_dropped(ObjectId obj, EventId id) {
    auto it = dropped_ids.find(obj);
    if (it == dropped_ids.end()) return false;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (it->second.at(i) == id) {
        it->second.remove_at(i);
        return true;
      }
    }
    return false;
  }
};

}  // namespace nicwarp::hw

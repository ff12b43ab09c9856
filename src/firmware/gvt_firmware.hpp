// NIC-resident Mattern GVT (§3.1 of the paper).
//
// The whole token protocol runs on the NIC processor:
//  * message coloring and white counting happen at the *wire* (on_wire_tx /
//    on_net_rx), so NIC queues are accounted exactly;
//  * GVT tokens are NIC-generated: they never cross an I/O bus and never
//    cost host CPU. Where possible the token piggybacks on an outgoing
//    event message already headed for the next LP in the ring
//    ("opportunistically forwards the GVT information");
//  * the only host involvement per hop is the T handshake: the NIC sends a
//    notification up the FIFO rx path, and the host answers by piggybacking
//    T on its next outgoing event (or a cheap dedicated mailbox write).
//
// The price is a per-packet check on every message in both directions —
// the overhead visible on the right side of the paper's Figure 4.
#pragma once

#include <map>
#include <optional>

#include "hw/firmware.hpp"

namespace nicwarp::firmware {

struct GvtFirmwareOptions {
  std::int64_t period = 100;        // host events between initiations (root)
  double autonomy_us = 500.0;       // also initiate at least this often
  double poll_interval_us = 40.0;   // NIC housekeeping timer
  double poll_cost_us = 0.4;
  double piggyback_window_us = 30.0;  // wait for a ride before a wire token
  bool piggyback_tokens = true;       // ablation A1
};

class GvtFirmware : public hw::Firmware {
 public:
  explicit GvtFirmware(GvtFirmwareOptions opts) : opts_(opts) {}

  void attach(hw::NicContext& ctx) override;
  HookResult on_host_tx(hw::Packet& pkt) override;
  SimTime on_wire_tx(hw::Packet& pkt) override;
  HookResult on_net_rx(hw::Packet& pkt) override;

 private:
  bool is_root() const { return ctx_->node_id() == 0; }
  NodeId next_rank() const { return (ctx_->node_id() + 1) % ctx_->world_size(); }

  SimTime poll();
  SimTime maybe_initiate();
  SimTime initiate();  // unconditional part of maybe_initiate
  // Root, unreliable fabric only: abandon an estimation whose token went
  // missing and start a fresh epoch whose floor still covers the abandoned
  // colors (GVT delayed, never unsafe).
  SimTime maybe_regenerate();
  // Root, unreliable fabric only: re-announce the current GVT so a lost
  // broadcast cannot strand a node (matters for termination, when the root
  // stops right after publishing the final value).
  SimTime maybe_rebroadcast();
  // Token arrived (wire, piggybacked, or locally created at the root).
  SimTime handle_token(const hw::GvtFields& token);
  // Host reply (T) available for the held token.
  SimTime resolve_handshake(std::uint64_t epoch, VirtualTime host_t);
  // Contribution applied; move the token along (or judge it at the root).
  SimTime dispatch_token(hw::GvtFields token);
  void queue_outgoing(hw::GvtFields token);
  SimTime emit_wire_token();
  SimTime complete(VirtualTime gvt_value, std::uint32_t epoch);
  SimTime adopt_gvt(VirtualTime gvt_value, std::uint32_t epoch);

  GvtFirmwareOptions opts_;

  // Wire-level coloring state.
  std::uint32_t epoch_{0};
  std::map<std::uint32_t, std::int64_t> sent_;
  std::map<std::uint32_t, std::int64_t> received_;
  std::map<std::uint32_t, VirtualTime> tmin_sent_;
  std::uint32_t reporting_epoch_{0};
  std::int64_t reported_sent_{0};
  std::int64_t reported_recv_{0};

  // Token in flight through this NIC.
  std::optional<hw::GvtFields> held_token_;  // waiting for the host handshake
  std::optional<hw::GvtFields> out_token_;   // waiting for a piggyback ride
  NodeId out_dst_{kInvalidNode};
  SimTime out_deadline_{SimTime::zero()};
  SimTime hold_start_{SimTime::zero()};  // custody start (heatmap attribution)

  // Heatmap: per-node token custody time (handle_token -> emission or
  // completion, simulated ns). No-op unless the EntityStats is enabled.
  void note_token_release();

  // Token-loss tolerance. (epoch, round) strictly increases at every NIC in
  // a healthy ring, so anything at or below the last handled pair is a
  // fabric duplicate or a zombie from an abandoned epoch: discard it.
  std::uint64_t last_handled_epoch_{0};
  std::int64_t last_handled_round_{-1};

  // Root estimation state.
  bool estimating_{false};
  std::int64_t events_base_{0};
  SimTime last_completion_{SimTime::zero()};
  std::uint32_t last_completed_epoch_{0};  // floor carried by the next token
  SimTime last_est_activity_{SimTime::zero()};  // token sightings at the root
  SimTime last_rebroadcast_{SimTime::zero()};

  CounterHandle estimations_;  // gvt.*, one handle per counter name
  CounterHandle rounds_;
  CounterHandle wire_tokens_;
  CounterHandle tokens_piggybacked_;
  CounterHandle tokens_stale_;
  CounterHandle token_regens_;
  CounterHandle rebroadcasts_;
};

}  // namespace nicwarp::firmware

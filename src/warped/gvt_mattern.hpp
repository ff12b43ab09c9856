// Host-resident Mattern GVT (the paper's baseline, WARPED's default).
//
// Generalized to epoch-numbered colors: estimation E treats messages colored
// E-1 as "white" and everything colored >= E as "red". The token makes
// counting circulations until the accumulated white count drains to zero,
// then the root broadcasts GVT = min(LVT samples, red-send minima).
//
// Crucially — and unlike the NIC firmware, whose GvtTokenPending flag
// serializes estimations — the host baseline initiates a new estimation
// every `period` events even while earlier tokens are still circulating
// (bounded by `max_outstanding`). At GVT_COUNT = 1 this floods the cluster
// with control messages, each costing host CPU on both ends plus two I/O-bus
// crossings: the storm behind the left side of the paper's Figures 4/5a and
// the ~450k-round curve of Figure 5b.
#pragma once

#include <set>
#include <vector>

#include "warped/gvt_manager.hpp"

namespace nicwarp::warped {

struct MatternOptions {
  std::int64_t period = 100;        // events between initiations (root)
  std::size_t max_outstanding = 64; // concurrent estimations cap
  double idle_initiate_us = 300.0;  // initiate when idle this long (root)
};

class MatternGvtManager final : public GvtManager {
 public:
  explicit MatternGvtManager(MatternOptions opts) : opts_(opts) {}

  void attach(KernelApi& api) override;
  void start() override;
  void on_event_processed() override;
  void stamp_outgoing(hw::PacketHeader& hdr) override;
  void on_event_received(const hw::PacketHeader& hdr) override;
  void on_control(const hw::Packet& pkt) override;
  void on_nic_drop(const hw::DropNotice& n) override;
  void idle_poll() override;

  std::size_t outstanding() const { return outstanding_.size(); }

 private:
  bool is_root() const { return api_->rank() == 0; }
  NodeId next_rank() const { return (api_->rank() + 1) % api_->world_size(); }
  void maybe_initiate();
  // Applies this LP's contribution for the token's estimation and forwards
  // it to the next LP in the ring.
  void contribute(hw::GvtFields& token);
  void forward(const hw::GvtFields& token, NodeId dst, hw::PacketKind kind);
  void complete(std::uint32_t epoch, VirtualTime gvt_value);
  VirtualTime red_min(std::uint32_t estimation_epoch) const;
  void prune_below(std::uint32_t epoch);

  // All per-color state for one epoch, packed into one cache line's worth
  // of fields instead of four node-based std::map entries. Colors are dense
  // consecutive integers, so the collection is a flat vector indexed by
  // (epoch - color_base_); prune_below slides color_base_ forward at round
  // completion, keeping the window bounded by max_outstanding + 2.
  struct ColorCell {
    std::int64_t sent{0};
    std::int64_t received{0};
    VirtualTime tmin_sent{VirtualTime::inf()};
    // Per-estimation incremental reporting: what this LP last told the
    // token whose estimation epoch maps to this cell.
    std::int64_t reported_sent{0};
    std::int64_t reported_recv{0};
  };

  // Mutable access to epoch's cell, growing the window as colors advance.
  ColorCell& cell(std::uint32_t epoch);
  // Read-only access; pruned or never-touched epochs read as a zero cell.
  const ColorCell& cell_at(std::uint32_t epoch) const;

  MatternOptions opts_;

  // Coloring state (current color = epoch_).
  std::uint32_t epoch_{0};
  std::uint32_t color_base_{0};     // epoch of colors_[0]
  std::vector<ColorCell> colors_;   // window [color_base_, color_base_+size)
  std::size_t color_peak_{0};       // high-water window size (gvt.color_map_peak)
  // Write sink for epochs already pruned (e.g. a packet whose color predates
  // the retained window landing late): the write is sound to discard — no
  // live estimation can read that color again — but callers still need an
  // lvalue. Zeroed on every handout.
  ColorCell scratch_;

  // Root-only state.
  std::set<std::uint32_t> outstanding_;  // estimation epochs in flight
  std::uint32_t last_epoch_started_{0};
  std::int64_t events_at_last_init_{0};
  SimTime last_completion_{SimTime::zero()};

  CounterHandle estimations_;  // gvt.*, one handle per counter name
  CounterHandle rounds_;
  CounterHandle color_map_peak_;
};

}  // namespace nicwarp::warped

// Shared packet slab with generation-checked references.
//
// Every packet that crosses the simulated datapath (host comm -> NIC ring ->
// wire -> reliability -> delivery) lives in one slot of this pool; the layers
// hand each other 8-byte PacketRefs instead of copying ~100-byte Packets
// through four layers of deques. Slots are allocated from chunked slabs so a
// Packet& obtained from get() stays valid across later acquires — firmware
// hooks hold a reference into the pool while calling NicContext::emit(),
// which may grow it.
//
// Refs carry a generation stamp: releasing a slot bumps its generation, so a
// stale ref held across slot reuse is caught by NW_CHECK instead of silently
// aliasing another packet. release() clears the header but keeps the payload
// vector's capacity — after warm-up the datapath allocates nothing per
// packet, which is the point (cf. ROSS's pooled event memory).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/assert.hpp"
#include "hw/packet.hpp"

namespace nicwarp::hw {

struct PacketRef {
  static constexpr std::uint32_t kNullIdx = 0xFFFFFFFFu;
  std::uint32_t idx{kNullIdx};
  std::uint32_t gen{0};

  bool is_null() const { return idx == kNullIdx; }
  explicit operator bool() const { return idx != kNullIdx; }

  // The 64-bit argument of an engine task or server job: (gen << 32) | idx.
  std::uint64_t bits() const { return (std::uint64_t{gen} << 32) | idx; }
  static PacketRef from_bits(std::uint64_t b) {
    return PacketRef{static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(b >> 32)};
  }
  friend bool operator==(PacketRef a, PacketRef b) {
    return a.idx == b.idx && a.gen == b.gen;
  }
};

class PacketPool {
 public:
  // max_slots == 0 means unbounded (the slab grows on demand); a nonzero cap
  // makes try_acquire() return a null ref once `live() == max_slots`.
  explicit PacketPool(std::size_t max_slots = 0) : max_slots_(max_slots) {}

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  PacketRef acquire() {
    PacketRef ref = try_acquire();
    NW_CHECK_MSG(!ref.is_null(), "packet pool exhausted");
    return ref;
  }

  PacketRef acquire(Packet&& init) {
    PacketRef ref = acquire();
    slot(ref.idx).pkt = std::move(init);
    return ref;
  }

  PacketRef try_acquire() {
    if (free_head_ == PacketRef::kNullIdx) {
      if (max_slots_ != 0 && slots_ >= max_slots_) return PacketRef{};
      grow();
    }
    const std::uint32_t idx = free_head_;
    Slot& s = slot(idx);
    free_head_ = s.next_free;
    s.live = true;
    ++live_;
    if (live_ > peak_) peak_ = live_;
    return PacketRef{idx, s.gen};
  }

  // Deep copy src into a fresh slot. Chunked slabs keep src's address stable
  // across the acquire even when it grows the pool.
  PacketRef clone(PacketRef src) {
    const Packet& from = get(src);
    PacketRef ref = acquire();
    Packet& to = slot(ref.idx).pkt;
    to.hdr = from.hdr;
    to.app = from.app;  // assignment reuses the slot's existing capacity
    return ref;
  }

  Packet& get(PacketRef ref) {
    Slot& s = checked_slot(ref);
    return s.pkt;
  }
  const Packet& get(PacketRef ref) const {
    const Slot& s = checked_slot(ref);
    return s.pkt;
  }

  bool alive(PacketRef ref) const {
    if (ref.idx >= slots_) return false;
    const Slot& s = slot(ref.idx);
    return s.live && s.gen == ref.gen;
  }

  // Moves the packet out and releases the slot — the boundary call for
  // handing a value-typed Packet to code outside the pooled datapath
  // (host delivery callbacks, firmware-facing APIs).
  Packet take(PacketRef ref) {
    Slot& s = checked_slot(ref);
    Packet out;
    out.hdr = s.pkt.hdr;
    out.app.swap(s.pkt.app);
    do_release(ref.idx, s);
    return out;
  }

  void release(PacketRef ref) { do_release(ref.idx, checked_slot(ref)); }

  std::size_t live() const { return live_; }
  std::size_t peak() const { return peak_; }
  std::size_t slots() const { return slots_; }

 private:
  // Chunked slab: chunk addresses never move, so Packet& stays valid while
  // the pool grows. 64 slots per chunk keeps the first allocation modest.
  static constexpr std::size_t kChunkSlots = 64;

  struct Slot {
    Packet pkt;
    std::uint32_t gen{1};
    std::uint32_t next_free{PacketRef::kNullIdx};
    bool live{false};
  };

  Slot& slot(std::uint32_t idx) {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }

  Slot& checked_slot(PacketRef ref) {
    NW_CHECK_MSG(ref.idx < slots_, "packet ref out of range");
    Slot& s = slot(ref.idx);
    NW_CHECK_MSG(s.live && s.gen == ref.gen, "stale packet ref");
    return s;
  }
  const Slot& checked_slot(PacketRef ref) const {
    NW_CHECK_MSG(ref.idx < slots_, "packet ref out of range");
    const Slot& s = slot(ref.idx);
    NW_CHECK_MSG(s.live && s.gen == ref.gen, "stale packet ref");
    return s;
  }

  void do_release(std::uint32_t idx, Slot& s) {
    s.pkt.hdr = PacketHeader{};
    s.pkt.app.clear();  // keeps capacity: the slot's payload buffer is the win
    ++s.gen;
    s.live = false;
    s.next_free = free_head_;
    free_head_ = idx;
    --live_;
  }

  void grow() {
    std::size_t add = kChunkSlots;
    if (max_slots_ != 0 && slots_ + add > max_slots_) add = max_slots_ - slots_;
    NW_CHECK(add > 0);
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    // Thread the new slots onto the freelist newest-first so the lowest index
    // is handed out first (keeps ref indices dense and runs deterministic).
    for (std::size_t i = add; i > 0; --i) {
      const auto idx = static_cast<std::uint32_t>(slots_ + i - 1);
      Slot& s = slot(idx);
      s.next_free = free_head_;
      free_head_ = idx;
    }
    slots_ += add;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t max_slots_{0};
  std::size_t slots_{0};
  std::size_t live_{0};
  std::size_t peak_{0};
  std::uint32_t free_head_{PacketRef::kNullIdx};
};

}  // namespace nicwarp::hw

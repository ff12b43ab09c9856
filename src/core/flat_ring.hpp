// Growable circular buffer, the one ring type of the comm/NIC datapath and
// the server job queues.
//
// One contiguous power-of-two array, indices masked, geometric growth, so
// steady-state push/pop touch no allocator at all (std::deque allocates and
// frees map nodes as the queue breathes). The ring itself never refuses a
// push: the bounded NIC SRAM structures (the send ring, the 10-entry
// per-object dropped-event-ID buffers of the paper's §3.2) reserve their
// capacity up front and their owners enforce the bound, because overflow
// there is a protocol condition the firmware must handle.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/assert.hpp"

namespace nicwarp {

template <typename T>
class FlatRing {
 public:
  FlatRing() = default;

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask_] = std::move(v);
    ++size_;
  }

  // Pops the oldest element. Precondition: !empty().
  T pop_front() {
    NW_CHECK(size_ > 0);
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return v;
  }

  const T& front() const {
    NW_CHECK(size_ > 0);
    return buf_[head_];
  }
  T& front() {
    NW_CHECK(size_ > 0);
    return buf_[head_];
  }

  // Indexed access, 0 == oldest. Precondition: i < size().
  const T& at(std::size_t i) const {
    NW_CHECK(i < size_);
    return buf_[(head_ + i) & mask_];
  }
  T& at(std::size_t i) {
    NW_CHECK(i < size_);
    return buf_[(head_ + i) & mask_];
  }

  // Inserts before logical index i (i == size() appends), preserving order.
  // O(n) shift; used only for the reliability layer's sorted void lists,
  // which are short by construction.
  void insert_at(std::size_t i, T v) {
    NW_CHECK(i <= size_);
    push_back(std::move(v));
    for (std::size_t j = size_ - 1; j > i; --j) {
      std::swap(at(j - 1), at(j));
    }
  }

  // Removes the element at logical index i (0 == oldest), preserving order.
  T remove_at(std::size_t i) {
    NW_CHECK(i < size_);
    T out = std::move(at(i));
    for (std::size_t j = i; j + 1 < size_; ++j) at(j) = std::move(at(j + 1));
    --size_;
    return out;
  }

  void reserve(std::size_t n) {
    if (n > buf_.size()) regrow(round_up(n));
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  static std::size_t round_up(std::size_t n) {
    std::size_t c = 8;
    while (c < n) c <<= 1;
    return c;
  }

  void grow() { regrow(buf_.empty() ? 8 : buf_.size() * 2); }

  void regrow(std::size_t new_cap) {
    std::vector<T> nb(new_cap);
    for (std::size_t i = 0; i < size_; ++i) nb[i] = std::move(at(i));
    buf_.swap(nb);
    head_ = 0;
    mask_ = buf_.size() - 1;
  }

  std::vector<T> buf_;
  std::size_t head_{0};
  std::size_t size_{0};
  std::size_t mask_{0};
};

}  // namespace nicwarp

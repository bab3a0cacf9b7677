// Fixed-capacity byte ring for per-connection send queues.
//
// The TCP backend parks unsendable bytes here instead of growing an
// unbounded vector: write() is all-or-nothing, so the moment a peer stops
// draining, send attempts start failing and the caller (the transport)
// surfaces backpressure instead of buffering toward OOM. peek()/consume()
// expose the longest contiguous run so the socket path can hand memory
// straight to send() without copying out.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace fedbiad::transport {

class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : data_(capacity) {
    FEDBIAD_CHECK(capacity > 0, "ring buffer capacity must be positive");
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t free_space() const noexcept {
    return data_.size() - size_;
  }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Appends all of `bytes` or nothing. Returns false (and leaves the ring
  /// untouched) when free_space() is insufficient — the backpressure signal.
  /// At most two memcpys: one up to the end of the storage, one for the
  /// wrapped rest at its start.
  bool write(std::span<const std::uint8_t> bytes) {
    if (bytes.size() > free_space()) return false;
    if (bytes.empty()) return true;  // an empty span may carry a null data()
    const std::size_t tail = (head_ + size_) % data_.size();
    const std::size_t first = std::min(bytes.size(), data_.size() - tail);
    std::memcpy(data_.data() + tail, bytes.data(), first);
    std::memcpy(data_.data(), bytes.data() + first, bytes.size() - first);
    size_ += bytes.size();
    return true;
  }

  /// Longest contiguous readable run starting at the head (empty span when
  /// the ring is empty). After the caller ships some prefix of it, call
  /// consume() with the shipped byte count; the next peek() exposes the
  /// wrapped remainder.
  [[nodiscard]] std::span<const std::uint8_t> peek() const noexcept {
    if (size_ == 0) return {};
    const std::size_t run = std::min(size_, data_.size() - head_);
    return {data_.data() + head_, run};
  }

  /// Discards `n` bytes from the head (n <= size()).
  void consume(std::size_t n) {
    FEDBIAD_CHECK(n <= size_, "ring buffer consume past contents");
    head_ = (head_ + n) % data_.size();
    size_ -= n;
    if (size_ == 0) head_ = 0;
  }

 private:
  std::vector<std::uint8_t> data_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fedbiad::transport

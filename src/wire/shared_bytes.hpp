// An immutable byte range that shares its storage.
//
// The receive path hands bytes on without copying them. The buffer a socket
// read or a loopback delivery lands in becomes the storage, and every later
// stage holds a slice of it: the frame body (transport::FrameBody), an
// Upload's payload (wire::Payload::bytes) and a Dispatch's broadcast. The
// storage lives until its last slice is destroyed. Copying a SharedBytes
// copies a reference, not the bytes, and nothing writes through one, so a
// slice handed to another thread reads without further locking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace fedbiad::wire {

class SharedBytes {
 public:
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t*;
  using iterator = const_iterator;

  SharedBytes() = default;

  /// Takes `bytes` over as the storage; nothing is copied. Implicit, so an
  /// encoder's freshly built vector assigns straight into a payload.
  SharedBytes(std::vector<std::uint8_t>&& bytes);

  /// The `size` bytes at `data`, inside storage that `owner` keeps alive.
  SharedBytes(std::shared_ptr<const void> owner, const std::uint8_t* data,
              std::size_t size) noexcept
      : owner_(std::move(owner)), data_(data), size_(size) {}

  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept {
    return data_[i];
  }

  /// The `count` bytes at `offset`, sharing this range's storage. Throws
  /// CheckError when they do not lie inside this range.
  [[nodiscard]] SharedBytes slice(std::size_t offset, std::size_t count) const;

  /// The bytes as a vector the caller owns and may edit: the adopted vector
  /// itself when this range is its only holder and spans all of it (so
  /// sealing a payload appends in place), a copy otherwise. Leaves this
  /// range empty.
  [[nodiscard]] std::vector<std::uint8_t> release() &&;

  [[nodiscard]] bool operator==(const SharedBytes& other) const noexcept;
  [[nodiscard]] bool operator==(
      const std::vector<std::uint8_t>& bytes) const noexcept;

 private:
  std::shared_ptr<const void> owner_;
  /// owner_'s vector when the storage was adopted from one; release()
  /// moves it out rather than copying.
  std::vector<std::uint8_t>* adopted_ = nullptr;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

static_assert(
    std::is_convertible_v<const SharedBytes&, std::span<const std::uint8_t>>);

}  // namespace fedbiad::wire

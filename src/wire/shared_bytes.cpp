#include "wire/shared_bytes.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace fedbiad::wire {

SharedBytes::SharedBytes(std::vector<std::uint8_t>&& bytes) {
  if (bytes.capacity() == 0) return;  // nothing to own
  auto storage = std::make_shared<std::vector<std::uint8_t>>(std::move(bytes));
  adopted_ = storage.get();
  data_ = storage->data();
  size_ = storage->size();
  owner_ = std::move(storage);
}

SharedBytes SharedBytes::slice(std::size_t offset, std::size_t count) const {
  FEDBIAD_CHECK(offset <= size_ && count <= size_ - offset,
                "slice outside its byte range");
  SharedBytes out(owner_, data_ + offset, count);
  out.adopted_ = adopted_;
  return out;
}

std::vector<std::uint8_t> SharedBytes::release() && {
  std::vector<std::uint8_t> out;
  if (adopted_ != nullptr && owner_.use_count() == 1 &&
      data_ == adopted_->data() && size_ == adopted_->size()) {
    out = std::move(*adopted_);
  } else {
    out.assign(begin(), end());
  }
  *this = SharedBytes();
  return out;
}

bool SharedBytes::operator==(const SharedBytes& other) const noexcept {
  return std::equal(begin(), end(), other.begin(), other.end());
}

bool SharedBytes::operator==(
    const std::vector<std::uint8_t>& bytes) const noexcept {
  return std::equal(begin(), end(), bytes.begin(), bytes.end());
}

}  // namespace fedbiad::wire

// A vector whose first N elements live inline.
//
// For per-rank state resumed once per simulated step: a rank whose list
// fits inline reads it from the same memory as the rest of its state, where
// a std::vector would cost one more cache miss per step at scale. Longer
// lists spill the rest to the heap. Elements must be default-constructible
// and copyable.
#pragma once

#include <cstddef>
#include <vector>

namespace hs {

template <typename T, std::size_t N>
class SmallVector {
 public:
  void clear() noexcept {
    size_ = 0;
    spill_.clear();
  }
  void push_back(const T& value) {
    if (size_ < N)
      inline_[size_] = value;
    else
      spill_.push_back(value);
    ++size_;
  }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  T& operator[](std::size_t i) { return i < N ? inline_[i] : spill_[i - N]; }
  const T& operator[](std::size_t i) const {
    return i < N ? inline_[i] : spill_[i - N];
  }

 private:
  T inline_[N] = {};
  std::size_t size_ = 0;
  std::vector<T> spill_;
};

}  // namespace hs

// InlineVec<T, N>: a vector of at most N elements stored in place.
//
// For per-packet state with a small static bound, such as exstretch's
// waypoint stack (at most k <= Alphabet::kMaxK entries): pushing and popping
// never touch the heap, so a header built from it allocates nothing.  The
// storage stays uninitialised until an element is pushed, so an empty
// InlineVec costs one size word to construct whatever N is.
#ifndef RTR_UTIL_INLINE_VEC_H
#define RTR_UTIL_INLINE_VEC_H

#include <cstddef>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace rtr {

template <typename T, std::size_t N>
class InlineVec {
 public:
  // Not `= default`: storage_ must stay uninitialised.
  InlineVec() noexcept {}  // NOLINT(modernize-use-equals-default)
  InlineVec(const InlineVec& other) {
    try {
      append_from(other);
    } catch (...) {
      clear();  // no destructor runs for a constructor that throws
      throw;
    }
  }
  InlineVec(InlineVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    append_from(std::move(other));
  }
  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) {
      clear();
      append_from(other);
    }
    return *this;
  }
  InlineVec& operator=(InlineVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &other) {
      clear();
      append_from(std::move(other));
    }
    return *this;
  }
  ~InlineVec() { clear(); }

  /// Throws std::length_error when all N slots are taken.
  void push_back(T value) {
    if (size_ == N) throw std::length_error("InlineVec: capacity exceeded");
    ::new (static_cast<void*>(data() + size_)) T(std::move(value));
    ++size_;
  }
  /// Requires !empty().
  void pop_back() noexcept { data()[--size_].~T(); }
  void clear() noexcept {
    while (size_ > 0) pop_back();
  }

  [[nodiscard]] T& back() { return data()[size_ - 1]; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }

 private:
  [[nodiscard]] T* data() noexcept {
    return reinterpret_cast<T*>(storage_);
  }
  [[nodiscard]] const T* data() const noexcept {
    return reinterpret_cast<const T*>(storage_);
  }

  // `other` holds at most N elements, so these never overflow.  Each
  // element counts once constructed, so a throwing copy leaves *this valid.
  void append_from(const InlineVec& other) {
    for (const T& v : other) {
      ::new (static_cast<void*>(end())) T(v);
      ++size_;
    }
  }
  void append_from(InlineVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    for (T& v : other) {
      ::new (static_cast<void*>(end())) T(std::move(v));
      ++size_;
    }
    other.clear();
  }

  alignas(T) unsigned char storage_[N * sizeof(T)];
  std::size_t size_ = 0;
};

}  // namespace rtr

#endif  // RTR_UTIL_INLINE_VEC_H

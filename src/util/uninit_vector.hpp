// A std::vector whose growth leaves new elements default-initialised.
//
// std::vector::resize value-initialises every new element, which for
// ids and bit words is a zero-fill pass over memory that a caller
// writing every slot before reading it never needs. UninitVector<T>
// swaps in an allocator whose argument-less construct default-
// initialises, so resize on a trivial T only allocates; constructs with
// arguments (push_back, assign, resize(n, value)) behave as usual.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace valocal {

template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <class T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace valocal

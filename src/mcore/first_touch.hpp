// Buffers whose pages are faulted in by the kernel that first writes them.
//
// A std::vector<T>(n) value-initializes: the constructing thread zero-fills
// every element, and so takes every page fault of a fresh allocation. On the
// device emulator that is the wrong thread. Each group's slice of a kernel
// buffer is written first by the pool worker that runs the group, exactly
// as a GPU work group writes its own memory, so the faults belong there and
// spread over the workers. FirstTouchVector leaves trivially constructible
// elements unwritten when it is sized; everything else about it is
// std::vector.
//
// Contract for an owner: every element is written before it is read. Owners
// that check invariants poison these buffers at construction (debug::poison)
// so a read of an unwritten element changes the results instead of reading
// whatever the allocator handed back.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace esthera::mcore {

/// std::allocator whose value-less construct() default-initializes, so
/// sizing a vector of trivially constructible T writes nothing.
template <typename T>
struct FirstTouchAllocator : std::allocator<T> {
  FirstTouchAllocator() noexcept = default;
  template <typename U>
  FirstTouchAllocator(const FirstTouchAllocator<U>& /*other*/) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A vector sized without writing its elements (see the file comment).
/// resize() and the sized constructor leave new elements unwritten;
/// assign(n, value) and resize(n, value) still write `value`.
template <typename T>
using FirstTouchVector = std::vector<T, FirstTouchAllocator<T>>;

}  // namespace esthera::mcore

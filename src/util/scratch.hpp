// Per-thread reusable buffers for per-vertex step bodies.
//
// A step runs once per vertex per round on whichever engine worker owns
// the vertex, so a std::vector local to the step would hit the heap on
// every call. thread_scratch<Owner, T>() returns the calling thread's
// buffer of T for Owner, emptied but with its capacity kept: once the
// buffer has grown to the largest size a run needs, the step allocates
// nothing. Each (Owner, T) pair names one buffer, so an owner must not
// hold it across a call into code that asks for the same pair; owners
// that nest (an algorithm step calling CoverFreeFamily::pick_escaping
// or KwReduction::advance) key their buffers by their own class.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/uninit_vector.hpp"

namespace valocal {

template <class Owner, class T>
std::vector<T>& thread_scratch() {
  thread_local std::vector<T> buffer;
  buffer.clear();
  return buffer;
}

/// The calling thread's n slots of T for Owner, for a step that writes
/// every slot it reads. The slots are never cleared or zero-filled:
/// they hold whatever an earlier call (or the allocator) left there.
/// The buffer only grows, so once it holds the largest n a run asks
/// for, a call costs no allocation and no pass over the slots. The
/// (Owner, T) buffer is separate from thread_scratch<Owner, T>()'s, and
/// the same nesting rule holds.
template <class Owner, class T>
std::span<T> thread_scratch_slots(std::size_t n) {
  thread_local UninitVector<T> buffer;
  if (buffer.size() < n) buffer.resize(n);
  return {buffer.data(), n};
}

}  // namespace valocal

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

#include <vector>

namespace valocal {

template <class Owner, class T>
std::vector<T>& thread_scratch() {
  thread_local std::vector<T> buffer;
  buffer.clear();
  return buffer;
}

}  // namespace valocal

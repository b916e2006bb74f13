// Heap-allocation counter for the core.allocs_per_hit metric.
//
// alloc_count.cpp replaces the global operator new/delete of the perfbench
// binary.  Each thread counts its own allocations in a thread_local, so a
// counting pass on one thread is not disturbed by server threads that
// happen to run at the same time, and the always-on cost is one
// thread-local increment per allocation.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made by the calling thread since it started.
std::uint64_t thread_allocations() noexcept;

}  // namespace perfbench

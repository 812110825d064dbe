// Live-heap accounting for the benchmark binary.  heap.cpp replaces the
// global operator new/delete family, so every allocation the simulator
// library makes inside this process is counted: live bytes (as reported by
// malloc_usable_size, on both allocation and release), the high-water mark
// of live bytes, and the number of allocations.
#pragma once

#include <cstdint>

namespace perfbench::heap {

/// Bytes currently allocated through operator new.
[[nodiscard]] std::uint64_t live_bytes();

/// Allocations made through operator new since process start.
[[nodiscard]] std::uint64_t allocations();

/// Restarts the high-water mark at the current live size.
void reset_peak();

/// Highest live size since the last reset_peak().
[[nodiscard]] std::uint64_t peak_bytes();

}  // namespace perfbench::heap

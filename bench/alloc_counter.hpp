// Heap allocations of the current process, for a bench's allocs_per_op.
//
// A bench that links alloc_counter.cpp replaces the global operator new with
// a counting one. The sanitizer build keeps the sanitizer's allocator, and
// there alloc_count() reports nothing.
#pragma once

#include <cstdint>
#include <optional>

namespace eternal::bench {

/// Heap allocations since the process started; nullopt when not counted.
std::optional<std::uint64_t> alloc_count() noexcept;

}  // namespace eternal::bench

#ifndef LAZYREP_SIM_FRAME_POOL_H_
#define LAZYREP_SIM_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>

// The frame pool recycles coroutine-frame memory, and the nodes and arrays
// of pooled containers (sim/pool_allocator.h), through thread-local free
// lists, so the steady-state hot path (one frame per message leg, facility
// use, lock acquire, replica install, ...) performs no heap allocation.
// Pooling is disabled under ASan/TSan/MSan: recycled blocks would mask
// use-after-free and lose allocation stack traces.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LAZYREP_FRAME_POOL_DISABLED 1
#endif
#if !defined(LAZYREP_FRAME_POOL_DISABLED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define LAZYREP_FRAME_POOL_DISABLED 1
#endif
#endif

namespace lazyrep::sim {

/// Per-thread frame-pool counters, for the perf harness.
struct FramePoolStats {
  uint64_t fresh_allocs = 0;   ///< requests that hit the real allocator
  uint64_t pooled_allocs = 0;  ///< requests served from a free list
};

/// Allocates `bytes` from the calling thread's frame pool. Requests above
/// the pooled size classes fall through to ::operator new. Users are
/// coroutine frames and the containers of sim/pool_allocator.h.
///
/// A block must be released with FramePoolFree and the size it was
/// allocated with (the compiler passes a frame's size to the promise's
/// sized operator delete; an STL allocator passes n * sizeof(T)). It may be
/// released on another thread (a container filled on a worker and
/// destroyed by the thread that joined it, say): it then joins THAT
/// thread's free list. Each thread's free list is torn down when the thread
/// exits, so no pooled block may be freed on a thread after its exit has
/// begun: in particular, no pooled container may have static storage
/// duration.
void* FramePoolAlloc(size_t bytes);

/// Returns `ptr` (of size `bytes`) to the calling thread's pool.
void FramePoolFree(void* ptr, size_t bytes) noexcept;

/// Counters for the calling thread.
FramePoolStats FramePoolThreadStats();

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_FRAME_POOL_H_

#ifndef LAZYREP_SIM_POOL_ALLOCATOR_H_
#define LAZYREP_SIM_POOL_ALLOCATOR_H_

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/frame_pool.h"

namespace lazyrep::sim {

/// Stateless STL allocator over the frame pool's thread-local free lists
/// (64-byte size classes; requests above 4 KiB go to ::operator new, and
/// sanitizer builds bypass the pool). A container that churns small nodes
/// then reaches an allocation-free steady state. The frame pool's contract
/// applies: no pooled container may have static storage duration.
template <class T>
struct PoolAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "the frame pool returns default-aligned blocks");
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT: rebind

  T* allocate(size_t n) {
    return static_cast<T*>(FramePoolAlloc(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept { FramePoolFree(p, n * sizeof(T)); }

  template <class U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

template <class T>
using PoolVector = std::vector<T, PoolAllocator<T>>;

/// std::unordered_map with the default hash: only the allocator differs, so
/// bucket counts and iteration order match the unpooled map exactly.
template <class K, class V>
using PoolHashMap =
    std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                       PoolAllocator<std::pair<const K, V>>>;

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_POOL_ALLOCATOR_H_

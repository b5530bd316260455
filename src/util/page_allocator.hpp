#pragma once
/// \file page_allocator.hpp
/// An allocator for byte buffers that grow to megabytes on worker threads,
/// such as a segment writer's sections. Blocks of kPageBackedBytes and more
/// are mapped from the OS and unmapped when released, so their memory
/// leaves the process with the buffer. Through malloc, glibc keeps a freed
/// block in the arena of the thread that allocated it, where other threads
/// never reuse it: parallel segment writers would each leave their peak
/// resident. Smaller blocks use operator new.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define HETINDEX_PAGE_ALLOCATOR_MMAP 1
#else
#define HETINDEX_PAGE_ALLOCATOR_MMAP 0
#endif

namespace hetindex {

inline constexpr std::size_t kPageBackedBytes = 256u << 10;

template <typename T>
class PageAllocator {
 public:
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}  // NOLINT: rebinding converts

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
#if HETINDEX_PAGE_ALLOCATOR_MMAP
    if (bytes >= kPageBackedBytes) {
      void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      return static_cast<T*>(p);
    }
#endif
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
#if HETINDEX_PAGE_ALLOCATOR_MMAP
    if (n * sizeof(T) >= kPageBackedBytes) {
      ::munmap(p, n * sizeof(T));
      return;
    }
#endif
    ::operator delete(p);
  }

  friend bool operator==(const PageAllocator&, const PageAllocator&) { return true; }
};

/// A byte vector whose large buffers are page-backed (see above).
using PageBytes = std::vector<std::uint8_t, PageAllocator<std::uint8_t>>;

}  // namespace hetindex

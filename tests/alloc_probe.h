// Counting replacement of the global operator new for tests that bound the
// allocations of a piece of code. AllocationProbe arms the counter for its
// lifetime and reports the number of allocations and the largest one made
// meanwhile, on any thread. Include this header from exactly one
// translation unit of a test binary: it defines the replaceable operators.

#ifndef MCM_TESTS_ALLOC_PROBE_H_
#define MCM_TESTS_ALLOC_PROBE_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace mcm {
namespace test {

inline std::atomic<bool> g_alloc_probe_armed{false};
inline std::atomic<size_t> g_alloc_probe_count{0};
inline std::atomic<size_t> g_alloc_probe_largest{0};

class AllocationProbe {
 public:
  AllocationProbe() {
    g_alloc_probe_count = 0;
    g_alloc_probe_largest = 0;
    g_alloc_probe_armed = true;
  }
  ~AllocationProbe() { g_alloc_probe_armed = false; }

  AllocationProbe(const AllocationProbe&) = delete;
  AllocationProbe& operator=(const AllocationProbe&) = delete;

  size_t count() const { return g_alloc_probe_count; }
  size_t largest() const { return g_alloc_probe_largest; }
};

}  // namespace test
}  // namespace mcm

// GCC flags free() on a pointer from operator new; these operators are the
// one place where that pairing is the definition.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (mcm::test::g_alloc_probe_armed.load(std::memory_order_relaxed)) {
    ++mcm::test::g_alloc_probe_count;
    size_t largest = mcm::test::g_alloc_probe_largest.load();
    while (size > largest &&
           !mcm::test::g_alloc_probe_largest.compare_exchange_weak(largest,
                                                                   size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // MCM_TESTS_ALLOC_PROBE_H_

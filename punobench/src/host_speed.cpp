#include "host_speed.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "profiler.hpp"

namespace punobench {

namespace {

[[nodiscard]] std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Mixes what the simulator's hot loop does: random reads and writes over a
/// table that fits L2 (its caches, directories and routers), binary-heap
/// pushes and pops (its event queue), and data-dependent branches. The same
/// work every call, whatever the seed or the workload.
[[nodiscard]] std::uint64_t reference_work() {
  constexpr std::size_t kTableWords = std::size_t{1} << 15;  // 256 KiB
  constexpr std::size_t kHeapSize = 4096;
  constexpr int kSteps = 120'000;
  static std::vector<std::uint64_t> table(kTableWords);
  std::fill(table.begin(), table.end(), 0);
  std::array<std::uint64_t, kHeapSize> heap{};
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t& h : heap) h = xorshift(x);
  std::make_heap(heap.begin(), heap.end());
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    std::uint64_t& slot = table[xorshift(x) & (kTableWords - 1)];
    if ((slot & 3) == 0) {
      slot += x >> 17;
    } else {
      slot ^= x >> 29;
    }
    acc += slot;
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = (heap.back() >> 1) ^ acc;
    std::push_heap(heap.begin(), heap.end());
  }
  return acc ^ heap.front();
}

}  // namespace

double time_reference() {
  const double c0 = host_cpu_s();
  volatile std::uint64_t sink = reference_work();
  (void)sink;
  return host_cpu_s() - c0;
}

}  // namespace punobench

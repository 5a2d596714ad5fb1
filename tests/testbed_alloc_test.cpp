// Allocation regression test for the emulated testbed's event loop.
//
// Replaces the global operator new/delete with counting versions and runs
// two saturated testbeds that differ only in their measured duration.
// Set-up and read-back allocate the same in both, so the difference in
// allocations over the difference in events is what the DES hot path
// (scheduler, contention domain, sources, devices) costs per event. The
// events are the medium.events total: without MME chatter every
// dispatched event is one idle slot or the start of one exchange. Its
// own binary, so the replacement operators affect no other suite.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "tools/testbed.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler never sees a free() of a pointer that
// came from operator new at an inlined call site (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace plc::tools {
namespace {

struct AllocationSample {
  std::int64_t allocations = 0;
  std::int64_t events = 0;
};

AllocationSample measure(double seconds) {
  obs::Registry registry;
  TestbedConfig config;
  config.stations = 3;
  config.duration = des::SimTime::from_seconds(seconds);
  config.registry = &registry;
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  run_saturated_testbed(config);
  AllocationSample sample;
  sample.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  sample.events =
      static_cast<std::int64_t>(registry.snapshot().total("medium.events"));
  return sample;
}

TEST(TestbedAllocations, DispatchAllocatesLessThanHalfAnAllocationPerEvent) {
  const AllocationSample short_run = measure(2.0);
  const AllocationSample long_run = measure(7.0);
  ASSERT_GT(long_run.events, short_run.events);
  const double per_event =
      static_cast<double>(long_run.allocations - short_run.allocations) /
      static_cast<double>(long_run.events - short_run.events);
  RecordProperty("allocations_per_event", std::to_string(per_event));
  EXPECT_LT(per_event, 0.5) << (long_run.allocations - short_run.allocations)
                            << " allocations over "
                            << (long_run.events - short_run.events)
                            << " events";
}

}  // namespace
}  // namespace plc::tools

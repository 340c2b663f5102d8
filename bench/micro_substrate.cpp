// Micro-benchmarks (google-benchmark) of the library substrate itself:
// how fast the discrete-event platform processes operations, how expensive
// exchange planning is, how per-region bookkeeping (sibling binding, cache
// hits) scales with the region count, and the functional kernel throughput.
// These measure the real (wall-clock) performance of this codebase — useful
// when scaling the simulator to long runs — and double as a regression
// harness.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/tidacc.hpp"
#include "kernels/heat.hpp"
#include "tida/ghost.hpp"

namespace {

using namespace tidacc;

void BM_EnqueueAsyncCopy(benchmark::State& state) {
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false);
  cuem::platform().trace().set_recording(false);
  void* dev = nullptr;
  void* host = nullptr;
  (void)cuemMalloc(&dev, 1 << 20);
  (void)cuemMallocHost(&host, 1 << 20);
  cuemStream_t s = 0;
  (void)cuemStreamCreate(&s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cuemMemcpyAsync(dev, host, 1 << 20, cuemMemcpyHostToDevice, s));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnqueueAsyncCopy);

void BM_EnqueueKernel(benchmark::State& state) {
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false);
  cuem::platform().trace().set_recording(false);
  cuemStream_t s = 0;
  (void)cuemStreamCreate(&s);
  sim::KernelProfile prof;
  prof.elements = 1 << 20;
  prof.dev_bytes_per_element = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cuem::launch(s, cuem::LaunchGeometry{}, prof, "bm", nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnqueueKernel);

void BM_ExchangePlan(benchmark::State& state) {
  const int regions_per_dim = static_cast<int>(state.range(0));
  const tida::Partition part(tida::Box::cube(regions_per_dim * 8),
                             tida::Index3::uniform(8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tida::compute_exchange_plan(part, 1, tida::Boundary::kPeriodic));
  }
  state.SetItemsProcessed(state.iterations() * part.num_regions());
}
BENCHMARK(BM_ExchangePlan)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// Timing-only AccTileArray of regions_per_dim^3 regions of 8^3 cells with
/// one ghost layer, every region fitting on the device.
std::unique_ptr<core::AccTileArray<double>> incore_array(int regions_per_dim) {
  return std::make_unique<core::AccTileArray<double>>(
      tida::Box::cube(regions_per_dim * 8), tida::Index3::uniform(8), 1);
}

void BM_TileIn(benchmark::State& state) {
  // Binding the iterator position to a sibling array (the per-tile sibling
  // check); per-tile cost should not grow with the region count.
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false);
  oacc::reset();
  const auto u = incore_array(static_cast<int>(state.range(0)));
  const auto v = incore_array(static_cast<int>(state.range(0)));
  core::AccTileIterator<double> it(*u);
  it.reset(/*gpu=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(it.tile_in(*v));
    it.next();
    if (!it.isValid()) {
      it.reset(/*gpu=*/true);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["regions"] = u->num_regions();
}
BENCHMARK(BM_TileIn)->Arg(8)->Arg(16);

void BM_CacheHitAcquire(benchmark::State& state) {
  // Device acquire of an already-resident region (cache-table lookup plus
  // slot bookkeeping); per-acquire cost should not grow with the region
  // count.
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false);
  oacc::reset();
  cuem::platform().trace().set_recording(false);
  const auto arr = incore_array(static_cast<int>(state.range(0)));
  arr->assume_host_initialized();
  for (int r = 0; r < arr->num_regions(); ++r) {
    arr->acquire_on_device(r);
  }
  int r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arr->acquire_on_device(r));
    r = (r + 1) % arr->num_regions();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["regions"] = arr->num_regions();
}
BENCHMARK(BM_CacheHitAcquire)->Arg(8)->Arg(16);

void BM_FunctionalHeatStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> u(static_cast<std::size_t>(n) * n * n);
  std::vector<double> un(u.size());
  kernels::heat_init_flat(u.data(), n);
  for (auto _ : state) {
    kernels::heat_step_flat(u.data(), un.data(), n);
    benchmark::DoNotOptimize(un.data());
    u.swap(un);
  }
  state.SetItemsProcessed(state.iterations() * u.size());
}
BENCHMARK(BM_FunctionalHeatStep)->Arg(32)->Arg(64);

void BM_CachingProtocol(benchmark::State& state) {
  // Full acquire round-robin with evictions through 2 slots, timing-only.
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false);
  oacc::reset();
  cuem::platform().trace().set_recording(false);
  core::AccOptions opts;
  opts.max_slots = 2;
  core::AccTileArray<double> arr(tida::Box::cube(64),
                                 tida::Index3{64, 64, 8}, 0, opts);
  arr.assume_host_initialized();
  int r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arr.acquire_on_device(r));
    r = (r + 1) % arr.num_regions();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachingProtocol);

void BM_HostGhostExchange(benchmark::State& state) {
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/true);
  tida::TileArray<double> arr(tida::Box::cube(static_cast<int>(state.range(0))),
                              tida::Index3::uniform(
                                  static_cast<int>(state.range(0)) / 2),
                              1);
  arr.fill([](const tida::Index3&) { return 1.0; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        arr.fill_boundary_host(tida::Boundary::kPeriodic));
  }
}
BENCHMARK(BM_HostGhostExchange)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();

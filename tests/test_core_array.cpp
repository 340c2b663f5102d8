// Tests for AccTileArray + compute(): the caching/eviction protocol,
// CPU/GPU execution paths, ghost-exchange dispatch, and full functional
// integration of a tiled heat solver against a single-array reference.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "core/tidacc.hpp"

namespace tidacc::core {
namespace {

using oacc::LoopCost;
using sim::DeviceConfig;
using tida::Boundary;
using tida::Box;
using tida::Index3;

DeviceConfig fast_config() {
  DeviceConfig cfg = DeviceConfig::k40m();
  cfg.transfer_latency_ns = 0;
  cfg.pageable_staging_ns = 0;
  cfg.kernel_launch_ns = 0;
  cfg.host_api_overhead_ns = 0;
  cfg.sync_overhead_ns = 0;
  cfg.oacc_dispatch_extra_ns = 0;
  return cfg;
}

class AccArrayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cuem::configure(fast_config(), /*functional=*/true);
    oacc::reset();
  }
};

LoopCost unit_cost() {
  LoopCost c;
  c.flops_per_iter = 2;
  c.dev_bytes_per_iter = 16;
  return c;
}

double pattern(const Index3& p) {
  return static_cast<double>(1 + p.i + 10 * p.j + 100 * p.k);
}

// --- caching protocol ---

TEST_F(AccArrayTest, FirstAcquireTransfersOnceSecondHits) {
  AccTileArray<double> arr(Box::cube(8), Index3::uniform(4), 0);
  arr.fill(pattern);
  const auto h2d0 = sim::Platform::instance().trace().stats().h2d_bytes;
  double* d1 = arr.acquire_on_device(3);
  const auto h2d1 = sim::Platform::instance().trace().stats().h2d_bytes;
  EXPECT_EQ(h2d1 - h2d0, arr.region_bytes(3));
  double* d2 = arr.acquire_on_device(3);  // cache hit
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(sim::Platform::instance().trace().stats().h2d_bytes, h2d1);
  EXPECT_EQ(arr.location(3), Loc::kDevice);
}

TEST_F(AccArrayTest, AcquireCopiesDataToDevice) {
  AccTileArray<double> arr(Box::cube(4), Index3::uniform(4), 1);
  arr.fill(pattern);
  arr.acquire_on_device(0);
  oacc::wait_all();
  const tida::Region<double> dev = arr.device_region(0);
  EXPECT_DOUBLE_EQ(dev.at(2, 1, 3), pattern({2, 1, 3}));
}

TEST_F(AccArrayTest, HostAccessAfterDeviceTransfersBack) {
  AccTileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  arr.fill(pattern);
  arr.acquire_on_device(0);
  // Mutate on the "device".
  arr.device_region(0).at(1, 1, 1) = -5.0;
  const auto d2h0 = sim::Platform::instance().trace().stats().d2h_bytes;
  arr.acquire_on_host(0);
  EXPECT_EQ(sim::Platform::instance().trace().stats().d2h_bytes - d2h0,
            arr.region_bytes(0));
  EXPECT_EQ(arr.location(0), Loc::kHost);
  EXPECT_DOUBLE_EQ(arr.at({1, 1, 1}), -5.0);
}

TEST_F(AccArrayTest, HostAccessIsBlocking) {
  DeviceConfig cfg = fast_config();
  cuem::configure(cfg, true);
  oacc::reset();
  AccTileArray<double> arr(Box::cube(32), Index3::uniform(32), 0);
  arr.fill(pattern);
  arr.acquire_on_device(0);
  arr.acquire_on_host(0);
  // After a blocking host acquire, the region's stream has drained.
  EXPECT_EQ(cuemStreamQuery(arr.stream_of_region(0)), cuemSuccess);
}

TEST_F(AccArrayTest, HostTouchThenDeviceReuploads) {
  AccTileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  arr.fill(pattern);
  arr.acquire_on_device(0);
  arr.acquire_on_host(0);
  arr.at({0, 0, 0}) = 123.0;  // host mutation
  const auto h2d0 = sim::Platform::instance().trace().stats().h2d_bytes;
  arr.acquire_on_device(0);  // still resident, but host copy is newer
  EXPECT_EQ(sim::Platform::instance().trace().stats().h2d_bytes - h2d0,
            arr.region_bytes(0));
  oacc::wait_all();
  EXPECT_DOUBLE_EQ(arr.device_region(0).at(0, 0, 0), 123.0);
}

TEST_F(AccArrayTest, HostAcquireWhenAlreadyHostIsFree) {
  AccTileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  arr.fill(pattern);
  const auto d2h0 = sim::Platform::instance().trace().stats().d2h_bytes;
  arr.acquire_on_host(0);
  EXPECT_EQ(sim::Platform::instance().trace().stats().d2h_bytes, d2h0);
}

TEST_F(AccArrayTest, UninitializedRegionSkipsUpload) {
  // An output array whose host side was never written needs no H2D.
  AccTileArray<double> arr(Box::cube(8), Index3::uniform(4), 0);
  EXPECT_EQ(arr.location(0), Loc::kUninit);
  const auto h2d0 = sim::Platform::instance().trace().stats().h2d_bytes;
  arr.acquire_on_device(0);
  EXPECT_EQ(sim::Platform::instance().trace().stats().h2d_bytes, h2d0);
  EXPECT_EQ(arr.location(0), Loc::kDevice);
}

TEST_F(AccArrayTest, UninitializedRegionStillEvictsWithD2H) {
  // Once a kernel wrote it on the device, eviction must save the data.
  AccOptions opts;
  opts.max_slots = 1;
  AccTileArray<double> arr(Box::cube(8), Index3{4, 8, 8}, 0, opts);
  arr.acquire_on_device(0);
  arr.device_region(0).at(0, 0, 0) = 9.0;  // device-side write
  const auto d2h0 = sim::Platform::instance().trace().stats().d2h_bytes;
  arr.acquire_on_device(1);  // evicts region 0
  EXPECT_EQ(sim::Platform::instance().trace().stats().d2h_bytes - d2h0,
            arr.region_bytes(0));
  arr.acquire_on_host(0);
  EXPECT_DOUBLE_EQ(arr.at({0, 0, 0}), 9.0);
}

TEST_F(AccArrayTest, HostWriteThroughAtMarksRegion) {
  AccTileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  arr.at({1, 1, 1}) = 3.0;  // host write on an uninitialized region
  EXPECT_EQ(arr.location(0), Loc::kHost);
  const auto h2d0 = sim::Platform::instance().trace().stats().h2d_bytes;
  arr.acquire_on_device(0);  // must upload now
  EXPECT_EQ(sim::Platform::instance().trace().stats().h2d_bytes - h2d0,
            arr.region_bytes(0));
}

TEST_F(AccArrayTest, AtOnDeviceCurrentRegionRejected) {
  AccTileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  arr.fill(pattern);
  arr.acquire_on_device(0);
  EXPECT_THROW(arr.at({0, 0, 0}), Error);
  arr.acquire_on_host(0);
  EXPECT_NO_THROW(arr.at({0, 0, 0}));
}

// --- eviction (limited memory) ---

TEST_F(AccArrayTest, SharedSlotEvictsVictimThenLoads) {
  AccOptions opts;
  opts.max_slots = 2;
  AccTileArray<double> arr(Box::cube(8), Index3{4, 8, 8}, 0, opts);  // 2 regions? no: 8/4=2 in i → 2 regions
  ASSERT_EQ(arr.num_regions(), 2);
  ASSERT_EQ(arr.num_slots(), 2);
  // Force sharing with a smaller cap instead:
  AccOptions opts1;
  opts1.max_slots = 1;
  AccTileArray<double> shared(Box::cube(8), Index3{4, 8, 8}, 0, opts1);
  ASSERT_EQ(shared.num_slots(), 1);
  shared.fill(pattern);

  shared.acquire_on_device(0);
  shared.device_region(0).at(0, 0, 0) = -1.0;  // device-side write
  const auto d2h0 = sim::Platform::instance().trace().stats().d2h_bytes;
  shared.acquire_on_device(1);  // evicts region 0 (D2H) then loads 1 (H2D)
  EXPECT_EQ(sim::Platform::instance().trace().stats().d2h_bytes - d2h0,
            shared.region_bytes(0));
  EXPECT_EQ(shared.location(0), Loc::kHost);
  EXPECT_EQ(shared.location(1), Loc::kDevice);
  EXPECT_EQ(shared.cache().resident(0), 1);
  oacc::wait_all();
  // The device write on region 0 survived the round trip.
  EXPECT_DOUBLE_EQ(shared.at({0, 0, 0}), -1.0);
}

TEST_F(AccArrayTest, EvictionRoundRobinPreservesAllData) {
  AccOptions opts;
  opts.max_slots = 2;
  AccTileArray<double> arr(Box::cube(8), Index3{2, 8, 8}, 0, opts);
  ASSERT_EQ(arr.num_regions(), 4);
  ASSERT_EQ(arr.num_slots(), 2);
  arr.fill(pattern);
  // Touch every region on device, writing a marker.
  for (int r = 0; r < 4; ++r) {
    arr.acquire_on_device(r);
    const Box valid = arr.partition().region_box(r);
    arr.device_region(r).at(valid.lo) = 1000.0 + r;
  }
  arr.release_all_to_host();
  for (int r = 0; r < 4; ++r) {
    const Box valid = arr.partition().region_box(r);
    EXPECT_DOUBLE_EQ(arr.at(valid.lo), 1000.0 + r) << "region " << r;
  }
}

// --- compute: GPU path ---

TEST_F(AccArrayTest, ComputeGpuDoublesCells) {
  AccTileArray<double> arr(Box::cube(8), Index3::uniform(4), 0);
  arr.fill([](const Index3&) { return 3.0; });
  AccTileIterator<double> it(arr);
  for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
    compute(it.tile(), unit_cost(),
            [](DeviceView<double> v, int i, int j, int k) {
              v(i, j, k) *= 2.0;
            });
  }
  arr.release_all_to_host();
  for (int r = 0; r < arr.num_regions(); ++r) {
    const Box valid = arr.partition().region_box(r);
    EXPECT_DOUBLE_EQ(arr.at(valid.lo), 6.0);
    EXPECT_DOUBLE_EQ(arr.at(valid.hi), 6.0);
  }
}

TEST_F(AccArrayTest, ComputeGpuIsAsynchronous) {
  cuem::configure(fast_config(), /*functional=*/false);
  oacc::reset();
  AccTileArray<double> arr(Box::cube(64), Index3::uniform(32), 0);
  AccTileIterator<double> it(arr);
  LoopCost heavy;
  heavy.flops_per_iter = 1000;
  it.reset(true);
  const SimTime before = sim::Platform::instance().now();
  compute(it.tile(), heavy,
          [](DeviceView<double>, int, int, int) {});
  // Host returned before the kernel's virtual completion.
  EXPECT_LT(sim::Platform::instance().now() - before, 100 * kMicrosecond);
  EXPECT_EQ(cuemStreamQuery(arr.stream_of_region(0)), cuemErrorNotReady);
}

TEST_F(AccArrayTest, ComputeGpuMarksRegionOnDevice) {
  AccTileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  arr.fill(pattern);
  AccTileIterator<double> it(arr);
  it.reset(true);
  compute(it.tile(), unit_cost(),
          [](DeviceView<double>, int, int, int) {});
  EXPECT_EQ(arr.location(0), Loc::kDevice);
}

TEST_F(AccArrayTest, ComputeRangeRestrictsIteration) {
  AccTileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  arr.fill([](const Index3&) { return 0.0; });
  AccTileIterator<double> it(arr);
  it.reset(true);
  compute(it.tile(), Index3{1, 1, 1}, Index3{2, 2, 2}, unit_cost(),
          [](DeviceView<double> v, int i, int j, int k) {
            v(i, j, k) = 1.0;
          });
  arr.release_all_to_host();
  double sum = 0;
  for (int k = 0; k < 4; ++k) {
    for (int j = 0; j < 4; ++j) {
      for (int i = 0; i < 4; ++i) {
        sum += arr.at({i, j, k});
      }
    }
  }
  EXPECT_DOUBLE_EQ(sum, 8.0);  // only the 2x2x2 inner range written
}

TEST_F(AccArrayTest, ComputeRangeOutsideRegionRejected) {
  AccTileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  AccTileIterator<double> it(arr);
  it.reset(true);
  EXPECT_THROW(compute(it.tile(), Index3{0, 0, 0}, Index3{9, 9, 9},
                       unit_cost(),
                       [](DeviceView<double>, int, int, int) {}),
               Error);
}

TEST_F(AccArrayTest, ComputeMultiTileTwoArrays) {
  AccTileArray<double> u(Box::cube(8), Index3::uniform(4), 0);
  AccTileArray<double> v(Box::cube(8), Index3::uniform(4), 0);
  u.fill(pattern);
  v.fill([](const Index3&) { return 0.0; });
  AccTileIterator<double> it(u);
  for (it.reset(true); it.isValid(); it.next()) {
    compute(it.tile(), it.tile_in(v), unit_cost(),
            [](DeviceView<double> us, DeviceView<double> vs, int i, int j,
               int k) { vs(i, j, k) = 2.0 * us(i, j, k); });
  }
  v.release_all_to_host();
  EXPECT_DOUBLE_EQ(v.at({3, 5, 7}), 2.0 * pattern({3, 5, 7}));
}

TEST_F(AccArrayTest, TileInRejectsSiblingOfOtherGeometry) {
  AccTileArray<double> u(Box::cube(8), Index3::uniform(4), 0);
  AccTileArray<double> same(Box::cube(8), Index3::uniform(4), 0);
  // Same region count and grid, different domain.
  AccTileArray<double> shifted(Box::cube(8).shift({0, 0, 8}),
                               Index3::uniform(4), 0);
  // Same domain, different region size.
  AccTileArray<double> slabs(Box::cube(8), Index3{8, 8, 1}, 0);
  AccTileIterator<double> it(u);
  it.reset(true);
  EXPECT_EQ(it.tile_in(same).array, &same);
  EXPECT_THROW(it.tile_in(shifted), Error);
  EXPECT_THROW(it.tile_in(slabs), Error);
}

TEST_F(AccArrayTest, MixedGpuFlagsRejected) {
  AccTileArray<double> u(Box::cube(4), Index3::uniform(4), 0);
  AccTileArray<double> v(Box::cube(4), Index3::uniform(4), 0);
  AccTileIterator<double> iu(u);
  AccTileIterator<double> iv(v);
  iu.reset(true);
  iv.reset(false);
  EXPECT_THROW(
      compute(iu.tile(), iv.tile(), unit_cost(),
              [](DeviceView<double>, DeviceView<double>, int, int, int) {}),
      Error);
}

// --- compute: CPU path ---

TEST_F(AccArrayTest, ComputeCpuRunsOnHostData) {
  AccTileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  arr.fill([](const Index3&) { return 5.0; });
  AccTileIterator<double> it(arr);
  for (it.reset(/*gpu=*/false); it.isValid(); it.next()) {
    compute(it.tile(), unit_cost(),
            [](DeviceView<double> v, int i, int j, int k) {
              v(i, j, k) += 1.0;
            });
  }
  // No transfers happened; data is directly visible on the host.
  EXPECT_EQ(sim::Platform::instance().trace().stats().h2d_bytes, 0ull);
  EXPECT_DOUBLE_EQ(arr.at({2, 2, 2}), 6.0);
  EXPECT_EQ(arr.location(0), Loc::kHost);
}

TEST_F(AccArrayTest, ComputeCpuAfterGpuPullsDataBack) {
  AccTileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  arr.fill([](const Index3&) { return 1.0; });
  AccTileIterator<double> it(arr);
  it.reset(true);
  compute(it.tile(), unit_cost(),
          [](DeviceView<double> v, int i, int j, int k) { v(i, j, k) = 7.0; });
  it.reset(false);
  compute(it.tile(), unit_cost(),
          [](DeviceView<double> v, int i, int j, int k) { v(i, j, k) += 1.0; });
  EXPECT_DOUBLE_EQ(arr.at({0, 0, 0}), 8.0);
}

TEST_F(AccArrayTest, ComputeCpuChargesHostTime) {
  AccTileArray<double> arr(Box::cube(16), Index3::uniform(16), 0);
  arr.fill([](const Index3&) { return 0.0; });
  AccTileIterator<double> it(arr);
  it.reset(false);
  const SimTime t0 = sim::Platform::instance().now();
  compute(it.tile(), unit_cost(),
          [](DeviceView<double>, int, int, int) {});
  EXPECT_GT(sim::Platform::instance().now(), t0);
}

// --- ghost exchange dispatch ---

TEST_F(AccArrayTest, FillBoundaryAllHostUsesHostPath) {
  AccTileArray<double> arr(Box::cube(8), Index3::uniform(4), 1);
  arr.fill(pattern);
  arr.fill_boundary(Boundary::kPeriodic);
  EXPECT_EQ(arr.device_ghost_updates(), 0ull);
  EXPECT_EQ(sim::Platform::instance().trace().stats().num_kernels, 0ull);
}

TEST_F(AccArrayTest, FillBoundaryOnDeviceUsesDeviceKernels) {
  AccTileArray<double> arr(Box::cube(8), Index3::uniform(4), 1);
  arr.fill(pattern);
  for (int r = 0; r < arr.num_regions(); ++r) {
    arr.acquire_on_device(r);
  }
  arr.fill_boundary(Boundary::kPeriodic);
  EXPECT_EQ(arr.device_ghost_updates(),
            static_cast<std::uint64_t>(arr.num_regions()));
  // Ghosts are correct in the device buffers.
  oacc::wait_all();
  const auto wrap = [](int v) { return ((v % 8) + 8) % 8; };
  for (int r = 0; r < arr.num_regions(); ++r) {
    const tida::Region<double> dev = arr.device_region(r);
    for (int k = dev.grown.lo.k; k <= dev.grown.hi.k; ++k) {
      for (int j = dev.grown.lo.j; j <= dev.grown.hi.j; ++j) {
        for (int i = dev.grown.lo.i; i <= dev.grown.hi.i; ++i) {
          ASSERT_DOUBLE_EQ(dev.at(i, j, k),
                           pattern({wrap(i), wrap(j), wrap(k)}))
              << "region " << r;
        }
      }
    }
  }
}

TEST_F(AccArrayTest, FillBoundaryLimitedMemoryFallsBackToHost) {
  AccOptions opts;
  opts.max_slots = 2;
  AccTileArray<double> arr(Box::cube(8), Index3::uniform(4), 1, opts);
  ASSERT_FALSE(arr.all_regions_fit());
  arr.fill(pattern);
  arr.acquire_on_device(0);
  arr.fill_boundary(Boundary::kPeriodic);
  EXPECT_EQ(arr.device_ghost_updates(), 0ull);
  EXPECT_EQ(arr.location(0), Loc::kHost);  // drained back
}

TEST_F(AccArrayTest, DeviceGhostUpdateChargesIndexCalcOnHost) {
  DeviceConfig cfg = fast_config();
  cfg.host_index_calc_ns_per_copy = 1000;
  cuem::configure(cfg, /*functional=*/false);
  oacc::reset();
  AccTileArray<double> arr(Box::cube(8), Index3::uniform(4), 1);
  arr.assume_host_initialized();
  for (int r = 0; r < arr.num_regions(); ++r) {
    arr.acquire_on_device(r);
  }
  const std::size_t copies =
      arr.exchange_plan(Boundary::kPeriodic).size();
  const SimTime t0 = sim::Platform::instance().now();
  arr.fill_boundary(Boundary::kPeriodic);
  // One descriptor per planned copy, 1 us each, all charged to the host.
  EXPECT_GE(sim::Platform::instance().now() - t0, copies * 1000);
}

// --- integration: tiled heat equation vs single-array reference ---

/// Reference: one periodic 3D heat step on a flat array.
void reference_heat_step(std::vector<double>& u, std::vector<double>& un,
                         int n, double fac) {
  const auto idx = [n](int i, int j, int k) {
    const auto w = [n](int v) { return ((v % n) + n) % n; };
    return (static_cast<std::size_t>(w(k)) * n + w(j)) * n + w(i);
  };
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        un[idx(i, j, k)] =
            u[idx(i, j, k)] +
            fac * (u[idx(i - 1, j, k)] + u[idx(i + 1, j, k)] +
                   u[idx(i, j - 1, k)] + u[idx(i, j + 1, k)] +
                   u[idx(i, j, k - 1)] + u[idx(i, j, k + 1)] -
                   6.0 * u[idx(i, j, k)]);
      }
    }
  }
  u.swap(un);
}

void run_tida_heat(int n, const Index3& region_size, int steps, double fac,
                   int max_slots, std::vector<double>& out) {
  AccOptions opts;
  opts.max_slots = max_slots;
  AccTileArray<double> u(Box::cube(n), region_size, 1, opts);
  AccTileArray<double> un(Box::cube(n), region_size, 1, opts);
  u.fill([n](const Index3& p) {
    return std::sin(0.1 * p.i) + 0.5 * std::cos(0.2 * p.j) + 0.01 * p.k;
  });

  LoopCost cost;
  cost.flops_per_iter = 8;
  cost.dev_bytes_per_iter = 16;

  AccTileIterator<double> it(u);
  AccTileArray<double>* src = &u;
  AccTileArray<double>* dst = &un;
  for (int s = 0; s < steps; ++s) {
    src->fill_boundary(Boundary::kPeriodic);
    for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
      compute(it.tile_in(*src), it.tile_in(*dst), cost,
              [fac](DeviceView<double> us, DeviceView<double> uns, int i,
                    int j, int k) {
                uns(i, j, k) =
                    us(i, j, k) +
                    fac * (us(i - 1, j, k) + us(i + 1, j, k) +
                           us(i, j - 1, k) + us(i, j + 1, k) +
                           us(i, j, k - 1) + us(i, j, k + 1) -
                           6.0 * us(i, j, k));
              });
    }
    std::swap(src, dst);
  }
  src->release_all_to_host();
  out.resize(Box::cube(n).volume());
  src->copy_out(out.data());
}

TEST_F(AccArrayTest, HeatSolverMatchesReference) {
  constexpr int n = 12;
  constexpr int steps = 5;
  constexpr double fac = 0.1;

  std::vector<double> ref(static_cast<std::size_t>(n) * n * n);
  std::vector<double> ref_tmp(ref.size());
  {
    std::size_t ix = 0;
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i, ++ix) {
          ref[ix] = std::sin(0.1 * i) + 0.5 * std::cos(0.2 * j) + 0.01 * k;
        }
      }
    }
  }
  for (int s = 0; s < steps; ++s) {
    reference_heat_step(ref, ref_tmp, n, fac);
  }

  std::vector<double> tiled;
  run_tida_heat(n, Index3::uniform(6), steps, fac, 1 << 20, tiled);

  ASSERT_EQ(tiled.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(tiled[i], ref[i], 1e-12) << "cell " << i;
  }
}

TEST_F(AccArrayTest, HeatSolverLimitedMemoryMatchesReference) {
  constexpr int n = 8;
  constexpr int steps = 4;
  constexpr double fac = 0.15;

  std::vector<double> ref(static_cast<std::size_t>(n) * n * n);
  std::vector<double> ref_tmp(ref.size());
  {
    std::size_t ix = 0;
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i, ++ix) {
          ref[ix] = std::sin(0.1 * i) + 0.5 * std::cos(0.2 * j) + 0.01 * k;
        }
      }
    }
  }
  for (int s = 0; s < steps; ++s) {
    reference_heat_step(ref, ref_tmp, n, fac);
  }

  // Only 2 device slots for 8 regions: full eviction traffic every step.
  std::vector<double> tiled;
  run_tida_heat(n, Index3::uniform(4), steps, fac, /*max_slots=*/2, tiled);

  ASSERT_EQ(tiled.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(tiled[i], ref[i], 1e-12) << "cell " << i;
  }
}

TEST_F(AccArrayTest, ArraysWithDifferentSlotCountsStayCoherent) {
  // When device memory is asymmetric between two arrays, region r of each
  // array can live on different streams; compute() must order the kernel
  // against both staging streams (via events). Verify functionally.
  AccOptions big;
  big.max_slots = 4;
  AccOptions small;
  small.max_slots = 2;
  AccTileArray<double> u(Box::cube(8), Index3{8, 8, 2}, 0, big);    // 4 regions
  AccTileArray<double> v(Box::cube(8), Index3{8, 8, 2}, 0, small);  // 2 slots
  ASSERT_EQ(u.num_slots(), 4);
  ASSERT_EQ(v.num_slots(), 2);
  u.fill(pattern);
  v.fill([](const Index3&) { return 0.0; });

  // Region 2: u uses slot 2 (stream 2), v uses slot 0 (stream 0) → the
  // kernel stream differs from v's staging stream.
  AccTileIterator<double> it(u);
  for (it.reset(true); it.isValid(); it.next()) {
    compute(it.tile(), it.tile_in(v), unit_cost(),
            [](DeviceView<double> us, DeviceView<double> vs, int i, int j,
               int k) { vs(i, j, k) = us(i, j, k) + 1.0; });
  }
  v.release_all_to_host();
  for (int k = 0; k < 8; ++k) {
    ASSERT_DOUBLE_EQ(v.at({1, 2, k}), pattern({1, 2, k}) + 1.0)
        << "k=" << k;
  }
}

TEST_F(AccArrayTest, SecondArrayGetsFewerSlotsWhenMemoryTight) {
  // Capacity discovery is per-construction: a first array that grabs most
  // of the device leaves the second with fewer slots, and everything still
  // works through eviction.
  const std::size_t u_region = 4ull * 8 * 8 * sizeof(double);  // 2 KiB
  const std::size_t v_region = 2ull * 8 * 8 * sizeof(double);  // 1 KiB
  // Room for u's two regions plus only three of v's four.
  cuem::configure(
      DeviceConfig::k40m_limited(2 * u_region + 3 * v_region), true);
  oacc::reset();
  AccTileArray<double> u(Box::cube(8), Index3{8, 8, 4}, 0);  // 2 regions
  EXPECT_EQ(u.num_slots(), 2);
  AccTileArray<double> v(Box::cube(8), Index3{8, 8, 2}, 0);  // 4 regions
  EXPECT_LT(v.num_slots(), 4);  // tight memory → sharing
  v.fill(pattern);
  for (int r = 0; r < v.num_regions(); ++r) {
    v.acquire_on_device(r);
  }
  v.release_all_to_host();
  EXPECT_DOUBLE_EQ(v.at({3, 3, 3}), pattern({3, 3, 3}));
}

TEST_F(AccArrayTest, FloatArraysWorkEndToEnd) {
  AccOptions opts;
  opts.max_slots = 2;
  AccTileArray<float> arr(Box::cube(8), Index3::uniform(4), 1, opts);
  arr.fill([](const Index3& p) {
    return static_cast<float>(p.i + p.j + p.k);
  });
  arr.fill_boundary(Boundary::kPeriodic);
  AccTileIterator<float> it(arr);
  oacc::LoopCost cost;
  cost.flops_per_iter = 1;
  cost.dev_bytes_per_iter = 8;
  for (it.reset(true); it.isValid(); it.next()) {
    compute(it.tile(), cost,
            [](DeviceView<float> v, int i, int j, int k) {
              v(i, j, k) *= 0.5f;
            });
  }
  arr.release_all_to_host();
  EXPECT_FLOAT_EQ(arr.at({2, 3, 4}), 4.5f);
}

TEST_F(AccArrayTest, SmallerTilesMultipleKernelsPerRegion) {
  AccTileArray<double> arr(Box::cube(8), Index3::uniform(4), 0);
  arr.fill([](const Index3&) { return 1.0; });
  AccTileIterator<double> it(arr, Index3{4, 4, 2});  // 2 tiles per region
  std::uint64_t kernels0 =
      sim::Platform::instance().trace().stats().num_kernels;
  for (it.reset(true); it.isValid(); it.next()) {
    compute(it.tile(), unit_cost(),
            [](DeviceView<double> v, int i, int j, int k) {
              v(i, j, k) += 1.0;
            });
  }
  EXPECT_EQ(sim::Platform::instance().trace().stats().num_kernels - kernels0,
            16ull);  // 8 regions * 2 tiles (paper §V: extra launches)
  arr.release_all_to_host();
  EXPECT_DOUBLE_EQ(arr.at({7, 7, 7}), 2.0);
}

}  // namespace
}  // namespace tidacc::core

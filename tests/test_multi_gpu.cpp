// Multi-GPU subsystem tests: device topology and peer APIs at the cuem
// layer, per-device accounting, the MultiAccTileArray placement and
// distributed ghost exchange, the eviction invariant under per-device slot
// schedulers and peer copies, and the golden-trace guarantee that a
// 1-device MultiAccTileArray reproduces AccTileArray bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/tidacc.hpp"
#include "sim/trace.hpp"

namespace tidacc::core {
namespace {

using sim::DeviceConfig;
using sim::Interconnect;
using tida::Boundary;
using tida::Box;
using tida::Index3;

double pattern(const Index3& p) {
  return static_cast<double>(1 + p.i + 10 * p.j + 100 * p.k);
}

oacc::LoopCost unit_cost() {
  oacc::LoopCost c;
  c.flops_per_iter = 2;
  c.dev_bytes_per_iter = 16;
  return c;
}

void enable_all_peers(int devices) {
  for (int d = 0; d < devices; ++d) {
    cuem::DeviceGuard guard(d);
    for (int peer = 0; peer < devices; ++peer) {
      if (peer != d) {
        ASSERT_EQ(cuemDeviceEnablePeerAccess(peer, 0), cuemSuccess);
      }
    }
  }
}

class MultiGpuCuemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                    /*num_devices=*/4, Interconnect::nvlink());
    oacc::reset();
  }
};

// --- device enumeration and selection ---

TEST_F(MultiGpuCuemTest, DeviceCountAndSetGet) {
  int count = -1;
  ASSERT_EQ(cuemGetDeviceCount(&count), cuemSuccess);
  EXPECT_EQ(count, 4);

  EXPECT_EQ(cuem::current_device(), 0);
  ASSERT_EQ(cuemSetDevice(2), cuemSuccess);
  int dev = -1;
  ASSERT_EQ(cuemGetDevice(&dev), cuemSuccess);
  EXPECT_EQ(dev, 2);
}

TEST_F(MultiGpuCuemTest, SetDeviceOutOfRangeReturnsErrorNotAbort) {
  ASSERT_EQ(cuemSetDevice(1), cuemSuccess);
  EXPECT_EQ(cuemSetDevice(7), cuemErrorInvalidDevice);
  EXPECT_EQ(cuemSetDevice(-1), cuemErrorInvalidDevice);
  // The failure names the offending ordinal and the valid range...
  const std::string msg = cuemGetLastErrorMessage();
  EXPECT_NE(msg.find("-1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[0, 4)"), std::string::npos) << msg;
  // ...and the current device is unchanged.
  EXPECT_EQ(cuem::current_device(), 1);
}

TEST_F(MultiGpuCuemTest, DefaultStreamFollowsCurrentDevice) {
  ASSERT_EQ(cuemSetDevice(0), cuemSuccess);
  const cuemStream_t s0 = cuem::default_stream();
  ASSERT_EQ(cuemSetDevice(3), cuemSuccess);
  const cuemStream_t s3 = cuem::default_stream();
  EXPECT_NE(s0, s3);
  EXPECT_EQ(cuem::platform().stream_device(s0), 0);
  EXPECT_EQ(cuem::platform().stream_device(s3), 3);
  // Default streams cannot be destroyed.
  EXPECT_EQ(cuemStreamDestroy(s0), cuemErrorInvalidResourceHandle);
}

TEST_F(MultiGpuCuemTest, CreatedStreamsBindToCurrentDevice) {
  ASSERT_EQ(cuemSetDevice(2), cuemSuccess);
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  EXPECT_EQ(cuem::platform().stream_device(s), 2);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
}

// --- per-device memory accounting ---

TEST_F(MultiGpuCuemTest, AllocationsBindAndCountPerDevice) {
  void* a = nullptr;
  void* b = nullptr;
  ASSERT_EQ(cuemSetDevice(0), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&a, 1 << 20), cuemSuccess);
  ASSERT_EQ(cuemSetDevice(2), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&b, 2 << 20), cuemSuccess);

  EXPECT_EQ(cuem::device_of_ptr(a), 0);
  EXPECT_EQ(cuem::device_of_ptr(b), 2);
  EXPECT_EQ(cuem::device_bytes_in_use(0), 1u << 20);
  EXPECT_EQ(cuem::device_bytes_in_use(2), 2u << 20);
  EXPECT_EQ(cuem::device_bytes_in_use(1), 0u);
  EXPECT_EQ(cuem::device_bytes_in_use(), 3u << 20);

  // cuemMemGetInfo reports the *current* device.
  std::size_t free0 = 0, total0 = 0, free2 = 0, total2 = 0;
  ASSERT_EQ(cuemSetDevice(0), cuemSuccess);
  ASSERT_EQ(cuemMemGetInfo(&free0, &total0), cuemSuccess);
  ASSERT_EQ(cuemSetDevice(2), cuemSuccess);
  ASSERT_EQ(cuemMemGetInfo(&free2, &total2), cuemSuccess);
  EXPECT_EQ(total0, total2);
  EXPECT_EQ(free0 - (2u << 20), free2 - (1u << 20));

  EXPECT_EQ(cuemFree(a), cuemSuccess);
  EXPECT_EQ(cuemFree(b), cuemSuccess);
  EXPECT_EQ(cuem::device_bytes_in_use(), 0u);
}

// --- peer access ---

TEST_F(MultiGpuCuemTest, CanAccessPeerFollowsInterconnect) {
  int can = -1;
  ASSERT_EQ(cuemDeviceCanAccessPeer(&can, 0, 1), cuemSuccess);
  EXPECT_EQ(can, 1);  // NVLink-class fabric
  ASSERT_EQ(cuemDeviceCanAccessPeer(&can, 2, 2), cuemSuccess);
  EXPECT_EQ(can, 0);  // never a peer of itself

  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/4, Interconnect::pcie());
  ASSERT_EQ(cuemDeviceCanAccessPeer(&can, 0, 1), cuemSuccess);
  EXPECT_EQ(can, 0);  // PCIe-through-host: no direct mapping
}

TEST_F(MultiGpuCuemTest, EnableDisablePeerAccessErrorPaths) {
  ASSERT_EQ(cuemSetDevice(0), cuemSuccess);
  EXPECT_EQ(cuemDeviceEnablePeerAccess(1, /*flags=*/5),
            cuemErrorInvalidValue);
  EXPECT_EQ(cuemDeviceEnablePeerAccess(0, 0), cuemErrorInvalidDevice);
  EXPECT_EQ(cuemDeviceEnablePeerAccess(9, 0), cuemErrorInvalidDevice);
  const std::string msg = cuemGetLastErrorMessage();
  EXPECT_NE(msg.find("9"), std::string::npos) << msg;
}

TEST_F(MultiGpuCuemTest, EnableTwiceAndDisableWithoutEnable) {
  ASSERT_EQ(cuemSetDevice(0), cuemSuccess);
  ASSERT_EQ(cuemDeviceEnablePeerAccess(1, 0), cuemSuccess);
  EXPECT_EQ(cuemDeviceEnablePeerAccess(1, 0),
            cuemErrorPeerAccessAlreadyEnabled);
  ASSERT_EQ(cuemDeviceDisablePeerAccess(1), cuemSuccess);
  EXPECT_EQ(cuemDeviceDisablePeerAccess(1), cuemErrorPeerAccessNotEnabled);
}

TEST_F(MultiGpuCuemTest, EnablePeerAccessUnsupportedOnPcie) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  ASSERT_EQ(cuemSetDevice(0), cuemSuccess);
  EXPECT_EQ(cuemDeviceEnablePeerAccess(1, 0),
            cuemErrorPeerAccessUnsupported);
}

// --- peer copies: direct vs staged ---

TEST_F(MultiGpuCuemTest, MemcpyPeerDirectUsesInterconnect) {
  enable_all_peers(2);
  std::vector<double> host(256);
  for (std::size_t i = 0; i < host.size(); ++i) {
    host[i] = static_cast<double>(i);
  }
  const std::size_t bytes = host.size() * sizeof(double);

  void* src = nullptr;
  void* dst = nullptr;
  ASSERT_EQ(cuemSetDevice(0), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&src, bytes), cuemSuccess);
  ASSERT_EQ(cuemMemcpy(src, host.data(), bytes, cuemMemcpyHostToDevice),
            cuemSuccess);
  ASSERT_EQ(cuemSetDevice(1), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&dst, bytes), cuemSuccess);

  const sim::TraceStats before = cuem::platform().trace().stats();
  ASSERT_EQ(cuemMemcpyPeer(dst, 1, src, 0, bytes), cuemSuccess);
  const sim::TraceStats after = cuem::platform().trace().stats();
  EXPECT_EQ(after.p2p_bytes - before.p2p_bytes, bytes);
  EXPECT_EQ(after.h2d_bytes, before.h2d_bytes);  // no host staging

  std::vector<double> out(host.size(), 0.0);
  ASSERT_EQ(cuemMemcpy(out.data(), dst, bytes, cuemMemcpyDeviceToHost),
            cuemSuccess);
  EXPECT_EQ(out, host);
  EXPECT_EQ(cuemFree(src), cuemSuccess);
  EXPECT_EQ(cuemFree(dst), cuemSuccess);
}

TEST_F(MultiGpuCuemTest, MemcpyPeerStagesThroughHostWithoutPeerAccess) {
  std::vector<double> host(256, 7.5);
  const std::size_t bytes = host.size() * sizeof(double);

  void* src = nullptr;
  void* dst = nullptr;
  ASSERT_EQ(cuemSetDevice(0), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&src, bytes), cuemSuccess);
  ASSERT_EQ(cuemMemcpy(src, host.data(), bytes, cuemMemcpyHostToDevice),
            cuemSuccess);
  ASSERT_EQ(cuemSetDevice(3), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&dst, bytes), cuemSuccess);

  const sim::TraceStats before = cuem::platform().trace().stats();
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  ASSERT_EQ(cuemMemcpyPeerAsync(dst, 3, src, 0, bytes, s), cuemSuccess);
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);
  const sim::TraceStats after = cuem::platform().trace().stats();
  // No peer route: one D2H and one H2D hop through pinned host memory.
  EXPECT_EQ(after.p2p_bytes, before.p2p_bytes);
  EXPECT_EQ(after.d2h_bytes - before.d2h_bytes, bytes);
  EXPECT_EQ(after.h2d_bytes - before.h2d_bytes, bytes);

  std::vector<double> out(host.size(), 0.0);
  ASSERT_EQ(cuemMemcpy(out.data(), dst, bytes, cuemMemcpyDeviceToHost),
            cuemSuccess);
  EXPECT_EQ(out, host);
  EXPECT_EQ(cuemFree(src), cuemSuccess);
  EXPECT_EQ(cuemFree(dst), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
}

TEST_F(MultiGpuCuemTest, MemcpyPeerValidatesEndpoints) {
  void* a = nullptr;
  ASSERT_EQ(cuemSetDevice(0), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&a, 64), cuemSuccess);
  // Pointer on device 0 claimed to be on device 1.
  EXPECT_EQ(cuemMemcpyPeer(a, 1, a, 0, 64), cuemErrorInvalidDevicePointer);
  EXPECT_EQ(cuemMemcpyPeer(a, 0, a, 11, 64), cuemErrorInvalidDevice);
  const std::string msg = cuemGetLastErrorMessage();
  EXPECT_NE(msg.find("11"), std::string::npos) << msg;
  EXPECT_EQ(cuemFree(a), cuemSuccess);
}

// --- MultiAccTileArray placement ---

class MultiArrayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                    /*num_devices=*/2, Interconnect::nvlink());
    oacc::reset();
  }
};

TEST_F(MultiArrayTest, BlockAndRoundRobinPlacement) {
  // 8 slab regions over 2 devices.
  MultiAccOptions block;
  MultiAccTileArray<double> a(Box::cube(16), Index3{16, 16, 2}, 0, block);
  ASSERT_EQ(a.num_regions(), 8);
  EXPECT_EQ(a.num_devices(), 2);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(a.device_of_region(r), r / 4);
  }
  EXPECT_EQ(a.regions_of_device(0),
            (std::vector<int>{0, 1, 2, 3}));

  MultiAccOptions rr;
  rr.placement = DevicePlacement::kRoundRobin;
  MultiAccTileArray<double> b(Box::cube(16), Index3{16, 16, 2}, 0, rr);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(b.device_of_region(r), r % 2);
  }
  EXPECT_EQ(b.regions_of_device(1),
            (std::vector<int>{1, 3, 5, 7}));

  EXPECT_EQ(parse_placement("block"), DevicePlacement::kBlock);
  EXPECT_EQ(parse_placement("rr"), DevicePlacement::kRoundRobin);
  EXPECT_THROW(parse_placement("diagonal"), Error);
}

TEST_F(MultiArrayTest, StreamsAndSlotsLiveOnOwningDevice) {
  MultiAccTileArray<double> a(Box::cube(16), Index3{16, 16, 4}, 1);
  ASSERT_EQ(a.num_regions(), 4);
  for (int r = 0; r < 4; ++r) {
    const int dev = a.device_of_region(r);
    EXPECT_EQ(cuem::platform().stream_device(a.stream_of_region(r)), dev);
    EXPECT_EQ(cuem::device_of_ptr(a.device_region(r).data), dev);
  }
}

// --- distributed ghost exchange ---

TEST_F(MultiArrayTest, GhostExchangeCrossesDevicesDirectAndStaged) {
  enable_all_peers(2);
  MultiAccTileArray<double> a(Box::cube(8), Index3{8, 8, 2}, 1);
  a.fill(pattern);
  for (int r = 0; r < a.num_regions(); ++r) {
    a.acquire_on_device(r);
  }
  const sim::TraceStats before = cuem::platform().trace().stats();
  a.fill_boundary(Boundary::kPeriodic);
  const sim::TraceStats after = cuem::platform().trace().stats();
  EXPECT_GT(a.peer_ghost_copies(), 0u);
  EXPECT_GT(a.device_ghost_updates(), 0u);
  EXPECT_GT(after.p2p_bytes, before.p2p_bytes);  // direct fabric traffic

  // Values: every ghost cell mirrors its periodic source.
  a.release_all_to_host();
  const tida::Region<double> r0 = a.region(0);
  // Ghost layer below region 0 wraps to the domain's top k-plane.
  EXPECT_EQ(r0.at(3, 3, -1), pattern(Index3{3, 3, 7}));
  EXPECT_EQ(r0.at(5, 2, 2), pattern(Index3{5, 2, 2}));
}

TEST_F(MultiArrayTest, StagedGhostExchangeMatchesDirectValues) {
  // Same exchange on the PCIe topology: peer copies stage through the
  // host, the resulting field is identical.
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  MultiAccTileArray<double> a(Box::cube(8), Index3{8, 8, 2}, 1);
  a.fill(pattern);
  for (int r = 0; r < a.num_regions(); ++r) {
    a.acquire_on_device(r);
  }
  const sim::TraceStats before = cuem::platform().trace().stats();
  a.fill_boundary(Boundary::kPeriodic);
  const sim::TraceStats after = cuem::platform().trace().stats();
  EXPECT_GT(a.peer_ghost_copies(), 0u);
  EXPECT_EQ(after.p2p_bytes, before.p2p_bytes);   // nothing direct
  EXPECT_GT(after.d2h_bytes, before.d2h_bytes);   // host staging hops
  EXPECT_GT(after.h2d_bytes, before.h2d_bytes);

  a.release_all_to_host();
  const tida::Region<double> r0 = a.region(0);
  EXPECT_EQ(r0.at(3, 3, -1), pattern(Index3{3, 3, 7}));
}

TEST_F(MultiArrayTest, ComputeGpuRejectsPairOfOtherGeometry) {
  MultiAccTileArray<double> in(Box::cube(8), Index3{8, 8, 2}, 1);
  // Same region count and placement, different domain.
  MultiAccTileArray<double> shifted(Box::cube(8).shift({8, 0, 0}),
                                    Index3{8, 8, 2}, 1);
  // Same domain, different region size.
  MultiAccTileArray<double> cubes(Box::cube(8), Index3::uniform(4), 1);
  const auto body = [](DeviceView<double>, DeviceView<double>, int, int,
                       int) {};
  EXPECT_THROW(compute_gpu(in, shifted, 0, unit_cost(), body), Error);
  EXPECT_THROW(compute_gpu(in, cubes, 0, unit_cost(), body), Error);
}

TEST_F(MultiArrayTest, FunctionalHeatMatchesSingleDevice) {
  const auto run = [](int devices) {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/true, devices,
                    Interconnect::nvlink());
    oacc::reset();
    if (devices > 1) {
      enable_all_peers(devices);
    }
    MultiAccTileArray<double> u(Box::cube(8), Index3{8, 8, 2}, 1);
    MultiAccTileArray<double> un(Box::cube(8), Index3{8, 8, 2}, 1);
    u.fill(pattern);
    oacc::LoopCost cost = unit_cost();
    for (int s = 0; s < 2; ++s) {
      (s % 2 == 0 ? u : un).fill_boundary(Boundary::kPeriodic);
      for (int r = 0; r < u.num_regions(); ++r) {
        auto& in = s % 2 == 0 ? u : un;
        auto& out = s % 2 == 0 ? un : u;
        compute_gpu(in, out, r, cost,
                    [](DeviceView<double> vi, DeviceView<double> vo, int i,
                       int j, int k) {
                      vo(i, j, k) =
                          vi(i, j, k) + 0.1 * (vi(i, j, k - 1) +
                                               vi(i, j, k + 1) -
                                               2.0 * vi(i, j, k));
                    });
      }
    }
    MultiAccTileArray<double>& fin = un;
    fin.release_all_to_host();
    std::vector<double> out;
    for (int k = 0; k < 8; ++k) {
      for (int i = 0; i < 8; ++i) {
        out.push_back(fin.at(Index3{i, 3, k}));
      }
    }
    return out;
  };
  const std::vector<double> one = run(1);
  const std::vector<double> two = run(2);
  EXPECT_EQ(one, two);
}

// --- eviction invariant under per-device schedulers + peer copies ---

TEST_F(MultiArrayTest, EvictionOrdersVictimD2HBeforeNewcomerH2D) {
  enable_all_peers(2);
  MultiAccOptions opts;
  opts.max_slots_per_device = 2;  // 4 regions/device share 2 slots each
  MultiAccTileArray<double> a(Box::cube(16), Index3{16, 16, 2}, 0, opts);
  ASSERT_EQ(a.num_regions(), 8);
  ASSERT_FALSE(a.all_regions_fit());
  a.fill(pattern);

  // Warm both devices' slots, mix a peer copy onto the same streams, then
  // force evictions on every slot.
  for (int r : {0, 1, 4, 5}) {
    a.acquire_on_device(r);
  }
  ASSERT_EQ(cuem::peer_copy_async(
                /*dst_device=*/1, /*src_device=*/0,
                a.region_bytes(0), a.stream_of_region(4), "G:test",
                /*action=*/nullptr),
            cuemSuccess);
  for (int r : {2, 3, 6, 7}) {
    a.acquire_on_device(r);  // evicts 0, 1, 4, 5
  }

  // Per stream, ops must be serialized in enqueue order, and every
  // eviction D2H must finish before the newcomer's H2D starts.
  const auto& events = cuem::platform().trace().events();
  ASSERT_FALSE(events.empty());
  std::vector<int> streams;
  for (const sim::TraceEvent& ev : events) {
    if (std::find(streams.begin(), streams.end(), ev.stream) ==
        streams.end()) {
      streams.push_back(ev.stream);
    }
  }
  int eviction_pairs = 0;
  for (const int s : streams) {
    const sim::TraceEvent* prev = nullptr;
    for (const sim::TraceEvent& ev : events) {
      if (ev.stream != s) {
        continue;
      }
      if (prev != nullptr) {
        EXPECT_GE(ev.start, prev->finish)
            << "stream " << s << ": '" << ev.label << "' overlaps '"
            << prev->label << "'";
        if (prev->kind == sim::OpKind::kCopyD2H &&
            ev.kind == sim::OpKind::kCopyH2D) {
          EXPECT_LE(prev->finish, ev.start);
          ++eviction_pairs;
        }
      }
      prev = &ev;
    }
  }
  EXPECT_GE(eviction_pairs, 4);  // one per forced eviction
  // Residency after the churn reflects the newcomers.
  for (int r : {2, 3, 6, 7}) {
    EXPECT_EQ(a.location(r), Loc::kDevice);
  }
  for (int r : {0, 1, 4, 5}) {
    EXPECT_EQ(a.location(r), Loc::kHost);
  }
}

// --- golden trace: 1-device MultiAccTileArray == AccTileArray ---

// The identical single-array program expressed against both APIs. Single
// tile per region (default tile size), one array per compute, so the
// operation sequences are comparable op-for-op.
std::vector<sim::TraceEvent> golden_acc() {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/1, Interconnect::pcie());
  oacc::reset();
  AccTileArray<double> arr(Box::cube(16), Index3{16, 16, 4}, 1);
  arr.fill(pattern);
  arr.fill_boundary(Boundary::kPeriodic);  // host-side exchange
  AccTileIterator<double> it(arr);
  const oacc::LoopCost cost = unit_cost();
  for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
    compute(it.tile(), cost,
            [](DeviceView<double> v, int i, int j, int k) {
              v(i, j, k) = 2.0 * v(i, j, k) + 1.0;
            });
  }
  arr.fill_boundary(Boundary::kPeriodic);  // device-side exchange
  for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
    compute(it.tile(), cost,
            [](DeviceView<double> v, int i, int j, int k) {
              v(i, j, k) += 3.0;
            });
  }
  arr.release_all_to_host();
  return cuem::platform().trace().events();
}

std::vector<sim::TraceEvent> golden_multi() {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/1, Interconnect::pcie());
  oacc::reset();
  MultiAccTileArray<double> arr(Box::cube(16), Index3{16, 16, 4}, 1);
  arr.fill(pattern);
  arr.fill_boundary(Boundary::kPeriodic);
  const oacc::LoopCost cost = unit_cost();
  for (int r = 0; r < arr.num_regions(); ++r) {
    compute_gpu(arr, r, cost,
                [](DeviceView<double> v, int i, int j, int k) {
                  v(i, j, k) = 2.0 * v(i, j, k) + 1.0;
                });
  }
  arr.fill_boundary(Boundary::kPeriodic);
  for (int r = 0; r < arr.num_regions(); ++r) {
    compute_gpu(arr, r, cost,
                [](DeviceView<double> v, int i, int j, int k) {
                  v(i, j, k) += 3.0;
                });
  }
  arr.release_all_to_host();
  return cuem::platform().trace().events();
}

TEST(MultiGpuGoldenTrace, OneDeviceMatchesAccTileArrayBitForBit) {
  const std::vector<sim::TraceEvent> acc = golden_acc();
  const SimTime acc_end = cuem::platform().now();
  const std::vector<sim::TraceEvent> multi = golden_multi();
  const SimTime multi_end = cuem::platform().now();

  ASSERT_EQ(acc.size(), multi.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i) + " '" + acc[i].label + "'");
    EXPECT_EQ(acc[i].engine, multi[i].engine);
    EXPECT_EQ(acc[i].stream, multi[i].stream);
    EXPECT_EQ(acc[i].kind, multi[i].kind);
    EXPECT_EQ(acc[i].start, multi[i].start);
    EXPECT_EQ(acc[i].finish, multi[i].finish);
    EXPECT_EQ(acc[i].bytes, multi[i].bytes);
    EXPECT_EQ(acc[i].label, multi[i].label);
    EXPECT_EQ(acc[i].device, multi[i].device);
  }
  EXPECT_EQ(acc_end, multi_end);
}

}  // namespace
}  // namespace tidacc::core

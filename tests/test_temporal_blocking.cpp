// Tests for k-step temporal blocking (compute_k): trapezoid box algebra,
// bitwise equality of k in-slot sub-steps against the flat single-step
// reference for the heat and box stencils across ghost widths, in core and
// out of core, snapshot round trips mid-campaign, the multi-device mirror,
// and the cost-model auto-tuner's basic shape.
#include <gtest/gtest.h>

#include <vector>

#include "core/tidacc.hpp"
#include "core/world_snapshot.hpp"
#include "kernels/heat.hpp"
#include "kernels/stencil27.hpp"

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

class TemporalBlockingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cuem::configure(fast_config(), /*functional=*/true);
    oacc::reset();
  }
};

// --- box algebra ---

TEST(TrapezoidAlgebraTest, RangesShrinkByOneRadiusPerSubStep) {
  const Box valid{{4, 4, 4}, {11, 11, 11}};
  for (const int radius : {1, 2}) {
    for (const int k : {2, 3, 4}) {
      for (int s = 0; s < k; ++s) {
        const Box range = tida::trapezoid_range(valid, radius, k, s);
        EXPECT_EQ(range, valid.grow(radius * (k - 1 - s)));
        if (s + 1 < k) {
          // Each sub-step reads exactly one radius beyond the next one's
          // writes — the invariant that makes depth-k blocking exact.
          EXPECT_EQ(tida::trapezoid_range(valid, radius, k, s + 1)
                        .grow(radius),
                    range);
        }
      }
      EXPECT_EQ(tida::trapezoid_range(valid, radius, k, k - 1), valid);
      const std::vector<Box> shells =
          tida::temporal_shells(valid, radius, k);
      std::uint64_t vol = 0;
      for (const Box& b : shells) vol += b.volume();
      EXPECT_EQ(vol, valid.grow(radius * k).volume() - valid.volume());
    }
  }
}

// --- bitwise equality against the flat reference ---

std::vector<double> flat_heat(int n, int steps) {
  std::vector<double> u(static_cast<std::size_t>(n) * n * n);
  kernels::heat_init_flat(u.data(), n);
  kernels::heat_reference(u, n, steps);
  return u;
}

std::vector<double> flat_box(int n, int steps, int radius) {
  std::vector<double> u(static_cast<std::size_t>(n) * n * n);
  kernels::heat_init_flat(u.data(), n);
  std::vector<double> un(u.size());
  for (int s = 0; s < steps; ++s) {
    kernels::box_stencil_step_flat(u.data(), un.data(), n, radius);
    u.swap(un);
  }
  return u;
}

/// Runs `steps` stencil steps in blocks of k sub-steps per residency and
/// returns the flat field. Out-of-core runs force the streaming exchange
/// (the risky protocol: widened dirty interiors + pitched shell copies).
std::vector<double> run_blocked(int n, int regions, int slots, int steps,
                                int radius, int k, bool heat) {
  cuem::configure(fast_config(), /*functional=*/true);
  oacc::reset();
  const int slab = (n + regions - 1) / regions;
  AccOptions o;
  o.max_slots = slots;
  o.time_block_k = k;
  if (slots < regions) {
    o.delta_transfers = true;
    o.streaming_guard = StreamingGuard::kForceStreaming;
  }
  AccTileArray<double> u(Box::cube(n), Index3{n, n, slab}, radius * k, o);
  u.fill([](const Index3& p) {
    return kernels::heat_initial(p.i, p.j, p.k);
  });
  const LoopCost cost =
      heat ? kernels::heat_cost() : kernels::box_stencil_cost(radius);
  for (int s = 0; s < steps; s += k) {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      compute_k(u, r, k, radius, cost,
                [radius, heat](DeviceView<double> in, DeviceView<double> out,
                               int i, int j, int kk) {
                  out(i, j, kk) =
                      heat ? kernels::heat_point(in, i, j, kk)
                           : kernels::box_stencil_point(in, i, j, kk,
                                                        radius);
                });
    }
  }
  u.release_all_to_host();
  std::vector<double> out(static_cast<std::size_t>(n) * n * n);
  u.copy_out(out.data());
  return out;
}

/// The k=1 rung of the ladder: the existing one-step ping-pong pipeline.
std::vector<double> run_single(int n, int regions, int slots, int steps,
                               int radius, bool heat) {
  cuem::configure(fast_config(), /*functional=*/true);
  oacc::reset();
  const int slab = (n + regions - 1) / regions;
  AccOptions o;
  o.max_slots = slots;
  AccTileArray<double> u(Box::cube(n), Index3{n, n, slab}, radius, o);
  AccTileArray<double> un(Box::cube(n), Index3{n, n, slab}, radius, o);
  u.fill([](const Index3& p) {
    return kernels::heat_initial(p.i, p.j, p.k);
  });
  const LoopCost cost =
      heat ? kernels::heat_cost() : kernels::box_stencil_cost(radius);
  AccTileArray<double>* src = &u;
  AccTileArray<double>* dst = &un;
  AccTileIterator<double> it(u);
  for (int s = 0; s < steps; ++s) {
    src->fill_boundary(Boundary::kPeriodic);
    for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
      compute(it.tile_in(*src), it.tile_in(*dst), cost,
              [radius, heat](DeviceView<double> in, DeviceView<double> out,
                             int i, int j, int kk) {
                out(i, j, kk) =
                    heat ? kernels::heat_point(in, i, j, kk)
                         : kernels::box_stencil_point(in, i, j, kk, radius);
              });
    }
    std::swap(src, dst);
  }
  src->release_all_to_host();
  std::vector<double> out(static_cast<std::size_t>(n) * n * n);
  src->copy_out(out.data());
  return out;
}

TEST_F(TemporalBlockingTest, HeatSingleStepPipelineMatchesReference) {
  const std::vector<double> ref = flat_heat(16, 6);
  EXPECT_EQ(run_single(16, 4, 4, 6, 1, /*heat=*/true), ref);
  EXPECT_EQ(run_single(16, 4, 2, 6, 1, /*heat=*/true), ref);
}

TEST_F(TemporalBlockingTest, BlockedHeatIsBitwiseEqualInCore) {
  const std::vector<double> ref = flat_heat(16, 6);
  for (const int k : {2, 3}) {
    EXPECT_EQ(run_blocked(16, 4, 4, 6, 1, k, /*heat=*/true), ref)
        << "k=" << k;
  }
}

TEST_F(TemporalBlockingTest, BlockedHeatIsBitwiseEqualOutOfCore) {
  const std::vector<double> ref = flat_heat(16, 6);
  for (const int k : {2, 3}) {
    for (const int slots : {3, 2}) {
      EXPECT_EQ(run_blocked(16, 4, slots, 6, 1, k, /*heat=*/true), ref)
          << "k=" << k << " slots=" << slots;
    }
  }
}

TEST_F(TemporalBlockingTest, BlockedBoxStencilAcrossGhostWidths) {
  // radius (ghost width per step) 1..3; array ghost = radius * k.
  for (const int radius : {1, 2, 3}) {
    const int n = radius == 3 ? 32 : 16;  // keep ghost <= slab
    const std::vector<double> ref = flat_box(n, 6, radius);
    EXPECT_EQ(run_single(n, 4, 4, 6, radius, /*heat=*/false), ref)
        << "radius=" << radius << " k=1";
    for (const int k : {2, 3}) {
      if (radius * k > n / 4) continue;
      EXPECT_EQ(run_blocked(n, 4, 4, 6, radius, k, /*heat=*/false), ref)
          << "radius=" << radius << " k=" << k << " in-core";
      EXPECT_EQ(run_blocked(n, 4, 3, 6, radius, k, /*heat=*/false), ref)
          << "radius=" << radius << " k=" << k << " out-of-core";
    }
  }
}

// --- contract checks ---

TEST_F(TemporalBlockingTest, ComputeKValidatesConfiguration) {
  AccOptions o;
  o.time_block_k = 2;
  AccTileArray<double> u(Box::cube(8), Index3{8, 8, 2}, 2, o);
  u.assume_host_initialized();
  const LoopCost cost = kernels::heat_cost();
  const auto body = [](DeviceView<double>, DeviceView<double>, int, int,
                       int) {};
  // k beyond the configured depth, and ghost too narrow for the depth.
  EXPECT_THROW(compute_k(u, 0, 3, 1, cost, body), tidacc::Error);
  EXPECT_THROW(compute_k(u, 0, 2, 2, cost, body), tidacc::Error);

  AccTileArray<double> plain(Box::cube(8), Index3{8, 8, 2}, 2);
  plain.assume_host_initialized();
  // No scratch buffers (time_block_k defaulted to 1).
  EXPECT_THROW(compute_k(plain, 0, 2, 1, cost, body), tidacc::Error);
}

// --- snapshot round trip mid-campaign ---

TEST_F(TemporalBlockingTest, SnapshotRoundTripReplaysBitwise) {
  const int n = 16, k = 2, radius = 1;
  AccOptions o;
  o.max_slots = 3;
  o.delta_transfers = true;
  o.streaming_guard = StreamingGuard::kForceStreaming;
  o.time_block_k = k;
  AccTileArray<double> u(Box::cube(n), Index3{n, n, 4}, radius * k, o);
  u.fill([](const Index3& p) {
    return kernels::heat_initial(p.i, p.j, p.k);
  });
  const LoopCost cost = kernels::heat_cost();
  const auto body = [](DeviceView<double> in, DeviceView<double> out, int i,
                       int j, int kk) {
    out(i, j, kk) = kernels::heat_point(in, i, j, kk);
  };
  const auto block = [&]() {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      compute_k(u, r, k, radius, cost, body);
    }
  };
  block();  // capture mid-campaign: live residency, swapped slot buffers

  sim::SnapshotWriter w;
  world_capture(w);
  u.capture(w);
  const std::vector<std::uint8_t> snap = w.take();

  const auto tail = [&]() {
    block();
    u.release_all_to_host();
    std::vector<double> out(static_cast<std::size_t>(n) * n * n);
    u.copy_out(out.data());
    return out;
  };
  const std::vector<double> first = tail();

  sim::SnapshotReader r(snap);
  world_restore(r);
  u.restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(tail(), first);
}

// --- multi-device mirror ---

TEST_F(TemporalBlockingTest, MultiDeviceBlockedMatchesFlatReference) {
  cuem::configure(fast_config(), /*functional=*/true, /*devices=*/2,
                  sim::Interconnect::pcie());
  oacc::reset();
  const int n = 16, k = 2, radius = 1, steps = 6;
  MultiAccOptions o;
  o.devices = 2;
  o.max_slots = 2;  // 4 regions on 2 devices: out of core
  o.delta_transfers = true;
  o.streaming_guard = StreamingGuard::kForceStreaming;
  o.time_block_k = k;
  MultiAccTileArray<double> u(Box::cube(n), Index3{n, n, 4}, radius * k, o);
  u.fill([](const Index3& p) {
    return kernels::heat_initial(p.i, p.j, p.k);
  });
  const LoopCost cost = kernels::heat_cost();
  for (int s = 0; s < steps; s += k) {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      compute_k(u, r, k, radius, cost,
                [](DeviceView<double> in, DeviceView<double> out, int i,
                   int j, int kk) {
                  out(i, j, kk) = kernels::heat_point(in, i, j, kk);
                });
    }
  }
  u.release_all_to_host();
  std::vector<double> out(static_cast<std::size_t>(n) * n * n);
  u.copy_out(out.data());
  EXPECT_EQ(out, flat_heat(n, steps));
}

// --- auto-tuner shape ---

TEST(TimeBlockTunerTest, PicksDepthGreaterThanOneAtPaperScale) {
  // The fig8 limited-memory halo geometry: PCIe-bound, so blocking wins.
  std::vector<TimeBlockPrediction> table;
  const int k = choose_time_block_k(Box::cube(256), Index3{256, 256, 16},
                                    /*radius=*/1,
                                    kernels::box_stencil_cost(1),
                                    DeviceConfig::k40m(), /*max_k=*/8,
                                    &table);
  EXPECT_GT(k, 1);
  EXPECT_LE(k, 8);
  ASSERT_EQ(table.size(), 8u);
  for (const auto& row : table) {
    EXPECT_GT(row.step_ns, 0.0);
    EXPECT_GT(row.bytes_per_update, 0.0);
  }
  // Blocking buys its win by shipping fewer link bytes per cell update.
  EXPECT_LT(table[static_cast<std::size_t>(k - 1)].bytes_per_update,
            table[0].bytes_per_update);
}

TEST(TimeBlockTunerTest, FreeTransfersMakeBlockingPointless) {
  // With an (unphysically) fast link and no per-transfer setup the
  // pipeline is compute-bound; widened trapezoids only add work.
  DeviceConfig cfg = DeviceConfig::k40m();
  cfg.pinned_h2d_gbps = 1e9;
  cfg.pinned_d2h_gbps = 1e9;
  cfg.transfer_latency_ns = 0;
  cfg.host_api_overhead_ns = 0;
  const int k = choose_time_block_k(Box::cube(256), Index3{256, 256, 16},
                                    /*radius=*/1,
                                    kernels::box_stencil_cost(1), cfg);
  EXPECT_EQ(k, 1);
}

}  // namespace
}  // namespace tidacc::core

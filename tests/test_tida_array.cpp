// Tests for TileArray / Region / Tile / TileIterator, including functional
// ghost exchange against a reference single-array implementation.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "cuem/cuem.hpp"
#include "tida/tile_array.hpp"
#include "tida/tile_iterator.hpp"

namespace tidacc::tida {
namespace {

class TidaArrayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/true);
  }
};

// --- construction & layout ---

TEST_F(TidaArrayTest, AllocatesOneBufferPerRegion) {
  TileArray<double> arr(Box::cube(8), Index3::uniform(4), 1);
  EXPECT_EQ(arr.num_regions(), 8);
  EXPECT_EQ(arr.ghost(), 1);
  // 8 region buffers of 6^3 doubles each.
  EXPECT_EQ(arr.total_bytes(), 8ull * 6 * 6 * 6 * sizeof(double));
  EXPECT_EQ(arr.region_bytes(0), 6ull * 6 * 6 * sizeof(double));
}

TEST_F(TidaArrayTest, PinnedAllocationIsRegistered) {
  TileArray<double> arr(Box::cube(4), Index3::uniform(4), 0,
                        HostAlloc::kPinned);
  EXPECT_TRUE(cuem::is_pinned_host_ptr(arr.region(0).data));
}

TEST_F(TidaArrayTest, PageableAllocationIsNotPinned) {
  TileArray<double> arr(Box::cube(4), Index3::uniform(4), 0,
                        HostAlloc::kPageable);
  EXPECT_FALSE(cuem::is_pinned_host_ptr(arr.region(0).data));
}

TEST_F(TidaArrayTest, DestructorReleasesBuffers) {
  const std::size_t before = cuem::live_allocation_count();
  {
    TileArray<float> arr(Box::cube(8), Index3::uniform(4), 1);
    EXPECT_EQ(cuem::live_allocation_count(), before + 8);
  }
  EXPECT_EQ(cuem::live_allocation_count(), before);
}

TEST_F(TidaArrayTest, RegionViewGeometry) {
  TileArray<double> arr(Box::cube(8), Index3::uniform(4), 2);
  const Region<double> r = arr.region(7);
  EXPECT_EQ(r.id, 7);
  EXPECT_EQ(r.valid, (Box{{4, 4, 4}, {7, 7, 7}}));
  EXPECT_EQ(r.grown, (Box{{2, 2, 2}, {9, 9, 9}}));
  EXPECT_EQ(r.extent(), (Index3{8, 8, 8}));
  EXPECT_EQ(r.cells(), 512ull);
}

TEST_F(TidaArrayTest, OffsetOfIsRowMajorIFastest) {
  TileArray<int> arr(Box::cube(4), Index3::uniform(4), 1);
  const Region<int> r = arr.region(0);
  // grown box starts at (-1,-1,-1), extent 6.
  EXPECT_EQ(r.offset_of({-1, -1, -1}), 0u);
  EXPECT_EQ(r.offset_of({0, -1, -1}), 1u);
  EXPECT_EQ(r.offset_of({-1, 0, -1}), 6u);
  EXPECT_EQ(r.offset_of({-1, -1, 0}), 36u);
}

TEST_F(TidaArrayTest, AtReadsAndWritesCells) {
  TileArray<double> arr(Box::cube(8), Index3::uniform(4), 1);
  arr.at({5, 2, 7}) = 42.0;
  EXPECT_DOUBLE_EQ(arr.at({5, 2, 7}), 42.0);
  // The write landed in the owning region's buffer.
  EXPECT_DOUBLE_EQ(arr.region(arr.partition().region_of_cell({5, 2, 7}))
                       .at(5, 2, 7),
                   42.0);
}

TEST_F(TidaArrayTest, AtOutsideDomainThrows) {
  TileArray<double> arr(Box::cube(4), Index3::uniform(4), 1);
  EXPECT_THROW(arr.at({4, 0, 0}), Error);
}

// --- fill / copy_out ---

TEST_F(TidaArrayTest, FillAndCopyOutRoundTrip) {
  const Box dom = Box::from_extents({6, 5, 4});
  TileArray<double> arr(dom, Index3{3, 5, 2}, 1);
  arr.fill([](const Index3& p) {
    return static_cast<double>(p.i + 10 * p.j + 100 * p.k);
  });
  std::vector<double> flat(dom.volume());
  arr.copy_out(flat.data());
  const Index3 e = dom.extent();
  for (int k = 0; k < e.k; ++k) {
    for (int j = 0; j < e.j; ++j) {
      for (int i = 0; i < e.i; ++i) {
        ASSERT_DOUBLE_EQ(flat[(static_cast<std::size_t>(k) * e.j + j) * e.i + i],
                         i + 10 * j + 100 * k);
      }
    }
  }
}

// --- ghost exchange (functional) ---

/// Reference: ghost value of cell p is the valid value of its (possibly
/// wrapped) owner.
double expected_value(const Index3& p) {
  return static_cast<double>(p.i + 10 * p.j + 100 * p.k);
}

TEST_F(TidaArrayTest, FillBoundaryPeriodicMatchesReference) {
  const Box dom = Box::cube(8);
  TileArray<double> arr(dom, Index3::uniform(4), 2);
  arr.fill(expected_value);
  arr.fill_boundary_host(Boundary::kPeriodic);

  const auto wrap = [&](int v, int n) { return ((v % n) + n) % n; };
  for (int id = 0; id < arr.num_regions(); ++id) {
    const Region<double> r = arr.region(id);
    for (int k = r.grown.lo.k; k <= r.grown.hi.k; ++k) {
      for (int j = r.grown.lo.j; j <= r.grown.hi.j; ++j) {
        for (int i = r.grown.lo.i; i <= r.grown.hi.i; ++i) {
          const Index3 src{wrap(i, 8), wrap(j, 8), wrap(k, 8)};
          ASSERT_DOUBLE_EQ(r.at(i, j, k), expected_value(src))
              << "region " << id << " cell (" << i << ',' << j << ',' << k
              << ')';
        }
      }
    }
  }
}

TEST_F(TidaArrayTest, FillBoundaryNoneUpdatesInteriorGhostsOnly) {
  const Box dom = Box::cube(8);
  TileArray<double> arr(dom, Index3::uniform(4), 1);
  arr.fill(expected_value);
  // Poison all ghost cells first.
  for (int id = 0; id < arr.num_regions(); ++id) {
    const Region<double> r = arr.region(id);
    for (int k = r.grown.lo.k; k <= r.grown.hi.k; ++k) {
      for (int j = r.grown.lo.j; j <= r.grown.hi.j; ++j) {
        for (int i = r.grown.lo.i; i <= r.grown.hi.i; ++i) {
          if (!r.valid.contains(Index3{i, j, k})) {
            r.at(i, j, k) = -1.0;
          }
        }
      }
    }
  }
  arr.fill_boundary_host(Boundary::kNone);
  for (int id = 0; id < arr.num_regions(); ++id) {
    const Region<double> r = arr.region(id);
    for (int k = r.grown.lo.k; k <= r.grown.hi.k; ++k) {
      for (int j = r.grown.lo.j; j <= r.grown.hi.j; ++j) {
        for (int i = r.grown.lo.i; i <= r.grown.hi.i; ++i) {
          const Index3 p{i, j, k};
          if (r.valid.contains(p)) {
            continue;
          }
          if (dom.contains(p)) {
            ASSERT_DOUBLE_EQ(r.at(p), expected_value(p));
          } else {
            ASSERT_DOUBLE_EQ(r.at(p), -1.0);  // untouched outside domain
          }
        }
      }
    }
  }
}

TEST_F(TidaArrayTest, FillBoundaryReturnsGhostCellCount) {
  TileArray<double> arr(Box::cube(8), Index3::uniform(4), 1);
  arr.fill(expected_value);
  const std::uint64_t cells = arr.fill_boundary_host(Boundary::kPeriodic);
  // Each of 8 regions: 6^3 - 4^3 = 152 ghost cells.
  EXPECT_EQ(cells, 8ull * 152);
}

TEST_F(TidaArrayTest, FillBoundaryChargesHostTime) {
  TileArray<double> arr(Box::cube(16), Index3::uniform(8), 2);
  arr.fill(expected_value);
  const SimTime before = sim::Platform::instance().now();
  arr.fill_boundary_host(Boundary::kPeriodic);
  EXPECT_GT(sim::Platform::instance().now(), before);
}

TEST_F(TidaArrayTest, ExchangePlanIsCached) {
  TileArray<double> arr(Box::cube(8), Index3::uniform(4), 1);
  const auto* p1 = &arr.exchange_plan(Boundary::kPeriodic);
  const auto* p2 = &arr.exchange_plan(Boundary::kPeriodic);
  EXPECT_EQ(p1, p2);
  const auto* p3 = &arr.exchange_plan(Boundary::kNone);
  EXPECT_NE(p1, p3);
}

TEST_F(TidaArrayTest, EqualGeometriesShareOnePlan) {
  TileArray<double> a(Box::cube(12), Index3::uniform(4), 1);
  TileArray<double> b(Box::cube(12), Index3::uniform(4), 1);
  TileArray<float> c(Box::cube(12), Index3::uniform(4), 1,
                     HostAlloc::kPageable, 2);
  const auto* plan = &a.exchange_plan(Boundary::kPeriodic);
  EXPECT_EQ(&b.exchange_plan(Boundary::kPeriodic), plan);
  EXPECT_EQ(&c.exchange_plan(Boundary::kPeriodic), plan);  // geometry only

  TileArray<double> wide(Box::cube(12), Index3::uniform(4), 2);
  TileArray<double> slabs(Box::cube(12), Index3{12, 12, 4}, 1);
  TileArray<double> shifted(Box::cube(12).shift({1, 0, 0}),
                            Index3::uniform(4), 1);
  EXPECT_NE(&wide.exchange_plan(Boundary::kPeriodic), plan);
  EXPECT_NE(&slabs.exchange_plan(Boundary::kPeriodic), plan);
  EXPECT_NE(&shifted.exchange_plan(Boundary::kPeriodic), plan);
  EXPECT_NE(&b.exchange_plan(Boundary::kNone), plan);
  EXPECT_EQ(&b.exchange_plan(Boundary::kNone),
            &a.exchange_plan(Boundary::kNone));
}

TEST_F(TidaArrayTest, SharedPlanFreedWithLastHolder) {
  const std::size_t live = shared_plan_count();
  std::weak_ptr<const std::vector<GhostCopy>> weak;
  {
    TileArray<double> a(Box::cube(10), Index3::uniform(5), 1);
    a.exchange_plan(Boundary::kPeriodic);
    weak = shared_exchange_plan(a.partition(), 1, Boundary::kPeriodic);
    EXPECT_EQ(weak.lock().get(), &a.exchange_plan(Boundary::kPeriodic));
    EXPECT_EQ(shared_plan_count(), live + 1);
    {
      TileArray<double> b(Box::cube(10), Index3::uniform(5), 1);
      b.exchange_plan(Boundary::kPeriodic);
      EXPECT_EQ(shared_plan_count(), live + 1);
    }
    EXPECT_FALSE(weak.expired());  // `a` still holds it
  }
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(shared_plan_count(), live);  // the expired entry is dropped
}

TEST_F(TidaArrayTest, SharedPlanIsThreadSafe) {
  const Partition part(Box::cube(12), Index3::uniform(3));
  std::vector<SharedPlan> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      got[t] = shared_exchange_plan(part, 1, Boundary::kPeriodic);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (const SharedPlan& plan : got) {
    EXPECT_EQ(plan, got[0]);
  }
  EXPECT_EQ(got[0]->size(),
            compute_exchange_plan(part, 1, Boundary::kPeriodic).size());
}

// --- parameterized: exchange correctness across geometries ---

struct ExchangeCase {
  Index3 domain;
  Index3 region;
  int ghost;
};

class ExchangeSweep : public ::testing::TestWithParam<ExchangeCase> {};

TEST_P(ExchangeSweep, PeriodicGhostsMatchWrappedReference) {
  cuem::configure(sim::DeviceConfig::k40m(), true);
  const auto& c = GetParam();
  const Box dom = Box::from_extents(c.domain);
  TileArray<double> arr(dom, c.region, c.ghost);
  arr.fill(expected_value);
  arr.fill_boundary_host(Boundary::kPeriodic);
  const auto wrap = [](int v, int n) { return ((v % n) + n) % n; };
  for (int id = 0; id < arr.num_regions(); ++id) {
    const Region<double> r = arr.region(id);
    for (int k = r.grown.lo.k; k <= r.grown.hi.k; ++k) {
      for (int j = r.grown.lo.j; j <= r.grown.hi.j; ++j) {
        for (int i = r.grown.lo.i; i <= r.grown.hi.i; ++i) {
          const Index3 src{wrap(i, c.domain.i), wrap(j, c.domain.j),
                           wrap(k, c.domain.k)};
          ASSERT_DOUBLE_EQ(r.at(i, j, k), expected_value(src))
              << "domain " << c.domain.to_string() << " region "
              << c.region.to_string() << " ghost " << c.ghost;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ExchangeSweep,
    ::testing::Values(
        ExchangeCase{{8, 8, 8}, {4, 4, 4}, 1},
        ExchangeCase{{8, 8, 8}, {4, 4, 4}, 2},
        ExchangeCase{{8, 8, 8}, {8, 8, 8}, 1},    // single region, periodic
        ExchangeCase{{12, 6, 4}, {4, 6, 4}, 1},   // 1D-ish decomposition
        ExchangeCase{{9, 9, 9}, {4, 4, 4}, 1},    // uneven edges
        ExchangeCase{{6, 6, 6}, {2, 2, 2}, 2},    // ghost == region size
        ExchangeCase{{8, 1, 1}, {2, 1, 1}, 1},    // 1D domain
        ExchangeCase{{8, 8, 1}, {4, 4, 1}, 1}));  // 2D domain

// --- TileIterator ---

TEST_F(TidaArrayTest, DefaultTileSizeIsRegionSize) {
  TileArray<double> arr(Box::cube(8), Index3::uniform(4), 1);
  TileIterator<double> it(arr);
  EXPECT_EQ(it.num_tiles(), 8u);
}

TEST_F(TidaArrayTest, SmallerTilesSplitRegions) {
  TileArray<double> arr(Box::cube(8), Index3::uniform(4), 1);
  TileIterator<double> it(arr, Index3{4, 4, 2});
  EXPECT_EQ(it.num_tiles(), 16u);
  EXPECT_EQ(it.tiles_in_region(0), 2u);
}

TEST_F(TidaArrayTest, TraversalCoversEveryValidCellOnce) {
  const Box dom = Box::from_extents({7, 6, 5});
  TileArray<int> arr(dom, Index3{3, 3, 3}, 1);
  TileIterator<int> it(arr, Index3{2, 2, 2});
  std::set<std::tuple<int, int, int>> seen;
  for (it.reset(); it.isValid(); it.next()) {
    const Tile<int> t = it.tile();
    EXPECT_TRUE(t.region.valid.contains(t.box));
    for (int k = t.box.lo.k; k <= t.box.hi.k; ++k) {
      for (int j = t.box.lo.j; j <= t.box.hi.j; ++j) {
        for (int i = t.box.lo.i; i <= t.box.hi.i; ++i) {
          EXPECT_TRUE(seen.insert({i, j, k}).second)
              << "cell visited twice";
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), dom.volume());
}

TEST_F(TidaArrayTest, ResetTogglesGpuFlag) {
  TileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  TileIterator<double> it(arr);
  EXPECT_FALSE(it.gpu());
  it.reset(/*gpu=*/true);
  EXPECT_TRUE(it.gpu());
  it.reset();
  EXPECT_FALSE(it.gpu());
}

TEST_F(TidaArrayTest, ShuffledTraversalCoversEveryTileOnce) {
  TileArray<int> arr(Box::cube(8), Index3::uniform(4), 0);
  TileIterator<int> it(arr, Index3{2, 2, 4});
  it.shuffle(/*seed=*/42);
  std::set<std::tuple<int, int, int>> seen;
  std::size_t tiles = 0;
  for (it.reset(); it.isValid(); it.next()) {
    ++tiles;
    const Tile<int> t = it.tile();
    for (int k = t.box.lo.k; k <= t.box.hi.k; ++k) {
      for (int j = t.box.lo.j; j <= t.box.hi.j; ++j) {
        for (int i = t.box.lo.i; i <= t.box.hi.i; ++i) {
          EXPECT_TRUE(seen.insert({i, j, k}).second);
        }
      }
    }
  }
  EXPECT_EQ(tiles, it.num_tiles());
  EXPECT_EQ(seen.size(), Box::cube(8).volume());
}

TEST_F(TidaArrayTest, ShuffleIsDeterministicPerSeed) {
  TileArray<int> arr(Box::cube(8), Index3::uniform(2), 0);
  TileIterator<int> a(arr);
  TileIterator<int> b(arr);
  a.shuffle(7);
  b.shuffle(7);
  for (a.reset(), b.reset(); a.isValid(); a.next(), b.next()) {
    ASSERT_EQ(a.tile().box, b.tile().box);
    ASSERT_EQ(a.tile().region.id, b.tile().region.id);
  }
  // A different seed produces a different order (with high probability).
  TileIterator<int> c(arr);
  c.shuffle(8);
  bool differs = false;
  for (a.reset(), c.reset(); a.isValid(); a.next(), c.next()) {
    differs |= !(a.tile().box == c.tile().box &&
                 a.tile().region.id == c.tile().region.id);
  }
  EXPECT_TRUE(differs);
}

TEST_F(TidaArrayTest, IteratorGuardsMisuse) {
  TileArray<double> arr(Box::cube(4), Index3::uniform(4), 0);
  TileIterator<double> it(arr);
  it.reset();
  ASSERT_TRUE(it.isValid());
  it.next();
  EXPECT_FALSE(it.isValid());
  EXPECT_THROW(it.next(), Error);
  EXPECT_THROW(it.tile(), Error);
}

TEST_F(TidaArrayTest, TileComputeOnCpuThroughIterator) {
  // The paper's CPU path: traverse tiles, run the stencil body per cell.
  const Box dom = Box::cube(6);
  TileArray<double> arr(dom, Index3::uniform(3), 0);
  arr.fill([](const Index3&) { return 1.0; });
  TileIterator<double> it(arr, Index3{3, 3, 1});
  for (it.reset(); it.isValid(); it.next()) {
    const Tile<double> t = it.tile();
    for (int k = t.box.lo.k; k <= t.box.hi.k; ++k) {
      for (int j = t.box.lo.j; j <= t.box.hi.j; ++j) {
        for (int i = t.box.lo.i; i <= t.box.hi.i; ++i) {
          t.region.at(i, j, k) *= 2.0;
        }
      }
    }
  }
  std::vector<double> flat(dom.volume());
  arr.copy_out(flat.data());
  for (const double v : flat) {
    ASSERT_DOUBLE_EQ(v, 2.0);
  }
}

// --- timing-only mode ---

TEST(TidaArrayTimingOnly, ConstructionAndExchangeWithoutBacking) {
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false);
  {
    TileArray<double> arr(Box::cube(64), Index3::uniform(32), 1);
    EXPECT_EQ(arr.num_regions(), 8);
    const SimTime before = sim::Platform::instance().now();
    arr.fill_boundary_host(Boundary::kPeriodic);  // cost only, no memcpy
    EXPECT_GT(sim::Platform::instance().now(), before);
    EXPECT_THROW(arr.fill([](const Index3&) { return 0.0; }), Error);
  }
  cuem::configure(sim::DeviceConfig::k40m(), true);
}

}  // namespace
}  // namespace tidacc::tida

// Unit + property tests for the tida index algebra (Index3, Box, Partition,
// ghost-exchange planning).
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/error.hpp"
#include "tida/box.hpp"
#include "tida/ghost.hpp"
#include "tida/index.hpp"
#include "tida/partition.hpp"

namespace tidacc::tida {
namespace {

// --- Index3 ---

TEST(Index3, Arithmetic) {
  const Index3 a{1, 2, 3};
  const Index3 b{10, 20, 30};
  EXPECT_EQ(a + b, (Index3{11, 22, 33}));
  EXPECT_EQ(b - a, (Index3{9, 18, 27}));
  EXPECT_EQ(-a, (Index3{-1, -2, -3}));
  EXPECT_EQ(a * 3, (Index3{3, 6, 9}));
}

TEST(Index3, MinMax) {
  const Index3 a{1, 20, 3};
  const Index3 b{10, 2, 30};
  EXPECT_EQ(Index3::min(a, b), (Index3{1, 2, 3}));
  EXPECT_EQ(Index3::max(a, b), (Index3{10, 20, 30}));
}

TEST(Index3, Ordering) {
  EXPECT_TRUE((Index3{2, 2, 2}).all_ge({1, 2, 2}));
  EXPECT_FALSE((Index3{2, 1, 2}).all_ge({1, 2, 2}));
  EXPECT_TRUE((Index3{1, 1, 1}).all_le({1, 2, 3}));
}

TEST(Index3, ToString) { EXPECT_EQ((Index3{1, 2, 3}).to_string(), "(1,2,3)"); }

// --- Box ---

TEST(Box, FromExtentsAndVolume) {
  const Box b = Box::from_extents({4, 5, 6});
  EXPECT_EQ(b.lo, (Index3{0, 0, 0}));
  EXPECT_EQ(b.hi, (Index3{3, 4, 5}));
  EXPECT_EQ(b.volume(), 120ull);
  EXPECT_EQ(b.extent(), (Index3{4, 5, 6}));
}

TEST(Box, DefaultIsEmpty) {
  const Box b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.volume(), 0ull);
  EXPECT_EQ(b.extent(), (Index3{0, 0, 0}));
}

TEST(Box, Contains) {
  const Box b = Box::cube(4);
  EXPECT_TRUE(b.contains(Index3{0, 0, 0}));
  EXPECT_TRUE(b.contains(Index3{3, 3, 3}));
  EXPECT_FALSE(b.contains(Index3{4, 0, 0}));
  EXPECT_FALSE(b.contains(Index3{0, -1, 0}));
  EXPECT_TRUE(b.contains(Box{{1, 1, 1}, {2, 2, 2}}));
  EXPECT_FALSE(b.contains(Box{{1, 1, 1}, {4, 2, 2}}));
  EXPECT_TRUE(b.contains(Box{}));  // empty box is contained anywhere
}

TEST(Box, Intersect) {
  const Box a{{0, 0, 0}, {5, 5, 5}};
  const Box b{{3, 3, 3}, {8, 8, 8}};
  EXPECT_EQ(a.intersect(b), (Box{{3, 3, 3}, {5, 5, 5}}));
  const Box c{{7, 0, 0}, {9, 5, 5}};
  EXPECT_TRUE(a.intersect(c).empty());
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(a.intersects(b));
}

TEST(Box, GrowAndShrink) {
  const Box b{{2, 2, 2}, {4, 4, 4}};
  EXPECT_EQ(b.grow(1), (Box{{1, 1, 1}, {5, 5, 5}}));
  EXPECT_EQ(b.grow(-1), (Box{{3, 3, 3}, {3, 3, 3}}));
  EXPECT_EQ(b.grow(Index3{1, 0, 2}), (Box{{1, 2, 0}, {5, 4, 6}}));
}

TEST(Box, Shift) {
  const Box b{{0, 0, 0}, {1, 1, 1}};
  EXPECT_EQ(b.shift({5, -2, 0}), (Box{{5, -2, 0}, {6, -1, 1}}));
}

TEST(Box, ToString) {
  EXPECT_EQ(Box::cube(2).to_string(), "[(0,0,0)..(1,1,1)]");
  EXPECT_EQ(Box{}.to_string(), "[empty]");
}

// --- box set algebra (dirty-region bookkeeping primitives) ---

// Enumerates the cells of every box in `list` into a set, asserting
// pairwise disjointness along the way.
std::set<std::tuple<int, int, int>> cells_of(const std::vector<Box>& list) {
  std::set<std::tuple<int, int, int>> cells;
  for (const Box& b : list) {
    for (int k = b.lo.k; k <= b.hi.k; ++k) {
      for (int j = b.lo.j; j <= b.hi.j; ++j) {
        for (int i = b.lo.i; i <= b.hi.i; ++i) {
          EXPECT_TRUE(cells.insert({i, j, k}).second)
              << "cell (" << i << "," << j << "," << k
              << ") covered by two boxes";
        }
      }
    }
  }
  return cells;
}

TEST(BoxSubtract, PiecesTileTheDifferenceExactly) {
  const Box b{{0, 0, 0}, {5, 5, 5}};
  const Box a{{2, 2, 2}, {7, 3, 4}};
  const auto pieces = subtract(b, a);
  EXPECT_LE(pieces.size(), 6u);
  const auto cells = cells_of(pieces);
  std::uint64_t expected = 0;
  for (int k = b.lo.k; k <= b.hi.k; ++k) {
    for (int j = b.lo.j; j <= b.hi.j; ++j) {
      for (int i = b.lo.i; i <= b.hi.i; ++i) {
        const bool outside = !a.contains(Index3{i, j, k});
        EXPECT_EQ(cells.count({i, j, k}), outside ? 1u : 0u);
        expected += outside;
      }
    }
  }
  EXPECT_EQ(cells.size(), expected);
  EXPECT_EQ(list_volume(pieces), expected);
}

TEST(BoxSubtract, DisjointAndCoveredEdgeCases) {
  const Box b{{0, 0, 0}, {3, 3, 3}};
  EXPECT_EQ(subtract(b, Box{{10, 10, 10}, {12, 12, 12}}),
            (std::vector<Box>{b}));
  EXPECT_TRUE(subtract(b, b.grow(1)).empty());
  EXPECT_TRUE(subtract(b, b).empty());
  EXPECT_TRUE(subtract(Box{}, b).empty());
}

TEST(BoxSubtract, InteriorHoleYieldsSixSlabs) {
  const Box b = Box::cube(5);
  const auto pieces = subtract(b, Box{{1, 1, 1}, {3, 3, 3}});
  EXPECT_EQ(pieces.size(), 6u);
  EXPECT_EQ(list_volume(pieces), 125u - 27u);
}

TEST(BoxSubtract, ListStaysDisjointUnderRepeatedSubtraction) {
  std::vector<Box> list{Box::cube(6)};
  subtract_from_list(list, Box{{0, 0, 0}, {2, 5, 5}});
  subtract_from_list(list, Box{{4, 4, 0}, {5, 5, 5}});
  subtract_from_list(list, Box{{3, 0, 3}, {3, 0, 3}});
  const auto cells = cells_of(list);  // asserts disjointness
  EXPECT_EQ(cells.size(), list_volume(list));
  EXPECT_EQ(cells.count({3, 0, 3}), 0u);
  EXPECT_EQ(cells.count({3, 1, 3}), 1u);
}

TEST(BoxSubtract, SubtractBoxLeavesOnlyUncoveredCells) {
  const Box b = Box::cube(4);
  const std::vector<Box> covered{Box{{0, 0, 0}, {3, 3, 1}},
                                 Box{{0, 0, 2}, {1, 3, 3}}};
  const auto rest = subtract_box(b, covered);
  const auto cells = cells_of(rest);
  EXPECT_EQ(cells.size(), 64u - 32u - 16u);
  for (const auto& c : cells) {
    EXPECT_GE(std::get<0>(c), 2);
    EXPECT_GE(std::get<2>(c), 2);
  }
  EXPECT_TRUE(subtract_box(b, {b}).empty());
  EXPECT_EQ(subtract_box(b, {}), (std::vector<Box>{b}));
}

TEST(BoxAlgebra, ListVolumeAndBoundingBox) {
  const std::vector<Box> list{Box{{0, 0, 0}, {1, 1, 1}},
                              Box{{4, 4, 4}, {4, 6, 4}}};
  EXPECT_EQ(list_volume(list), 8u + 3u);
  EXPECT_EQ(bounding_box(list), (Box{{0, 0, 0}, {4, 6, 4}}));
  EXPECT_EQ(list_volume({}), 0u);
  EXPECT_TRUE(bounding_box({}).empty());
}

TEST(BoxAlgebra, GhostShellsTileTheRingExactly) {
  for (const int g : {1, 2, 3}) {
    const Box valid{{2, 3, 4}, {9, 8, 7}};
    const auto shells = ghost_shells(valid, g);
    EXPECT_LE(shells.size(), 6u);
    const auto cells = cells_of(shells);
    EXPECT_EQ(cells.size(),
              valid.grow(g).volume() - valid.volume());
    for (const Box& s : shells) {
      EXPECT_TRUE(valid.grow(g).contains(s));
      EXPECT_TRUE(valid.intersect(s).empty());
    }
  }
  EXPECT_TRUE(ghost_shells(Box::cube(4), 0).empty());
}

// --- Partition ---

TEST(Partition, ExactDivision) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  EXPECT_EQ(p.num_regions(), 8);
  EXPECT_EQ(p.grid_dims(), (Index3{2, 2, 2}));
  EXPECT_EQ(p.region_box(0), (Box{{0, 0, 0}, {3, 3, 3}}));
  EXPECT_EQ(p.region_box(7), (Box{{4, 4, 4}, {7, 7, 7}}));
}

TEST(Partition, UnevenDivisionShrinksEdges) {
  const Partition p(Box::from_extents({10, 1, 1}), Index3{4, 1, 1});
  EXPECT_EQ(p.num_regions(), 3);
  EXPECT_EQ(p.region_box(0).extent().i, 4);
  EXPECT_EQ(p.region_box(1).extent().i, 4);
  EXPECT_EQ(p.region_box(2).extent().i, 2);
}

TEST(Partition, RegionsTileTheDomainDisjointly) {
  const Partition p(Box::from_extents({7, 5, 3}), Index3{3, 2, 2});
  std::uint64_t total = 0;
  for (int a = 0; a < p.num_regions(); ++a) {
    total += p.region_box(a).volume();
    for (int b = a + 1; b < p.num_regions(); ++b) {
      EXPECT_FALSE(p.region_box(a).intersects(p.region_box(b)))
          << "regions " << a << " and " << b << " overlap";
    }
  }
  EXPECT_EQ(total, p.domain().volume());
}

TEST(Partition, GridCoordRoundTrip) {
  const Partition p(Box::cube(9), Index3::uniform(3));
  for (int id = 0; id < p.num_regions(); ++id) {
    EXPECT_EQ(p.region_at_coord(p.grid_coord(id)), id);
  }
}

TEST(Partition, RegionOfCell) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  EXPECT_EQ(p.region_of_cell({0, 0, 0}), 0);
  EXPECT_EQ(p.region_of_cell({7, 7, 7}), 7);
  EXPECT_EQ(p.region_of_cell({5, 0, 0}), 1);
  EXPECT_EQ(p.region_of_cell({0, 5, 0}), 2);
  EXPECT_EQ(p.region_of_cell({0, 0, 5}), 4);
  EXPECT_EQ(p.region_of_cell({8, 0, 0}), -1);
}

TEST(Partition, CellOwnershipConsistent) {
  const Partition p(Box::from_extents({6, 6, 6}), Index3{4, 3, 2});
  for (int k = 0; k < 6; ++k) {
    for (int j = 0; j < 6; ++j) {
      for (int i = 0; i < 6; ++i) {
        const int id = p.region_of_cell({i, j, k});
        ASSERT_GE(id, 0);
        EXPECT_TRUE(p.region_box(id).contains(Index3{i, j, k}));
      }
    }
  }
}

TEST(Partition, RegionsIntersecting) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  const auto ids = p.regions_intersecting(Box{{3, 3, 3}, {4, 4, 4}});
  EXPECT_EQ(ids.size(), 8u);  // the 2x2x2 corner junction touches all
  const auto one = p.regions_intersecting(Box{{0, 0, 0}, {1, 1, 1}});
  EXPECT_EQ(one, (std::vector<int>{0}));
  // Boxes partly or wholly outside the domain, and an empty box.
  EXPECT_EQ(p.regions_intersecting(Box{{-9, -9, 5}, {1, 20, 5}}),
            (std::vector<int>{4, 6}));
  EXPECT_TRUE(p.regions_intersecting(Box{{8, 0, 0}, {12, 3, 3}}).empty());
  EXPECT_TRUE(p.regions_intersecting(Box{}).empty());
}

TEST(Partition, EqualityComparesDomainAndRegionSize) {
  const Partition a(Box::cube(8), Index3::uniform(4));
  EXPECT_EQ(a, Partition(Box::cube(8), Index3::uniform(4)));
  const Partition copy = a;
  EXPECT_EQ(copy, a);
  EXPECT_EQ(Partition(), Partition());
  EXPECT_NE(a, Partition());
  // Same region count and grid, different domain.
  EXPECT_NE(a, Partition(Box::cube(8).shift({1, 0, 0}), Index3::uniform(4)));
  // Same domain, different region size.
  EXPECT_NE(a, Partition(Box::cube(8), Index3{4, 4, 2}));
  // One region either way — the boxes agree, but the region size does not.
  EXPECT_NE(Partition(Box::cube(4), Index3::uniform(4)),
            Partition(Box::cube(4), Index3::uniform(5)));
}

TEST(Partition, MaxRegionVolume) {
  const Partition p(Box::from_extents({10, 1, 1}), Index3{4, 1, 1});
  EXPECT_EQ(p.max_region_volume(0), 4ull);
  EXPECT_EQ(p.max_region_volume(1), 6ull * 3 * 3);
}

TEST(Partition, InvalidInputsRejected) {
  EXPECT_THROW(Partition(Box{}, Index3::uniform(2)), Error);
  EXPECT_THROW(Partition(Box::cube(4), Index3{0, 1, 1}), Error);
}

TEST(Partition, RegionIdOutOfRangeRejected) {
  const Partition p(Box::cube(4), Index3::uniform(4));
  EXPECT_THROW(p.region_box(-1), Error);
  EXPECT_THROW(p.region_box(1), Error);
}

// --- ghost exchange plan ---

TEST(GhostPlan, ZeroGhostIsEmpty) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  EXPECT_TRUE(compute_exchange_plan(p, 0, Boundary::kPeriodic).empty());
}

TEST(GhostPlan, CopiesLandInGhostZones) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  for (const Boundary bc : {Boundary::kNone, Boundary::kPeriodic}) {
    for (const GhostCopy& c : compute_exchange_plan(p, 1, bc)) {
      const Box valid = p.region_box(c.dst_region);
      EXPECT_TRUE(valid.grow(1).contains(c.dst_box));
      EXPECT_TRUE(valid.intersect(c.dst_box).empty())
          << "copy writes into valid cells of region " << c.dst_region;
      EXPECT_TRUE(p.region_box(c.src_region).contains(c.src_box));
      EXPECT_EQ(c.src_box.extent(), c.dst_box.extent());
      EXPECT_EQ(c.src_box, c.dst_box.shift(c.shift));
    }
  }
}

TEST(GhostPlan, NonPeriodicCoversInteriorGhostsExactlyOnce) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  const auto plan = compute_exchange_plan(p, 1, Boundary::kNone);
  // Collect covered ghost cells per destination region; each in-domain ghost
  // cell must be covered exactly once.
  for (int id = 0; id < p.num_regions(); ++id) {
    std::set<std::tuple<int, int, int>> covered;
    std::uint64_t copies = 0;
    for (const GhostCopy& c : plan) {
      if (c.dst_region != id) {
        continue;
      }
      for (int k = c.dst_box.lo.k; k <= c.dst_box.hi.k; ++k) {
        for (int j = c.dst_box.lo.j; j <= c.dst_box.hi.j; ++j) {
          for (int i = c.dst_box.lo.i; i <= c.dst_box.hi.i; ++i) {
            const bool inserted = covered.insert({i, j, k}).second;
            EXPECT_TRUE(inserted) << "ghost cell covered twice";
            ++copies;
          }
        }
      }
    }
    // Expected: ghost cells of region(id) that lie inside the domain.
    const Box valid = p.region_box(id);
    std::uint64_t expected = 0;
    const Box grown = valid.grow(1);
    for (int k = grown.lo.k; k <= grown.hi.k; ++k) {
      for (int j = grown.lo.j; j <= grown.hi.j; ++j) {
        for (int i = grown.lo.i; i <= grown.hi.i; ++i) {
          const Index3 cell{i, j, k};
          if (!valid.contains(cell) && p.domain().contains(cell)) {
            ++expected;
          }
        }
      }
    }
    EXPECT_EQ(copies, expected) << "region " << id;
  }
}

TEST(GhostPlan, PeriodicCoversAllGhostsExactlyOnce) {
  const Partition p(Box::from_extents({6, 4, 4}), Index3{3, 4, 2});
  const auto plan = compute_exchange_plan(p, 1, Boundary::kPeriodic);
  for (int id = 0; id < p.num_regions(); ++id) {
    std::set<std::tuple<int, int, int>> covered;
    for (const GhostCopy& c : plan) {
      if (c.dst_region != id) {
        continue;
      }
      for (int k = c.dst_box.lo.k; k <= c.dst_box.hi.k; ++k) {
        for (int j = c.dst_box.lo.j; j <= c.dst_box.hi.j; ++j) {
          for (int i = c.dst_box.lo.i; i <= c.dst_box.hi.i; ++i) {
            EXPECT_TRUE(covered.insert({i, j, k}).second)
                << "ghost cell covered twice in region " << id;
          }
        }
      }
    }
    const Box valid = p.region_box(id);
    const std::uint64_t ghost_cells = valid.grow(1).volume() - valid.volume();
    EXPECT_EQ(covered.size(), ghost_cells) << "region " << id;
  }
}

TEST(GhostPlan, SingleRegionPeriodicWrapsOntoItself) {
  const Partition p(Box::cube(4), Index3::uniform(4));
  const auto plan = compute_exchange_plan(p, 1, Boundary::kPeriodic);
  ASSERT_FALSE(plan.empty());
  for (const GhostCopy& c : plan) {
    EXPECT_EQ(c.src_region, 0);
    EXPECT_EQ(c.dst_region, 0);
    EXPECT_NE(c.shift, (Index3{0, 0, 0}));
  }
  EXPECT_EQ(plan_cells(plan), Box::cube(4).grow(1).volume() - 64);
}

TEST(GhostPlan, PlanCellsSumsVolumes) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  const auto plan = compute_exchange_plan(p, 2, Boundary::kPeriodic);
  std::uint64_t manual = 0;
  for (const GhostCopy& c : plan) {
    manual += c.dst_box.volume();
  }
  EXPECT_EQ(plan_cells(plan), manual);
}

TEST(GhostPlan, GroupedByDestination) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  const auto plan = compute_exchange_plan(p, 1, Boundary::kPeriodic);
  int last_dst = -1;
  for (const GhostCopy& c : plan) {
    EXPECT_GE(c.dst_region, last_dst);
    last_dst = c.dst_region;
  }
}

TEST(GhostPlan, WideGhostFromNonAdjacentRegions) {
  // ghost = 3 with region width 2: ghosts reach past immediate neighbours.
  const Partition p(Box::from_extents({8, 1, 1}), Index3{2, 1, 1});
  const auto plan = compute_exchange_plan(p, 3, Boundary::kNone);
  // Region 0's right ghost [2..4] must be fed by regions 1 (cells 2,3) and
  // 2 (cell 4).
  bool from_r1 = false;
  bool from_r2 = false;
  for (const GhostCopy& c : plan) {
    if (c.dst_region == 0) {
      from_r1 |= (c.src_region == 1);
      from_r2 |= (c.src_region == 2);
    }
  }
  EXPECT_TRUE(from_r1);
  EXPECT_TRUE(from_r2);
}

TEST(GhostPlan, PeriodicRequiresLargeEnoughDomain) {
  const Partition p(Box::cube(2), Index3::uniform(2));
  EXPECT_THROW(compute_exchange_plan(p, 3, Boundary::kPeriodic), Error);
}

TEST(GhostPlan, BoundaryToString) {
  EXPECT_STREQ(to_string(Boundary::kNone), "none");
  EXPECT_STREQ(to_string(Boundary::kPeriodic), "periodic");
}

}  // namespace
}  // namespace tidacc::tida

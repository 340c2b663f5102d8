// Model-based property tests: random operation sequences against shadow
// references.
//
// 1. AccTileArray protocol fuzz: a random interleaving of host writes,
//    device kernels, ghost exchanges and location moves must always agree
//    with a plain flat-array shadow model, for any slot budget (full,
//    limited, single).
// 2. Exchange-plan fuzz: random geometries, the periodic ghost invariants,
//    and the grid-indexed region lookup and plan against brute-force scans.
// 3. Stream-semantics fuzz: random op DAGs must respect per-stream ordering
//    and engine exclusivity in the simulated timeline.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "core/tidacc.hpp"

namespace tidacc {
namespace {

using core::AccOptions;
using core::AccTileArray;
using core::DeviceView;
using core::Loc;
using tida::Boundary;
using tida::Box;
using tida::Index3;

sim::DeviceConfig quick_config() {
  sim::DeviceConfig cfg = sim::DeviceConfig::k40m();
  cfg.host_api_overhead_ns = 0;
  cfg.sync_overhead_ns = 0;
  return cfg;
}

/// Flat shadow model of the tiled array: plain periodic domain, no tiles.
class Shadow {
 public:
  Shadow(int n) : n_(n), data_(static_cast<size_t>(n) * n * n, 0.0) {}

  double& at(int i, int j, int k) {
    const auto w = [this](int v) { return ((v % n_) + n_) % n_; };
    return data_[(static_cast<size_t>(w(k)) * n_ + w(j)) * n_ + w(i)];
  }

  int n() const { return n_; }

 private:
  int n_;
  std::vector<double> data_;
};

struct FuzzCase {
  int domain;
  Index3 region_size;
  int ghost;
  int max_slots;
  std::uint64_t seed;
};

class AccProtocolFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(AccProtocolFuzz, RandomOpsMatchShadowModel) {
  const FuzzCase& fc = GetParam();
  cuem::configure(quick_config(), /*functional=*/true);
  oacc::reset();

  const int n = fc.domain;
  AccOptions opts;
  opts.max_slots = fc.max_slots;
  AccTileArray<double> arr(Box::cube(n), fc.region_size, fc.ghost, opts);
  Shadow shadow(n);

  // Initialize both sides identically.
  arr.fill([](const Index3& p) {
    return 1.0 + 0.5 * p.i + 0.25 * p.j + 0.125 * p.k;
  });
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        shadow.at(i, j, k) = 1.0 + 0.5 * i + 0.25 * j + 0.125 * k;
      }
    }
  }

  oacc::LoopCost cost;
  cost.flops_per_iter = 2;
  cost.dev_bytes_per_iter = 16;

  Rng rng(fc.seed);
  core::AccTileIterator<double> it(arr);

  for (int op = 0; op < 60; ++op) {
    switch (rng.next_below(5)) {
      case 0: {  // host write to a random valid cell
        const int i = static_cast<int>(rng.next_below(n));
        const int j = static_cast<int>(rng.next_below(n));
        const int k = static_cast<int>(rng.next_below(n));
        const int region = arr.partition().region_of_cell({i, j, k});
        arr.acquire_on_host(region);
        const double v = rng.uniform(-2.0, 2.0);
        arr.at({i, j, k}) = v;
        shadow.at(i, j, k) = v;
        break;
      }
      case 1: {  // GPU kernel over one random region: x = 2x + c
        const int region =
            static_cast<int>(rng.next_below(arr.num_regions()));
        const double c = rng.uniform(-1.0, 1.0);
        for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
          if (it.tile().tile.region.id != region) {
            continue;
          }
          core::compute(it.tile(), cost,
                        [c](DeviceView<double> v, int i, int j, int k) {
                          v(i, j, k) = 2.0 * v(i, j, k) + c;
                        });
        }
        const Box valid = arr.partition().region_box(region);
        for (int k = valid.lo.k; k <= valid.hi.k; ++k) {
          for (int j = valid.lo.j; j <= valid.hi.j; ++j) {
            for (int i = valid.lo.i; i <= valid.hi.i; ++i) {
              shadow.at(i, j, k) = 2.0 * shadow.at(i, j, k) + c;
            }
          }
        }
        break;
      }
      case 2: {  // CPU traversal over every tile: x -= 1
        for (it.reset(/*gpu=*/false); it.isValid(); it.next()) {
          core::compute(it.tile(), cost,
                        [](DeviceView<double> v, int i, int j, int k) {
                          v(i, j, k) -= 1.0;
                        });
        }
        for (int k = 0; k < n; ++k) {
          for (int j = 0; j < n; ++j) {
            for (int i = 0; i < n; ++i) {
              shadow.at(i, j, k) -= 1.0;
            }
          }
        }
        break;
      }
      case 3: {  // ghost exchange (either path, dispatched by residency)
        arr.fill_boundary(Boundary::kPeriodic);
        break;
      }
      case 4: {  // random residency move
        const int region =
            static_cast<int>(rng.next_below(arr.num_regions()));
        if (rng.next_below(2) == 0) {
          arr.acquire_on_device(region);
        } else {
          arr.acquire_on_host(region);
        }
        break;
      }
    }
  }

  // Converge and compare every valid cell.
  arr.release_all_to_host();
  oacc::wait_all();
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        ASSERT_NEAR(arr.at({i, j, k}), shadow.at(i, j, k), 1e-9)
            << "cell (" << i << ',' << j << ',' << k << ") seed " << fc.seed;
      }
    }
  }

  // And the ghost cells must reflect the final valid data after one more
  // exchange.
  arr.fill_boundary(Boundary::kPeriodic);
  for (int r = 0; r < arr.num_regions(); ++r) {
    const tida::Region<double> reg = arr.region(r);
    for (int k = reg.grown.lo.k; k <= reg.grown.hi.k; ++k) {
      for (int j = reg.grown.lo.j; j <= reg.grown.hi.j; ++j) {
        for (int i = reg.grown.lo.i; i <= reg.grown.hi.i; ++i) {
          ASSERT_NEAR(reg.at(i, j, k), shadow.at(i, j, k), 1e-9)
              << "ghost (" << i << ',' << j << ',' << k << ") region " << r;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SlotBudgets, AccProtocolFuzz,
    ::testing::Values(
        FuzzCase{8, {4, 4, 4}, 1, 1 << 20, 1},   // all regions fit
        FuzzCase{8, {4, 4, 4}, 1, 3, 2},         // shared slots (evictions)
        FuzzCase{8, {4, 4, 4}, 1, 1, 3},         // single slot (thrashing)
        FuzzCase{8, {8, 8, 4}, 2, 2, 4},         // wide ghosts, 2 slots
        FuzzCase{6, {2, 3, 6}, 1, 4, 5},         // uneven regions
        FuzzCase{8, {8, 8, 8}, 1, 1, 6},         // single region
        FuzzCase{9, {4, 4, 4}, 1, 5, 7},         // ragged edges
        FuzzCase{8, {4, 4, 4}, 1, 1 << 20, 8}));  // second full-fit seed

// --- random-geometry exchange invariants ---

TEST(ExchangeFuzz, RandomGeometriesInvariants) {
  Rng rng(0xE4C4A9E);
  for (int trial = 0; trial < 40; ++trial) {
    const Index3 domain{static_cast<int>(2 + rng.next_below(9)),
                        static_cast<int>(2 + rng.next_below(9)),
                        static_cast<int>(2 + rng.next_below(9))};
    const Index3 region{
        static_cast<int>(1 + rng.next_below(domain.i)),
        static_cast<int>(1 + rng.next_below(domain.j)),
        static_cast<int>(1 + rng.next_below(domain.k))};
    const int min_ext = std::min({domain.i, domain.j, domain.k});
    const int ghost = static_cast<int>(1 + rng.next_below(min_ext));

    const tida::Partition part(Box::from_extents(domain), region);
    const auto plan =
        tida::compute_exchange_plan(part, ghost, Boundary::kPeriodic);

    std::uint64_t expected_cells = 0;
    for (int id = 0; id < part.num_regions(); ++id) {
      const Box valid = part.region_box(id);
      expected_cells += valid.grow(ghost).volume() - valid.volume();
    }
    ASSERT_EQ(tida::plan_cells(plan), expected_cells)
        << "trial " << trial << " domain " << domain.to_string()
        << " region " << region.to_string() << " ghost " << ghost;

    for (const tida::GhostCopy& c : plan) {
      ASSERT_TRUE(part.region_box(c.src_region).contains(c.src_box));
      ASSERT_EQ(c.src_box.extent(), c.dst_box.extent());
      ASSERT_TRUE(
          part.region_box(c.dst_region).intersect(c.dst_box).empty());
    }
  }
}

// --- grid-indexed planning against brute-force scans ---

/// Ids of the regions whose boxes intersect `box`, by scanning every region.
std::vector<int> scan_intersecting(const tida::Partition& part,
                                   const Box& box) {
  std::vector<int> out;
  for (int id = 0; id < part.num_regions(); ++id) {
    if (part.region_box(id).intersects(box)) {
      out.push_back(id);
    }
  }
  return out;
}

/// Reference exchange plan in compute_exchange_plan's documented order —
/// destination region, then its 26 ghost-zone boxes (k outermost), then the
/// below/inside/above-domain pieces (i outermost), then source regions in
/// ascending id — with sources found by a scan of every region box.
std::vector<tida::GhostCopy> reference_plan(const tida::Partition& part,
                                            int ghost, Boundary bc) {
  struct Piece {
    int lo;
    int hi;
    int shift;
  };
  const Box dom = part.domain();
  const bool periodic = bc == Boundary::kPeriodic;
  // Ghost interval on side d (-1, 0, +1) of [lo, hi], cut at the domain
  // bounds [dlo, dhi]; outside pieces wrap (periodic) or are dropped.
  const auto pieces = [&](int d, int lo, int hi, int dlo, int dhi) {
    const int a = d < 0 ? lo - ghost : d > 0 ? hi + 1 : lo;
    const int b = d < 0 ? lo - 1 : d > 0 ? hi + ghost : hi;
    const int ext = dhi - dlo + 1;
    const Piece cut[3] = {{a, std::min(b, dlo - 1), ext},
                          {std::max(a, dlo), std::min(b, dhi), 0},
                          {std::max(a, dhi + 1), b, -ext}};
    std::vector<Piece> out;
    for (int c = 0; c < 3; ++c) {
      if (cut[c].lo <= cut[c].hi && (c == 1 || periodic)) {
        out.push_back(cut[c]);
      }
    }
    return out;
  };
  std::vector<tida::GhostCopy> plan;
  if (ghost == 0) {
    return plan;
  }
  for (int dst = 0; dst < part.num_regions(); ++dst) {
    const Box v = part.region_box(dst);
    for (int dk = -1; dk <= 1; ++dk) {
      for (int dj = -1; dj <= 1; ++dj) {
        for (int di = -1; di <= 1; ++di) {
          if (di == 0 && dj == 0 && dk == 0) {
            continue;
          }
          for (const Piece& pi : pieces(di, v.lo.i, v.hi.i, dom.lo.i,
                                        dom.hi.i)) {
            for (const Piece& pj : pieces(dj, v.lo.j, v.hi.j, dom.lo.j,
                                          dom.hi.j)) {
              for (const Piece& pk : pieces(dk, v.lo.k, v.hi.k, dom.lo.k,
                                            dom.hi.k)) {
                const Box dst_box{{pi.lo, pj.lo, pk.lo},
                                  {pi.hi, pj.hi, pk.hi}};
                const Index3 shift{pi.shift, pj.shift, pk.shift};
                const Box src_area = dst_box.shift(shift);
                for (int src = 0; src < part.num_regions(); ++src) {
                  const Box piece = part.region_box(src).intersect(src_area);
                  if (!piece.empty()) {
                    plan.push_back(tida::GhostCopy{src, dst, piece,
                                                   piece.shift(-shift),
                                                   shift});
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return plan;
}

/// Uniform random point of the inclusive box [lo, hi].
Index3 pick(Rng& rng, const Index3& lo, const Index3& hi) {
  const auto one = [&](int a, int b) {
    return a + static_cast<int>(
                   rng.next_below(static_cast<std::uint64_t>(b - a + 1)));
  };
  return {one(lo.i, hi.i), one(lo.j, hi.j), one(lo.k, hi.k)};
}

TEST(ExchangeFuzz, RegionsIntersectingMatchesBoxScan) {
  Rng rng(0x1D7E5EC7);
  for (int trial = 0; trial < 60; ++trial) {
    const Index3 ext = pick(rng, Index3::uniform(1), Index3::uniform(13));
    const Index3 lo = pick(rng, Index3::uniform(-3), Index3::uniform(3));
    const Index3 region = pick(rng, Index3::uniform(1), ext);
    const tida::Partition part(Box{lo, lo + ext - Index3::uniform(1)},
                               region);
    for (int q = 0; q < 50; ++q) {
      // Corners up to 6 cells outside the domain; a negative extent gives
      // an empty box.
      const Index3 qlo =
          pick(rng, lo - Index3::uniform(6), lo + ext + Index3::uniform(5));
      const Index3 qhi =
          qlo + pick(rng, Index3::uniform(-2), ext + Index3::uniform(2));
      const Box box{qlo, qhi};
      ASSERT_EQ(part.regions_intersecting(box), scan_intersecting(part, box))
          << "trial " << trial << " domain " << part.domain() << " region "
          << region << " box " << box;
    }
    EXPECT_TRUE(
        part.regions_intersecting(part.domain().shift(ext * 2)).empty());
    EXPECT_EQ(part.regions_intersecting(part.domain()).size(),
              static_cast<std::size_t>(part.num_regions()));
  }
}

TEST(ExchangeFuzz, PlanMatchesBruteForceReference) {
  Rng rng(0x9E05E4F);
  for (int trial = 0; trial < 30; ++trial) {
    const Index3 ext = pick(rng, Index3::uniform(2), Index3::uniform(11));
    const Index3 region = pick(rng, Index3::uniform(1), ext);
    const tida::Partition part(Box::from_extents(ext).shift({-2, 1, 3}),
                               region);
    const int min_ext = std::min({ext.i, ext.j, ext.k});
    for (const Boundary bc : {Boundary::kNone, Boundary::kPeriodic}) {
      for (int ghost = 0; ghost <= 3; ++ghost) {
        if (bc == Boundary::kPeriodic && ghost > min_ext) {
          continue;  // rejected by the planner
        }
        const auto plan = tida::compute_exchange_plan(part, ghost, bc);
        const auto ref = reference_plan(part, ghost, bc);
        ASSERT_EQ(plan.size(), ref.size())
            << "trial " << trial << " bc " << tida::to_string(bc)
            << " ghost " << ghost;
        for (std::size_t c = 0; c < plan.size(); ++c) {
          ASSERT_EQ(plan[c].src_region, ref[c].src_region) << "copy " << c;
          ASSERT_EQ(plan[c].dst_region, ref[c].dst_region) << "copy " << c;
          ASSERT_EQ(plan[c].src_box, ref[c].src_box) << "copy " << c;
          ASSERT_EQ(plan[c].dst_box, ref[c].dst_box) << "copy " << c;
          ASSERT_EQ(plan[c].shift, ref[c].shift) << "copy " << c;
        }
      }
    }
  }
}

// --- random stream DAGs: timeline invariants ---

TEST(StreamFuzz, RandomOpsRespectOrderingInvariants) {
  Rng rng(0x57AB1E);
  for (int trial = 0; trial < 20; ++trial) {
    sim::DeviceConfig cfg = quick_config();
    cfg.copy_engines = 1 + static_cast<int>(rng.next_below(2));
    sim::Platform p(cfg, /*functional=*/false);
    std::vector<sim::StreamId> streams;
    for (int s = 0; s < 4; ++s) {
      streams.push_back(p.create_stream());
    }
    for (int op = 0; op < 120; ++op) {
      const sim::StreamId s = streams[rng.next_below(streams.size())];
      if (rng.next_below(3) == 0) {
        sim::KernelProfile prof;
        prof.elements = 1000 + rng.next_below(100000);
        prof.dev_bytes_per_element = 16;
        p.enqueue_kernel(s, prof, 0, nullptr, "k");
      } else {
        sim::CopyRequest req;
        req.kind = rng.next_below(2) == 0 ? sim::OpKind::kCopyH2D
                                          : sim::OpKind::kCopyD2H;
        req.bytes = 1000 + rng.next_below(1'000'000);
        req.host_mem = sim::HostMemKind::kPinned;
        p.enqueue_copy(s, req, nullptr);
      }
    }
    p.sync_all();

    // Invariant 1: ops on one stream never overlap and appear in order.
    std::map<int, SimTime> last_finish;
    // Invariant 2: ops on one engine never overlap.
    std::map<int, SimTime> engine_finish;
    for (const sim::TraceEvent& ev : p.trace().events()) {
      auto& lf = last_finish[ev.stream];
      ASSERT_GE(ev.start, lf) << "stream order violated, trial " << trial;
      lf = ev.finish;
      auto& ef = engine_finish[static_cast<int>(ev.engine)];
      ASSERT_GE(ev.start, ef) << "engine overlap, trial " << trial;
      ef = ev.finish;
      ASSERT_LE(ev.start, ev.finish);
    }
    // Invariant 3: host clock is at/after every completion after sync_all.
    ASSERT_GE(p.now(), p.trace().stats().makespan);
  }
}

}  // namespace
}  // namespace tidacc

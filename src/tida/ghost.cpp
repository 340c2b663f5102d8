#include "tida/ghost.hpp"

#include <array>
#include <mutex>
#include <utility>

#include "common/error.hpp"

namespace tidacc::tida {

const char* to_string(Boundary b) {
  switch (b) {
    case Boundary::kNone:
      return "none";
    case Boundary::kPeriodic:
      return "periodic";
  }
  return "?";
}

namespace {

/// A 1D interval with the periodic wrap shift that maps it into the domain.
struct Segment {
  int lo;
  int hi;     // inclusive; empty if hi < lo
  int shift;  // src = dst + shift
  bool empty() const { return hi < lo; }
};

/// Splits [lo, hi] against the domain interval [dlo, dhi] into up to three
/// segments: below-domain (wraps by +extent), inside (no wrap), above-domain
/// (wraps by -extent). For non-periodic domains the outside segments are
/// dropped.
std::array<Segment, 3> split_dim(int lo, int hi, int dlo, int dhi,
                                 bool periodic) {
  const int extent = dhi - dlo + 1;
  std::array<Segment, 3> out{};
  // below
  out[0] = Segment{lo, std::min(hi, dlo - 1), periodic ? extent : 0};
  if (!periodic) {
    out[0].hi = out[0].lo - 1;  // mark empty
  }
  // inside
  out[1] = Segment{std::max(lo, dlo), std::min(hi, dhi), 0};
  // above
  out[2] = Segment{std::max(lo, dhi + 1), hi, periodic ? -extent : 0};
  if (!periodic) {
    out[2].hi = out[2].lo - 1;
  }
  return out;
}

}  // namespace

std::vector<GhostCopy> compute_exchange_plan(const Partition& part, int ghost,
                                             Boundary bc) {
  TIDACC_CHECK_MSG(ghost >= 0, "negative ghost width");
  std::vector<GhostCopy> plan;
  if (ghost == 0) {
    return plan;
  }
  const Box& domain = part.domain();
  const bool periodic = bc == Boundary::kPeriodic;
  TIDACC_CHECK_MSG(
      !periodic || (domain.extent().i >= ghost && domain.extent().j >= ghost &&
                    domain.extent().k >= ghost),
      "periodic exchange requires domain extent >= ghost width");

  for (int dst = 0; dst < part.num_regions(); ++dst) {
    const Box valid = part.region_box(dst);
    // The 26 face/edge/corner boxes tiling the ghost zone of `dst`.
    for (int dk = -1; dk <= 1; ++dk) {
      for (int dj = -1; dj <= 1; ++dj) {
        for (int di = -1; di <= 1; ++di) {
          if (di == 0 && dj == 0 && dk == 0) {
            continue;
          }
          const auto side = [&](int d, int lo, int hi) -> Segment {
            if (d < 0) {
              return {lo - ghost, lo - 1, 0};
            }
            if (d > 0) {
              return {hi + 1, hi + ghost, 0};
            }
            return {lo, hi, 0};
          };
          const Segment gi = side(di, valid.lo.i, valid.hi.i);
          const Segment gj = side(dj, valid.lo.j, valid.hi.j);
          const Segment gk = side(dk, valid.lo.k, valid.hi.k);
          const Box ghost_box{{gi.lo, gj.lo, gk.lo}, {gi.hi, gj.hi, gk.hi}};
          if (ghost_box.empty()) {
            continue;
          }

          // Split against the domain so each sub-box has a uniform wrap.
          const auto segs_i = split_dim(ghost_box.lo.i, ghost_box.hi.i,
                                        domain.lo.i, domain.hi.i, periodic);
          const auto segs_j = split_dim(ghost_box.lo.j, ghost_box.hi.j,
                                        domain.lo.j, domain.hi.j, periodic);
          const auto segs_k = split_dim(ghost_box.lo.k, ghost_box.hi.k,
                                        domain.lo.k, domain.hi.k, periodic);
          for (const Segment& si : segs_i) {
            for (const Segment& sj : segs_j) {
              for (const Segment& sk : segs_k) {
                if (si.empty() || sj.empty() || sk.empty()) {
                  continue;
                }
                const Box dst_box{{si.lo, sj.lo, sk.lo},
                                  {si.hi, sj.hi, sk.hi}};
                const Index3 shift{si.shift, sj.shift, sk.shift};
                const Box src_area = dst_box.shift(shift);
                // Source cells come from the valid boxes of owning regions.
                for (const int src : part.regions_intersecting(src_area)) {
                  const Box piece = part.region_box(src).intersect(src_area);
                  if (piece.empty()) {
                    continue;
                  }
                  plan.push_back(GhostCopy{src, dst, piece,
                                           piece.shift(-shift), shift});
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

namespace {

struct PlanKey {
  Box domain;
  Index3 region_size;
  int ghost = 0;
  Boundary bc = Boundary::kNone;
  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanMemo {
  std::mutex mu;
  std::vector<std::pair<PlanKey, std::weak_ptr<const std::vector<GhostCopy>>>>
      entries;

  /// Drops entries whose plan has been freed. Caller holds `mu`.
  void drop_expired() {
    std::erase_if(entries, [](const auto& e) { return e.second.expired(); });
  }
};

PlanMemo& plan_memo() {
  static PlanMemo memo;
  return memo;
}

}  // namespace

SharedPlan shared_exchange_plan(const Partition& part, int ghost,
                                Boundary bc) {
  const PlanKey key{part.domain(), part.region_size(), ghost, bc};
  PlanMemo& memo = plan_memo();
  const std::lock_guard<std::mutex> lock(memo.mu);
  memo.drop_expired();
  for (const auto& [k, weak] : memo.entries) {
    if (k == key) {
      if (SharedPlan plan = weak.lock()) {
        return plan;
      }
    }
  }
  SharedPlan plan = std::make_shared<const std::vector<GhostCopy>>(
      compute_exchange_plan(part, ghost, bc));
  memo.entries.emplace_back(key, plan);
  return plan;
}

std::size_t shared_plan_count() {
  PlanMemo& memo = plan_memo();
  const std::lock_guard<std::mutex> lock(memo.mu);
  memo.drop_expired();
  return memo.entries.size();
}

std::uint64_t plan_cells(const std::vector<GhostCopy>& plan) {
  std::uint64_t cells = 0;
  for (const GhostCopy& c : plan) {
    cells += c.dst_box.volume();
  }
  return cells;
}

}  // namespace tidacc::tida

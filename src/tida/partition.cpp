#include "tida/partition.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tidacc::tida {

namespace {
int ceil_div(int a, int b) { return (a + b - 1) / b; }
}  // namespace

Partition::Partition(const Box& domain, const Index3& region_size)
    : domain_(domain), region_size_(region_size) {
  TIDACC_CHECK_MSG(!domain.empty(), "cannot partition an empty domain");
  TIDACC_CHECK_MSG(
      region_size.i > 0 && region_size.j > 0 && region_size.k > 0,
      "region size components must be positive");

  const Index3 ext = domain.extent();
  grid_dims_ = {ceil_div(ext.i, region_size.i), ceil_div(ext.j, region_size.j),
                ceil_div(ext.k, region_size.k)};

  boxes_.reserve(static_cast<size_t>(grid_dims_.i) * grid_dims_.j *
                 grid_dims_.k);
  for (int gk = 0; gk < grid_dims_.k; ++gk) {
    for (int gj = 0; gj < grid_dims_.j; ++gj) {
      for (int gi = 0; gi < grid_dims_.i; ++gi) {
        const Index3 lo{domain.lo.i + gi * region_size.i,
                        domain.lo.j + gj * region_size.j,
                        domain.lo.k + gk * region_size.k};
        const Index3 hi{
            std::min(lo.i + region_size.i - 1, domain.hi.i),
            std::min(lo.j + region_size.j - 1, domain.hi.j),
            std::min(lo.k + region_size.k - 1, domain.hi.k)};
        boxes_.push_back(Box{lo, hi});
      }
    }
  }
}

const Box& Partition::region_box(int id) const {
  TIDACC_CHECK_MSG(id >= 0 && id < num_regions(), "region id out of range");
  return boxes_[static_cast<size_t>(id)];
}

Index3 Partition::grid_coord(int id) const {
  TIDACC_CHECK_MSG(id >= 0 && id < num_regions(), "region id out of range");
  const int per_plane = grid_dims_.i * grid_dims_.j;
  return {id % grid_dims_.i, (id / grid_dims_.i) % grid_dims_.j,
          id / per_plane};
}

int Partition::region_at_coord(const Index3& coord) const {
  TIDACC_CHECK_MSG(coord.all_ge({0, 0, 0}) &&
                       coord.i < grid_dims_.i && coord.j < grid_dims_.j &&
                       coord.k < grid_dims_.k,
                   "region grid coordinate out of range");
  return (coord.k * grid_dims_.j + coord.j) * grid_dims_.i + coord.i;
}

int Partition::region_of_cell(const Index3& cell) const {
  if (!domain_.contains(cell)) {
    return -1;
  }
  const Index3 rel = cell - domain_.lo;
  return region_at_coord(
      {rel.i / region_size_.i, rel.j / region_size_.j, rel.k / region_size_.k});
}

std::vector<int> Partition::regions_intersecting(const Box& box) const {
  std::vector<int> out;
  const Box clip = box.intersect(domain_);
  if (clip.empty()) {
    return out;
  }
  const Index3 lo = clip.lo - domain_.lo;
  const Index3 hi = clip.hi - domain_.lo;
  const Index3 glo{lo.i / region_size_.i, lo.j / region_size_.j,
                   lo.k / region_size_.k};
  const Index3 ghi{hi.i / region_size_.i, hi.j / region_size_.j,
                   hi.k / region_size_.k};
  out.reserve(static_cast<size_t>(ghi.i - glo.i + 1) * (ghi.j - glo.j + 1) *
              (ghi.k - glo.k + 1));
  for (int gk = glo.k; gk <= ghi.k; ++gk) {
    for (int gj = glo.j; gj <= ghi.j; ++gj) {
      for (int gi = glo.i; gi <= ghi.i; ++gi) {
        out.push_back((gk * grid_dims_.j + gj) * grid_dims_.i + gi);
      }
    }
  }
  return out;
}

std::uint64_t Partition::max_region_volume(int ghost) const {
  std::uint64_t max_vol = 0;
  for (const Box& b : boxes_) {
    max_vol = std::max(max_vol, b.grow(ghost).volume());
  }
  return max_vol;
}

}  // namespace tidacc::tida

// TileArray — the paper's tileArray: physically separated per-region
// buffers (each padded with ghost layers), allocated in pinned or pageable
// host memory, with host-side ghost exchange.
//
// Regions are views into those buffers; Tiles are logical sub-boxes of a
// region's valid box (iteration-space partitioning for cache reuse on the
// CPU). The GPU extension (device mirrors, caching, async transfers) lives
// in core/acc_tile_array.hpp on top of this class.
#pragma once

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "cuem/cuem.hpp"
#include "tida/box.hpp"
#include "tida/ghost.hpp"
#include "tida/partition.hpp"

namespace tidacc::tida {

/// Host allocation flavour for region buffers. The paper uses pinned
/// (cudaMallocHost) so transfers are fast and overlappable (§IV-A).
enum class HostAlloc : int { kPageable = 0, kPinned = 1 };

/// Non-owning view of one region's storage. Data is laid out over the grown
/// box (valid + ghost) in i-fastest order, component-major (component c is
/// a contiguous block at offset c * grown.volume()); indices are global
/// (domain) coordinates.
template <typename T>
struct Region {
  int id = -1;
  Box valid;   ///< cells owned by this region
  Box grown;   ///< valid grown by the ghost width
  T* data = nullptr;
  int ncomp = 1;  ///< components per cell (BoxLib-style multi-component)

  Index3 extent() const { return grown.extent(); }

  /// Cells of one component's block.
  std::uint64_t comp_stride() const { return grown.volume(); }

  /// Linear offset of a global cell inside component `c`'s block.
  std::size_t offset_of(const Index3& p, int c = 0) const {
    const Index3 rel = p - grown.lo;
    const Index3 e = grown.extent();
    return static_cast<std::size_t>(c) * comp_stride() +
           (static_cast<std::size_t>(rel.k) * e.j + rel.j) * e.i + rel.i;
  }

  T& at(const Index3& p) const { return data[offset_of(p)]; }
  T& at(int i, int j, int k) const { return at(Index3{i, j, k}); }
  T& at(const Index3& p, int c) const { return data[offset_of(p, c)]; }
  T& at(int i, int j, int k, int c) const {
    return at(Index3{i, j, k}, c);
  }

  std::uint64_t cells() const { return grown.volume() * ncomp; }
  std::size_t bytes() const { return cells() * sizeof(T); }
};

/// Logical tile: an iteration sub-box of one region.
template <typename T>
struct Tile {
  Region<T> region;
  Box box;  ///< iteration space, subset of region.valid
};

/// The tiled array: owns one buffer per region.
template <typename T>
class TileArray {
 public:
  /// Decomposes `domain` into regions of `region_size`, each padded by
  /// `ghost` layers, and allocates the per-region buffers (`ncomp`
  /// components per cell, component-major).
  TileArray(const Box& domain, const Index3& region_size, int ghost,
            HostAlloc alloc = HostAlloc::kPinned, int ncomp = 1)
      : part_(domain, region_size),
        ghost_(ghost),
        alloc_(alloc),
        ncomp_(ncomp) {
    TIDACC_CHECK_MSG(ghost >= 0, "negative ghost width");
    TIDACC_CHECK_MSG(ncomp >= 1, "need at least one component");
    buffers_.reserve(part_.num_regions());
    for (int id = 0; id < part_.num_regions(); ++id) {
      const std::size_t bytes =
          part_.region_box(id).grow(ghost_).volume() * ncomp_ * sizeof(T);
      buffers_.push_back(static_cast<T*>(
          cuem::host_alloc(bytes, alloc == HostAlloc::kPinned)));
    }
  }

  ~TileArray() {
    for (T* buf : buffers_) {
      cuem::host_free(buf);
    }
  }

  TileArray(const TileArray&) = delete;
  TileArray& operator=(const TileArray&) = delete;

  const Partition& partition() const { return part_; }
  const Box& domain() const { return part_.domain(); }
  int num_regions() const { return part_.num_regions(); }
  int ghost() const { return ghost_; }
  int ncomp() const { return ncomp_; }
  HostAlloc host_alloc_kind() const { return alloc_; }

  /// View of region `id`.
  Region<T> region(int id) const {
    const Box valid = part_.region_box(id);
    return Region<T>{id, valid, valid.grow(ghost_),
                     buffers_[static_cast<std::size_t>(id)], ncomp_};
  }

  /// Bytes of one region's buffer (valid + ghosts).
  std::size_t region_bytes(int id) const { return region(id).bytes(); }

  /// Total bytes across all regions.
  std::size_t total_bytes() const {
    std::size_t total = 0;
    for (int id = 0; id < num_regions(); ++id) {
      total += region_bytes(id);
    }
    return total;
  }

  /// Reference to a valid (non-ghost) cell, located through the partition.
  /// Host-side convenience for tests/examples; requires functional mode.
  T& at(const Index3& cell) const {
    const int id = part_.region_of_cell(cell);
    TIDACC_CHECK_MSG(id >= 0, "cell outside the domain");
    return region(id).at(cell);
  }

  /// Fills valid cells by calling fn(global_index) — every component gets
  /// the same value; use fill_components for per-component data. Ghost
  /// cells are refreshed with fill_boundary afterwards.
  template <typename Fn>
  void fill(Fn&& fn) {
    fill_components(
        [&fn](const Index3& p, int) { return fn(p); });
  }

  /// Fills valid cells by calling fn(global_index, component).
  template <typename Fn>
  void fill_components(Fn&& fn) {
    TIDACC_CHECK_MSG(cuem::functional(),
                     "fill requires functional mode (data is synthetic in "
                     "timing-only mode)");
    for (int id = 0; id < num_regions(); ++id) {
      const Region<T> r = region(id);
      for (int c = 0; c < ncomp_; ++c) {
        for (int k = r.valid.lo.k; k <= r.valid.hi.k; ++k) {
          for (int j = r.valid.lo.j; j <= r.valid.hi.j; ++j) {
            for (int i = r.valid.lo.i; i <= r.valid.hi.i; ++i) {
              r.at(Index3{i, j, k}, c) = fn(Index3{i, j, k}, c);
            }
          }
        }
      }
    }
  }

  /// Copies one component's valid cells out into a flat domain-ordered
  /// array (i-fastest).
  void copy_out(T* flat, int comp = 0) const {
    TIDACC_CHECK_MSG(cuem::functional(), "copy_out requires functional mode");
    TIDACC_CHECK_MSG(comp >= 0 && comp < ncomp_, "component out of range");
    const Box dom = domain();
    const Index3 e = dom.extent();
    for (int id = 0; id < num_regions(); ++id) {
      const Region<T> r = region(id);
      for (int k = r.valid.lo.k; k <= r.valid.hi.k; ++k) {
        for (int j = r.valid.lo.j; j <= r.valid.hi.j; ++j) {
          for (int i = r.valid.lo.i; i <= r.valid.hi.i; ++i) {
            const Index3 rel = Index3{i, j, k} - dom.lo;
            flat[(static_cast<std::size_t>(rel.k) * e.j + rel.j) * e.i +
                 rel.i] = r.at(Index3{i, j, k}, comp);
          }
        }
      }
    }
  }

  /// Host-side ghost exchange (the original TiDA path). Executes the
  /// exchange plan with row-wise memcpy; in timing-only mode only the cost
  /// is charged. Returns the number of ghost cells refreshed.
  std::uint64_t fill_boundary_host(Boundary bc) {
    const std::vector<GhostCopy>& plan = exchange_plan(bc);
    if (cuem::functional()) {
      for (const GhostCopy& c : plan) {
        apply_copy_host(c);
      }
    }
    const std::uint64_t cells = plan_cells(plan) * ncomp_;
    sim::Platform& p = sim::Platform::instance();
    p.host_advance(
        transfer_time_ns(cells * sizeof(T), p.config().host_copy_gbps));
    return cells;
  }

  /// The exchange plan for this array's geometry, shared with every other
  /// array of equal geometry (see shared_exchange_plan).
  const std::vector<GhostCopy>& exchange_plan(Boundary bc) {
    SharedPlan& plan = plans_[static_cast<int>(bc)];
    if (!plan) {
      plan = shared_exchange_plan(part_, ghost_, bc);
    }
    return *plan;
  }

  /// Executes one planned copy on host buffers, all components (also used
  /// by tests).
  void apply_copy_host(const GhostCopy& c) {
    const Region<T> src = region(c.src_region);
    const Region<T> dst = region(c.dst_region);
    const Index3 e = c.dst_box.extent();
    for (int comp = 0; comp < ncomp_; ++comp) {
      for (int k = 0; k < e.k; ++k) {
        for (int j = 0; j < e.j; ++j) {
          const Index3 d0 = c.dst_box.lo + Index3{0, j, k};
          const Index3 s0 = c.src_box.lo + Index3{0, j, k};
          std::memcpy(&dst.at(d0, comp), &src.at(s0, comp),
                      static_cast<std::size_t>(e.i) * sizeof(T));
        }
      }
    }
  }

 private:
  Partition part_;
  int ghost_;
  HostAlloc alloc_;
  int ncomp_ = 1;
  std::vector<T*> buffers_;
  SharedPlan plans_[2];
};

}  // namespace tidacc::tida

// Ghost-cell exchange planning.
//
// A plan is the full list of box copies that refresh every region's ghost
// cells from its neighbours' valid cells (paper §III / Fig. 4). The plan is
// geometry-only (no data types), so the same plan drives both the host-side
// exchange (tida::TileArray::fill_boundary_host) and the device-side
// exchange (core::AccContext), where the CPU "computes the indices" — i.e.
// exactly this plan — while the GPU applies previously planned copies.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "tida/partition.hpp"

namespace tidacc::tida {

/// Domain boundary treatment for the exchange.
enum class Boundary : int {
  kNone = 0,    ///< ghost cells outside the domain are left untouched
  kPeriodic = 1 ///< the domain wraps in every dimension
};

const char* to_string(Boundary b);

/// One box copy: src_box (in src_region's valid space, domain coordinates)
/// feeds dst_box (in dst_region's ghost zone). Boxes have equal shape;
/// `shift` maps dst cells to src cells (src = dst + shift).
struct GhostCopy {
  int src_region = -1;
  int dst_region = -1;
  Box src_box;
  Box dst_box;
  Index3 shift{0, 0, 0};
};

/// Computes the complete exchange plan for a partition with `ghost` layers.
/// Copies are grouped by destination region (all copies into region 0 first,
/// then region 1, ...), which the device path exploits for pipelining.
std::vector<GhostCopy> compute_exchange_plan(const Partition& part, int ghost,
                                             Boundary bc);

/// An immutable exchange plan shared by every array of one geometry.
using SharedPlan = std::shared_ptr<const std::vector<GhostCopy>>;

/// The exchange plan for (domain, region size, ghost, bc), built once per
/// geometry: while any holder keeps a plan alive, later calls with an equal
/// geometry return the same object. The process-wide memo holds only weak
/// references, so a plan is freed with its last holder, and expired entries
/// are dropped on every call. Thread-safe: the memo is guarded by a mutex.
SharedPlan shared_exchange_plan(const Partition& part, int ghost, Boundary bc);

/// Number of live plans in the shared-plan memo (drops expired entries).
std::size_t shared_plan_count();

/// Total number of ghost cells written by a plan.
std::uint64_t plan_cells(const std::vector<GhostCopy>& plan);

}  // namespace tidacc::tida

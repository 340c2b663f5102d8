// compute_k() — k-step temporal blocking per residency (ROADMAP item 3).
//
// A region acquired with ghost = k * radius carries enough halo to advance
// k stencil steps without talking to its neighbours: sub-step s may write
// valid.grow(radius * (k - 1 - s)) — a trapezoid that shrinks by one
// stencil radius per sub-step and lands exactly on the valid box at the
// last one (tida::trapezoid_range). Each sub-step writes the slot's
// scratch double buffer and swaps pointers, so the whole k-step block runs
// in-slot with no extra transfers: one H2D + one D2H round trip now buys k
// cell updates instead of one, multiplying the effective link bandwidth
// ("A Synergy between On- and Off-Chip Data Reuse", "Beyond 16GB" —
// PAPERS.md).
//
// Contract:
//   * the array was built with AccOptions::time_block_k = k (slots carry
//     scratch buffers) and ghost >= k * radius;
//   * a fill_boundary() ran since the last writes, so the full ghost ring
//     is current on entry (every exchange refreshes the whole ring);
//   * the body is a Jacobi-style per-cell update reading `in` and writing
//     `out`: body(DeviceView<T> in, DeviceView<T> out, int i, int j, int k).
//
// After the block, slot_ptr() points at the newest data (the swaps keep
// that invariant for both parities of k) and the widened interior
// valid.grow(radius * (k - 1)) is recorded device-dirty — the cells whose
// device copy diverged from the host, not just the one-step shell.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_acc_array.hpp"
#include "oacc/oacc.hpp"
#include "sim/platform.hpp"
#include "tida/box.hpp"

namespace tidacc::core {

/// Runs k stencil sub-steps over `region` in its slot on the region's
/// owning device, double-buffering against the slot's scratch buffer (see
/// file header for the contract). AccTileArray and ClusterTileArray bind
/// here through their MultiAccTileArray base.
template <typename T, typename Fn>
void compute_k(MultiAccTileArray<T>& a, int region, int k, int radius,
               const oacc::LoopCost& cost, Fn&& body) {
  TIDACC_CHECK_MSG(k >= 2, "compute_k needs k >= 2 — use compute() for k=1");
  TIDACC_CHECK_MSG(radius >= 1, "stencil radius must be positive");
  TIDACC_CHECK_MSG(a.time_block_k() >= k,
                   "array was built for a smaller time_block_k");
  TIDACC_CHECK_MSG(a.has_scratch(),
                   "compute_k needs the in-slot scratch double buffer "
                   "(AccOptions::time_block_k > 1)");
  const tida::Region<T> reg = a.region(region);
  TIDACC_CHECK_MSG(radius * k <= a.ghost(),
                   "ghost width must be at least radius * k for depth-k "
                   "temporal blocking");

  sim::Platform& p = sim::Platform::instance();
  T* in_ptr = a.acquire_on_device(region);
  const cuemStream_t kstream = a.stream_of_region(region);

  for (int s = 0; s < k; ++s) {
    const tida::Box range = tida::trapezoid_range(reg.valid, radius, k, s);
    T* out_ptr = a.scratch_of_region(region);

    sim::KernelProfile prof;
    prof.elements = range.volume();
    prof.flops_per_element = cost.flops_per_iter;
    prof.dev_bytes_per_element = cost.dev_bytes_per_iter;
    prof.math_units_per_element = cost.math_units_per_iter;
    prof.math = cost.math;
    prof.tuned_geometry = false;  // kernels are OpenACC-generated (§IV-B5)
    prof.efficiency_factor = cost.efficiency_factor;

    const DeviceView<T> vin{in_ptr, reg.grown, reg.ncomp};
    const DeviceView<T> vout{out_ptr, reg.grown, reg.ncomp};
    auto action = [range, vin, vout, body]() {
      for (int kk = range.lo.k; kk <= range.hi.k; ++kk) {
        for (int jj = range.lo.j; jj <= range.hi.j; ++jj) {
          for (int ii = range.lo.i; ii <= range.hi.i; ++ii) {
            body(vin, vout, ii, jj, kk);
          }
        }
      }
    };
    p.enqueue_kernel(kstream, prof, p.config().oacc_dispatch_extra_ns,
                     std::move(action),
                     op_labels_wanted()
                         ? "Ck:R" + std::to_string(region) + "#" +
                               std::to_string(s)
                         : std::string());
    if (cuem::san::enabled()) {
      // Both buffers live on the same stream, so the swap-based double
      // buffering is race-free by stream order; claim the exact roles so
      // the racecheck can prove it (reads of `in`, writes of `out`).
      const std::string op = "Ck:R" + std::to_string(region);
      const std::size_t bytes = static_cast<std::size_t>(reg.grown.volume()) *
                                static_cast<std::size_t>(reg.ncomp) *
                                sizeof(T);
      cuem::san::note_kernel_access(kstream, in_ptr, bytes, /*write=*/false,
                                    op.c_str());
      cuem::san::note_kernel_access(kstream, out_ptr, bytes, /*write=*/true,
                                    op.c_str());
    }
    if (p.op_graph() != nullptr) {
      // Schedule-lint attribution (sanitizer-independent): same exact
      // in-read / out-write roles as the san claim above.
      const std::size_t bytes = static_cast<std::size_t>(reg.grown.volume()) *
                                static_cast<std::size_t>(reg.ncomp) *
                                sizeof(T);
      p.graph_note_stream_access(kstream, in_ptr, bytes, /*write=*/false);
      p.graph_note_stream_access(kstream, out_ptr, bytes, /*write=*/true);
    }
    // The swap makes slot_ptr() point at the data this sub-step produced;
    // the next sub-step (or the next transfer) picks it up from there.
    a.swap_region_buffers(region);
    in_ptr = out_ptr;
  }
  a.note_device_write(region,
                      tida::trapezoid_range(reg.valid, radius, k, 0));
}

// --- auto-tuner ---

/// One row of the auto-tuner's prediction table.
struct TimeBlockPrediction {
  int k = 1;
  /// Link bytes one residency round trip ships per useful cell update —
  /// the quantity temporal blocking divides by k while the widened ghosts
  /// grow it back; the tuner's objective weights it by the link rate.
  double bytes_per_update = 0.0;
  /// Predicted wall-clock per stencil step per region (ns): transfers and
  /// kernels overlap across slots, so the slower of the two pipelines
  /// bounds the block, plus the (amortized) widened ghost exchange.
  double step_ns = 0.0;
};

/// Picks the temporal blocking depth k that minimizes predicted wall-clock
/// per useful cell update, from the simulator's own cost constants: PCIe
/// link bandwidth and per-transfer setup (the term k divides), kernel
/// launch latency and the roofline of the shrinking trapezoid kernels (the
/// terms that grow with k), and the widened ghost ring (the transfer bytes
/// that grow with k). Returns 1 when blocking never wins. The caller then
/// builds the array with ghost = radius * k and
/// AccOptions::time_block_k = k. `table` (optional) receives one row per
/// candidate for bench emission.
inline int choose_time_block_k(const tida::Box& domain,
                               const tida::Index3& region_size, int radius,
                               const oacc::LoopCost& cost,
                               const sim::DeviceConfig& cfg, int max_k = 8,
                               std::vector<TimeBlockPrediction>* table =
                                   nullptr,
                               std::size_t elem_bytes = sizeof(double)) {
  TIDACC_CHECK_MSG(radius >= 1, "stencil radius must be positive");
  TIDACC_CHECK_MSG(max_k >= 1, "max_k must be at least 1");
  const tida::Index3 de = domain.extent();
  const tida::Index3 re{std::min(region_size.i, de.i),
                        std::min(region_size.j, de.j),
                        std::min(region_size.k, de.k)};
  const auto grown_volume = [&re](int g) {
    return static_cast<double>(re.i + 2 * g) *
           static_cast<double>(re.j + 2 * g) *
           static_cast<double>(re.k + 2 * g);
  };
  const double valid_cells = grown_volume(0);

  int best_k = 1;
  double best_step = 0.0;
  for (int k = 1; k <= max_k; ++k) {
    const int ghost = radius * k;
    const double grown_cells = grown_volume(ghost);
    const double flat_bytes = grown_cells * static_cast<double>(elem_bytes);

    // One residency round trip: the evict D2H and the upload H2D are
    // stream-ordered on the same slot stream, so they serialize per slot.
    const double tx =
        2.0 * static_cast<double>(cfg.host_api_overhead_ns +
                                  cfg.transfer_latency_ns) +
        flat_bytes / cfg.pinned_h2d_gbps + flat_bytes / cfg.pinned_d2h_gbps;

    // k trapezoid kernels over shrinking ranges (launch + roofline each).
    double tc = 0.0;
    for (int s = 0; s < k; ++s) {
      const double cells = grown_volume(radius * (k - 1 - s));
      const double mem_ns =
          cells * cost.dev_bytes_per_iter / cfg.device_mem_gbps;
      const double flop_ns =
          cells * cost.flops_per_iter / (cfg.dp_tflops * 1000.0);
      tc += static_cast<double>(cfg.kernel_launch_ns +
                                cfg.oacc_dispatch_extra_ns) +
            std::max(mem_ns, flop_ns) * cfg.untuned_geometry_factor;
    }

    // The widened ghost ring crosses the link twice per exchange (shells
    // down, refreshed ghosts up) — the bytes that grow with k. The handful
    // of per-face setups is second-order next to the ring payload.
    const double ring_bytes =
        (grown_cells - valid_cells) * static_cast<double>(elem_bytes);
    const double tex = ring_bytes / cfg.pinned_d2h_gbps +
                       ring_bytes / cfg.pinned_h2d_gbps +
                       2.0 * static_cast<double>(cfg.transfer_latency_ns +
                                                 cfg.host_api_overhead_ns);

    // Out-of-core steady state: every region's transfers overlap other
    // regions' kernels, so the slower pipeline bounds the block; the
    // exchange is serial between blocks. All per region, per k steps.
    const double step_ns = (std::max(tx, tc) + tex) / static_cast<double>(k);
    const double bytes_per_update =
        (2.0 * flat_bytes + 2.0 * ring_bytes) /
        (static_cast<double>(k) * valid_cells);
    if (table != nullptr) {
      table->push_back(TimeBlockPrediction{k, bytes_per_update, step_ns});
    }
    if (k == 1 || step_ns < best_step) {
      best_step = step_ns;
      best_k = k;
    }
  }
  return best_k;
}

}  // namespace tidacc::core

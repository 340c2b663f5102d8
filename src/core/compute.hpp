// compute() — the paper's uniform execution method (§IV-B5, §V).
//
// The programmer traverses tiles with an AccTileIterator and calls
// compute(tile..., cost, lambda). The same call runs the lambda over the
// tile's cells on the CPU (GPU-disabled traversal) or launches a generated
// kernel on the tile's stream (GPU-enabled traversal). Data pointers are
// delivered to the lambda as parameters — DeviceViews, declared with the
// array in core/multi_acc_array.hpp — which is the paper's §V-A
// workaround for OpenACC's lambda/deviceptr limitation.
//
// Lambda signature, for N tiles:
//   [](DeviceView<T0> v0, ..., DeviceView<TN-1> vN-1, int i, int j, int k)
// Indices are global (domain) coordinates; views index globally too.
#pragma once

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/acc_tile_array.hpp"
#include "oacc/oacc.hpp"
#include "sim/platform.hpp"

namespace tidacc::core {

namespace detail {

/// Shared implementation over a parameter pack of tiles.
template <typename Fn, typename... Ts>
void compute_range(const tida::Box& range, const oacc::LoopCost& cost,
                   Fn&& body, const AccTile<Ts>&... tiles) {
  static_assert(sizeof...(Ts) >= 1, "compute needs at least one tile");
  constexpr std::size_t kN = sizeof...(Ts);

  const std::tuple<const AccTile<Ts>&...> pack(tiles...);
  const AccTile<std::tuple_element_t<0, std::tuple<Ts...>>>& first =
      std::get<0>(pack);

  const bool gpu = first.gpu;
  TIDACC_CHECK_MSG(((tiles.gpu == gpu) && ...),
                   "all tiles of one compute must share the GPU flag");
  TIDACC_CHECK_MSG((... && (tiles.array != nullptr)), "unbound AccTile");
  TIDACC_CHECK_MSG(first.tile.region.valid.contains(range),
                   "compute range must lie inside the tile's region");

  sim::Platform& p = sim::Platform::instance();

  if (!gpu) {
    // CPU path: make every region current on the host and run the loop.
    (tiles.array->acquire_on_host(tiles.tile.region.id), ...);
    const auto views = std::make_tuple(
        DeviceView<Ts>{tiles.tile.region.data, tiles.tile.region.grown,
                       tiles.tile.region.ncomp}...);
    if (p.functional()) {
      for (int k = range.lo.k; k <= range.hi.k; ++k) {
        for (int j = range.lo.j; j <= range.hi.j; ++j) {
          for (int i = range.lo.i; i <= range.hi.i; ++i) {
            std::apply(body,
                       std::tuple_cat(views, std::make_tuple(i, j, k)));
          }
        }
      }
    }
    // Host compute cost (roofline against host rates).
    const double n = static_cast<double>(range.volume());
    const SimTime mem = transfer_time_ns(
        static_cast<std::uint64_t>(n * cost.dev_bytes_per_iter),
        p.config().host_mem_gbps);
    const double math_flops = cost.math_units_per_iter *
                              p.config().math_unit_flops *
                              p.config().math_factor(cost.math);
    const SimTime flop = compute_time_ns(
        n * (cost.flops_per_iter + math_flops),
        p.config().host_dp_gflops / 1000.0);
    p.host_advance(std::max(mem, flop));
    return;
  }

  // GPU path: stage every involved region (async, on its slot stream).
  const auto views = std::make_tuple(
      DeviceView<Ts>{tiles.array->acquire_on_device(tiles.tile.region.id),
                     tiles.tile.region.grown, tiles.tile.region.ncomp}...);

  // The kernel runs on the first tile's stream. If other tiles live on
  // different streams, their staging must complete first: record an event
  // on each and make the kernel stream wait (cross-array ordering).
  const cuemStream_t kstream =
      first.array->stream_of_region(first.tile.region.id);
  if constexpr (kN > 1) {
    const auto order_against = [&](const auto& t) {
      const cuemStream_t s = t.array->stream_of_region(t.tile.region.id);
      if (s != kstream) {
        cuemEvent_t ev = 0;
        CUEM_CHECK(cuemEventCreate(&ev));
        CUEM_CHECK(cuemEventRecord(ev, s));
        CUEM_CHECK(cuemStreamWaitEvent(kstream, ev, 0));
        CUEM_CHECK(cuemEventDestroy(ev));
      }
    };
    (order_against(tiles), ...);
  }

  sim::KernelProfile prof;
  prof.elements = range.volume();
  prof.flops_per_element = cost.flops_per_iter;
  prof.dev_bytes_per_element = cost.dev_bytes_per_iter;
  prof.math_units_per_element = cost.math_units_per_iter;
  prof.math = cost.math;
  prof.tuned_geometry = false;  // kernels are OpenACC-generated (§IV-B5)
  prof.efficiency_factor = cost.efficiency_factor;

  auto action = [range, views, body = std::forward<Fn>(body)]() {
    for (int k = range.lo.k; k <= range.hi.k; ++k) {
      for (int j = range.lo.j; j <= range.hi.j; ++j) {
        for (int i = range.lo.i; i <= range.hi.i; ++i) {
          std::apply(body, std::tuple_cat(views, std::make_tuple(i, j, k)));
        }
      }
    }
  };

  p.enqueue_kernel(kstream, prof, p.config().oacc_dispatch_extra_ns,
                   std::move(action),
                   op_labels_wanted()
                       ? "C:R" + std::to_string(first.tile.region.id)
                       : std::string());
  // Dirty tracking is conservative: the kernel may write any involved
  // tile's cells in `range`, so every array records a device write there.
  (tiles.array->note_device_write(tiles.tile.region.id, range), ...);
  if (cuem::san::enabled()) {
    // Sanitizer racecheck bookkeeping: the kernel may read or write any
    // involved slot buffer (conservative whole-buffer claim; ordering
    // across streams is explicit above/below, so this cannot false-flag).
    const std::string op = "C:R" + std::to_string(first.tile.region.id);
    const auto note_tile = [&](const auto& t) {
      const auto& reg = t.tile.region;
      const std::size_t bytes =
          static_cast<std::size_t>(reg.grown.volume()) *
          static_cast<std::size_t>(reg.ncomp) *
          sizeof(*t.array->device_region(reg.id).data);
      cuem::san::note_kernel_access(kstream,
                                    t.array->device_region(reg.id).data,
                                    bytes, /*write=*/true, op.c_str());
    };
    (note_tile(tiles), ...);
  }
  if (sim::Platform::instance().op_graph() != nullptr) {
    // Schedule-lint attribution: the same conservative whole-buffer write
    // claim, but independent of the sanitizer build (the graph is an
    // opt-in analysis attachment, not a compile-time mode).
    const auto graph_note_tile = [&](const auto& t) {
      const auto& reg = t.tile.region;
      const std::size_t bytes =
          static_cast<std::size_t>(reg.grown.volume()) *
          static_cast<std::size_t>(reg.ncomp) *
          sizeof(*t.array->device_region(reg.id).data);
      sim::Platform::instance().graph_note_stream_access(
          kstream, t.array->device_region(reg.id).data, bytes,
          /*write=*/true);
    };
    (graph_note_tile(tiles), ...);
  }
  // No synchronization after the launch (§IV-B5): stream order protects
  // later operations on the same region. Cross-array ordering needs the
  // mirror of the opening edges, though: the kernel may write the *other*
  // tiles' regions, so work queued later on their streams (their next
  // kernel, an eviction D2H) must wait for this launch.
  if constexpr (kN > 1) {
    const auto order_after = [&](const auto& t) {
      const cuemStream_t s = t.array->stream_of_region(t.tile.region.id);
      if (s != kstream) {
        cuemEvent_t ev = 0;
        CUEM_CHECK(cuemEventCreate(&ev));
        CUEM_CHECK(cuemEventRecord(ev, kstream));
        CUEM_CHECK(cuemStreamWaitEvent(s, ev, 0));
        CUEM_CHECK(cuemEventDestroy(ev));
      }
    };
    (order_after(tiles), ...);
  }
}

}  // namespace detail

// --- public overloads (paper §V shapes) ---

/// compute(tile, cost, lambda)
template <typename T0, typename Fn>
void compute(const AccTile<T0>& t0, const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(t0.tile.box, cost, std::forward<Fn>(body), t0);
}

/// compute(tile, lo, hi, cost, lambda) — restricted iteration range.
template <typename T0, typename Fn>
void compute(const AccTile<T0>& t0, const tida::Index3& lo,
             const tida::Index3& hi, const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(tida::Box{lo, hi}, cost, std::forward<Fn>(body), t0);
}

/// compute(tileA, tileB, cost, lambda) — multi-tile input/output.
template <typename T0, typename T1, typename Fn>
void compute(const AccTile<T0>& t0, const AccTile<T1>& t1,
             const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(t0.tile.box, cost, std::forward<Fn>(body), t0, t1);
}

/// compute(tileA, tileB, lo, hi, cost, lambda)
template <typename T0, typename T1, typename Fn>
void compute(const AccTile<T0>& t0, const AccTile<T1>& t1,
             const tida::Index3& lo, const tida::Index3& hi,
             const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(tida::Box{lo, hi}, cost, std::forward<Fn>(body), t0,
                        t1);
}

/// compute over three tiles.
template <typename T0, typename T1, typename T2, typename Fn>
void compute(const AccTile<T0>& t0, const AccTile<T1>& t1,
             const AccTile<T2>& t2, const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(t0.tile.box, cost, std::forward<Fn>(body), t0, t1,
                        t2);
}

/// compute over four tiles.
template <typename T0, typename T1, typename T2, typename T3, typename Fn>
void compute(const AccTile<T0>& t0, const AccTile<T1>& t1,
             const AccTile<T2>& t2, const AccTile<T3>& t3,
             const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(t0.tile.box, cost, std::forward<Fn>(body), t0, t1,
                        t2, t3);
}

// --- reductions ---

/// compute_reduce(tile, cost, op, lambda): the body returns one value per
/// cell; the combined result is returned to the host (this blocks on the
/// tile's stream — a reduction's value is host-visible). The device data is
/// not modified, so the region's location is unchanged for reads.
///
/// In timing-only mode the identity element is returned.
template <typename T0, typename Fn>
double compute_reduce(const AccTile<T0>& t0, const oacc::LoopCost& cost,
                      oacc::ReduceOp op, Fn&& body) {
  auto partial = std::make_shared<double>(oacc::detail::reduce_identity(op));
  detail::compute_range(
      t0.tile.box, cost,
      [op, partial, body = std::forward<Fn>(body)](DeviceView<T0> v, int i,
                                                   int j, int k) {
        *partial =
            oacc::detail::reduce_combine(op, *partial, body(v, i, j, k));
      },
      t0);
  sim::Platform& p = sim::Platform::instance();
  p.host_advance(p.config().transfer_latency_ns);
  if (t0.gpu) {
    CUEM_CHECK(cuemStreamSynchronize(
        t0.array->stream_of_region(t0.tile.region.id)));
  }
  return *partial;
}

/// Two-tile reduction: body(v0, v1, i, j, k) -> double. Used for residuals
/// and error norms between two fields without any host copies.
template <typename T0, typename T1, typename Fn>
double compute_reduce(const AccTile<T0>& t0, const AccTile<T1>& t1,
                      const oacc::LoopCost& cost, oacc::ReduceOp op,
                      Fn&& body) {
  auto partial = std::make_shared<double>(oacc::detail::reduce_identity(op));
  detail::compute_range(
      t0.tile.box, cost,
      [op, partial, body = std::forward<Fn>(body)](
          DeviceView<T0> v0, DeviceView<T1> v1, int i, int j, int k) {
        *partial = oacc::detail::reduce_combine(op, *partial,
                                                body(v0, v1, i, j, k));
      },
      t0, t1);
  sim::Platform& p = sim::Platform::instance();
  p.host_advance(p.config().transfer_latency_ns);
  if (t0.gpu) {
    CUEM_CHECK(cuemStreamSynchronize(
        t0.array->stream_of_region(t0.tile.region.id)));
  }
  return *partial;
}

// --- out-of-core streamed traversal (slot-scheduler prefetch) ---

/// Runs one full GPU traversal with H2D prefetch: after enqueueing each
/// tile's kernel, the regions of the next `lookahead` tile positions are
/// prefetched onto their (policy-chosen) slot streams, so their transfers
/// ride the DMA engines while earlier kernels occupy the compute engine.
/// With `lookahead` 0 this is exactly the demand-driven traversal.
///
/// Returns the number of prefetch placements issued (already-resident and
/// pinned-away regions are skipped — see prefetch_to_device()).
template <typename T, typename Fn>
std::uint64_t compute_streamed(AccTileIterator<T>& it, int lookahead,
                               const oacc::LoopCost& cost, Fn&& body) {
  TIDACC_CHECK_MSG(lookahead >= 0, "negative prefetch lookahead");
  std::uint64_t issued = 0;
  for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
    AccTile<T> tile = it.tile();
    compute(tile, cost, body);
    for (int a = 1; a <= lookahead; ++a) {
      const int next = it.peek_region(static_cast<std::size_t>(a));
      if (next >= 0 && next != tile.tile.region.id) {
        issued += tile.array->prefetch_to_device(next) ? 1 : 0;
      }
    }
  }
  return issued;
}

// --- hybrid CPU/GPU traversal (paper §III: "overlapping computation in
// CPU with computation in GPU") ---

/// Outcome of one hybrid traversal.
struct HybridStats {
  int gpu_tiles = 0;
  int cpu_tiles = 0;
};

/// Runs one full traversal with the first regions' tiles on the GPU and
/// the last `cpu_regions` regions' tiles on the CPU. GPU kernels are
/// enqueued first (asynchronously), then the CPU works its share while the
/// device crunches — host and device virtual time overlap.
///
/// Regions keep a stable side across repeated calls, so steady-state runs
/// incur no ping-pong transfers.
template <typename T, typename Fn>
HybridStats compute_hybrid(AccTileIterator<T>& it, int cpu_regions,
                           const oacc::LoopCost& cost, Fn&& body) {
  TIDACC_CHECK_MSG(cpu_regions >= 0, "negative CPU share");
  HybridStats stats;
  // Pass 1: enqueue every GPU tile (returns immediately per tile).
  for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
    AccTile<T> tile = it.tile();
    const int region = tile.tile.region.id;
    if (region >= tile.array->num_regions() - cpu_regions) {
      continue;
    }
    compute(tile, cost, body);
    ++stats.gpu_tiles;
  }
  // Pass 2: the host computes its share while the device is busy.
  for (it.reset(/*gpu=*/false); it.isValid(); it.next()) {
    AccTile<T> tile = it.tile();
    const int region = tile.tile.region.id;
    if (region < tile.array->num_regions() - cpu_regions) {
      continue;
    }
    compute(tile, cost, body);
    ++stats.cpu_tiles;
  }
  return stats;
}

// --- multicore host traversal (the original TiDA execution model) ---

/// Runs one full CPU traversal with tiles distributed across a thread pool
/// — the multicore path TiDA was built for (tiles sized for cache reuse,
/// regions for NUMA placement). All involved regions are made host-current
/// first; tiles are disjoint so the body may run concurrently.
///
/// The modeled host time is the serial tile cost divided by the effective
/// parallelism min(threads, tiles).
template <typename T, typename Fn>
void compute_host_parallel(AccTileIterator<T>& it, ThreadPool& pool,
                           const oacc::LoopCost& cost, Fn&& body) {
  sim::Platform& p = sim::Platform::instance();

  // Collect the tiles and make their regions host-current.
  std::vector<AccTile<T>> tiles;
  for (it.reset(/*gpu=*/false); it.isValid(); it.next()) {
    tiles.push_back(it.tile());
  }
  std::uint64_t cells = 0;
  for (AccTile<T>& t : tiles) {
    t.array->acquire_on_host(t.tile.region.id);
    cells += t.tile.box.volume();
  }

  if (p.functional()) {
    pool.parallel_for(tiles.size(), [&](std::size_t idx) {
      const AccTile<T>& t = tiles[idx];
      const DeviceView<T> view{t.tile.region.data, t.tile.region.grown,
                               t.tile.region.ncomp};
      const tida::Box& range = t.tile.box;
      for (int k = range.lo.k; k <= range.hi.k; ++k) {
        for (int j = range.lo.j; j <= range.hi.j; ++j) {
          for (int i = range.lo.i; i <= range.hi.i; ++i) {
            body(view, i, j, k);
          }
        }
      }
    });
  }

  // Parallel host cost: serial roofline cost over effective workers.
  const double n = static_cast<double>(cells);
  const SimTime mem = transfer_time_ns(
      static_cast<std::uint64_t>(n * cost.dev_bytes_per_iter),
      p.config().host_mem_gbps);
  const double math_flops = cost.math_units_per_iter *
                            p.config().math_unit_flops *
                            p.config().math_factor(cost.math);
  const SimTime flop =
      compute_time_ns(n * (cost.flops_per_iter + math_flops),
                      p.config().host_dp_gflops / 1000.0);
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(pool.thread_count(), tiles.size()));
  p.host_advance(std::max(mem, flop) / workers);
}

}  // namespace tidacc::core

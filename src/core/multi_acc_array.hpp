// MultiAccTileArray — the tile array implementation of TiDA-acc: regions
// distributed across a set of the platform's simulated devices.
//
// Extends tida::TileArray<T> with one DevicePool (+ CacheTable +
// SlotScheduler) per device: each region has an owning device chosen by a
// placement policy (block or round-robin), demand acquires and prefetches
// run the caching protocol of §IV-B4 against the owner's pool (on-demand
// transfers, eviction through shared slots, per-slot streams), and the
// dual-path ghost exchange of §IV-B6 is extended across device boundaries:
// host-side exchange when data lives on the host; device-side update
// kernels with CPU index computation when it lives on the device. Faces
// whose source and destination live on different devices travel as peer
// copies (direct over the interconnect when peer access is enabled,
// staged D2H+H2D through pinned host memory otherwise). Both reuse the CPU
// index-list pipelining — the host computes the copy descriptors for
// region k+1 while device engines work on region k's updates.
//
// Access protocol (paper §III "caching"):
//   * acquire_on_device(r): makes region r usable by kernels; queues the
//     needed async transfers on r's slot stream and returns the device
//     pointer. Never blocks the host.
//   * acquire_on_host(r): makes region r readable/writable on the host;
//     blocks (cuemStreamSynchronize) if a device→host transfer is needed,
//     because the caller touches the data immediately (§IV-B3).
//
// AccTileArray (core/acc_tile_array.hpp) is the one-device case with the
// paper's §V interface; ClusterTileArray adds node sharding and the wire
// exchange on top.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/inject.hpp"
#include "core/device_pool.hpp"
#include "core/dirty_tracker.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"
#include "oacc/oacc.hpp"
#include "sim/snapshot.hpp"
#include "tida/tile_array.hpp"

namespace tidacc::core {

/// How fill_boundary picks between the streaming (delta) exchange and the
/// drain-to-host exchange in the out-of-core regime.
///   kAuto           — consult the exchange-level cost model each time:
///                     stream only when the predicted pitched-copy cost
///                     (latency + chunk overhead per shell box) beats the
///                     predicted drain cost. Default.
///   kForceStreaming — always stream (ablation / tests pinning the path).
///   kForceDrain     — never stream; drain and exchange on the host.
enum class StreamingGuard : int { kAuto = 0, kForceStreaming, kForceDrain };

/// Transfer compression policy for the host<->device link (and, through
/// ClusterOptions, the inter-node wire).
///   kOff  — every transfer moves raw bytes. Default; reproduces the
///           uncompressed transfer timings bit-for-bit.
///   kOn   — every eligible transfer runs through the codec, paying
///           encode + decode while only the shrunken payload crosses the
///           link (DeviceConfig::codec prices both stages).
///   kAuto — per-transfer cost model: compress exactly when the modeled
///           encode + wire-at-ratio + decode time beats the raw wire time
///           for this payload size, kind and link rate.
/// Prefetches always move raw: they ride a dedicated early-upload path
/// whose whole point is hiding wire time under compute, so shrinking the
/// wire buys nothing while the codec stages would delay the hint.
enum class Compression : int { kOff = 0, kOn = 1, kAuto = 2 };

/// Construction options shared by every tile array (AccTileArray takes
/// them directly; MultiAccOptions adds the device set).
struct AccOptions {
  tida::HostAlloc host_alloc = tida::HostAlloc::kPinned;
  /// Cap on device slots, per device; used by the limited-memory
  /// experiments (Fig. 8) to emulate a device that only holds N regions.
  int max_slots = std::numeric_limits<int>::max();
  /// Disables the paper's caching (§IV-B4): every device acquire re-uploads
  /// even when the region is already resident. Ablation-only switch — shows
  /// what the cache table is worth.
  bool disable_caching = false;
  /// Components per cell (BoxLib-style multi-component arrays).
  int ncomp = 1;
  /// Region→slot scheduling policy within each device's pool. The default
  /// reproduces the paper's static region % num_slots mapping bit-for-bit;
  /// kLru/kBeladyOracle place regions dynamically (out-of-core eviction
  /// policies).
  SlotPolicyKind slot_policy = SlotPolicyKind::kStaticModulo;
  /// Enables dirty-region tracking and delta transfers: acquires,
  /// evictions, and the out-of-core ghost exchange ship only the boxes one
  /// side has written since the copies last agreed, as pitched
  /// cuemMemcpy3DAsync copies, falling back to one flat copy when that is
  /// both safe and modeled cheaper. Off by default — the seed's
  /// whole-region transfer shapes are reproduced exactly.
  bool delta_transfers = false;
  /// Streaming-vs-drain dispatch for the out-of-core ghost exchange (only
  /// consulted when delta_transfers is on and not every region fits).
  StreamingGuard streaming_guard = StreamingGuard::kAuto;
  /// Temporal blocking depth: number of stencil sub-steps compute_k() runs
  /// per residency. 1 (default) allocates nothing extra and reproduces the
  /// seed's behaviour bit-for-bit; k > 1 gives every slot a scratch double
  /// buffer and deepens the prefetch hint to k. The array must then be
  /// built with ghost = k * stencil_radius (see choose_time_block_k).
  int time_block_k = 1;
  /// Codec policy for this array's host<->device transfers (flat region
  /// copies and pitched delta copies; prefetches stay raw). kOff keeps the
  /// transfer timings bit-identical to an uncompressed build.
  Compression compression = Compression::kOff;
};

/// Region→device placement policy.
///   kBlock:      contiguous chunks (region r on device r / ceil(R/N)) —
///                neighbouring regions share a device, so most ghost faces
///                stay device-local (fewest peer copies).
///   kRoundRobin: region r on device r % N — balances any per-region load
///                imbalance at the cost of more cross-device faces.
enum class DevicePlacement : int { kBlock = 0, kRoundRobin = 1 };

const char* to_string(DevicePlacement p);

/// Parses "block" / "round-robin" (also "rr", "roundrobin").
DevicePlacement parse_placement(const std::string& s);

/// Construction options for MultiAccTileArray: the shared AccOptions plus
/// the device set (AccOptions::max_slots caps each device's pool).
struct MultiAccOptions : AccOptions {
  /// Number of devices to distribute over; 0 means every device the
  /// platform exposes. Must not exceed cuemGetDeviceCount.
  int devices = 0;
  DevicePlacement placement = DevicePlacement::kBlock;
};

/// The raw-vs-compressed decision for one transfer of `bytes` logical
/// payload over a link of `gbps` carrying `codec`, under `policy` — shared
/// by the host<->device hops and the inter-node wire. kAuto mirrors the
/// link's compressed-transfer pricing exactly: setup and latency are
/// identical on both paths, so the comparison reduces to the codec stages
/// plus the shrunken wire against the raw wire.
inline bool use_codec(Compression policy, const sim::CodecConfig& codec,
                      std::uint64_t bytes, sim::PayloadKind payload,
                      double gbps) {
  if (policy == Compression::kOff || bytes == 0) {
    return false;
  }
  if (policy == Compression::kOn) {
    return true;
  }
  return codec.codec_time_ns(bytes) +
             transfer_time_ns(codec.wire_bytes(bytes, payload), gbps) <
         transfer_time_ns(bytes, gbps);
}

/// True when per-op label strings have a reader — the trace records full
/// events, a schedule-analysis OpGraph is attached, or the sanitizer names
/// its findings by op — so the hot paths build them only then (the fuzz
/// and benchmark loops turn recording off).
inline bool op_labels_wanted() {
  sim::Platform& p = sim::Platform::instance();
  return p.trace().recording() || p.op_graph() != nullptr ||
         cuem::san::enabled();
}

template <typename T>
class MultiAccTileArray : public tida::TileArray<T> {
 public:
  using Base = tida::TileArray<T>;

  MultiAccTileArray(const tida::Box& domain, const tida::Index3& region_size,
                    int ghost, MultiAccOptions opts = {})
      : Base(domain, region_size, ghost, opts.host_alloc, opts.ncomp),
        loc_(this->num_regions()),
        dirty_(this->num_regions()),
        pending_xfer_(static_cast<std::size_t>(this->num_regions()), -1),
        placement_(opts.placement),
        disable_caching_(opts.disable_caching),
        delta_transfers_(opts.delta_transfers),
        streaming_guard_(opts.streaming_guard),
        time_block_k_(opts.time_block_k),
        compression_(opts.compression) {
    TIDACC_CHECK_MSG(opts.time_block_k >= 1,
                     "time_block_k must be at least 1");
    TIDACC_CHECK_MSG(
        compression_ == Compression::kOff ||
            sim::Platform::instance().config().codec.available,
        "compression requested on a device config without a codec "
        "(DeviceConfig::codec.available is false)");
    if (cuem::san::enabled()) {
      for (int r = 0; r < this->num_regions(); ++r) {
        CUEM_CHECK(cuemSanAnnotate(this->region(r).data,
                                   ("host:R" + std::to_string(r)).c_str()));
      }
    }
    const int avail = cuem::device_count();
    num_devices_ = opts.devices == 0 ? avail : opts.devices;
    TIDACC_CHECK_MSG(num_devices_ >= 1 && num_devices_ <= avail,
                     "device count must be in [1, cuemGetDeviceCount]");
    const int nreg = this->num_regions();
    owner_.resize(static_cast<std::size_t>(nreg));
    local_.resize(static_cast<std::size_t>(nreg));
    shards_.resize(static_cast<std::size_t>(num_devices_));
    const int chunk = (nreg + num_devices_ - 1) / num_devices_;
    for (int r = 0; r < nreg; ++r) {
      const int d = placement_ == DevicePlacement::kBlock
                        ? r / chunk
                        : r % num_devices_;
      owner_[static_cast<std::size_t>(r)] = d;
      local_[static_cast<std::size_t>(r)] =
          static_cast<int>(shard(d).regions.size());
      shard(d).regions.push_back(r);
    }
    const std::size_t slot_bytes =
        this->partition().max_region_volume(ghost) * opts.ncomp * sizeof(T);
    for (int d = 0; d < num_devices_; ++d) {
      if (shard(d).regions.empty()) {
        continue;  // more devices than regions: this device idles
      }
      // The pool sizes itself against the *owning* device's free memory and
      // creates its slot streams there, so construct under its guard.
      cuem::DeviceGuard guard(d);
      shard(d).pool = std::make_unique<DevicePool>(
          slot_bytes, static_cast<int>(shard(d).regions.size()),
          opts.max_slots, make_slot_policy(opts.slot_policy),
          /*with_scratch=*/opts.time_block_k > 1);
      if (opts.time_block_k > 1) {
        // A k-deep residency spans k kernel launches; let the prefetcher
        // run as many regions ahead so the copy engine stays busy.
        shard(d).pool->scheduler().set_prefetch_depth(opts.time_block_k);
      }
    }
  }

  // --- device topology ---

  /// Devices this array distributes over (not necessarily all used).
  int num_devices() const { return num_devices_; }
  DevicePlacement placement() const { return placement_; }

  /// Owning device of a region.
  int device_of_region(int region) const {
    return owner_[checked(region)];
  }

  /// Region's index within its owning device's pool.
  int local_region(int region) const { return local_[checked(region)]; }

  /// Global region ids owned by one device, in local order.
  const std::vector<int>& regions_of_device(int device) const {
    TIDACC_CHECK_MSG(device >= 0 && device < num_devices_,
                     "device ordinal out of range");
    return shards_[static_cast<std::size_t>(device)].regions;
  }

  /// True when every device's regions each have their own slot.
  bool all_regions_fit() const {
    for (const DeviceShard& s : shards_) {
      if (s.pool && !s.pool->one_to_one()) {
        return false;
      }
    }
    return true;
  }

  int num_slots(int device) const { return pool_of(device).num_slots(); }
  const CacheTable& cache(int device) const {
    return pool_of(device).cache();
  }
  const SlotScheduler& scheduler(int device) const {
    return pool_of(device).scheduler();
  }

  /// Temporal blocking depth this array was built for (1 = off).
  int time_block_k() const { return time_block_k_; }

  /// Codec policy this array was built with.
  Compression compression() const { return compression_; }

  /// True when slots carry scratch double buffers (time_block_k > 1).
  bool has_scratch() const {
    for (const DeviceShard& s : shards_) {
      if (s.pool) {
        return s.pool->has_scratch();
      }
    }
    return false;
  }

  /// Device pointer of the scratch buffer backing `region`'s slot on its
  /// owning device — the write target of compute_k's odd sub-steps.
  /// Requires has_scratch().
  T* scratch_of_region(int region) {
    const DevicePool& pool = owner_pool(region);
    return static_cast<T*>(pool.scratch_ptr(
        pool.slot_of_region(local_[static_cast<std::size_t>(region)])));
  }

  /// Swaps `region`'s slot primary/scratch pointers after a sub-step wrote
  /// the scratch buffer (no device copy — pointer bookkeeping only).
  void swap_region_buffers(int region) {
    DevicePool& pool = owner_pool(region);
    pool.swap_slot_buffers(
        pool.slot_of_region(local_[static_cast<std::size_t>(region)]));
  }

  /// Remaps slot→stream on one device's pool (see
  /// DevicePool::set_stream_permutation). Fuzzing/ablation hook.
  void set_stream_permutation(int device, const std::vector<int>& perm) {
    TIDACC_CHECK_MSG(device >= 0 && device < num_devices_,
                     "device ordinal out of range");
    TIDACC_CHECK_MSG(shards_[static_cast<std::size_t>(device)].pool != nullptr,
                     "device owns no regions");
    // The pool resolves its new stream table on the current device.
    cuem::DeviceGuard guard(device);
    shards_[static_cast<std::size_t>(device)].pool->set_stream_permutation(
        perm);
  }

  /// Stream serving a region's slot, on the owning device.
  cuemStream_t stream_of_region(int region) const {
    const DevicePool& pool = owner_pool(region);
    return pool.stream_of_slot(
        pool.slot_of_region(local_[static_cast<std::size_t>(region)]));
  }

  /// Installs the recorded future region-access order (global ids, one
  /// entry per demand acquire) for the BeladyOracle policy, splitting it
  /// into each device's local sequence; other policies ignore it.
  void set_future_accesses(std::vector<int> sequence) {
    for (int d = 0; d < num_devices_; ++d) {
      if (!shard(d).pool) {
        continue;
      }
      std::vector<int> local_seq;
      for (int r : sequence) {
        if (owner_[checked(r)] == d) {
          local_seq.push_back(local_[static_cast<std::size_t>(r)]);
        }
      }
      shard(d).pool->scheduler().set_future(std::move(local_seq));
    }
  }

  /// Last-access location of a region.
  Loc location(int region) const { return loc_.location(region); }

  /// Fills valid cells on the host (hides Base::fill to record that every
  /// region now has authoritative host data).
  template <typename Fn>
  void fill(Fn&& fn) {
    sync_all_pending_host();
    note_host_buffers("fill");
    Base::fill(std::forward<Fn>(fn));
    assume_host_initialized();
  }

  /// Per-component fill; same host-ownership bookkeeping as fill().
  template <typename Fn>
  void fill_components(Fn&& fn) {
    sync_all_pending_host();
    note_host_buffers("fill_components");
    Base::fill_components(std::forward<Fn>(fn));
    assume_host_initialized();
  }

  /// Declares that host buffers hold meaningful data without writing them —
  /// the timing-only-mode stand-in for fill(), so transfer shapes match
  /// functional runs.
  void assume_host_initialized() {
    for (int r = 0; r < this->num_regions(); ++r) {
      loc_.set(r, Loc::kHost);
      if (delta_transfers_) {
        dirty_.mark_all_host(r, this->region(r).grown);
      }
    }
  }

  /// Host cell access (hides Base::at to enforce the access protocol: the
  /// region must not be device-current — call acquire_on_host first). The
  /// returned reference may be written, so the host becomes the
  /// authoritative side.
  T& at(const tida::Index3& cell) {
    const int id = this->partition().region_of_cell(cell);
    TIDACC_CHECK_MSG(id >= 0, "cell outside the domain");
    TIDACC_CHECK_MSG(loc_.location(id) != Loc::kDevice,
                     "host access to a device-current region — call "
                     "acquire_on_host first (paper §IV-B3)");
    // An async transfer may still be touching this region's host buffer
    // (e.g. the D2H queued when it was evicted): wait for it before the
    // caller dereferences.
    sync_pending_host(id);
    cuem::san::note_host_access(this->region(id).data,
                                this->region_bytes(id),
                                /*write=*/true, "TileArray::at");
    loc_.set(id, Loc::kHost);
    if (delta_transfers_) {
      dirty_.note_host_write(id, tida::Box{cell, cell});
    }
    return Base::at(cell);
  }

  /// Device-side view of `region` laid out in its slot buffer on the
  /// owning device (valid whether or not the region is currently
  /// resident).
  tida::Region<T> device_region(int region) const {
    const DevicePool& pool = owner_pool(region);
    tida::Region<T> r = this->region(region);
    r.data = static_cast<T*>(pool.slot_ptr(
        pool.slot_of_region(local_[static_cast<std::size_t>(region)])));
    return r;
  }

  // --- the caching protocol (per-device pools) ---

  /// Ensures region `region` is resident and current on its owning device;
  /// returns its device pointer. The slot comes from the owner's scheduler
  /// (resident slot, else a policy-chosen victim); transfers (and the
  /// eviction of a slot-sharing victim) are queued asynchronously on the
  /// slot's stream.
  T* acquire_on_device(int region) {
    const int dev = owner_[checked(region)];
    DevicePool& pool = *shard(dev).pool;
    const int lr = local_[static_cast<std::size_t>(region)];
    const int slot = pool.place_region(lr);
    const cuemStream_t stream = pool.stream_of_slot(slot);
    CacheTable& cache = pool.cache();
    T* dev_ptr = static_cast<T*>(pool.slot_ptr(slot));

    if (cache.resident(slot) == lr) {
      // Cache hit; if the host touched it since, refresh the device copy.
      // With caching disabled (ablation) the data round-trips on every
      // acquire — D2H then H2D, the per-kernel-clause behaviour a runtime
      // without the cache table would exhibit.
      if (disable_caching_ && loc_.location(region) == Loc::kDevice) {
        drain_device(region, dev_ptr, stream);
        loc_.set(region, Loc::kHost);
      }
      if (loc_.location(region) == Loc::kHost) {
        refresh_device(region, dev_ptr, stream);
      }
      loc_.set(region, Loc::kDevice);
      return dev_ptr;
    }

    const bool needs_upload = loc_.location(region) == Loc::kHost;
    evict_resident(dev, slot, dev_ptr, stream);

    // A miss leaves no device copy to delta against: the flat upload (or
    // the absent upload of a kUninit region) re-baselines both sides.
    if (delta_transfers_) {
      dirty_.reset(region);
    }
    // No H2D for a region whose host side never produced data (kUninit):
    // there is nothing meaningful to upload. Output arrays of Jacobi-style
    // solvers hit this path and save half the upload traffic.
    if (needs_upload) {
      order_after_pending(region, stream);
      copy_region(dev_ptr, this->region(region).data, region,
                  cuemMemcpyHostToDevice, stream);
    }
    cache.set(slot, lr);
    loc_.set(region, Loc::kDevice);
    return dev_ptr;
  }

  /// Queues the asynchronous H2D bringing `region` into a policy-chosen
  /// slot of its owner *ahead* of its demand acquire, so the transfer
  /// overlaps the kernels still running on other slots (out-of-core
  /// pipelining). Never blocks the host. The receiving slot stays pinned —
  /// protected from eviction — until a demand acquire consumes the region.
  /// Returns false when nothing was queued: the region is already
  /// resident, caching is disabled, every slot is pinned, or the static
  /// mapping lands on a slot holding another in-flight prefetch (skipped
  /// rather than evicted).
  bool prefetch_to_device(int region) {
    if (disable_caching_) {
      return false;
    }
    const int dev = owner_[checked(region)];
    DevicePool& pool = *shard(dev).pool;
    const int lr = local_[static_cast<std::size_t>(region)];
    const int slot = pool.place_prefetch(lr);
    if (slot < 0) {
      return false;
    }
    const cuemStream_t stream = pool.stream_of_slot(slot);
    T* dev_ptr = static_cast<T*>(pool.slot_ptr(slot));
    evict_resident(dev, slot, dev_ptr, stream);

    // Like a demand miss, the prefetch upload is a full flat transfer that
    // re-baselines the dirty bookkeeping.
    if (delta_transfers_) {
      dirty_.reset(region);
    }
    if (loc_.location(region) == Loc::kHost) {
      order_after_pending(region, stream);
      CUEM_CHECK(cuem::prefetch_h2d_async(
          dev_ptr, this->region(region).data, this->region_bytes(region),
          stream,
          op_labels_wanted() ? "P:R" + std::to_string(region)
                             : std::string()));
      pending_xfer_[static_cast<std::size_t>(region)] = stream;
      xfer_.h2d_bytes += this->region_bytes(region);
      xfer_.h2d_wire_bytes += this->region_bytes(region);
      ++xfer_.prefetch_ops;
      ++prefetches_issued_;
    }
    pool.cache().set(slot, lr);
    loc_.set(region, Loc::kDevice);
    return true;
  }

  /// Number of prefetch transfers issued so far.
  std::uint64_t prefetches_issued() const { return prefetches_issued_; }

  /// Ensures the host copy of `region` is current. Blocks until the
  /// transfer completes when one is needed (§IV-B3: the caller may touch
  /// the data right after the request).
  void acquire_on_host(int region) {
    if (loc_.location(region) != Loc::kDevice) {
      // The caller is about to read or write host data; either way the host
      // now holds the authoritative copy. An earlier eviction may have left
      // an async D2H in flight into this buffer — wait for it first.
      sync_pending_host(region);
      cuem::san::note_host_access(this->region(region).data,
                                  this->region_bytes(region),
                                  /*write=*/true, "acquire_on_host");
      set_host_authoritative(region);
      return;
    }
    const DevicePool& pool = owner_pool(region);
    const int slot = resident_slot(region);
    const cuemStream_t stream = pool.stream_of_slot(slot);
    if (pending_xfer_[static_cast<std::size_t>(region)] >= 0 &&
        pending_xfer_[static_cast<std::size_t>(region)] != stream) {
      // A stale transfer on another stream (the region migrated slots) still
      // references this host buffer; the drain below would race it.
      sync_pending_host(region);
    }
    drain_device(region, static_cast<T*>(pool.slot_ptr(slot)), stream);
    CUEM_CHECK(cuemStreamSynchronize(stream));
    pending_xfer_[static_cast<std::size_t>(region)] = -1;
    cuem::san::note_host_access(this->region(region).data,
                                this->region_bytes(region),
                                /*write=*/true, "acquire_on_host");
    set_host_authoritative(region);
  }

  /// Brings every device-held region home and waits (end-of-run helper).
  /// All downloads are queued first — pipelined across every device's slot
  /// streams — and each stream is synchronized exactly once, instead of
  /// the one blocking round-trip per region a loop of acquire_on_host
  /// would pay.
  void release_all_to_host() {
    StreamSyncList streams;
    for (int r = 0; r < this->num_regions(); ++r) {
      if (loc_.location(r) != Loc::kDevice) {
        // Not drained now, but an earlier eviction may have queued a D2H
        // into this host buffer that is still in flight — its stream must
        // join the batched sync below or later host reads race it.
        const cuemStream_t pending =
            pending_xfer_[static_cast<std::size_t>(r)];
        if (pending >= 0) {
          streams.add(pending);
        }
        set_host_authoritative(r);
        continue;
      }
      const DevicePool& pool = owner_pool(r);
      const int slot = resident_slot(r);
      const cuemStream_t stream = pool.stream_of_slot(slot);
      drain_device(r, static_cast<T*>(pool.slot_ptr(slot)), stream);
      streams.add(stream);
      set_host_authoritative(r);
    }
    streams.sync_all();
    for (int r = 0; r < this->num_regions(); ++r) {
      pending_xfer_[static_cast<std::size_t>(r)] = -1;
      cuem::san::note_host_access(this->region(r).data, this->region_bytes(r),
                                  /*write=*/true, "release_all_to_host");
    }
  }

  // --- ghost exchange (paper §IV-B6, extended across devices) ---

  /// Refreshes all ghost cells. Dispatches by data location: pure host
  /// exchange when everything was last touched on the host; device-side
  /// update kernels (with pipelined CPU index computation) when the data
  /// lives on the device and every region fits; otherwise the streaming
  /// exchange or a host exchange after draining the devices.
  void fill_boundary(tida::Boundary bc) {
    if (!loc_.any_on_device()) {
      sync_all_pending_host();
      note_host_buffers("fill_boundary_host");
      this->fill_boundary_host(bc);
      return;
    }
    if (all_regions_fit()) {
      fill_boundary_device(bc);
      return;
    }
    if (delta_transfers_ &&
        (streaming_guard_ == StreamingGuard::kForceStreaming ||
         (streaming_guard_ == StreamingGuard::kAuto &&
          streaming_cheaper(bc)))) {
      // Mixed/limited-memory with dirty tracking: exchange the shells only —
      // but only when the exchange-level cost model says the pitched-copy
      // latency storm actually beats one pipelined drain (periodic BCs on
      // slab partitions generate hundreds of tiny wrap faces per exchange,
      // each paying the full transfer-setup latency).
      fill_boundary_streaming(bc);
      return;
    }
    // Mixed/limited-memory: drain to host and exchange there.
    release_all_to_host();
    note_host_buffers("fill_boundary_host");
    this->fill_boundary_host(bc);
  }

  /// Out-of-core ghost exchange without the full drain (delta mode only):
  /// pulls just the device-written source cells the plan reads (at most the
  /// face shells) down per resident region, runs the host-side exchange,
  /// then eagerly pushes each resident region's freshened ghost boxes back
  /// up on its owner's slot stream — pipelined, with no trailing sync
  /// (stream order protects later kernels). Regions keep their device
  /// residency and location throughout, so the next compute pass pays no
  /// re-upload.
  void fill_boundary_streaming(tida::Boundary bc) {
    TIDACC_CHECK_MSG(delta_transfers_,
                     "streaming exchange requires delta_transfers");
    const auto& plan = this->exchange_plan(bc);

    // Phase 1: per source region, the planned source cells the device has
    // written since the copies last agreed — only those must come home.
    const std::vector<std::vector<tida::Box>> pulls = streaming_pulls(plan);
    StreamSyncList streams;
    for (int r = 0; r < this->num_regions(); ++r) {
      const auto& list = pulls[static_cast<std::size_t>(r)];
      if (list.empty()) {
        continue;
      }
      const cuemStream_t stream =
          owner_pool(r).stream_of_slot(resident_slot(r));
      copy_boxes(r, list, cuemMemcpyDeviceToHost, stream,
                 sim::PayloadKind::kFaceShell);
      for (const tida::Box& b : list) {
        dirty_.note_device_shipped(r, b);
      }
      streams.add(stream);
    }
    streams.sync_all();
    // The pulls above synced their own streams; still-pending pushes from
    // the *previous* exchange (phase 3 queues without a trailing sync) may
    // sit on streams that pulled nothing this round — the host exchange
    // below would race them.
    sync_all_pending_host();

    // Phase 2: exchange on the host. The freshened ghost boxes are host
    // writes the device copies have not seen yet.
    note_host_buffers("fill_boundary_streaming");
    this->fill_boundary_host(bc);
    for (const auto& c : plan) {
      dirty_.note_host_write(c.dst_region, c.dst_box);
    }

    // Phase 3: eagerly push every resident device-current region's
    // host-dirty boxes (the ghost shells phase 2 wrote) back up. Non-
    // resident regions keep theirs until their next acquire.
    for (int r = 0; r < this->num_regions(); ++r) {
      if (loc_.location(r) != Loc::kDevice) {
        continue;
      }
      const auto& hd = dirty_.host_dirty(r);
      if (hd.empty()) {
        continue;
      }
      copy_boxes(r, hd, cuemMemcpyHostToDevice, stream_of_region(r),
                 sim::PayloadKind::kGhostRefresh);
      dirty_.clear_host(r);
    }
    ++streaming_exchanges_;
  }

  /// Number of streaming (delta) ghost exchanges performed so far.
  std::uint64_t streaming_exchanges() const { return streaming_exchanges_; }

  /// Device-side exchange across all devices: `acc wait`, then the device
  /// ghost-update loop (see exchange_device_faces).
  void fill_boundary_device(tida::Boundary bc) {
    for (int r = 0; r < this->num_regions(); ++r) {
      acquire_on_device(r);
    }
    oacc::wait_all();
    exchange_device_faces(bc, /*nodes=*/1);
  }

  /// Number of device-side ghost-update kernels launched so far.
  std::uint64_t device_ghost_updates() const { return device_ghost_updates_; }

  /// Number of cross-device ghost transfers issued so far (direct or
  /// host-staged, depending on peer access).
  std::uint64_t peer_ghost_copies() const { return peer_ghost_copies_; }

  // --- dirty tracking / delta transfers ---

  /// Whether delta transfers were enabled at construction.
  bool delta_transfers() const { return delta_transfers_; }

  /// The per-region dirty-box bookkeeping (empty lists when delta
  /// transfers are off).
  const DirtyTracker& dirty() const { return dirty_; }

  /// Cumulative host↔device traffic of this array, split by transfer shape.
  const TransferAccounting& transfers() const { return xfer_; }
  std::uint64_t h2d_bytes() const { return xfer_.h2d_bytes; }
  std::uint64_t d2h_bytes() const { return xfer_.d2h_bytes; }

  /// Records that a device kernel wrote `box` of `region` (grown-box
  /// coordinates) — compute() calls this for every GPU tile it launches.
  /// No-op unless delta transfers are on.
  void note_device_write(int region, const tida::Box& box) {
    if (delta_transfers_) {
      dirty_.note_device_write(region, box);
    }
  }

  /// Records a host-side write into `box` of `region`. No-op unless delta
  /// transfers are on.
  void note_host_write(int region, const tida::Box& box) {
    if (delta_transfers_) {
      dirty_.note_host_write(region, box);
    }
  }

  // --- snapshot (see docs/FUZZING.md) ---

  /// Snapshot of the protocol state: every shard's pool bookkeeping plus
  /// the location/dirty/pending/accounting tables. Buffer *contents* (host
  /// and device) live in cuem-registered allocations and ride in the cuem
  /// snapshot; restore requires an array of identical geometry, placement
  /// and options, so the schedule fuzzer can explore schedules from one
  /// warm snapshot.
  void capture(sim::SnapshotWriter& w) const {
    w.section("multi_acc_tile_array");
    w.put_int(this->num_regions());
    w.put_int(num_devices_);
    w.put_int(static_cast<int>(placement_));
    w.put_bool(disable_caching_);
    w.put_bool(delta_transfers_);
    w.put_int(static_cast<int>(streaming_guard_));
    w.put_int(time_block_k_);
    w.put_int(static_cast<int>(compression_));
    for (int d = 0; d < num_devices_; ++d) {
      const DeviceShard& s = shards_[static_cast<std::size_t>(d)];
      w.put_int(s.pool ? 1 : 0);
      if (s.pool) {
        s.pool->capture(w);
      }
    }
    loc_.capture(w);
    dirty_.capture(w);
    w.put_int_vec(pending_xfer_);
    xfer_.capture(w);
    w.put_u64(device_ghost_updates_);
    w.put_u64(peer_ghost_copies_);
    w.put_u64(prefetches_issued_);
    w.put_u64(streaming_exchanges_);
  }

  void restore(sim::SnapshotReader& r) {
    r.section("multi_acc_tile_array");
    TIDACC_CHECK_MSG(r.get_int() == this->num_regions(),
                     "array snapshot has a different region count");
    TIDACC_CHECK_MSG(r.get_int() == num_devices_,
                     "array snapshot has a different device count");
    TIDACC_CHECK_MSG(static_cast<DevicePlacement>(r.get_int()) == placement_,
                     "array snapshot disagrees on placement");
    TIDACC_CHECK_MSG(r.get_bool() == disable_caching_,
                     "array snapshot disagrees on disable_caching");
    TIDACC_CHECK_MSG(r.get_bool() == delta_transfers_,
                     "array snapshot disagrees on delta_transfers");
    TIDACC_CHECK_MSG(static_cast<StreamingGuard>(r.get_int()) ==
                         streaming_guard_,
                     "array snapshot disagrees on streaming_guard");
    TIDACC_CHECK_MSG(r.get_int() == time_block_k_,
                     "array snapshot disagrees on time_block_k");
    TIDACC_CHECK_MSG(static_cast<Compression>(r.get_int()) == compression_,
                     "array snapshot disagrees on compression");
    for (int d = 0; d < num_devices_; ++d) {
      DeviceShard& s = shards_[static_cast<std::size_t>(d)];
      TIDACC_CHECK_MSG((r.get_int() != 0) == (s.pool != nullptr),
                       "array snapshot disagrees on device shard layout");
      if (s.pool) {
        // The pool re-resolves its stream table on the current device.
        cuem::DeviceGuard guard(d);
        s.pool->restore(r);
      }
    }
    loc_.restore(r);
    dirty_.restore(r);
    pending_xfer_ = r.get_int_vec();
    TIDACC_CHECK_MSG(pending_xfer_.size() ==
                         static_cast<std::size_t>(this->num_regions()),
                     "array snapshot is inconsistent");
    xfer_.restore(r);
    device_ghost_updates_ = r.get_u64();
    peer_ghost_copies_ = r.get_u64();
    prefetches_issued_ = r.get_u64();
    streaming_exchanges_ = r.get_u64();
  }

 protected:
  // Protected rather than private: AccTileArray exposes the one pool's
  // slot view, and ClusterTileArray extends the exchange across simulated
  // nodes reusing the pools, location/dirty tracking and copy plumbing.
  struct DeviceShard {
    std::unique_ptr<DevicePool> pool;
    std::vector<int> regions;  ///< global region ids, in local order
  };

  DeviceShard& shard(int d) {
    return shards_[static_cast<std::size_t>(d)];
  }

  const DevicePool& pool_of(int device) const {
    TIDACC_CHECK_MSG(device >= 0 && device < num_devices_,
                     "device ordinal out of range");
    const DeviceShard& s = shards_[static_cast<std::size_t>(device)];
    TIDACC_CHECK_MSG(s.pool != nullptr, "device owns no regions");
    return *s.pool;
  }

  const DevicePool& owner_pool(int region) const {
    return *shards_[static_cast<std::size_t>(owner_[checked(region)])].pool;
  }
  DevicePool& owner_pool(int region) {
    return *shards_[static_cast<std::size_t>(owner_[checked(region)])].pool;
  }

  /// Slot holding a region the location table says is device-current.
  int resident_slot(int region) const {
    const DevicePool& pool = owner_pool(region);
    const int lr = local_[static_cast<std::size_t>(region)];
    const int slot = pool.slot_of_region(lr);
    TIDACC_CHECK_MSG(pool.cache().resident(slot) == lr,
                     "region marked on-device but not resident");
    return slot;
  }

  std::size_t checked(int region) const {
    TIDACC_CHECK_MSG(region >= 0 && region < this->num_regions(),
                     "region id out of range");
    return static_cast<std::size_t>(region);
  }

  /// Host-side index bookkeeping for `copies` planned copies. Each of
  /// `nodes` nodes has its own CPU working its own shard of the plan
  /// concurrently (the cluster analogue of MPI ranks), so the single
  /// simulated host thread advances by the per-node share — the makespan
  /// across node CPUs for a balanced plan — not the cluster-wide sum.
  static SimTime index_calc_ns(std::size_t copies, int nodes) {
    return static_cast<SimTime>(copies) *
           sim::Platform::instance().config().host_index_calc_ns_per_copy /
           static_cast<SimTime>(nodes);
  }

  /// The device half of the exchange: per destination region the CPU
  /// computes the index lists (this is the exchange plan) while the device
  /// engines apply the previous region's updates — the overlap of Fig. 4.
  /// Faces whose source lives on the destination's device go into one
  /// update kernel on the destination's stream; faces crossing devices are
  /// issued as stream-ordered peer copies. Devices form `nodes` contiguous
  /// blocks: faces whose source sits on another node are skipped (the
  /// cluster array moves those over the fabric) and the host index time is
  /// split across the node CPUs. `nodes` is 1 outside a cluster.
  void exchange_device_faces(tida::Boundary bc, int nodes) {
    sim::Platform& p = sim::Platform::instance();
    const bool labels = op_labels_wanted();
    const int devices_per_node = num_devices_ / nodes;
    const auto node_of = [this, devices_per_node](int region) {
      return owner_[static_cast<std::size_t>(region)] / devices_per_node;
    };
    const auto& plan = this->exchange_plan(bc);
    std::size_t begin = 0;
    while (begin < plan.size()) {
      // The plan is grouped by destination region.
      const int dst = plan[begin].dst_region;
      const int dst_dev = owner_[static_cast<std::size_t>(dst)];
      const int dst_node = node_of(dst);
      std::size_t end = begin;
      std::uint64_t local_cells = 0;
      std::size_t intra = 0;
      while (end < plan.size() && plan[end].dst_region == dst) {
        if (node_of(plan[end].src_region) == dst_node) {
          ++intra;
          if (owner_[static_cast<std::size_t>(plan[end].src_region)] ==
              dst_dev) {
            local_cells += plan[end].dst_box.volume();
          }
        }
        ++end;
      }
      if (intra == 0) {
        begin = end;
        continue;
      }
      const auto on_node = [&](std::size_t c) {
        return node_of(plan[c].src_region) == dst_node;
      };

      // CPU index computation covers the whole group — intra-device and
      // peer faces alike ride the same pipelined descriptors (Fig. 4).
      p.host_advance(index_calc_ns(intra, nodes));

      const cuemStream_t dstream = stream_of_region(dst);

      if (local_cells > 0) {
        // GPU applies the copies: one update kernel per destination
        // region, queued on that region's stream (async clause). The
        // kernel reads the source cells and writes the ghost cells:
        // 2 * sizeof(T) traffic.
        sim::KernelProfile prof;
        prof.elements = local_cells * this->ncomp();
        prof.dev_bytes_per_element = 2.0 * sizeof(T);
        prof.flops_per_element = 0.0;
        prof.tuned_geometry = false;  // OpenACC-generated update kernel

        auto action = [this, bc, dst_dev, begin, end]() {
          const auto& pl = this->exchange_plan(bc);
          for (std::size_t c = begin; c < end; ++c) {
            if (owner_[static_cast<std::size_t>(pl[c].src_region)] ==
                dst_dev) {
              apply_copy_device(pl[c]);
            }
          }
        };
        p.enqueue_kernel(dstream, prof, p.config().oacc_dispatch_extra_ns,
                         std::move(action),
                         labels ? "ghost:R" + std::to_string(dst)
                                : std::string());
        ++device_ghost_updates_;
      }

      for (std::size_t c = begin; c < end; ++c) {
        const tida::GhostCopy& gc = plan[c];
        const int src_dev = owner_[static_cast<std::size_t>(gc.src_region)];
        if (src_dev == dst_dev || !on_node(c)) {
          continue;
        }
        const std::uint64_t bytes =
            gc.dst_box.volume() * this->ncomp() * sizeof(T);
        auto action = [this, bc, c]() {
          apply_copy_device(this->exchange_plan(bc)[c]);
        };
        CUEM_CHECK(cuem::peer_copy_async(
            dst_dev, src_dev, bytes, dstream,
            labels ? "G:R" + std::to_string(gc.src_region) + ">R" +
                         std::to_string(dst)
                   : std::string(),
            std::move(action)));
        ++peer_ghost_copies_;
      }
      if (cuem::san::enabled()) {
        const std::string op = "ghost:R" + std::to_string(dst);
        for (std::size_t c = begin; c < end; ++c) {
          if (on_node(c)) {
            note_ghost_copy_access(dstream, plan[c], op.c_str());
          }
        }
      }
      for (std::size_t c = begin; c < end; ++c) {
        if (on_node(c)) {
          note_device_write(dst, plan[c].dst_box);
        }
      }
      // Stream order protects the *destination*: its stream runs this
      // group's update kernel and peer copies before later kernels on that
      // region. The *sources* sit on other streams (possibly other
      // devices), though — without an edge, the next compute kernel on a
      // source's stream could overwrite the cells still being read. Record
      // an event here and make each source stream wait.
      std::vector<cuemStream_t> src_streams;
      for (std::size_t c = begin; c < end; ++c) {
        if (!on_node(c)) {
          continue;
        }
        const cuemStream_t s = stream_of_region(plan[c].src_region);
        if (s != dstream &&
            std::find(src_streams.begin(), src_streams.end(), s) ==
                src_streams.end()) {
          src_streams.push_back(s);
        }
      }
      if (!src_streams.empty()) {
        cuemEvent_t ev = 0;
        CUEM_CHECK(cuemEventCreate(&ev));
        CUEM_CHECK(cuemEventRecord(ev, dstream));
        for (const cuemStream_t s : src_streams) {
          CUEM_CHECK(cuemStreamWaitEvent(s, ev, 0));
        }
        CUEM_CHECK(cuemEventDestroy(ev));
      }
      begin = end;
    }
  }

  /// Waits for the last async transfer still touching `region`'s host
  /// buffer, if any. A successful query is enough (the transfer already
  /// completed — nothing to wait for and no host time spent); only a
  /// genuinely in-flight transfer costs a synchronize.
  void sync_pending_host(int region) {
    cuemStream_t& s = pending_xfer_[static_cast<std::size_t>(region)];
    if (s < 0) {
      return;
    }
    if (cuemStreamQuery(s) != cuemSuccess) {
      CUEM_CHECK(cuemStreamSynchronize(s));
    }
    s = -1;
  }

  void sync_all_pending_host() {
    for (int r = 0; r < this->num_regions(); ++r) {
      sync_pending_host(r);
    }
  }

  /// Queues the eviction of whatever region `slot` of device `dev` holds.
  /// Paper's eviction: the victim's D2H goes on the *same* stream before
  /// the newcomer's H2D — stream order guarantees correctness with no
  /// global synchronization. The D2H is skipped when the victim's newest
  /// data already lives on the host (e.g. it was pulled back for a
  /// host-side ghost exchange): writing the stale device copy over it would
  /// clobber fresher host data.
  void evict_resident(int dev, int slot, T* dev_ptr, cuemStream_t stream) {
    CacheTable& cache = shard(dev).pool->cache();
    if (cache.resident(slot) == -1) {
      return;
    }
    const int victim =
        shard(dev).regions[static_cast<std::size_t>(cache.resident(slot))];
    if (loc_.location(victim) == Loc::kDevice) {
      drain_device(victim, dev_ptr, stream);
      loc_.set(victim, Loc::kHost);
    }
    cache.evict(slot);
  }

  /// Orders `stream` after the last async transfer still touching
  /// `region`'s host buffer from a *different* stream — the D2H queued when
  /// a dynamic policy evicted the region out of another slot. Without the
  /// edge the re-acquire's H2D would read the host buffer mid-eviction.
  /// Device-side only (event wait), so the host never blocks; under the
  /// paper's StaticModulo mapping a region never changes streams and this
  /// is a no-op.
  void order_after_pending(int region, cuemStream_t stream) {
    if (injected("evict_race")) {
      // Re-opens the pre-fix behaviour: no cross-stream edge, so the H2D
      // races the in-flight eviction D2H (fuzzer/sanitizer regression bait).
      return;
    }
    cuemStream_t& pending = pending_xfer_[static_cast<std::size_t>(region)];
    if (pending < 0 || pending == stream) {
      return;
    }
    if (cuemStreamQuery(pending) == cuemSuccess) {
      pending = -1;  // already done; the query observed completion
      return;
    }
    cuemEvent_t ev = 0;
    CUEM_CHECK(cuemEventCreate(&ev));
    CUEM_CHECK(cuemEventRecord(ev, pending));
    CUEM_CHECK(cuemStreamWaitEvent(stream, ev, 0));
    CUEM_CHECK(cuemEventDestroy(ev));
  }

  /// Sanitizer bookkeeping: conservative whole-buffer host access note for
  /// every region (no-op when the sanitizer is off or disabled).
  void note_host_buffers(const char* op) {
    if (!cuem::san::enabled()) {
      return;
    }
    for (int r = 0; r < this->num_regions(); ++r) {
      cuem::san::note_host_access(this->region(r).data, this->region_bytes(r),
                                  /*write=*/true, op);
    }
  }

  /// Sanitizer bookkeeping: the exact byte boxes one planned ghost copy
  /// touches in the source and destination slot buffers, per component.
  /// Box-precise so concurrent update kernels into *disjoint* ghost shells
  /// do not read as racing.
  void note_ghost_copy_access(cuemStream_t stream, const tida::GhostCopy& c,
                              const char* op) {
    note_copy_access(stream, device_region(c.src_region),
                     device_region(c.dst_region), c, op);
  }

  /// The byte boxes of one planned copy between two region views (slot
  /// buffers, or the pinned host buffers a staged wire copy lands in).
  static void note_copy_access(cuemStream_t stream,
                               const tida::Region<T>& src,
                               const tida::Region<T>& dst,
                               const tida::GhostCopy& c, const char* op) {
    const tida::Index3 e = c.dst_box.extent();
    for (int comp = 0; comp < dst.ncomp; ++comp) {
      cuem::san::BoxShape box;
      box.width = static_cast<std::size_t>(e.i) * sizeof(T);
      box.height = static_cast<std::size_t>(e.j);
      box.depth = static_cast<std::size_t>(e.k);
      const tida::Index3 de = dst.grown.extent();
      box.row_pitch = static_cast<std::size_t>(de.i) * sizeof(T);
      box.slice_pitch = box.row_pitch * static_cast<std::size_t>(de.j);
      cuem::san::note_kernel_box_access(stream, &dst.at(c.dst_box.lo, comp),
                                        box, /*write=*/true, op);
      const tida::Index3 se = src.grown.extent();
      box.row_pitch = static_cast<std::size_t>(se.i) * sizeof(T);
      box.slice_pitch = box.row_pitch * static_cast<std::size_t>(se.j);
      cuem::san::note_kernel_box_access(stream, &src.at(c.src_box.lo, comp),
                                        box, /*write=*/false, op);
    }
  }

  /// Raw-vs-compressed decision for one host<->device transfer of `bytes`
  /// logical payload (use_codec at this array's link rate; for pitched
  /// copies the memcpy3d overhead is identical on both paths too). Because
  /// the discrete-event schedule is monotone in op durations and the op
  /// *sequence* is mode-independent, picking the per-op minimum here means
  /// kAuto's makespan never exceeds kOff's or kOn's.
  bool compress_transfer(std::uint64_t bytes, bool h2d,
                         sim::PayloadKind payload) const {
    const sim::DeviceConfig& cfg = sim::Platform::instance().config();
    const bool pinned = this->host_alloc_kind() == tida::HostAlloc::kPinned;
    const double gbps = h2d ? (pinned ? cfg.pinned_h2d_gbps
                                      : cfg.pageable_h2d_gbps)
                            : (pinned ? cfg.pinned_d2h_gbps
                                      : cfg.pageable_d2h_gbps);
    return use_codec(compression_, cfg.codec, bytes, payload, gbps);
  }

  /// Wire-byte accounting shared by every transfer path: raw transfers put
  /// their full payload on the wire, compressed ones only the codec output.
  void note_wire(bool h2d, std::uint64_t wire_bytes) {
    if (h2d) {
      xfer_.h2d_wire_bytes += wire_bytes;
    } else {
      xfer_.d2h_wire_bytes += wire_bytes;
    }
  }

  /// Queues one whole-region transfer on `stream` (owner's device),
  /// through the codec when the policy and cost model say so (whole
  /// regions compress at the interior ratio).
  void copy_region(T* dst, const T* src, int region, cuemMemcpyKind kind,
                   cuemStream_t stream) {
    const std::size_t bytes = this->region_bytes(region);
    const bool h2d = kind == cuemMemcpyHostToDevice;
    if (compress_transfer(bytes, h2d, sim::PayloadKind::kInterior)) {
      CUEM_CHECK(cuem::compressed_memcpy_async(
          dst, src, bytes, kind, stream, sim::PayloadKind::kInterior,
          op_labels_wanted()
              ? (h2d ? "zH2D:R" : "zD2H:R") + std::to_string(region)
              : std::string()));
      note_wire(h2d, sim::Platform::instance().config().codec.wire_bytes(
                         bytes, sim::PayloadKind::kInterior));
      if (h2d) {
        ++xfer_.comp_h2d_ops;
      } else {
        ++xfer_.comp_d2h_ops;
      }
    } else {
      CUEM_CHECK(cuemMemcpyAsync(dst, src, bytes, kind, stream));
      note_wire(h2d, bytes);
    }
    pending_xfer_[static_cast<std::size_t>(region)] = stream;
    if (h2d) {
      xfer_.h2d_bytes += bytes;
      ++xfer_.flat_h2d_ops;
    } else {
      xfer_.d2h_bytes += bytes;
      ++xfer_.flat_d2h_ops;
    }
  }

  /// Protocol bookkeeping of handing a region to host code: the host copy
  /// becomes authoritative and — conservatively — wholly dirty, since the
  /// caller may write anywhere through raw pointers.
  void set_host_authoritative(int region) {
    loc_.set(region, Loc::kHost);
    if (delta_transfers_) {
      dirty_.mark_all_host(region, this->region(region).grown);
    }
  }

  /// Chunk count of a pitched copy of `box` out of the grown-box layout of
  /// one component, mirroring the cuem coalescing rules: full-width rows
  /// merge into slices, full slices into one contiguous burst.
  static std::uint64_t chunks_for(const tida::Box& grown,
                                  const tida::Box& box) {
    const tida::Index3 e = box.extent();
    const tida::Index3 ge = grown.extent();
    if (e.i != ge.i) {
      return static_cast<std::uint64_t>(e.j) * static_cast<std::uint64_t>(e.k);
    }
    return e.j == ge.j ? 1 : static_cast<std::uint64_t>(e.k);
  }

  /// Per source region, the planned source cells the device has written
  /// since the copies last agreed, kept disjoint: several ghost copies may
  /// read overlapping source cells, and nothing should cross twice.
  std::vector<std::vector<tida::Box>> streaming_pulls(
      const std::vector<tida::GhostCopy>& plan) const {
    std::vector<std::vector<tida::Box>> pulls(
        static_cast<std::size_t>(this->num_regions()));
    for (const auto& c : plan) {
      if (loc_.location(c.src_region) != Loc::kDevice) {
        continue;
      }
      auto& list = pulls[static_cast<std::size_t>(c.src_region)];
      for (const tida::Box& d : dirty_.dev_dirty(c.src_region)) {
        const tida::Box x = d.intersect(c.src_box);
        if (x.empty()) {
          continue;
        }
        std::vector<tida::Box> fresh = tida::subtract_box(x, list);
        list.insert(list.end(), fresh.begin(), fresh.end());
      }
    }
    return pulls;
  }

  /// Exchange-level cost model behind StreamingGuard::kAuto: predicts the
  /// serial pitched-copy cost of one whole streaming exchange (every pull
  /// streaming_pulls would issue plus every ghost-box push into a resident
  /// region) against one pipelined drain + re-upload, and streams only when
  /// cheaper. The per-region delta_cheaper guard below cannot see this:
  /// each region's shells look cheap in isolation, but a periodic exchange
  /// on a slab partition issues hundreds of self-wrap face/edge/corner ops
  /// that each pay the full transfer-setup latency. Link costs are
  /// identical on every simulated device, so the aggregate predictor needs
  /// no per-device split.
  bool streaming_cheaper(tida::Boundary bc) {
    const sim::DeviceConfig& cfg = sim::Platform::instance().config();
    const auto& plan = this->exchange_plan(bc);

    const auto op_ns = [this, &cfg](const tida::Box& grown,
                                    const tida::Box& b, double gbps) {
      const std::uint64_t comp_bytes = b.volume() * sizeof(T);
      return static_cast<SimTime>(this->ncomp()) *
                 (cfg.host_api_overhead_ns + cfg.transfer_latency_ns +
                  cfg.memcpy3d_overhead_ns(comp_bytes,
                                           chunks_for(grown, b))) +
             transfer_time_ns(comp_bytes * this->ncomp(), gbps);
    };

    SimTime stream_ns = 0;
    const std::vector<std::vector<tida::Box>> pulls = streaming_pulls(plan);
    for (int r = 0; r < this->num_regions(); ++r) {
      const tida::Box& grown = this->region(r).grown;
      for (const tida::Box& b : pulls[static_cast<std::size_t>(r)]) {
        stream_ns += op_ns(grown, b, cfg.pinned_d2h_gbps);
      }
    }
    // Phase-3 pushes: every plan ghost box lands host-dirty on its
    // destination and is pushed into each resident region, on top of any
    // host-dirty boxes those regions already carry.
    for (const auto& c : plan) {
      if (loc_.location(c.dst_region) != Loc::kDevice) {
        continue;
      }
      stream_ns += op_ns(this->region(c.dst_region).grown, c.dst_box,
                         cfg.pinned_h2d_gbps);
    }
    for (int r = 0; r < this->num_regions(); ++r) {
      if (loc_.location(r) != Loc::kDevice) {
        continue;
      }
      const tida::Box& grown = this->region(r).grown;
      for (const tida::Box& b : dirty_.host_dirty(r)) {
        stream_ns += op_ns(grown, b, cfg.pinned_h2d_gbps);
      }
    }

    // The drain alternative: D2H of every device-resident region now, flat
    // H2D re-upload of every region at its next acquire. The two engines
    // overlap each other and the re-uploads overlap compute, so the
    // predicted cost is the busier direction, not the sum.
    SimTime d2h_ns = 0;
    SimTime h2d_ns = 0;
    for (int r = 0; r < this->num_regions(); ++r) {
      const std::uint64_t bytes = this->region_bytes(r);
      if (loc_.location(r) == Loc::kDevice) {
        d2h_ns += cfg.host_api_overhead_ns + cfg.transfer_latency_ns +
                  transfer_time_ns(bytes, cfg.pinned_d2h_gbps);
      }
      h2d_ns += cfg.host_api_overhead_ns + cfg.transfer_latency_ns +
                transfer_time_ns(bytes, cfg.pinned_h2d_gbps);
    }
    const SimTime drain_ns = std::max(d2h_ns, h2d_ns);
    return stream_ns <= drain_ns;
  }

  /// True when shipping `boxes` as pitched sub-box copies is modeled
  /// cheaper than one flat whole-region transfer in direction `h2d`
  /// (latency + chunk overhead per box/component vs one full burst).
  bool delta_cheaper(int region, const std::vector<tida::Box>& boxes,
                     bool h2d) const {
    const sim::DeviceConfig& cfg = sim::Platform::instance().config();
    const double gbps = h2d ? cfg.pinned_h2d_gbps : cfg.pinned_d2h_gbps;
    const SimTime flat =
        cfg.transfer_latency_ns +
        transfer_time_ns(this->region_bytes(region), gbps);
    const tida::Box& grown = this->region(region).grown;
    SimTime delta = 0;
    for (const tida::Box& b : boxes) {
      const std::uint64_t bytes = b.volume() * sizeof(T);
      delta += static_cast<SimTime>(this->ncomp()) *
               (cfg.transfer_latency_ns +
                cfg.memcpy3d_overhead_ns(bytes, chunks_for(grown, b)) +
                transfer_time_ns(bytes, gbps));
      if (delta >= flat) {
        return false;
      }
    }
    return true;
  }

  /// Queues one pitched sub-box copy per box per component between the
  /// host buffer and the owner-device slot buffer of `region` (both share
  /// the grown-box geometry, so pitches are identical on both sides). Each
  /// box is priced through the codec independently when the policy allows
  /// it — `payload` names what the boxes carry (face shells of a delta
  /// exchange, ghost refreshes), which sets the modeled compression ratio.
  void copy_boxes(int region, const std::vector<tida::Box>& boxes,
                  cuemMemcpyKind kind, cuemStream_t stream,
                  sim::PayloadKind payload) {
    const tida::Region<T> host = this->region(region);
    const tida::Region<T> dev = device_region(region);
    const tida::Index3 ge = host.grown.extent();
    const std::size_t pitch = static_cast<std::size_t>(ge.i) * sizeof(T);
    const std::size_t slice = pitch * static_cast<std::size_t>(ge.j);
    const bool h2d = kind == cuemMemcpyHostToDevice;
    const bool labels = op_labels_wanted();
    for (const tida::Box& b : boxes) {
      if (b.empty()) {
        continue;
      }
      const tida::Index3 e = b.extent();
      const std::uint64_t bytes = b.volume() * sizeof(T);
      for (int comp = 0; comp < this->ncomp(); ++comp) {
        cuemMemcpy3DParms parms;
        parms.dst = h2d ? static_cast<void*>(&dev.at(b.lo, comp))
                        : static_cast<void*>(&host.at(b.lo, comp));
        parms.src = h2d ? static_cast<const void*>(&host.at(b.lo, comp))
                        : static_cast<const void*>(&dev.at(b.lo, comp));
        parms.dst_pitch = parms.src_pitch = pitch;
        parms.dst_slice_pitch = parms.src_slice_pitch = slice;
        parms.width = static_cast<std::size_t>(e.i) * sizeof(T);
        parms.height = static_cast<std::size_t>(e.j);
        parms.depth = static_cast<std::size_t>(e.k);
        parms.kind = kind;
        if (compress_transfer(bytes, h2d, payload)) {
          CUEM_CHECK(cuem::compressed_memcpy3d_async(
              parms, stream, payload,
              labels ? (h2d ? "zdH2D:R" : "zdD2H:R") + std::to_string(region)
                     : std::string()));
          note_wire(h2d, sim::Platform::instance().config().codec.wire_bytes(
                             bytes, payload));
          if (h2d) {
            ++xfer_.comp_h2d_ops;
          } else {
            ++xfer_.comp_d2h_ops;
          }
        } else {
          CUEM_CHECK(cuem::memcpy3d_async(
              parms, stream,
              labels ? (h2d ? "dH2D:R" : "dD2H:R") + std::to_string(region)
                     : std::string()));
          note_wire(h2d, bytes);
        }
        pending_xfer_[static_cast<std::size_t>(region)] = stream;
        if (h2d) {
          xfer_.h2d_bytes += bytes;
          ++xfer_.delta_h2d_ops;
        } else {
          xfer_.d2h_bytes += bytes;
          ++xfer_.delta_d2h_ops;
        }
      }
    }
  }

  /// Brings the host copy of a device-current region up to date: ships the
  /// device-dirty boxes as pitched copies when forced (host-dirty cells a
  /// flat copy would clobber) or modeled cheaper, else one flat D2H.
  /// Queues only — callers sync when they need the data on the host.
  void drain_device(int region, T* dev, cuemStream_t stream) {
    if (delta_transfers_) {
      const std::vector<tida::Box>& dd = dirty_.dev_dirty(region);
      if (!dirty_.host_clean(region) ||
          delta_cheaper(region, dd, /*h2d=*/false)) {
        copy_boxes(region, dd, cuemMemcpyDeviceToHost, stream,
                   sim::PayloadKind::kFaceShell);
        dirty_.clear_device(region);
        return;
      }
      dirty_.reset(region);  // flat D2H: both copies agree afterwards
    }
    copy_region(this->region(region).data, dev, region,
                cuemMemcpyDeviceToHost, stream);
  }

  /// Brings the device copy of a resident region up to date with the host:
  /// ships the host-dirty boxes as pitched copies when forced (the device
  /// has newer cells of its own a flat copy would clobber) or modeled
  /// cheaper, else one flat H2D.
  void refresh_device(int region, T* dev, cuemStream_t stream) {
    if (delta_transfers_) {
      const std::vector<tida::Box>& hd = dirty_.host_dirty(region);
      if (!dirty_.device_clean(region) ||
          delta_cheaper(region, hd, /*h2d=*/true)) {
        copy_boxes(region, hd, cuemMemcpyHostToDevice, stream,
                   sim::PayloadKind::kFaceShell);
        dirty_.clear_host(region);
        return;
      }
      dirty_.reset(region);  // flat H2D: both copies agree afterwards
    }
    copy_region(dev, this->region(region).data, region,
                cuemMemcpyHostToDevice, stream);
  }

  /// Applies one planned ghost copy between slot buffers, all components
  /// (the functional part of an update kernel or a peer copy; buffers may
  /// live on different devices).
  void apply_copy_device(const tida::GhostCopy& c) {
    Base::apply_copy(device_region(c.src_region), device_region(c.dst_region),
                     c);
  }

  std::vector<DeviceShard> shards_;
  std::vector<int> owner_;
  std::vector<int> local_;
  LocationTracker loc_;
  DirtyTracker dirty_;
  /// Per region: stream of the last queued async transfer that reads or
  /// writes the region's *host* buffer, or -1. Host code must synchronize
  /// (sync_pending_host) before touching the buffer.
  std::vector<cuemStream_t> pending_xfer_;
  TransferAccounting xfer_;
  DevicePlacement placement_;
  int num_devices_ = 1;
  std::uint64_t device_ghost_updates_ = 0;
  std::uint64_t peer_ghost_copies_ = 0;
  std::uint64_t prefetches_issued_ = 0;
  std::uint64_t streaming_exchanges_ = 0;
  bool disable_caching_ = false;
  bool delta_transfers_ = false;
  StreamingGuard streaming_guard_ = StreamingGuard::kAuto;
  int time_block_k_ = 1;
  Compression compression_ = Compression::kOff;
};

/// Indexable view of one region's buffer (host or device side), carrying
/// the grown-box layout so lambdas can address cells by global index.
/// Multi-component arrays use the 4-argument accessor; the component block
/// stride equals the grown volume (component-major layout).
template <typename T>
struct DeviceView {
  T* data = nullptr;
  tida::Box grown;
  int ncomp = 1;

  T& operator()(int i, int j, int k) const {
    const tida::Index3 rel = tida::Index3{i, j, k} - grown.lo;
    const tida::Index3 e = grown.extent();
    return data[(static_cast<std::size_t>(rel.k) * e.j + rel.j) * e.i +
                rel.i];
  }

  T& operator()(int i, int j, int k, int c) const {
    const tida::Index3 rel = tida::Index3{i, j, k} - grown.lo;
    const tida::Index3 e = grown.extent();
    return data[static_cast<std::size_t>(c) * grown.volume() +
                (static_cast<std::size_t>(rel.k) * e.j + rel.j) * e.i +
                rel.i];
  }
};

// --- whole-region compute on the owning device ---

/// Launches `body` over `region`'s valid box on the region's owning device
/// (compute() over a whole-region tile with the array instead of a tile:
/// same staging, stream choice, profile and label).
template <typename T, typename Fn>
void compute_gpu(MultiAccTileArray<T>& a, int region,
                 const oacc::LoopCost& cost, Fn&& body) {
  sim::Platform& p = sim::Platform::instance();
  const tida::Region<T> reg = a.region(region);
  const DeviceView<T> view{a.acquire_on_device(region), reg.grown,
                           reg.ncomp};
  const cuemStream_t kstream = a.stream_of_region(region);

  sim::KernelProfile prof;
  prof.elements = reg.valid.volume();
  prof.flops_per_element = cost.flops_per_iter;
  prof.dev_bytes_per_element = cost.dev_bytes_per_iter;
  prof.math_units_per_element = cost.math_units_per_iter;
  prof.math = cost.math;
  prof.tuned_geometry = false;  // kernels are OpenACC-generated (§IV-B5)
  prof.efficiency_factor = cost.efficiency_factor;

  auto action = [range = reg.valid, view, body = std::forward<Fn>(body)]() {
    for (int k = range.lo.k; k <= range.hi.k; ++k) {
      for (int j = range.lo.j; j <= range.hi.j; ++j) {
        for (int i = range.lo.i; i <= range.hi.i; ++i) {
          body(view, i, j, k);
        }
      }
    }
  };
  p.enqueue_kernel(kstream, prof, p.config().oacc_dispatch_extra_ns,
                   std::move(action),
                   op_labels_wanted() ? "C:R" + std::to_string(region)
                                      : std::string());
  a.note_device_write(region, reg.valid);
  if (cuem::san::enabled()) {
    const std::string op = "C:R" + std::to_string(region);
    cuem::san::note_kernel_access(
        kstream, view.data,
        static_cast<std::size_t>(reg.grown.volume()) *
            static_cast<std::size_t>(reg.ncomp) * sizeof(T),
        /*write=*/true, op.c_str());
  }
  // Schedule-lint attribution (sanitizer-independent whole-buffer claim).
  p.graph_note_stream_access(kstream, view.data,
                             static_cast<std::size_t>(reg.grown.volume()) *
                                 static_cast<std::size_t>(reg.ncomp) *
                                 sizeof(T),
                             /*write=*/true);
}

/// Two-array variant (Jacobi-style in/out). Both arrays must place the
/// region on the same device; when the slot streams differ the kernel
/// stream waits on the output's staging (event ordering, as compute()
/// does for multi-tile calls).
template <typename T, typename Fn>
void compute_gpu(MultiAccTileArray<T>& in, MultiAccTileArray<T>& out,
                 int region, const oacc::LoopCost& cost, Fn&& body) {
  TIDACC_CHECK_MSG(in.partition() == out.partition(),
                   "in/out arrays must share the partition geometry");
  TIDACC_CHECK_MSG(in.device_of_region(region) ==
                       out.device_of_region(region),
                   "in/out region must live on the same device");
  sim::Platform& p = sim::Platform::instance();
  const tida::Region<T> rin = in.region(region);
  const tida::Region<T> rout = out.region(region);
  const DeviceView<T> vin{in.acquire_on_device(region), rin.grown,
                          rin.ncomp};
  const DeviceView<T> vout{out.acquire_on_device(region), rout.grown,
                           rout.ncomp};
  const cuemStream_t kstream = in.stream_of_region(region);
  const cuemStream_t ostream = out.stream_of_region(region);
  if (ostream != kstream) {
    cuemEvent_t ev = 0;
    CUEM_CHECK(cuemEventCreate(&ev));
    CUEM_CHECK(cuemEventRecord(ev, ostream));
    CUEM_CHECK(cuemStreamWaitEvent(kstream, ev, 0));
    CUEM_CHECK(cuemEventDestroy(ev));
  }

  sim::KernelProfile prof;
  prof.elements = rin.valid.volume();
  prof.flops_per_element = cost.flops_per_iter;
  prof.dev_bytes_per_element = cost.dev_bytes_per_iter;
  prof.math_units_per_element = cost.math_units_per_iter;
  prof.math = cost.math;
  prof.tuned_geometry = false;
  prof.efficiency_factor = cost.efficiency_factor;

  auto action = [range = rin.valid, vin, vout,
                 body = std::forward<Fn>(body)]() {
    for (int k = range.lo.k; k <= range.hi.k; ++k) {
      for (int j = range.lo.j; j <= range.hi.j; ++j) {
        for (int i = range.lo.i; i <= range.hi.i; ++i) {
          body(vin, vout, i, j, k);
        }
      }
    }
  };
  p.enqueue_kernel(kstream, prof, p.config().oacc_dispatch_extra_ns,
                   std::move(action),
                   op_labels_wanted() ? "C:R" + std::to_string(region)
                                      : std::string());
  in.note_device_write(region, rin.valid);
  out.note_device_write(region, rout.valid);
  if (cuem::san::enabled()) {
    const std::string op = "C:R" + std::to_string(region);
    cuem::san::note_kernel_access(
        kstream, vin.data,
        static_cast<std::size_t>(rin.grown.volume()) *
            static_cast<std::size_t>(rin.ncomp) * sizeof(T),
        /*write=*/true, op.c_str());
    cuem::san::note_kernel_access(
        kstream, vout.data,
        static_cast<std::size_t>(rout.grown.volume()) *
            static_cast<std::size_t>(rout.ncomp) * sizeof(T),
        /*write=*/true, op.c_str());
  }
  // Schedule-lint attribution (sanitizer-independent): input is read-only,
  // output is written — the roles the event edges above/below protect.
  p.graph_note_stream_access(kstream, vin.data,
                             static_cast<std::size_t>(rin.grown.volume()) *
                                 static_cast<std::size_t>(rin.ncomp) *
                                 sizeof(T),
                             /*write=*/false);
  p.graph_note_stream_access(kstream, vout.data,
                             static_cast<std::size_t>(rout.grown.volume()) *
                                 static_cast<std::size_t>(rout.ncomp) *
                                 sizeof(T),
                             /*write=*/true);
  // Close the cross-stream edge: the kernel writes the output array's slot,
  // so later work on the output's stream must wait for this launch.
  if (ostream != kstream) {
    cuemEvent_t ev = 0;
    CUEM_CHECK(cuemEventCreate(&ev));
    CUEM_CHECK(cuemEventRecord(ev, kstream));
    CUEM_CHECK(cuemStreamWaitEvent(ostream, ev, 0));
    CUEM_CHECK(cuemEventDestroy(ev));
  }
}

}  // namespace tidacc::core

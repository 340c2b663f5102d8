// Cluster-distributed tile array: MultiAccTileArray sharded across
// simulated nodes, ghost cells exchanged over a sim::Fabric.
//
// The paper overlaps PCIe transfers with tile compute; here the same recipe
// is applied one level up: inter-node ghost faces are posted as RDMA work
// requests *first* (exchange_begin), interior tiles compute while the
// payloads are on the wire, and exchange_end reaps the completions before
// the node-boundary tiles run. The split-phase API is the network analogue
// of the pipelined descriptors of Fig. 4:
//
//     a.exchange_begin(bc);             // post remote faces, start intra
//     for (r : interior)  compute(r);   // overlaps NIC traffic
//     a.exchange_end();                 // reap completions, push staged
//     for (r : boundary)  compute(r);
//
// fill_boundary() = begin + end back to back (no overlap), which is the
// ablation baseline the cluster bench compares against.
//
// Sharding: regions keep the base class's block placement, so with
// devices_per_node contiguous device ordinals per node every node owns a
// contiguous slab of regions; faces between slabs become network traffic,
// faces inside a slab reuse the base class's update kernels and peer
// copies unchanged.
//
// Two wire paths, priced by the fabric:
//   * GPUDirect (fabric permits it): the destination node posts an
//     rdma_read pulling the remote slot face straight out of device
//     memory — no PCIe bounce on either end;
//   * host-staged: D2H the face into the source's pinned host buffer,
//     two-sided send into the destination's host buffer, H2D push at
//     exchange_end — three hops, like pre-GPUDirect MPI.
//
// With nodes == 1 no fabric is constructed and every call forwards to
// MultiAccTileArray, bit-identically (checksums and golden traces match).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_acc_array.hpp"
#include "net/fabric.hpp"

namespace tidacc::core {

/// Which wire path inter-node faces take.
enum class NetPath : int {
  kAuto = 0,       ///< GPUDirect when the fabric supports it, else staged
  kGpuDirect = 1,  ///< require NIC<->device DMA (rejects incapable fabrics)
  kStaged = 2      ///< force the pinned-host bounce on both ends
};

const char* to_string(NetPath p);
NetPath parse_net_path(const std::string& flag);

struct ClusterOptions {
  MultiAccOptions multi;
  /// Simulated nodes; devices are grouped into contiguous blocks of
  /// num_devices() / nodes ordinals. 1 means "no fabric at all".
  int nodes = 1;
  sim::FabricConfig fabric = sim::FabricConfig::infiniband();
  NetPath path = NetPath::kAuto;
  /// Codec policy for the inter-node *wire* (FabricConfig::codec prices
  /// the encode/decode stages; only the shrunken payload crosses the
  /// link). Independent of multi.compression, which governs the
  /// host<->device hops — a staged exchange can compress the wire leg
  /// while the PCIe legs stay raw, and vice versa.
  Compression compression = Compression::kOff;
};

template <typename T>
class ClusterTileArray : public MultiAccTileArray<T> {
 public:
  using Multi = MultiAccTileArray<T>;

  ClusterTileArray(const tida::Box& domain, const tida::Index3& region_size,
                   int ghost, ClusterOptions opts = {})
      : Multi(domain, region_size, ghost, opts.multi),
        nodes_(opts.nodes),
        wire_compression_(opts.compression) {
    TIDACC_CHECK_MSG(nodes_ >= 1, "node count must be at least 1");
    if (nodes_ == 1) {
      return;  // degenerates to MultiAccTileArray exactly
    }
    TIDACC_CHECK_MSG(this->num_devices() % nodes_ == 0,
                     "device count must be a multiple of the node count");
    TIDACC_CHECK_MSG(opts.multi.placement == DevicePlacement::kBlock,
                     "cluster sharding needs block placement (contiguous "
                     "region slabs per node)");
    TIDACC_CHECK_MSG(
        opts.multi.time_block_k == 1,
        "the cluster exchange does not compose with temporal blocking: "
        "ClusterOptions::nodes=" +
            std::to_string(opts.nodes) +
            " requires MultiAccOptions::time_block_k=1, got time_block_k=" +
            std::to_string(opts.multi.time_block_k) +
            " (drop one of the two)");
    TIDACC_CHECK_MSG(
        wire_compression_ == Compression::kOff ||
            opts.fabric.codec.available,
        "wire compression requested on a fabric without a codec "
        "(FabricConfig::codec.available is false)");
    TIDACC_CHECK_MSG(opts.multi.host_alloc == tida::HostAlloc::kPinned,
                     "cluster arrays need pinned host buffers (the NIC "
                     "cannot register pageable memory)");
    switch (opts.path) {
      case NetPath::kAuto:
        use_gpudirect_ = opts.fabric.gpudirect;
        break;
      case NetPath::kGpuDirect:
        TIDACC_CHECK_MSG(opts.fabric.gpudirect,
                         "NetPath::kGpuDirect on a fabric without GPUDirect "
                         "support ('" + opts.fabric.name + "')");
        use_gpudirect_ = true;
        break;
      case NetPath::kStaged:
        use_gpudirect_ = false;
        break;
    }
    fabric_ = std::make_unique<sim::Fabric>(
        nodes_, opts.fabric, this->num_devices() / nodes_);
    // Every ordered node pair gets its queue pair up front: QP streams are
    // platform state, and creating them lazily after a world snapshot
    // would make restore see streams the snapshot never captured.
    qp_.assign(static_cast<std::size_t>(nodes_) *
                   static_cast<std::size_t>(nodes_),
               -1);
    for (int a = 0; a < nodes_; ++a) {
      for (int b = 0; b < nodes_; ++b) {
        if (a != b) {
          qp_[qp_index(a, b)] = fabric_->create_qp(a, b);
        }
      }
    }
  }

  // --- node topology ---

  int num_nodes() const { return nodes_; }
  int devices_per_node() const {
    return nodes_ == 1 ? this->num_devices() : fabric_->devices_per_node();
  }
  int node_of_region(int region) const {
    return nodes_ == 1 ? 0
                       : fabric_->node_of_device(this->device_of_region(region));
  }
  bool gpudirect_path() const { return use_gpudirect_; }

  /// Wire codec policy this array was built with.
  Compression wire_compression() const { return wire_compression_; }

  /// The fabric (throws via null deref only if nodes == 1 — guard with
  /// num_nodes() > 1).
  const sim::Fabric& fabric() const { return *fabric_; }

  /// True when no face of `region` crosses a node boundary under `bc`:
  /// such regions may compute between exchange_begin and exchange_end.
  bool is_node_interior(int region, tida::Boundary bc) {
    this->checked(region);
    if (nodes_ == 1) {
      return true;
    }
    for (const tida::GhostCopy& c : this->exchange_plan(bc)) {
      if (node_of_region(c.src_region) == node_of_region(c.dst_region)) {
        continue;
      }
      if (c.src_region == region || c.dst_region == region) {
        return false;
      }
    }
    return true;
  }

  /// Regions with at least one cross-node face under `bc` — the set that
  /// must wait for exchange_end before computing.
  std::vector<int> node_boundary_regions(tida::Boundary bc) {
    std::vector<int> out;
    for (int r = 0; r < this->num_regions(); ++r) {
      if (!is_node_interior(r, bc)) {
        out.push_back(r);
      }
    }
    return out;
  }

  // --- split-phase exchange ---

  /// Posts every cross-node face to the fabric, then runs the intra-node
  /// part of the exchange (update kernels + peer copies). Returns with the
  /// network payloads still in flight: compute node-interior regions now.
  void exchange_begin(tida::Boundary bc) {
    TIDACC_CHECK_MSG(!epoch_open_,
                     "exchange_begin with the previous epoch still open");
    epoch_open_ = true;
    epoch_bc_ = bc;
    if (nodes_ == 1) {
      Multi::fill_boundary(bc);
      return;
    }
    if (this->loc_.any_on_device() && this->all_regions_fit()) {
      exchange_begin_device(bc);
      return;
    }
    // Out-of-core or host-resident: the base dispatch does the data
    // movement (host exchange, streaming, or drain), and the cross-node
    // faces are priced as synchronous sends between the nodes' pinned
    // host buffers — no overlap to be had here.
    if (!host_fallback_warned_) {
      host_fallback_warned_ = true;
      sim::Platform::instance().trace().note_warning(
          "cluster exchange fell back to the host path (regions out of "
          "core or host-resident): cross-node faces move as synchronous "
          "host sends with no compute overlap — see DESIGN.md");
    }
    Multi::fill_boundary(bc);
    price_host_exchange(bc);
  }

  /// Reaps the epoch's work requests and, on the staged path, pushes the
  /// received faces from the host buffers into the destination slots.
  /// Node-boundary regions may compute after this returns.
  void exchange_end() {
    TIDACC_CHECK_MSG(epoch_open_, "exchange_end without exchange_begin");
    epoch_open_ = false;
    if (nodes_ == 1) {
      return;
    }
    for (const sim::WrId wr : epoch_wrs_) {
      fabric_->wait(wr);
    }
    epoch_wrs_.clear();
    if (!epoch_staged_.empty()) {
      const auto& plan = this->exchange_plan(epoch_bc_);
      for (const std::size_t c : epoch_staged_) {
        const tida::GhostCopy& gc = plan[c];
        this->copy_boxes(gc.dst_region, {gc.dst_box},
                         cuemMemcpyHostToDevice,
                         this->stream_of_region(gc.dst_region),
                         sim::PayloadKind::kGhostRefresh);
        this->note_device_write(gc.dst_region, gc.dst_box);
      }
      epoch_staged_.clear();
    }
    ++net_exchanges_;
  }

  /// Full exchange with no compute overlapped — begin + end back to back
  /// (the ablation baseline). Shadows, not overrides: callers holding a
  /// MultiAccTileArray reference get the base (fabric-less) exchange.
  void fill_boundary(tida::Boundary bc) {
    if (nodes_ == 1) {
      Multi::fill_boundary(bc);
      return;
    }
    exchange_begin(bc);
    exchange_end();
  }

  // --- counters ---
  // The ghost counters count wire *messages* (one per neighbouring
  // region pair per epoch — its face, edge and corner boxes ride in one
  // payload), not individual boxes.

  std::uint64_t net_exchanges() const { return net_exchanges_; }
  std::uint64_t rdma_ghost_reads() const { return rdma_ghost_reads_; }
  std::uint64_t staged_ghost_sends() const { return staged_ghost_sends_; }

  // --- snapshot ---

  void capture(sim::SnapshotWriter& w) const {
    TIDACC_CHECK_MSG(!epoch_open_,
                     "cluster snapshot during an open exchange epoch");
    Multi::capture(w);
    w.section("cluster_tile_array");
    w.put_int(nodes_);
    w.put_bool(use_gpudirect_);
    w.put_int(static_cast<int>(wire_compression_));
    w.put_bool(host_fallback_warned_);
    if (nodes_ > 1) {
      fabric_->capture(w);
      w.put_u32(static_cast<std::uint32_t>(mr_cache_.size()));
      for (const auto& [ptr, mr] : mr_cache_) {
        w.put_u64(static_cast<std::uint64_t>(
            reinterpret_cast<std::uintptr_t>(ptr)));
        w.put_int(mr);
      }
    }
    w.put_u64(net_exchanges_);
    w.put_u64(rdma_ghost_reads_);
    w.put_u64(staged_ghost_sends_);
  }

  void restore(sim::SnapshotReader& r) {
    TIDACC_CHECK_MSG(!epoch_open_,
                     "cluster restore during an open exchange epoch");
    Multi::restore(r);
    r.section("cluster_tile_array");
    TIDACC_CHECK_MSG(r.get_int() == nodes_,
                     "cluster snapshot has a different node count");
    TIDACC_CHECK_MSG(r.get_bool() == use_gpudirect_,
                     "cluster snapshot disagrees on the wire path");
    TIDACC_CHECK_MSG(static_cast<Compression>(r.get_int()) ==
                         wire_compression_,
                     "cluster snapshot disagrees on wire compression");
    host_fallback_warned_ = r.get_bool();
    if (nodes_ > 1) {
      fabric_->restore(r);
      // MRs registered after the snapshot no longer exist in the fabric
      // tables; rebuild the pointer cache to match (in-process addresses
      // are stable, so the saved pointers still name the same buffers).
      mr_cache_.clear();
      const std::uint32_t n = r.get_u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto ptr = reinterpret_cast<const void*>(
            static_cast<std::uintptr_t>(r.get_u64()));
        mr_cache_[ptr] = r.get_int();
      }
    }
    net_exchanges_ = r.get_u64();
    rdma_ghost_reads_ = r.get_u64();
    staged_ghost_sends_ = r.get_u64();
  }

 private:
  std::size_t qp_index(int local, int remote) const {
    return static_cast<std::size_t>(local) *
               static_cast<std::size_t>(nodes_) +
           static_cast<std::size_t>(remote);
  }

  sim::QpId qp_for(int local, int remote) const {
    const sim::QpId qp = qp_[qp_index(local, remote)];
    TIDACC_CHECK_MSG(qp >= 0, "no queue pair between these nodes");
    return qp;
  }

  /// Registers (once) and returns the MR covering `region`'s buffer.
  sim::MrId mr_of(int node, const void* ptr, std::size_t bytes) {
    const auto it = mr_cache_.find(ptr);
    if (it != mr_cache_.end()) {
      return it->second;
    }
    const sim::MrId id = fabric_->register_memory(node, ptr, bytes);
    mr_cache_.emplace(ptr, id);
    return id;
  }

  sim::MrId device_mr_of(int region) {
    return mr_of(node_of_region(region), this->device_region(region).data,
                 this->region_bytes(region));
  }

  sim::MrId host_mr_of(int region) {
    return mr_of(node_of_region(region), this->region(region).data,
                 this->region_bytes(region));
  }

  /// Schedule-lint attribution for a wire op just submitted on `qp`. The
  /// san_note=false fabric calls record precise strided boxes for the
  /// sanitizer themselves; the graph gets the conservative whole-slot
  /// bounding spans instead (over-approximation can only under-report
  /// independence, never invent it).
  void graph_note_wire_op(sim::QpId qp, int src_region, int dst_region,
                          bool device_path) {
    sim::Platform& p = sim::Platform::instance();
    if (p.op_graph() == nullptr) {
      return;
    }
    const cuemStream_t s = fabric_->qp_stream(qp);
    const void* src = device_path
                          ? static_cast<const void*>(
                                this->device_region(src_region).data)
                          : static_cast<const void*>(
                                this->region(src_region).data);
    void* dst = device_path
                    ? static_cast<void*>(this->device_region(dst_region).data)
                    : static_cast<void*>(this->region(dst_region).data);
    p.graph_note_stream_access(s, src, this->region_bytes(src_region),
                               /*write=*/false);
    p.graph_note_stream_access(s, dst, this->region_bytes(dst_region),
                               /*write=*/true);
  }

  /// Wire bytes one cross-node ghost message of `bytes` logical payload
  /// puts on the link: 0 = send raw. use_codec at the path's effective
  /// rate mirrors the fabric's work-request pricing (hop latency and
  /// completion cost are identical on both paths). Ghost messages carry
  /// boundary shells, hence the ghost-refresh ratio.
  std::uint64_t wire_bytes_for(std::uint64_t bytes,
                               bool gpudirect_path) const {
    const sim::FabricConfig& cfg = fabric_->config();
    if (!use_codec(wire_compression_, cfg.codec, bytes,
                   sim::PayloadKind::kGhostRefresh,
                   cfg.path_gbps(gpudirect_path))) {
      return 0;
    }
    return cfg.codec.wire_bytes(bytes, sim::PayloadKind::kGhostRefresh);
  }

  /// All regions resident: post cross-node faces first (phase 1), then run
  /// the intra-node exchange (phase 2) while the payloads fly.
  void exchange_begin_device(tida::Boundary bc) {
    for (int r = 0; r < this->num_regions(); ++r) {
      this->acquire_on_device(r);
    }
    oacc::wait_all();

    sim::Platform& p = sim::Platform::instance();
    const auto& plan = this->exchange_plan(bc);

    // Phase 1: every cross-node face hits the wire before any intra-node
    // work is enqueued — network serialization lanes start draining under
    // whatever the caller computes next. All boxes for one (src, dst)
    // region pair — face, edges and corners of that neighbour — pack into
    // a single wire message, like an MPI halo exchange: one work request's
    // posting cost amortizes over the whole payload, which is what lets
    // the wire time (and not the host's posting loop) dominate the epoch.
    std::vector<std::vector<std::size_t>> groups;
    std::map<std::pair<int, int>, std::size_t> group_of;
    for (std::size_t c = 0; c < plan.size(); ++c) {
      const tida::GhostCopy& gc = plan[c];
      if (node_of_region(gc.src_region) == node_of_region(gc.dst_region)) {
        continue;
      }
      const std::pair<int, int> key{gc.src_region, gc.dst_region};
      const auto [it, fresh] = group_of.try_emplace(key, groups.size());
      if (fresh) {
        groups.emplace_back();
      }
      groups[it->second].push_back(c);
    }

    for (const std::vector<std::size_t>& group : groups) {
      const tida::GhostCopy& head = plan[group.front()];
      const int src_node = node_of_region(head.src_region);
      const int dst_node = node_of_region(head.dst_region);
      p.host_advance(this->index_calc_ns(group.size(), nodes_));
      std::uint64_t bytes = 0;
      for (const std::size_t c : group) {
        bytes += plan[c].dst_box.volume() * this->ncomp() * sizeof(T);
      }
      const std::string label = "N:R" + std::to_string(head.src_region) +
                                ">R" + std::to_string(head.dst_region);
      if (use_gpudirect_) {
        // The destination pulls the remote slot boxes with a one-sided
        // read; the functional copy applies between slot buffers exactly
        // like a peer copy's.
        const sim::QpId qp = qp_for(dst_node, src_node);
        auto action = [this, bc, group]() {
          const auto& pl = this->exchange_plan(bc);
          for (const std::size_t c : group) {
            this->apply_copy_device(pl[c]);
          }
        };
        const sim::WrId wr = fabric_->rdma_read(
            qp, device_mr_of(head.dst_region), 0,
            device_mr_of(head.src_region), 0, bytes, label,
            std::move(action), /*after_stream=*/-1, /*san_note=*/false,
            wire_bytes_for(bytes, /*gpudirect_path=*/true));
        graph_note_wire_op(qp, head.src_region, head.dst_region,
                           /*device_path=*/true);
        for (const std::size_t c : group) {
          if (cuem::san::enabled()) {
            // Precise strided boxes, not the MR-flat note the fabric
            // would record: interleaved rows of disjoint faces must not
            // collide.
            this->note_ghost_copy_access(fabric_->qp_stream(qp), plan[c],
                                         "rdma-ghost");
          }
          this->note_device_write(plan[c].dst_region, plan[c].dst_box);
        }
        epoch_wrs_.push_back(wr);
        ++rdma_ghost_reads_;
      } else {
        // Staged: boxes D2H into the source's pinned buffer, one
        // two-sided send into the destination's, H2D push at
        // exchange_end.
        const cuemStream_t sstream = this->stream_of_region(head.src_region);
        std::vector<tida::Box> src_boxes;
        for (const std::size_t c : group) {
          src_boxes.push_back(plan[c].src_box);
        }
        this->copy_boxes(head.src_region, src_boxes, cuemMemcpyDeviceToHost,
                         sstream, sim::PayloadKind::kFaceShell);
        const sim::QpId qp = qp_for(src_node, dst_node);
        fabric_->post_recv(qp, host_mr_of(head.dst_region), 0, bytes);
        auto action = [this, bc, group]() {
          const auto& pl = this->exchange_plan(bc);
          for (const std::size_t c : group) {
            this->apply_copy_host(pl[c]);
          }
        };
        const sim::WrId wr = fabric_->post_send(
            qp, host_mr_of(head.src_region), 0, bytes, label,
            std::move(action), /*after_stream=*/sstream,
            /*san_note=*/false,
            wire_bytes_for(bytes, /*gpudirect_path=*/false));
        graph_note_wire_op(qp, head.src_region, head.dst_region,
                           /*device_path=*/false);
        for (const std::size_t c : group) {
          if (cuem::san::enabled()) {
            this->note_copy_access(fabric_->qp_stream(qp),
                                   this->region(plan[c].src_region),
                                   this->region(plan[c].dst_region), plan[c],
                                   "staged-ghost");
          }
          epoch_staged_.push_back(c);
        }
        epoch_wrs_.push_back(wr);
        ++staged_ghost_sends_;
      }
    }

    // Phase 2: the intra-node faces, through the base device exchange
    // (update kernel per destination for same-device faces, peer copies
    // for cross-device-same-node ones, event edges protecting the sources)
    // while the payloads fly.
    this->exchange_device_faces(bc, nodes_);
  }

  /// The data already moved through the base host exchange; charge the
  /// cross-node faces as synchronous sends between the pinned host
  /// buffers so the clock still sees the wire.
  void price_host_exchange(tida::Boundary bc) {
    const auto& plan = this->exchange_plan(bc);
    std::vector<sim::WrId> wrs;
    for (std::size_t c = 0; c < plan.size(); ++c) {
      const tida::GhostCopy& gc = plan[c];
      const int src_node = node_of_region(gc.src_region);
      const int dst_node = node_of_region(gc.dst_region);
      if (src_node == dst_node) {
        continue;
      }
      const std::uint64_t bytes =
          gc.dst_box.volume() * this->ncomp() * sizeof(T);
      const sim::QpId qp = qp_for(src_node, dst_node);
      fabric_->post_recv(qp, host_mr_of(gc.dst_region), 0, bytes);
      wrs.push_back(fabric_->post_send(
          qp, host_mr_of(gc.src_region), 0, bytes,
          "S:R" + std::to_string(gc.src_region) + ">R" +
              std::to_string(gc.dst_region),
          /*action=*/{}, /*after_stream=*/-1, /*san_note=*/false,
          wire_bytes_for(bytes, /*gpudirect_path=*/false)));
      graph_note_wire_op(qp, gc.src_region, gc.dst_region,
                         /*device_path=*/false);
      ++staged_ghost_sends_;
    }
    for (const sim::WrId wr : wrs) {
      fabric_->wait(wr);
    }
  }

  int nodes_ = 1;
  bool use_gpudirect_ = false;
  Compression wire_compression_ = Compression::kOff;
  /// One-shot flag for the out-of-core host-exchange fallback warning
  /// (Trace::note_warning fires on the first fallback only).
  bool host_fallback_warned_ = false;
  std::unique_ptr<sim::Fabric> fabric_;
  /// Dense (local, remote) -> QpId table, -1 on the diagonal.
  std::vector<sim::QpId> qp_;
  /// Buffer pointer -> registered MR (slot buffers and host regions).
  std::map<const void*, sim::MrId> mr_cache_;

  bool epoch_open_ = false;
  tida::Boundary epoch_bc_ = tida::Boundary::kNone;
  std::vector<sim::WrId> epoch_wrs_;
  /// Plan indices whose staged payloads still need the H2D push.
  std::vector<std::size_t> epoch_staged_;

  std::uint64_t net_exchanges_ = 0;
  std::uint64_t rdma_ghost_reads_ = 0;
  std::uint64_t staged_ghost_sends_ = 0;
};

}  // namespace tidacc::core

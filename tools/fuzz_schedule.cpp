// Schedule fuzzer: restores a mid-workload world snapshot thousands of
// times and replays the remaining steps under mutated schedule knobs, with
// the cuem-sanitizer (fatal mode) as the primary oracle and a data
// checksum + determinism replay as secondary invariants (docs/FUZZING.md).
//
// Outer loop: draw *world* knobs (slot policy, delta transfers, slot
// budget, device count, node count, fabric preset, transfer compression
// policy) from the seed, build a
// fresh world, run a warmup step, and capture one snapshot (world +
// array). Inner loop: restore the snapshot, draw *dynamic* knobs (transfer
// jitter, prefetch depth, region visit order, split-phase overlap), and
// replay the tail. The workload is the Fig. 8 limited-memory halo pattern:
// a slab-decomposed MultiAccTileArray<double> (one or two devices) doing
// fill_boundary + an in-place ghost-reading stencil each step.
//
// Worlds with nodes > 1 run the same workload on a ClusterTileArray (its
// capture/restore carries the fabric's QP/MR/counter state through every
// replay), so the oracle also explores cross-node schedules: RDMA reads
// and staged sends racing the intra-node exchange, and — under the overlap
// dynamic knob — interior kernels running while ghost payloads are still
// on the wire. The final field must not depend on any of it.
//
// Because functional-mode kernels execute eagerly in program order, and the
// stencil reads cross-region data only through ghost cells frozen at
// fill_boundary, the final field is invariant under every dynamic knob —
// any checksum drift is a transfer-protocol bug. Races are invisible to the
// checksum (data is computed eagerly); those are the sanitizer's job.
//
// Exit codes: 0 all iterations clean, 1 failures found (repro files
// written), 77 when --expect-failure is set but the sanitizer is compiled
// out (ctest SKIP_RETURN_CODE). With --expect-failure the 0/1 meanings
// invert: the run *passes* iff a failure is detected (used by the
// injected-defect regression test, see common/inject.hpp).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cluster_tile_array.hpp"
#include "core/multi_acc_array.hpp"
#include "core/slot_policy.hpp"
#include "core/world_snapshot.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"
#include "kernels/stencil27.hpp"
#include "oacc/oacc.hpp"
#include "sim/op_graph.hpp"
#include "sim/platform.hpp"

namespace {

using namespace tidacc;

// --- knobs ---

// Fixed per world config; changing any of these changes the snapshot.
struct WorldKnobs {
  core::SlotPolicyKind policy = core::SlotPolicyKind::kStaticModulo;
  bool delta = false;
  bool disable_caching = false;
  int max_slots = 3;
  int num_devices = 1;
  int n = 32;
  int regions = 8;
  // The fuzzer's worlds are small, so the cost-model guard would always
  // drain; forcing both branches keeps the streaming exchange (and the
  // eviction/re-acquire schedules it produces) in the explored space.
  core::StreamingGuard guard = core::StreamingGuard::kAuto;
  // Cluster worlds (nodes > 1) shard the regions over a ClusterTileArray
  // and push cross-node ghost faces through a sim::Fabric.
  int nodes = 1;
  std::string fabric = "infiniband";  ///< FabricConfig::parse input
  core::NetPath path = core::NetPath::kAuto;
  // core::Compression as an int (0 off, 1 on, 2 auto). A world knob: the
  // array constructors consume it, and the snapshot pins it. Compressed
  // copies move the same bytes in functional mode, so the checksum and
  // sanitizer oracles apply to the codec paths unchanged.
  int compression = 0;
};

// Mutated per iteration on top of a restored snapshot.
struct DynKnobs {
  std::uint64_t jitter_max = 0;   ///< ns added to each copy, 0 = off
  std::uint64_t jitter_seed = 0;
  int prefetch_depth = 0;         ///< regions prefetched ahead of the sweep
  std::uint64_t order_seed = 0;   ///< 0 = identity region visit order
  std::uint64_t stream_perm_seed = 0;  ///< 0 = identity slot->stream map
  bool overlap = false;  ///< split-phase exchange (cluster worlds only)
  int steps = 3;                  ///< tail steps replayed after restore
};

const char* policy_name(core::SlotPolicyKind k) {
  switch (k) {
    case core::SlotPolicyKind::kStaticModulo: return "static";
    case core::SlotPolicyKind::kLru: return "lru";
    case core::SlotPolicyKind::kBeladyOracle: return "belady";
  }
  return "?";
}

WorldKnobs draw_world(std::uint64_t seed, std::uint64_t config_index,
                      int n, int regions, int force_nodes,
                      const std::string& force_fabric,
                      int force_compression) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (config_index + 1)));
  WorldKnobs w;
  w.n = n;
  w.regions = regions;
  switch (rng.next_below(3)) {
    case 0: w.policy = core::SlotPolicyKind::kStaticModulo; break;
    case 1: w.policy = core::SlotPolicyKind::kLru; break;
    default: w.policy = core::SlotPolicyKind::kBeladyOracle; break;
  }
  w.delta = rng.next_below(2) == 0;
  w.disable_caching = rng.next_below(8) == 0;
  // Keep the device under-provisioned so evictions (the interesting
  // protocol paths) happen, but leave headroom for the ghost exchange.
  w.max_slots =
      3 + static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(regions > 3 ? regions - 3 : 1)));
  w.num_devices = rng.next_below(4) == 0 ? 2 : 1;
  switch (rng.next_below(4)) {
    case 0: w.guard = core::StreamingGuard::kForceDrain; break;
    case 1: w.guard = core::StreamingGuard::kAuto; break;
    // Half the worlds force the streaming exchange: it is the path with
    // in-flight cross-stream transfers, where schedule bugs live.
    default: w.guard = core::StreamingGuard::kForceStreaming; break;
  }
  // A third of the worlds go cluster (--nodes / --fabric pin the draw).
  w.nodes = force_nodes > 0 ? force_nodes
                            : (rng.next_below(3) == 0 ? 2 : 1);
  if (w.nodes > 1) {
    // One or two devices per node; the latter keeps intra-node peer
    // copies racing the wire traffic inside the same exchange epoch.
    w.num_devices = w.nodes * (rng.next_below(4) == 0 ? 2 : 1);
    w.fabric = force_fabric.empty()
                   ? (rng.next_below(2) == 0 ? "ethernet" : "infiniband")
                   : force_fabric;
    // kAuto rides GPUDirect whenever the preset permits it; kStaged keeps
    // the pinned-host bounce in the explored space even on infiniband.
    w.path = rng.next_below(2) == 0 ? core::NetPath::kAuto
                                    : core::NetPath::kStaged;
    // The wire path engages only when every region is slot-resident, so
    // most cluster worlds get a full slot budget; the rest stay
    // under-provisioned and fuzz the host-fallback exchange instead.
    if (rng.next_below(4) != 0) {
      w.max_slots = regions + w.num_devices;
    }
  }
  // Drawn last on purpose: every seed's pre-compression knobs stay what
  // they were, so existing repro files and the injected-defect regression
  // keep their schedules. On cluster worlds the knob drives both the PCIe
  // legs (MultiAccOptions::compression) and the wire (ClusterOptions).
  w.compression = force_compression >= 0
                      ? force_compression
                      : static_cast<int>(rng.next_below(3));
  return w;
}

DynKnobs draw_dyn(std::uint64_t seed, std::uint64_t iter, int regions,
                  int steps) {
  Rng rng(seed ^ (0xbf58476d1ce4e5b9ull * (iter + 1)));
  DynKnobs d;
  d.steps = steps;
  d.jitter_max = rng.next_below(4) == 0 ? 0 : rng.next_below(20000);
  d.jitter_seed = rng.next_u64();
  d.prefetch_depth = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(regions)));
  d.order_seed = rng.next_below(4) == 0 ? 0 : rng.next_u64();
  d.stream_perm_seed = rng.next_below(4) == 0 ? 0 : rng.next_u64();
  d.overlap = rng.next_below(2) == 0;  // ignored by non-cluster worlds
  return d;
}

// --- workload (Fig. 8 limited-memory halo pattern) ---

std::vector<int> visit_order(int regions, std::uint64_t order_seed) {
  std::vector<int> order(static_cast<std::size_t>(regions));
  std::iota(order.begin(), order.end(), 0);
  if (order_seed != 0) {
    Rng rng(order_seed);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
  }
  return order;
}

// The per-cell update every workload variant applies (reads ghosts from
// the grown box, writes only the region's own valid cells, so the result
// does not depend on the visit order or the device placement).
constexpr auto kSweepBody = [](core::DeviceView<double> v, int i, int j,
                               int k) {
  v(i, j, k) = 0.5 * v(i, j, k) +
               0.125 * (v(i - 1, j, k) + v(i + 1, j, k) + v(i, j - 1, k) +
                        v(i, j + 1, k));
};

/// Fisher-Yates permutation of [0, slots); identity when seed == 0.
std::vector<int> stream_perm(int slots, std::uint64_t seed) {
  std::vector<int> perm(static_cast<std::size_t>(slots));
  std::iota(perm.begin(), perm.end(), 0);
  if (seed != 0) {
    Rng rng(seed);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    }
  }
  return perm;
}

// Mutates the slot->stream assignment directly: every transfer and kernel
// a slot issues from here on rides a different hardware queue, reshuffling
// which operations can overlap. Event edges inside set_stream_permutation
// keep the dependency order, so the checksum must not move.
//
// A single-device world permutes with the seed itself, a multi-device one
// with a per-device derivation; keeping both keeps every existing seed's
// schedule and repro file.
void apply_stream_perm(core::MultiAccTileArray<double>& u,
                       std::uint64_t seed) {
  if (seed == 0) return;
  for (int d = 0; d < u.num_devices(); ++d) {
    if (u.regions_of_device(d).empty()) continue;
    const std::uint64_t dseed =
        u.num_devices() == 1
            ? seed
            : seed ^ (0x9e3779b97f4a7c15ull *
                      static_cast<std::uint64_t>(d + 1));
    u.set_stream_permutation(d, stream_perm(u.num_slots(d), dseed));
  }
}

// Sweeps the listed regions in order, prefetching the next `depth` after
// each kernel.
template <typename Array>
void sweep_all(Array& u, const std::vector<int>& order, int depth,
               const oacc::LoopCost& cost) {
  const int regions = static_cast<int>(order.size());
  for (int pos = 0; pos < regions; ++pos) {
    core::compute_gpu(u, order[static_cast<std::size_t>(pos)], cost,
                      kSweepBody);
    for (int a = 1; a <= depth && pos + a < regions; ++a) {
      u.prefetch_to_device(order[static_cast<std::size_t>(pos + a)]);
    }
  }
}

// One halo step: exchange ghosts, then sweep every region in-place in the
// given order. The overlap knob only has a cluster meaning; here the
// exchange is always the blocking fill_boundary.
template <typename Array>
void halo_step(Array& u, const std::vector<int>& order, int depth,
               const oacc::LoopCost& cost, bool /*overlap*/) {
  u.fill_boundary(tida::Boundary::kPeriodic);
  sweep_all(u, order, depth, cost);
}

// Cluster overload: with overlap on, node-interior regions compute while
// the cross-node ghost payloads are still on the wire. The sweep writes
// only valid cells and interior regions read no cross-node ghosts, so the
// final field must match the blocking replay bit for bit — overlap is a
// pure schedule mutation, which is exactly what makes it fuzzable.
void halo_step(core::ClusterTileArray<double>& u,
               const std::vector<int>& order, int depth,
               const oacc::LoopCost& cost, bool overlap) {
  if (!overlap || u.num_nodes() == 1) {
    u.fill_boundary(tida::Boundary::kPeriodic);
    sweep_all(u, order, depth, cost);
    return;
  }
  u.exchange_begin(tida::Boundary::kPeriodic);
  std::vector<int> interior;
  std::vector<int> boundary;
  for (const int r : order) {
    (u.is_node_interior(r, tida::Boundary::kPeriodic) ? interior : boundary)
        .push_back(r);
  }
  sweep_all(u, interior, depth, cost);
  u.exchange_end();
  sweep_all(u, boundary, depth, cost);
}

template <typename Array>
void run_tail(Array& u, core::SlotPolicyKind policy, const DynKnobs& d,
              const oacc::LoopCost& cost) {
  sim::Platform::instance().set_transfer_jitter(
      static_cast<SimTime>(d.jitter_max), d.jitter_seed);
  apply_stream_perm(u, d.stream_perm_seed);
  const std::vector<int> order = visit_order(u.num_regions(), d.order_seed);
  if (policy == core::SlotPolicyKind::kBeladyOracle) {
    std::vector<int> future;
    for (int s = 0; s < d.steps; ++s) {
      future.insert(future.end(), order.begin(), order.end());
    }
    u.set_future_accesses(std::move(future));
  }
  for (int s = 0; s < d.steps; ++s) {
    halo_step(u, order, d.prefetch_depth, cost, d.overlap);
  }
  u.release_all_to_host();
}

template <typename Array>
std::uint64_t checksum(const Array& u) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over valid cells
  for (int id = 0; id < u.num_regions(); ++id) {
    const tida::Region<double> r = u.region(id);
    for (int k = r.valid.lo.k; k < r.valid.hi.k; ++k) {
      for (int j = r.valid.lo.j; j < r.valid.hi.j; ++j) {
        for (int i = r.valid.lo.i; i < r.valid.hi.i; ++i) {
          std::uint64_t bits;
          const double v = r.at(i, j, k);
          std::memcpy(&bits, &v, sizeof(bits));
          for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
          }
        }
      }
    }
  }
  return h;
}

// --- one fuzz case ---

struct Outcome {
  bool failed = false;
  std::string kind;  ///< "sanitizer" | "checksum" | "nondeterminism" | "lint"
  std::string detail;
  std::uint64_t sum = 0;
  std::uint64_t h2d = 0;
  std::uint64_t d2h = 0;
  SimTime makespan = 0;
  bool linted = false;  ///< the schedule-lint oracle ran on this replay
};

/// Attaches a fresh OpGraph to the live platform for one replay (--lint);
/// detaches in the destructor so an oracle throw cannot leave a dangling
/// graph pointer on the shared platform instance.
struct LintAttach {
  sim::OpGraph g;
  bool active;
  explicit LintAttach(bool on) : active(on) {
    if (active) {
      sim::Platform::instance().set_op_graph(&g);
    }
  }
  ~LintAttach() { detach(); }
  LintAttach(const LintAttach&) = delete;
  LintAttach& operator=(const LintAttach&) = delete;
  void detach() {
    if (active) {
      sim::Platform::instance().set_op_graph(nullptr);
      active = false;
    }
  }
};

/// Second oracle beside the sanitizer: static schedule analysis of the
/// replay's extracted op graph. Flags a wait-for-graph cycle (a schedule
/// that could deadlock on real hardware), a critical path longer than the
/// achieved makespan (the CPM lower bound is broken, i.e. the graph claims
/// an ordering the run violated), and — when every waited event was seen by
/// the graph — any static/dynamic MHP disagreement.
void lint_replay(const sim::OpGraph& g, Outcome* out) {
  out->linted = true;
  const std::vector<int> cyc = g.deadlock_cycle();
  if (!cyc.empty()) {
    out->failed = true;
    out->kind = "lint";
    out->detail = "wait-for-graph cycle over " +
                  std::to_string(cyc.size()) + " ops";
    return;
  }
  if (g.find_cycle().empty()) {
    const sim::CriticalPathReport cp = g.critical_path();
    if (cp.length > cp.makespan) {
      out->failed = true;
      out->kind = "lint";
      out->detail = "critical path " + std::to_string(cp.length) +
                    " ns exceeds makespan " + std::to_string(cp.makespan) +
                    " ns";
      return;
    }
  }
  if (g.mhp_checkable()) {
    const std::vector<sim::MhpMismatch> mm = g.mhp_crosscheck(1);
    if (!mm.empty()) {
      out->failed = true;
      out->kind = "lint";
      out->detail = "static MHP disagrees with dynamic vector clocks";
    }
  }
}

/// Restores `snap` into the live world (same process, `u` still alive) and
/// replays the tail under `d`. Any tidacc::Error — a fatal sanitizer
/// finding or an internal invariant trip — is a failure.
template <typename Array>
Outcome run_case(const std::vector<std::uint8_t>& snap, Array& u,
                 core::SlotPolicyKind policy, const DynKnobs& d,
                 const oacc::LoopCost& cost, bool lint = false) {
  Outcome out;
  try {
    sim::SnapshotReader r(snap);
    core::world_restore(r);
    u.restore(r);
    TIDACC_CHECK_MSG(r.at_end(), "trailing bytes after the array snapshot");
    // The graph attaches AFTER the restore (graph state is transient
    // analysis state, never part of snapshots) and sees only the tail.
    LintAttach la(lint);
    run_tail(u, policy, d, cost);
    la.detach();
    if (lint) {
      lint_replay(la.g, &out);
      if (out.failed) {
        return out;
      }
    }
    out.sum = checksum(u);
    out.h2d = u.h2d_bytes();
    out.d2h = u.d2h_bytes();
    out.makespan = sim::Platform::instance().now();
  } catch (const tidacc::Error& e) {
    out.failed = true;
    out.kind = "sanitizer";
    out.detail = e.what();
  }
  return out;
}

// --- repro files (plain key=value lines; no JSON parser in tree) ---

void write_repro(const std::string& path, const WorldKnobs& w,
                 const DynKnobs& d, const Outcome& o) {
  std::ofstream f(path);
  f << "# fuzz_schedule repro — run with: fuzz_schedule --repro=" << path
    << "\n";
  f << "policy=" << policy_name(w.policy) << "\n";
  f << "delta=" << (w.delta ? 1 : 0) << "\n";
  f << "disable_caching=" << (w.disable_caching ? 1 : 0) << "\n";
  f << "max_slots=" << w.max_slots << "\n";
  f << "num_devices=" << w.num_devices << "\n";
  f << "guard=" << static_cast<int>(w.guard) << "\n";
  f << "n=" << w.n << "\n";
  f << "regions=" << w.regions << "\n";
  f << "nodes=" << w.nodes << "\n";
  f << "fabric=" << w.fabric << "\n";
  f << "net_path=" << core::to_string(w.path) << "\n";
  f << "compression=" << w.compression << "\n";
  f << "jitter_max=" << d.jitter_max << "\n";
  f << "jitter_seed=" << d.jitter_seed << "\n";
  f << "prefetch_depth=" << d.prefetch_depth << "\n";
  f << "order_seed=" << d.order_seed << "\n";
  f << "stream_perm_seed=" << d.stream_perm_seed << "\n";
  f << "overlap=" << (d.overlap ? 1 : 0) << "\n";
  f << "steps=" << d.steps << "\n";
  f << "# kind=" << o.kind << "\n";
}

bool parse_repro(const std::string& path, WorldKnobs& w, DynKnobs& d) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "fuzz_schedule: cannot open repro file %s\n",
                 path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    const std::uint64_t num = std::strtoull(val.c_str(), nullptr, 10);
    if (key == "policy") w.policy = core::parse_slot_policy(val);
    else if (key == "delta") w.delta = num != 0;
    else if (key == "disable_caching") w.disable_caching = num != 0;
    else if (key == "max_slots") w.max_slots = static_cast<int>(num);
    else if (key == "num_devices") w.num_devices = static_cast<int>(num);
    else if (key == "guard") w.guard = static_cast<core::StreamingGuard>(num);
    else if (key == "n") w.n = static_cast<int>(num);
    else if (key == "regions") w.regions = static_cast<int>(num);
    else if (key == "nodes") w.nodes = static_cast<int>(num);
    else if (key == "fabric") w.fabric = val;
    else if (key == "net_path") w.path = core::parse_net_path(val);
    else if (key == "compression") w.compression = static_cast<int>(num);
    else if (key == "jitter_max") d.jitter_max = num;
    else if (key == "jitter_seed") d.jitter_seed = num;
    else if (key == "prefetch_depth") d.prefetch_depth = static_cast<int>(num);
    else if (key == "order_seed") d.order_seed = num;
    else if (key == "stream_perm_seed") d.stream_perm_seed = num;
    else if (key == "overlap") d.overlap = num != 0;
    else if (key == "steps") d.steps = static_cast<int>(num);
  }
  return true;
}

// --- failure report (JSON written by hand, for CI artifacts) ---

struct Failure {
  std::uint64_t iter = 0;
  WorldKnobs world;
  DynKnobs dyn;
  std::string kind;
  std::string detail;
  std::string repro_path;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') { out += '\\'; out += c; }
    else if (c == '\n') out += "\\n";
    else if (static_cast<unsigned char>(c) < 0x20) out += ' ';
    else out += c;
  }
  return out;
}

void write_report(const std::string& path, std::uint64_t seed,
                  std::uint64_t iters_done, double iters_per_sec,
                  bool lint_enabled, std::uint64_t linted_iters,
                  const std::vector<Failure>& failures) {
  std::ofstream f(path);
  f << "{\n  \"tool\": \"fuzz_schedule\",\n";
  f << "  \"seed\": " << seed << ",\n";
  f << "  \"iterations\": " << iters_done << ",\n";
  f << "  \"iters_per_sec\": " << static_cast<std::uint64_t>(iters_per_sec)
    << ",\n";
  f << "  \"lint_enabled\": " << (lint_enabled ? "true" : "false") << ",\n";
  f << "  \"linted_iterations\": " << linted_iters << ",\n";
  f << "  \"sanitizer_compiled_in\": "
#ifdef TIDACC_CUEM_SANITIZER
    << "true"
#else
    << "false"
#endif
    << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const Failure& x = failures[i];
    f << (i ? "," : "") << "\n    {\"iter\": " << x.iter
      << ", \"kind\": \"" << json_escape(x.kind)
      << "\", \"policy\": \"" << policy_name(x.world.policy)
      << "\", \"delta\": " << (x.world.delta ? "true" : "false")
      << ", \"max_slots\": " << x.world.max_slots
      << ", \"num_devices\": " << x.world.num_devices
      << ", \"guard\": " << static_cast<int>(x.world.guard)
      << ", \"nodes\": " << x.world.nodes
      << ", \"fabric\": \"" << json_escape(x.world.fabric)
      << "\", \"net_path\": \"" << core::to_string(x.world.path)
      << "\", \"compression\": " << x.world.compression
      << ", \"jitter_max\": " << x.dyn.jitter_max
      << ", \"prefetch_depth\": " << x.dyn.prefetch_depth
      << ", \"order_seed\": " << x.dyn.order_seed
      << ", \"stream_perm_seed\": " << x.dyn.stream_perm_seed
      << ", \"overlap\": " << (x.dyn.overlap ? "true" : "false")
      << ", \"repro\": \"" << json_escape(x.repro_path)
      << "\", \"detail\": \"" << json_escape(x.detail) << "\"}";
  }
  f << (failures.empty() ? "]" : "\n  ]") << "\n}\n";
}

// --- world construction ---

void configure_world(const WorldKnobs& w) {
  const sim::DeviceConfig cfg = sim::DeviceConfig::k40m();
  // Functional mode (kernels really execute) with trace recording off: the
  // flattened hot path is what lets the fuzzer sustain >1k iters/min.
  cuem::configure(cfg, /*functional=*/true, w.num_devices,
                  sim::Interconnect::pcie());
  oacc::reset();
  cuem::platform().trace().set_recording(false);
#ifdef TIDACC_CUEM_SANITIZER
  cuem::san::Options so;
  so.enabled = true;
  so.memcheck = true;
  so.racecheck = true;
  so.fatal = true;  // first kError finding throws — the fuzzer's oracle
  cuem::san::configure(so);
#endif
}

core::MultiAccOptions multi_acc_options(const WorldKnobs& w) {
  // disable_caching applies to single-device worlds only: multi-device
  // worlds have always run with caching on, and honouring the knob there
  // would change what every existing multi-device seed explores. The other
  // knobs map 1:1. max_slots is a per-device budget, so divide the world's
  // total across the devices — keeping the slots:regions pressure of the
  // single-device run, which is what drives eviction/re-acquire schedules
  // (and the races hiding in them).
  core::MultiAccOptions o;
  o.devices = w.num_devices;
  o.max_slots = std::max(1, w.max_slots / w.num_devices);
  o.disable_caching = w.num_devices == 1 && w.disable_caching;
  o.delta_transfers = w.delta;
  o.slot_policy = w.policy;
  o.streaming_guard = w.guard;
  o.compression = static_cast<core::Compression>(w.compression);
  return o;
}

core::ClusterOptions cluster_options(const WorldKnobs& w) {
  core::ClusterOptions o;
  o.multi = multi_acc_options(w);
  o.nodes = w.nodes;
  o.fabric = sim::FabricConfig::parse(w.fabric);
  // kAuto on a GPUDirect-less preset degrades to staged by itself; only
  // kGpuDirect would reject it, and the draw never emits that.
  o.path = w.path;
  o.compression = static_cast<core::Compression>(w.compression);
  return o;
}

/// Builds the world, runs the warmup step (so the snapshot holds a
/// mid-workload state with live residency/dirty tracking), and captures
/// world + array into one buffer.
template <typename Array>
std::vector<std::uint8_t> build_and_snapshot(const WorldKnobs& w, Array& u,
                                             const oacc::LoopCost& cost) {
  u.fill([](const tida::Index3& p) {
    return 0.001 * p.i + 0.002 * p.j + 0.004 * p.k;
  });
  u.assume_host_initialized();
  if (w.policy == core::SlotPolicyKind::kBeladyOracle) {
    u.set_future_accesses(visit_order(w.regions, 0));
  }
  halo_step(u, visit_order(w.regions, 0), /*depth=*/1, cost,
            /*overlap=*/false);
  sim::SnapshotWriter wr;
  core::world_capture(wr);
  u.capture(wr);
  return wr.take();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::uint64_t iters =
      static_cast<std::uint64_t>(cli.get_int("iters", 200));
  const int n = static_cast<int>(cli.get_int("n", 32));
  const int regions = static_cast<int>(cli.get_int("regions", 8));
  // 0 = let draw_world choose per config; >1 pins every world to a
  // cluster of that many nodes (--fabric likewise pins the preset).
  const int force_nodes = static_cast<int>(cli.get_int("nodes", 0));
  const std::string force_fabric = cli.get_string("fabric", "");
  // -1 = let draw_world choose per config; 0/1/2 pins every world to
  // Compression::{kOff,kOn,kAuto}.
  const int force_compression =
      static_cast<int>(cli.get_int("compression", -1));
  const int steps = static_cast<int>(cli.get_int("steps", 3));
  const std::uint64_t per_config =
      static_cast<std::uint64_t>(cli.get_int("iters-per-config", 32));
  const std::string out_path = cli.get_string("out", "");
  const std::string repro_path = cli.get_string("repro", "");
  const std::string repro_dir = cli.get_string("repro-dir", ".");
  const bool expect_failure = cli.get_bool("expect-failure", false);
  // Second oracle: extract the op graph of every replay and run the
  // static schedule checks (deadlock cycle, CPM bound, MHP cross-check).
  const bool lint = cli.get_bool("lint", false);
  const int max_failures = static_cast<int>(cli.get_int("max-failures", 5));

#ifndef TIDACC_CUEM_SANITIZER
  if (expect_failure) {
    // The race oracle is the sanitizer; without it this test can't see the
    // injected defect. 77 = ctest SKIP_RETURN_CODE.
    std::printf("fuzz_schedule: sanitizer compiled out, skipping "
                "--expect-failure run\n");
    return 77;
  }
#endif

  const oacc::LoopCost cost = kernels::box_stencil_cost(1);

  // --- single-case repro mode ---
  if (!repro_path.empty()) {
    WorldKnobs w;
    DynKnobs d;
    if (!parse_repro(repro_path, w, d)) return 2;
    configure_world(w);
    const int slab = (w.n + w.regions - 1) / w.regions;
    const auto replay = [&](auto& u) {
      const std::vector<std::uint8_t> snap = build_and_snapshot(w, u, cost);
      return run_case(snap, u, w.policy, d, cost, lint);
    };
    Outcome o;
    if (w.nodes > 1) {
      core::ClusterTileArray<double> u(tida::Box::cube(w.n),
                                       tida::Index3{w.n, w.n, slab},
                                       /*ghost=*/1, cluster_options(w));
      o = replay(u);
    } else {
      core::MultiAccTileArray<double> u(tida::Box::cube(w.n),
                                        tida::Index3{w.n, w.n, slab},
                                        /*ghost=*/1, multi_acc_options(w));
      o = replay(u);
    }
    if (o.failed) {
      std::printf("repro FAILED (%s): %s\n", o.kind.c_str(),
                  o.detail.c_str());
      return 1;
    }
    std::printf("repro passed: checksum=%016llx h2d=%llu d2h=%llu\n",
                static_cast<unsigned long long>(o.sum),
                static_cast<unsigned long long>(o.h2d),
                static_cast<unsigned long long>(o.d2h));
    return 0;
  }

  // --- fuzz loop ---
  std::vector<Failure> failures;
  std::uint64_t iters_done = 0;
  std::uint64_t linted_iters = 0;
  const auto t0 = std::chrono::steady_clock::now();

  std::uint64_t config_index = static_cast<std::uint64_t>(-1);
  std::optional<WorldKnobs> world;
  // The array must outlive every restore of its snapshot (the restore
  // contract is address-stable), so all live in an optional rebuilt per
  // config block. Worlds with nodes > 1 exercise the cluster array
  // (fabric QP/MR state rides inside its snapshot); the rest run the tile
  // array on one or two devices.
  std::optional<core::MultiAccTileArray<double>> um;
  std::optional<core::ClusterTileArray<double>> uc;
  std::vector<std::uint8_t> snap;
  std::optional<Outcome> reference;
  const auto run_one = [&](const DynKnobs& d) {
    return uc ? run_case(snap, *uc, world->policy, d, cost, lint)
              : run_case(snap, *um, world->policy, d, cost, lint);
  };

  for (std::uint64_t i = 0; i < iters; ++i) {
    if (i / per_config != config_index) {
      config_index = i / per_config;
      world = draw_world(seed, config_index, n, regions, force_nodes,
                         force_fabric, force_compression);
      um.reset();  // free the old world's buffers before reconfiguring
      uc.reset();
      try {
        configure_world(*world);
        const int slab = (world->n + world->regions - 1) / world->regions;
        if (world->nodes > 1) {
          uc.emplace(tida::Box::cube(world->n),
                     tida::Index3{world->n, world->n, slab}, /*ghost=*/1,
                     cluster_options(*world));
          snap = build_and_snapshot(*world, *uc, cost);
        } else {
          um.emplace(tida::Box::cube(world->n),
                     tida::Index3{world->n, world->n, slab}, /*ghost=*/1,
                     multi_acc_options(*world));
          snap = build_and_snapshot(*world, *um, cost);
        }
        // Baseline replay: no jitter, no prefetch, identity order. Its
        // checksum is the reference every mutated replay must reproduce.
        DynKnobs base;
        base.steps = steps;
        reference = run_one(base);
      } catch (const tidacc::Error& e) {
        // A world that cannot even run its baseline is a finding too.
        Failure x;
        x.iter = i;
        x.world = *world;
        x.dyn.steps = steps;
        x.kind = "sanitizer";
        x.detail = e.what();
        x.repro_path = repro_dir + "/fuzz_repro_" + std::to_string(i) + ".txt";
        write_repro(x.repro_path, x.world, x.dyn, Outcome{});
        failures.push_back(x);
        reference.reset();
      }
      if (reference && reference->failed) {
        Failure x;
        x.iter = i;
        x.world = *world;
        x.dyn.steps = steps;
        x.kind = reference->kind;
        x.detail = reference->detail;
        x.repro_path = repro_dir + "/fuzz_repro_" + std::to_string(i) + ".txt";
        write_repro(x.repro_path, x.world, x.dyn, *reference);
        failures.push_back(x);
        reference.reset();
      }
      if (static_cast<int>(failures.size()) >= max_failures ||
          (expect_failure && !failures.empty())) {
        iters_done = i;
        break;
      }
      if (!reference) {
        // Skip this config's remaining iterations.
        i = (config_index + 1) * per_config - 1;
        continue;
      }
    }

    DynKnobs d = draw_dyn(seed, i, world->regions, steps);
    Outcome o = run_one(d);
    ++iters_done;
    linted_iters += o.linted ? 1 : 0;

    if (!o.failed && o.sum != reference->sum) {
      o.failed = true;
      o.kind = "checksum";
      o.detail = "final field diverged from the baseline replay";
    }
    // Determinism spot-check: replaying identical knobs must reproduce the
    // checksum AND the byte/op accounting and makespan exactly.
    if (!o.failed && (i % 61) == 0) {
      const Outcome o2 = run_one(d);
      if (o2.failed || o2.sum != o.sum || o2.h2d != o.h2d ||
          o2.d2h != o.d2h || o2.makespan != o.makespan) {
        o.failed = true;
        o.kind = "nondeterminism";
        o.detail = "identical knobs produced a different trace";
      }
    }

    if (o.failed) {
      // Greedy minimization: zero one knob group at a time, keep the
      // failure alive. Restoring the same snapshot makes re-runs cheap.
      DynKnobs min = d;
      const auto still_fails = [&](const DynKnobs& cand) {
        const Outcome c = run_one(cand);
        return c.failed || c.sum != reference->sum;
      };
      DynKnobs cand = min;
      cand.jitter_max = 0;
      cand.jitter_seed = 0;
      if (still_fails(cand)) min = cand;
      cand = min;
      cand.prefetch_depth = 0;
      if (still_fails(cand)) min = cand;
      cand = min;
      cand.order_seed = 0;
      if (still_fails(cand)) min = cand;
      cand = min;
      cand.stream_perm_seed = 0;
      if (still_fails(cand)) min = cand;
      cand = min;
      cand.overlap = false;
      if (still_fails(cand)) min = cand;

      Failure x;
      x.iter = i;
      x.world = *world;
      x.dyn = min;
      x.kind = o.kind;
      x.detail = o.detail;
      x.repro_path = repro_dir + "/fuzz_repro_" + std::to_string(i) + ".txt";
      write_repro(x.repro_path, x.world, x.dyn, o);
      failures.push_back(x);
      std::printf("iter %llu: %s (%s, policy=%s slots=%d) -> %s\n",
                  static_cast<unsigned long long>(i), o.kind.c_str(),
                  o.detail.c_str(), policy_name(world->policy),
                  world->max_slots, x.repro_path.c_str());
      if (static_cast<int>(failures.size()) >= max_failures ||
          expect_failure) {
        break;
      }
    }
  }

  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration<double>(t1 - t0).count();
  const double ips =
      secs > 0 ? static_cast<double>(iters_done) / secs : 0.0;
  std::printf("fuzz_schedule: %llu iterations, %llu failure(s), %.0f "
              "iters/sec (seed=%llu)\n",
              static_cast<unsigned long long>(iters_done),
              static_cast<unsigned long long>(failures.size()), ips,
              static_cast<unsigned long long>(seed));
  if (lint) {
    std::printf("fuzz_schedule: schedule-lint oracle ran on %llu replays\n",
                static_cast<unsigned long long>(linted_iters));
  }

  if (!out_path.empty()) {
    write_report(out_path, seed, iters_done, ips, lint, linted_iters,
                 failures);
  }
  if (expect_failure) {
    if (failures.empty()) {
      std::printf("fuzz_schedule: expected a failure but found none\n");
      return 1;
    }
    return 0;
  }
  return failures.empty() ? 0 : 1;
}

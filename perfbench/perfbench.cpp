// perfbench — the repository benchmark: one process, one thread, one
// workload per invocation (see README.md in this directory).
//
//   perfbench --workload <heat_incore|heat_ooc|cluster_overlap> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Every workload is a closed loop with one caller: a step is issued once
// the previous step's host calls have returned. The full-size runs are
// timing-only (no field data); a shrunken functional twin with identical
// options checks the numbers against kernels::heat_reference. --seed sets
// only the twin's initial field.
//
// Output: human-readable metric and counter lines, then, as the last line,
// one JSON object {correct, attempted, failed, metrics}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (from a separate
// traced loop whose spans are written to --trace-out as Chrome-trace JSON).
// The exit code is 1 when any correctness or exact-counter check fails.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/cluster_tile_array.hpp"
#include "core/tidacc.hpp"
#include "kernels/heat.hpp"
#include "net/fabric_config.hpp"
#include "sim/op_graph.hpp"
#include "spans.hpp"
#include "tida/ghost.hpp"

namespace {

using namespace tidacc;
using perfbench::Span;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ---------------------------------------------------------------------------
// Workload definitions

enum class Kind { kHeatIncore, kHeatOoc, kClusterOverlap };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  int warmup_steps;  ///< untimed steps at the end of set-up
  int window_steps;  ///< steps in the deterministic simulated-time window
  int setups;        ///< set-ups per run (setup_s is their median)
};

// Warm-up runs one step per array, so each array has built its exchange
// plan and made its regions resident before timing starts.
constexpr WorkloadSpec kWorkloads[] = {
    {"heat_incore", Kind::kHeatIncore, 2, 4, 5},
    {"heat_ooc", Kind::kHeatOoc, 1, 4, 60},
    {"cluster_overlap", Kind::kClusterOverlap, 2, 4, 200},
};

constexpr int kClusterNodes = 4;
constexpr int kDevicesPerNode = 2;
constexpr int kClusterGhost = 4;
constexpr int kClusterRegions = 16;  // slabs along k
constexpr int kOocMaxK = 8;

/// Geometry at one scale: the full-size run or its functional twin.
struct Shape {
  int n = 0;       ///< domain is n^3 doubles
  int region = 0;  ///< cube edge (heat_*); slabs use kClusterRegions
  int slots = 0;   ///< device slot cap (heat_ooc); 0 = every region fits
};

Shape full_shape(Kind kind) {
  switch (kind) {
    case Kind::kHeatIncore:
      return {512, 32, 0};
    case Kind::kHeatOoc:
      return {512, 64, 128};
    case Kind::kClusterOverlap:
      return {512, 0, 0};
  }
  TIDACC_FAIL("unknown workload");
}

// The twin keeps every option and the slot-to-region ratio; only the
// domain shrinks (heat_ooc keeps region >= ghost = k).
Shape twin_shape(Kind kind) {
  switch (kind) {
    case Kind::kHeatIncore:
      return {64, 8, 0};
    case Kind::kHeatOoc:
      return {64, 16, 16};
    case Kind::kClusterOverlap:
      return {64, 0, 0};
  }
  TIDACC_FAIL("unknown workload");
}

/// Cumulative counters by name. Every one is deterministic: two runs of
/// the same build must read identically.
using Counters = std::map<std::string, std::uint64_t>;

Counters diff(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    out[k] = v - (it == before.end() ? 0 : it->second);
  }
  return out;
}

void add_transfers(Counters& c, const core::TransferAccounting& t) {
  c["core.h2d_bytes"] += t.h2d_bytes;
  c["core.d2h_bytes"] += t.d2h_bytes;
  c["core.h2d_wire_bytes"] += t.h2d_wire_bytes;
  c["core.d2h_wire_bytes"] += t.d2h_wire_bytes;
  c["core.flat_h2d_ops"] += t.flat_h2d_ops;
  c["core.flat_d2h_ops"] += t.flat_d2h_ops;
  c["core.delta_h2d_ops"] += t.delta_h2d_ops;
  c["core.delta_d2h_ops"] += t.delta_d2h_ops;
  c["core.prefetch_ops"] += t.prefetch_ops;
  c["core.comp_h2d_ops"] += t.comp_h2d_ops;
  c["core.comp_d2h_ops"] += t.comp_d2h_ops;
}

void add_fabric(Counters& c, const sim::FabricCounters& f) {
  c["net.sends"] += f.sends;
  c["net.rdma_reads"] += f.rdma_reads;
  c["net.rdma_writes"] += f.rdma_writes;
  c["net.net_bytes"] += f.net_bytes;
  c["net.gpudirect_bytes"] += f.gpudirect_bytes;
  c["net.wire_bytes"] += f.net_wire_bytes;
  c["net.compressed_wrs"] += f.compressed_wrs;
}

void add_trace_stats(Counters& c) {
  const sim::TraceStats& s = cuem::platform().trace().stats();
  c["sim.h2d_bytes"] = s.h2d_bytes;
  c["sim.d2h_bytes"] = s.d2h_bytes;
  c["sim.prefetch_h2d_bytes"] = s.prefetch_h2d_bytes;
  c["sim.memcpy3d_h2d_bytes"] = s.memcpy3d_h2d_bytes;
  c["sim.memcpy3d_d2h_bytes"] = s.memcpy3d_d2h_bytes;
  c["sim.p2p_bytes"] = s.p2p_bytes;
  c["sim.net_bytes"] = s.net_bytes;
  c["sim.kernels"] = s.num_kernels;
  c["sim.copies"] = s.num_copies;
  c["sim.net_ops"] = s.num_net_ops;
  c["sim.compute_busy_ns"] = static_cast<std::uint64_t>(s.compute_busy);
  c["sim.copy_busy_ns"] = static_cast<std::uint64_t>(s.copy_busy);
  c["sim.nic_busy_ns"] = static_cast<std::uint64_t>(s.nic_busy);
  c["sim.comp_h2d_bytes"] = s.comp_h2d_bytes;
  c["sim.comp_d2h_bytes"] = s.comp_d2h_bytes;
  c["sim.comp_h2d_wire_bytes"] = s.comp_h2d_wire_bytes;
  c["sim.comp_d2h_wire_bytes"] = s.comp_d2h_wire_bytes;
  c["sim.warnings"] = s.num_warnings;
}

/// One configured world: the platform plus the workload's arrays.
class World {
 public:
  virtual ~World() = default;

  /// Issues one step: the workload's ghost exchange and one sweep of
  /// compute calls over every region.
  virtual void step(SpanLog& log) = 0;
  /// Stencil steps one step() advances the field by.
  virtual int substeps() const { return 1; }
  /// Seeds the field (functional) or marks host data valid (timing-only).
  virtual void initialize(const std::vector<double>* field) = 0;
  /// Drains to the host and returns the current field, i-fastest n^3.
  virtual std::vector<double> field() = 0;
  virtual const tida::Partition& partition() const = 0;
  virtual int ghost() const = 0;

  /// Library counters of the arrays plus the benchmark's call counts.
  Counters counters() const {
    Counters c;
    c["calls.fill_boundary"] = fill_boundary_calls_;
    c["calls.compute"] = compute_calls_;
    array_counters(c);
    return c;
  }

  int devices = 1;
  int nodes = 1;
  int time_block_k = 1;

 protected:
  virtual void array_counters(Counters& c) const = 0;

  std::uint64_t fill_boundary_calls_ = 0;
  std::uint64_t compute_calls_ = 0;
};

template <typename A>
void initialize_array(A& a, int n, const std::vector<double>* field) {
  if (field == nullptr) {
    a.assume_host_initialized();
    return;
  }
  a.fill([&](const tida::Index3& q) {
    return (*field)[(static_cast<std::size_t>(q.k) * n + q.j) * n + q.i];
  });
}

template <typename A>
std::vector<double> drain_field(A& a, int n) {
  a.release_all_to_host();
  CUEM_CHECK(cuemDeviceSynchronize());
  std::vector<double> out(static_cast<std::size_t>(n) * n * n);
  a.copy_out(out.data());
  return out;
}

template <typename T>
void add_array_counters(Counters& c, const T& a) {
  add_transfers(c, a.transfers());
  c["core.streaming_exchanges"] += a.streaming_exchanges();
  c["core.device_ghost_updates"] += a.device_ghost_updates();
  c["core.prefetches_issued"] += a.prefetches_issued();
}

/// heat_incore: ping-pong AccTileArrays, every region resident, the
/// device-side ghost exchange every step, tiles walked by the iterator.
class HeatIncore final : public World {
 public:
  explicit HeatIncore(const Shape& s)
      : n_(s.n),
        a_(tida::Box::cube(s.n), tida::Index3{s.region, s.region, s.region},
           1),
        b_(tida::Box::cube(s.n), tida::Index3{s.region, s.region, s.region},
           1),
        it_(a_) {}

  void step(SpanLog& log) override {
    {
      Span sp(log, "core.fill_boundary");
      u_->fill_boundary(tida::Boundary::kPeriodic);
    }
    ++fill_boundary_calls_;
    core::AccTile<double> tu, tun;
    bool valid = false;
    {
      Span sp(log, "tida.iterate");
      it_.reset(/*gpu=*/true);
      valid = it_.isValid();
      if (valid) {
        tu = it_.tile_in(*u_);
        tun = it_.tile_in(*un_);
      }
    }
    while (valid) {
      {
        Span sp(log, "core.compute");
        core::compute(tu, tun, kernels::heat_cost(),
                      [](core::DeviceView<double> us,
                         core::DeviceView<double> uns, int i, int j, int k) {
                        uns(i, j, k) = kernels::heat_point(us, i, j, k);
                      });
      }
      ++compute_calls_;
      Span sp(log, "tida.iterate");
      it_.next();
      valid = it_.isValid();
      if (valid) {
        tu = it_.tile_in(*u_);
        tun = it_.tile_in(*un_);
      }
    }
    std::swap(u_, un_);
  }

  void initialize(const std::vector<double>* field) override {
    initialize_array(a_, n_, field);
    const std::vector<double> zero(field == nullptr ? 0 : field->size());
    initialize_array(b_, n_, field == nullptr ? nullptr : &zero);
  }
  std::vector<double> field() override { return drain_field(*u_, n_); }
  const tida::Partition& partition() const override { return a_.partition(); }
  int ghost() const override { return a_.ghost(); }

 private:
  void array_counters(Counters& c) const override {
    add_array_counters(c, a_);
    add_array_counters(c, b_);
  }

  int n_;
  core::AccTileArray<double> a_, b_;
  core::AccTileArray<double>* u_ = &a_;
  core::AccTileArray<double>* un_ = &b_;
  core::AccTileIterator<double> it_;
};

core::AccOptions ooc_options(const Shape& s, int k) {
  core::AccOptions o;
  o.max_slots = s.slots;
  o.slot_policy = core::SlotPolicyKind::kLru;
  o.delta_transfers = true;
  o.compression = core::Compression::kAuto;
  o.time_block_k = k;
  return o;
}

/// heat_ooc: one out-of-core AccTileArray holding a quarter of the field
/// on the device, k stencil steps per residency through compute_k.
class HeatOoc final : public World {
 public:
  HeatOoc(const Shape& s, int k)
      : n_(s.n),
        u_(tida::Box::cube(s.n), tida::Index3{s.region, s.region, s.region},
           /*ghost=*/k, ooc_options(s, k)) {
    time_block_k = k;
  }

  void step(SpanLog& log) override {
    {
      Span sp(log, "core.fill_boundary");
      u_.fill_boundary(tida::Boundary::kPeriodic);
    }
    ++fill_boundary_calls_;
    const int k = time_block_k;
    for (int r = 0; r < u_.num_regions(); ++r) {
      Span sp(log, "core.compute");
      core::compute_k(u_, r, k, /*radius=*/1, kernels::heat_cost(),
                      [](core::DeviceView<double> in,
                         core::DeviceView<double> out, int i, int j, int kk) {
                        out(i, j, kk) = kernels::heat_point(in, i, j, kk);
                      });
      ++compute_calls_;
    }
  }
  int substeps() const override { return time_block_k; }

  void initialize(const std::vector<double>* field) override {
    initialize_array(u_, n_, field);
  }
  std::vector<double> field() override { return drain_field(u_, n_); }
  const tida::Partition& partition() const override { return u_.partition(); }
  int ghost() const override { return u_.ghost(); }

 private:
  void array_counters(Counters& c) const override {
    add_array_counters(c, u_);
  }

  int n_;
  core::AccTileArray<double> u_;
};

core::ClusterOptions cluster_options() {
  core::ClusterOptions o;
  o.multi.devices = kClusterNodes * kDevicesPerNode;
  o.nodes = kClusterNodes;
  o.fabric = sim::FabricConfig::infiniband();
  o.path = core::NetPath::kGpuDirect;
  return o;
}

/// cluster_overlap: ping-pong ClusterTileArrays over 4 nodes x 2 devices,
/// split-phase exchange with node-interior regions computing under the
/// wire.
class ClusterOverlap final : public World {
 public:
  explicit ClusterOverlap(const Shape& s)
      : n_(s.n),
        a_(tida::Box::cube(s.n), slab(s.n), kClusterGhost, cluster_options()),
        b_(tida::Box::cube(s.n), slab(s.n), kClusterGhost,
           cluster_options()) {
    devices = kClusterNodes * kDevicesPerNode;
    nodes = kClusterNodes;
    boundary_.assign(static_cast<std::size_t>(a_.num_regions()), false);
    for (const int r : a_.node_boundary_regions(tida::Boundary::kPeriodic)) {
      boundary_[static_cast<std::size_t>(r)] = true;
    }
  }

  void step(SpanLog& log) override {
    {
      Span sp(log, "net.exchange_begin");
      u_->exchange_begin(tida::Boundary::kPeriodic);
    }
    ++fill_boundary_calls_;
    sweep(log, /*boundary=*/false);
    {
      Span sp(log, "net.exchange_end");
      u_->exchange_end();
    }
    sweep(log, /*boundary=*/true);
    std::swap(u_, un_);
  }

  void initialize(const std::vector<double>* field) override {
    initialize_array(a_, n_, field);
    const std::vector<double> zero(field == nullptr ? 0 : field->size());
    initialize_array(b_, n_, field == nullptr ? nullptr : &zero);
    // The split-phase wire path needs the slots live.
    for (int r = 0; r < a_.num_regions(); ++r) {
      a_.acquire_on_device(r);
      b_.acquire_on_device(r);
    }
  }
  std::vector<double> field() override { return drain_field(*u_, n_); }
  const tida::Partition& partition() const override { return a_.partition(); }
  int ghost() const override { return a_.ghost(); }

 private:
  static tida::Index3 slab(int n) {
    return {n, n, (n + kClusterRegions - 1) / kClusterRegions};
  }

  void sweep(SpanLog& log, bool boundary) {
    for (int r = 0; r < u_->num_regions(); ++r) {
      if (boundary_[static_cast<std::size_t>(r)] != boundary) {
        continue;
      }
      Span sp(log, "core.compute");
      core::compute_gpu(*u_, *un_, r, kernels::heat_cost(),
                        [](core::DeviceView<double> us,
                           core::DeviceView<double> uns, int i, int j, int k) {
                          uns(i, j, k) = kernels::heat_point(us, i, j, k);
                        });
      ++compute_calls_;
    }
  }

  void array_counters(Counters& c) const override {
    for (const core::ClusterTileArray<double>* a : {&a_, &b_}) {
      add_array_counters(c, *a);
      add_fabric(c, a->fabric().counters());
    }
  }

  int n_;
  core::ClusterTileArray<double> a_, b_;
  core::ClusterTileArray<double>* u_ = &a_;
  core::ClusterTileArray<double>* un_ = &b_;
  std::vector<bool> boundary_;
};

int ooc_time_block_k(const Shape& full) {
  return core::choose_time_block_k(
      tida::Box::cube(full.n),
      tida::Index3{full.region, full.region, full.region}, /*radius=*/1,
      kernels::heat_cost(), sim::DeviceConfig::k40m(), kOocMaxK);
}

void configure_platform(Kind kind, bool functional) {
  sim::DeviceConfig cfg = sim::DeviceConfig::k40m();
  if (kind == Kind::kClusterOverlap) {
    const sim::Interconnect ic = sim::Interconnect::pcie();
    ic.apply_host_link(cfg);
    cuem::configure(cfg, functional, kClusterNodes * kDevicesPerNode, ic);
  } else {
    cuem::configure(cfg, functional);
  }
  oacc::reset();
  cuem::platform().trace().set_recording(false);
}

std::unique_ptr<World> make_world(Kind kind, const Shape& s, int k) {
  switch (kind) {
    case Kind::kHeatIncore:
      return std::make_unique<HeatIncore>(s);
    case Kind::kHeatOoc:
      return std::make_unique<HeatOoc>(s, k);
    case Kind::kClusterOverlap:
      return std::make_unique<ClusterOverlap>(s);
  }
  TIDACC_FAIL("unknown workload");
}

// ---------------------------------------------------------------------------
// Measurement phases

/// Failures and step counts of one invocation (the contract's attempted /
/// failed fields and the failed_step_frac metric).
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::uint64_t steps, const std::string& what) {
    failed += steps;
    problems.push_back(what);
  }
  void check(bool ok, std::uint64_t steps, const std::string& what) {
    if (!ok) {
      fail(steps, what);
    }
  }
};

/// One device barrier; returns its host time (ns).
double sync(SpanLog& log, Ledger& ledger) {
  cuemError_t err = cuemSuccess;
  const Clock::time_point t0 = Clock::now();
  {
    Span sp(log, "sim.sync");
    err = cuemDeviceSynchronize();
  }
  const double ns = ns_between(t0, Clock::now());
  ledger.check(err == cuemSuccess, 0,
               std::string("cuemDeviceSynchronize returned ") +
                   cuemGetErrorString(err));
  return ns;
}

struct SetupResult {
  std::unique_ptr<World> world;
  double setup_ns = 0;      ///< configure .. ready for the first timed step
  double construct_ns = 0;  ///< array construction alone
  double sync_ns = 0;       ///< the barrier draining the warm-up
};

/// Configures the platform, builds the arrays, seeds them and runs the
/// untimed warm-up steps.
SetupResult set_up(const WorkloadSpec& w, const Shape& s, int k,
                   bool functional, const std::vector<double>* field,
                   SpanLog& log, Ledger& ledger) {
  SetupResult r;
  const Clock::time_point t0 = Clock::now();
  configure_platform(w.kind, functional);
  const Clock::time_point c0 = Clock::now();
  r.world = make_world(w.kind, s, k);
  r.construct_ns = ns_between(c0, Clock::now());
  r.world->initialize(field);
  for (int i = 0; i < w.warmup_steps; ++i) {
    r.world->step(log);
  }
  r.sync_ns = sync(log, ledger);
  r.setup_ns = ns_between(t0, Clock::now());
  return r;
}

/// The deterministic simulated-time window: `steps` steps between two
/// device barriers, with the library counters they moved.
struct Window {
  SimTime sim_ns = 0;
  int stencil_steps = 0;
  Counters delta;
  double sync_ns = 0;  ///< host time of the closing barrier
};

Window sim_window(World& world, int steps, SpanLog& log, Ledger& ledger) {
  Counters before = world.counters();
  add_trace_stats(before);
  const SimTime t0 = cuem::platform().now();
  for (int i = 0; i < steps; ++i) {
    world.step(log);
  }
  const double sync_ns = sync(log, ledger);
  Window w;
  w.sync_ns = sync_ns;
  w.sim_ns = cuem::platform().now() - t0;
  w.stencil_steps = steps * world.substeps();
  Counters after = world.counters();
  add_trace_stats(after);
  w.delta = diff(after, before);
  w.delta["sim.window_ns"] = static_cast<std::uint64_t>(w.sim_ns);
  return w;
}

/// Host wall time (ns) of each step of a closed loop that runs until
/// `seconds` have passed and at least `min_steps` steps were timed (hard
/// stop at 3x `seconds`), or until the span log reaches `max_spans`.
std::vector<double> timed_loop(World& world, double seconds,
                               std::size_t min_steps, std::size_t max_spans,
                               SpanLog& log, Ledger& ledger) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  const double budget_ns = seconds * 1e9;
  for (;;) {
    const double elapsed = ns_between(start, Clock::now());
    const bool enough = elapsed >= budget_ns && samples.size() >= min_steps;
    if (enough || elapsed >= 3 * budget_ns ||
        (log.enabled() && log.spans().size() >= max_spans)) {
      break;
    }
    ++ledger.attempted;
    const Clock::time_point t0 = Clock::now();
    try {
      Span sp(log, "bench.step");
      world.step(log);
    } catch (const tidacc::Error& e) {
      ledger.fail(1, std::string("step threw: ") + e.what());
      break;
    }
    samples.push_back(ns_between(t0, Clock::now()));
  }
  sync(log, ledger);
  return samples;
}

std::vector<double> seeded_field(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> f(static_cast<std::size_t>(n) * n * n);
  for (double& x : f) {
    x = rng.uniform(0.0, 1.0);
  }
  return f;
}

/// The correctness twin: the workload at twin_shape, once functional from
/// a seeded field and once timing-only. The functional field must match
/// heat_reference, and both runs must agree on simulated time and every
/// counter.
void run_twin(const WorkloadSpec& w, int k, std::uint64_t seed, SpanLog& log,
              Ledger& ledger) {
  const Shape s = twin_shape(w.kind);
  const std::vector<double> init = seeded_field(s.n, seed);
  SetupResult fun = set_up(w, s, k, /*functional=*/true, &init, log, ledger);
  const Window wf = sim_window(*fun.world, w.window_steps, log, ledger);
  const std::vector<double> got = fun.world->field();
  const int total = (w.warmup_steps + w.window_steps) * fun.world->substeps();
  fun.world.reset();

  SetupResult tim = set_up(w, s, k, /*functional=*/false, nullptr, log,
                           ledger);
  const Window wt = sim_window(*tim.world, w.window_steps, log, ledger);
  tim.world.reset();
  ledger.attempted += 2 * static_cast<std::uint64_t>(total);

  std::vector<double> ref = init;
  kernels::heat_reference(ref, s.n, total);
  const double err = kernels::max_abs_diff(got.data(), ref.data(), ref.size());
  std::printf("twin: %d^3, %d stencil steps, max |twin - heat_reference| = "
              "%.3g\n",
              s.n, total, err);
  ledger.check(err <= 1e-12, static_cast<std::uint64_t>(total),
               "twin field differs from heat_reference by " +
                   std::to_string(err));
  ledger.check(wf.delta == wt.delta, static_cast<std::uint64_t>(total),
               "twin functional and timing-only runs disagree on simulated "
               "time or counters");
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count and clock, human output only
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : percentile(std::move(v), 50.0);
}

/// Heap bytes in use (glibc arena plus mmapped chunks).
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// p1 of the second half of a timed loop's steps over the p1 of its first
/// half: 1 when the cost of a step does not grow with run length.
double drift_p1_ratio(const std::vector<double>& steps) {
  const auto half = static_cast<std::ptrdiff_t>(steps.size() / 2);
  if (half == 0) {
    return 0.0;
  }
  return percentile({steps.begin() + half, steps.end()}, 1.0) /
         percentile({steps.begin(), steps.begin() + half}, 1.0);
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("metric %-36s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void print_result(bool correct, const Ledger& ledger,
                  const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Per-layer metrics from the deterministic window's counters.
std::vector<Metric> counter_metrics(const World& world, const Window& win,
                                    double host_step_ns) {
  const Counters& c = win.delta;
  const auto at = [&c](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double steps = win.stencil_steps;
  const double window = static_cast<double>(win.sim_ns);
  const double computes = at("calls.compute");
  const double uploads = at("core.flat_h2d_ops") + at("core.delta_h2d_ops") +
                         at("core.prefetch_ops");
  const double evictions = at("core.flat_d2h_ops") + at("core.delta_d2h_ops");
  const double ops = uploads + evictions;
  const double logical = at("sim.h2d_bytes") + at("sim.d2h_bytes");
  const double wire = logical - at("sim.comp_h2d_bytes") -
                      at("sim.comp_d2h_bytes") +
                      at("sim.comp_h2d_wire_bytes") +
                      at("sim.comp_d2h_wire_bytes");
  const double sim_ops =
      at("sim.kernels") + at("sim.copies") + at("sim.net_ops");
  const double devices = world.devices;
  const std::string det = "(deterministic counter)";
  return {
      {"core.time_block_k", static_cast<double>(world.time_block_k), "count",
       det},
      {"core.streaming_exchange_frac",
       ratio(at("core.streaming_exchanges"), at("calls.fill_boundary")),
       "ratio", det},
      {"core.uploads_per_compute", ratio(uploads, computes), "count", det},
      {"core.evictions_per_compute", ratio(evictions, computes), "count", det},
      {"core.delta_op_frac",
       ratio(at("core.delta_h2d_ops") + at("core.delta_d2h_ops"), ops),
       "ratio", det},
      {"core.compressed_op_frac",
       ratio(at("core.comp_h2d_ops") + at("core.comp_d2h_ops"), ops), "ratio",
       det},
      {"cuem.h2d_mb_per_step", at("sim.h2d_bytes") / steps / 1e6, "MB", det},
      {"cuem.d2h_mb_per_step", at("sim.d2h_bytes") / steps / 1e6, "MB", det},
      {"cuem.wire_mb_per_step", wire / steps / 1e6, "MB", det},
      {"cuem.prefetch_share",
       ratio(at("sim.prefetch_h2d_bytes"), at("sim.h2d_bytes")), "ratio", det},
      {"cuem.memcpy3d_share",
       ratio(at("sim.memcpy3d_h2d_bytes") + at("sim.memcpy3d_d2h_bytes"),
             logical),
       "ratio", det},
      {"sim.compute_busy_frac",
       ratio(at("sim.compute_busy_ns"), window * devices), "ratio", det},
      {"sim.copy_busy_frac",
       ratio(at("sim.copy_busy_ns"), window * devices * 2.0), "ratio", det},
      {"sim.nic_busy_frac",
       ratio(at("sim.nic_busy_ns"), window * world.nodes), "ratio", det},
      {"sim.kernels_per_step", at("sim.kernels") / steps, "count", det},
      {"sim.copies_per_step", at("sim.copies") / steps, "count", det},
      {"sim.host_ns_per_op", ratio(host_step_ns, sim_ops / steps), "ns",
       "(host p50 per step / simulated ops per step)"},
      {"net.wire_mb_per_step", at("net.wire_bytes") / steps / 1e6, "MB", det},
      {"net.wrs_per_step",
       (at("net.sends") + at("net.rdma_reads") + at("net.rdma_writes")) / steps,
       "count", det},
      {"net.gpudirect_share",
       ratio(at("net.gpudirect_bytes"), at("net.net_bytes")), "ratio", det},
  };
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out = "perfbench_trace.json";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <heat_incore|"
               "heat_ooc|cluster_overlap> --seed <n> --seconds <s> --trace "
               "<0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + key).c_str());
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (!(a.seconds > 0)) {
        usage("--seconds must be positive");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        usage("--trace takes 0 or 1");
      }
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("malformed value for " + key).c_str());
    }
  }
  return a;
}

// The p90 with at least 10 samples beyond it.
constexpr std::size_t kMinTimedSteps = 110;
constexpr std::size_t kMaxSpans = 150000;

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    usage(("unknown workload '" + args.workload + "'").c_str());
  }
  const WorkloadSpec& w = *spec;

  SpanLog log;
  Ledger ledger;
  const Shape full = full_shape(w.kind);
  const int k = w.kind == Kind::kHeatOoc ? ooc_time_block_k(full) : 1;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d (k=%d)\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, k);

  std::vector<Metric> out;
  try {
    run_twin(w, k, args.seed, log, ledger);

    // Set-ups: the workload is set up afresh w.setups times (setup_s is
    // their median). Each set-up runs the deterministic window, whose
    // counters must agree exactly across set-ups. The world of the middle
    // set-up then runs the timed loop for the whole of --seconds (half of
    // it in a traced run, whose traced loop takes the other half). Half of
    // the set-ups come before the loop and half after it, so their median
    // is not taken from one stretch of host load.
    std::vector<double> setup_ns, construct_ns, sync_ns, host;
    double rss_mb = 0;
    double heap_growth = 0;
    SetupResult kept;
    Window first;
    sim::OverlapReport overlap;
    std::vector<double> traced;
    double plan_ns = 0;
    std::size_t plan_copies = 0;
    for (int rep = 0; rep < w.setups; ++rep) {
      if (kept.world) {
        // Drop the previous world and platform untimed: the timed loop's
        // world grew its event tables through the loop, and freeing them
        // inside a timed set-up would charge it for the loop's length.
        kept = SetupResult{};
        configure_platform(w.kind, /*functional=*/false);
      }
      kept = set_up(w, full, k, /*functional=*/false, nullptr, log, ledger);
      setup_ns.push_back(kept.setup_ns);
      construct_ns.push_back(kept.construct_ns);
      sync_ns.push_back(kept.sync_ns);
      // The traced run records the first window's device trace for the
      // overlap report (recording changes host time, not simulated time).
      const bool record = args.trace && rep == 0;
      cuem::platform().trace().set_recording(record);
      const Window win = sim_window(*kept.world, w.window_steps, log, ledger);
      if (record) {
        overlap = sim::overlap_report(cuem::platform().trace());
        cuem::platform().trace().clear();
        cuem::platform().trace().set_recording(false);
      }
      sync_ns.push_back(win.sync_ns);
      ledger.attempted += static_cast<std::uint64_t>(w.window_steps);
      if (rep == 0) {
        first = win;
        // Peak RSS through the twin and one set-up with its window: a
        // fixed amount of work. Event tables grow with every timed step,
        // so a reading after the timed loop would depend on the host's
        // speed; that growth is the per-layer heap figure instead.
        rss_mb = peak_rss_mb();
      } else {
        ledger.check(win.delta == first.delta,
                     static_cast<std::uint64_t>(w.window_steps),
                     "set-up " + std::to_string(rep) +
                         " moved different counters than set-up 0");
      }
      if (rep == w.setups / 2) {
        const double heap0 = heap_bytes();
        host = timed_loop(*kept.world, args.seconds * (args.trace ? 0.5 : 1.0),
                          kMinTimedSteps, kMaxSpans, log, ledger);
        heap_growth = heap_bytes() - heap0;
        if (args.trace) {
          log.begin_run(std::string(w.name) + " seed=" +
                        std::to_string(args.seed) + " traced");
          log.set_enabled(true);
          traced = timed_loop(*kept.world, args.seconds / 2, 1, kMaxSpans, log,
                              ledger);
          log.set_enabled(false);
          const Clock::time_point p0 = Clock::now();
          plan_copies = tida::compute_exchange_plan(kept.world->partition(),
                                                    kept.world->ghost(),
                                                    tida::Boundary::kPeriodic)
                            .size();
          plan_ns = ns_between(p0, Clock::now());
        }
      }
    }
    World& world = *kept.world;
    const Counters& c = first.delta;
    const auto at = [&c](const char* key) {
      const auto it = c.find(key);
      return it == c.end() ? std::uint64_t{0} : it->second;
    };

    // Exact-counter checks that catch dropped work.
    const auto window_steps = static_cast<std::uint64_t>(w.window_steps);
    if (w.kind == Kind::kHeatIncore) {
      const std::uint64_t link = at("sim.h2d_bytes") + at("sim.d2h_bytes") +
                                 at("sim.p2p_bytes") + at("core.h2d_bytes") +
                                 at("core.d2h_bytes");
      ledger.check(link == 0, window_steps,
                   "heat_incore moved " + std::to_string(link) +
                       " link bytes in the window (expected 0)");
    } else if (w.kind == Kind::kHeatOoc) {
      ledger.check(at("core.h2d_wire_bytes") + at("core.d2h_wire_bytes") <=
                           at("core.h2d_bytes") + at("core.d2h_bytes") &&
                       at("sim.comp_h2d_wire_bytes") +
                               at("sim.comp_d2h_wire_bytes") <=
                           at("sim.comp_h2d_bytes") + at("sim.comp_d2h_bytes"),
                   window_steps, "heat_ooc wire bytes exceed logical bytes");
    } else {
      const std::uint64_t face =
          static_cast<std::uint64_t>(full.n + 2 * kClusterGhost) *
          static_cast<std::uint64_t>(full.n + 2 * kClusterGhost) *
          kClusterGhost * sizeof(double);
      const std::uint64_t want = kClusterNodes * 2 * face * window_steps;
      ledger.check(at("net.net_bytes") == want && at("sim.net_bytes") == want,
                   window_steps,
                   "cluster_overlap put " +
                       std::to_string(at("net.net_bytes")) +
                       " B on the wire in the window (expected " +
                       std::to_string(want) + ")");
    }

    std::printf("counters over the %d-step window (%d stencil steps):\n",
                w.window_steps, first.stencil_steps);
    for (const auto& [name, v] : first.delta) {
      std::printf("  counter %-28s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    }

    const double sub = world.substeps();
    const double sim_ms = static_cast<double>(first.sim_ns) /
                          first.stencil_steps / 1e6;
    if (!args.trace) {
      const std::string n_host =
          "(n=" + std::to_string(host.size()) + " steps, host clock)";
      const auto ms_at = [&](double p) {
        return host.empty() ? 0.0 : percentile(host, p) / sub / 1e6;
      };
      // Other tenants of the host move the median and the tail by up to
      // 30% from run to run, so they are printed but not gated; the 1st
      // percentile (the steps the host disturbed least) repeats best.
      for (const double p : {10.0, 25.0, 50.0, 90.0}) {
        const std::string name =
            "host_ms_per_step.p" + std::to_string(static_cast<int>(p));
        std::printf("metric %-36s %16.6f %-8s %s, not gated\n", name.c_str(),
                    ms_at(p), "ms", n_host.c_str());
      }
      std::printf("metric %-36s %16.6f %-8s (second half / first half), not "
                  "gated\n",
                  "host.drift_p1_ratio", drift_p1_ratio(host), "ratio");
      out = {
          {"sim_ms_per_step", sim_ms, "sim_ms",
           "(window of " + std::to_string(first.stencil_steps) +
               " stencil steps, simulated clock)"},
          {"host_ms_per_step.p1", ms_at(1.0), "ms", n_host},
          {"setup_s", median(setup_ns) / 1e9, "s",
           "(median of n=" + std::to_string(setup_ns.size()) +
               " set-ups, host clock)"},
          {"host_peak_rss_mb", rss_mb, "MB",
           "(n=1, getrusage, through the first set-up)"},
      };
    } else {
      const double heap_kb_per_step =
          heap_growth / 1024.0 /
          std::max(1.0, static_cast<double>(host.size()) * sub);
      const double traced_steps =
          std::max(1.0, static_cast<double>(traced.size()) * sub);
      const double p50_plain = median(host) / sub;
      const double p50_traced = median(traced) / sub;
      // p50 over the traced calls of one span name, in us.
      const auto per_call = [&log](const char* metric, const char* span) {
        const std::vector<double> d = log.durations(span);
        return Metric{metric, median(d) / 1e3, "us",
                      "(p50 over n=" + std::to_string(d.size()) +
                          " traced calls)"};
      };
      const std::map<std::string, double> self = log.self_ns_by_layer();
      const auto self_ms = [&](const char* layer) {
        const auto it = self.find(layer);
        return it == self.end() ? 0.0 : it->second / traced_steps / 1e6;
      };
      const std::string n_traced =
          "(n=" + std::to_string(traced.size()) + " traced steps)";
      out = {
          {"tida.plan_ms", plan_ns / 1e6, "ms",
           "(n=1, " + std::to_string(plan_copies) + " copies)"},
          {"tida.iterate_us_per_step",
           median(log.child_ns_per_parent("bench.step", "tida.iterate")) /
               sub / 1e3,
           "us", n_traced},
          {"core.construct_ms", median(construct_ns) / 1e6, "ms",
           "(median of n=" + std::to_string(construct_ns.size()) + ")"},
          per_call("core.fill_boundary_us", "core.fill_boundary"),
          per_call("core.compute_us", "core.compute"),
      };
      for (Metric& m : counter_metrics(world, first, p50_plain)) {
        out.push_back(std::move(m));
      }
      out.push_back({"sim.transfer_exposed_ms_per_step",
                     static_cast<double>(overlap.exposed_ns) /
                         first.stencil_steps / 1e6,
                     "sim_ms", "(recorded window)"});
      out.push_back({"sim.overlap_efficiency", overlap.efficiency, "ratio",
                     "(recorded window)"});
      // The barriers that drain work: one after each set-up's warm-up and
      // one closing each set-up's window (the closed loops have none).
      out.push_back({"sim.sync_us", median(sync_ns) / 1e3, "us",
                     "(p50 over n=" + std::to_string(sync_ns.size()) +
                         " draining barriers)"});
      out.push_back(per_call("net.exchange_begin_us", "net.exchange_begin"));
      out.push_back(per_call("net.exchange_end_us", "net.exchange_end"));
      for (const char* layer : {"bench", "tida", "core", "net", "sim"}) {
        out.push_back({std::string("host_self.") + layer + "_ms_per_step",
                       self_ms(layer), "ms", n_traced});
      }
      out.push_back({"host.drift_p1_ratio", drift_p1_ratio(host), "ratio",
                     "(untraced loop, second half / first half)"});
      out.push_back({"host.heap_growth_kb_per_step", heap_kb_per_step, "KiB",
                     "(untraced loop, n=" + std::to_string(host.size()) +
                         " steps)"});
      out.push_back({"trace.overhead_ms_per_step",
                     (p50_traced - p50_plain) / 1e6, "ms",
                     "(traced p50 - untraced p50, n=" +
                         std::to_string(host.size()) + " untraced)"});
      if (!log.write_chrome_json(args.trace_out)) {
        ledger.fail(0, "cannot write " + args.trace_out);
      } else {
        std::printf("%zu spans written to %s\n", log.spans().size(),
                    args.trace_out.c_str());
      }
    }
  } catch (const tidacc::Error& e) {
    ledger.fail(1, std::string("tidacc::Error: ") + e.what());
    ++ledger.attempted;
  }

  if (!args.trace) {
    // Printed for the record; failures also fail the run below.
    std::printf("metric %-36s %16.6f %-8s (n=%llu steps attempted)\n",
                "failed_step_frac",
                ratio(static_cast<double>(ledger.failed),
                      static_cast<double>(ledger.attempted)),
                "ratio", static_cast<unsigned long long>(ledger.attempted));
  }
  print_metrics(out);
  for (const std::string& p : ledger.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = ledger.problems.empty();
  print_result(correct, ledger, out);
  return correct ? 0 : 1;
}

#include "core/device_pool.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "cuem/san.hpp"
#include "sim/snapshot.hpp"
#include "oacc/oacc.hpp"

namespace tidacc::core {

namespace {

int discover_slot_count(std::size_t slot_bytes, int num_regions,
                        int max_slots, bool with_scratch) {
  TIDACC_CHECK_MSG(slot_bytes > 0, "slot size must be positive");
  TIDACC_CHECK_MSG(num_regions > 0, "need at least one region");
  TIDACC_CHECK_MSG(max_slots > 0, "max_slots must be positive");
  std::size_t free_bytes = 0;
  std::size_t total_bytes = 0;
  CUEM_CHECK(cuemMemGetInfo(&free_bytes, &total_bytes));
  // A scratch double buffer doubles what one slot costs the device.
  const std::size_t per_slot = with_scratch ? 2 * slot_bytes : slot_bytes;
  const int fits = static_cast<int>(
      std::min<std::size_t>(free_bytes / per_slot, 1u << 20));
  const int slots = std::min({num_regions, fits, max_slots});
  TIDACC_CHECK_MSG(
      slots >= 1,
      "device memory cannot hold even one region buffer — choose a smaller "
      "region size");
  return slots;
}

}  // namespace

DevicePool::DevicePool(std::size_t slot_bytes, int num_regions, int max_slots,
                       std::unique_ptr<SlotPolicy> policy, bool with_scratch)
    : slot_bytes_(slot_bytes),
      num_regions_(num_regions),
      cache_(discover_slot_count(slot_bytes, num_regions, max_slots,
                                 with_scratch)),
      sched_(cache_.num_slots(), num_regions, std::move(policy)) {
  slots_.reserve(static_cast<size_t>(cache_.num_slots()));
  perm_.reserve(static_cast<size_t>(cache_.num_slots()));
  for (int s = 0; s < cache_.num_slots(); ++s) {
    void* ptr = nullptr;
    const cuemError_t err = cuemMalloc(&ptr, slot_bytes_);
    TIDACC_CHECK_MSG(err == cuemSuccess,
                     "device allocation failed after capacity discovery");
    slots_.push_back(ptr);
    if (cuem::san::enabled()) {
      CUEM_CHECK(cuemSanAnnotate(ptr, ("slot:S" + std::to_string(s)).c_str()));
    }
    if (with_scratch) {
      void* sp = nullptr;
      const cuemError_t serr = cuemMalloc(&sp, slot_bytes_);
      TIDACC_CHECK_MSG(serr == cuemSuccess,
                       "scratch allocation failed after capacity discovery");
      scratch_.push_back(sp);
      if (cuem::san::enabled()) {
        CUEM_CHECK(
            cuemSanAnnotate(sp, ("scratch:S" + std::to_string(s)).c_str()));
      }
    }
    // Materialize the slot's stream eagerly (paper: each device memory
    // pointer has a CUDA stream assigned to it at setup).
    streams_.push_back(oacc::get_cuem_stream(s));
    perm_.push_back(s);
  }
  if (with_scratch) {
    swapped_.assign(static_cast<size_t>(cache_.num_slots()), 0);
  }
  TIDACC_LOG(kInfo) << "DevicePool: " << num_slots() << " slot(s) of "
                    << slot_bytes_ << " B for " << num_regions_
                    << " region(s)"
                    << (with_scratch ? " (+scratch double buffers)" : "");
}

DevicePool::~DevicePool() {
  // cudaFree synchronizes with outstanding work on the freed memory; drain
  // each slot's stream before releasing its buffer so in-flight transfers
  // and kernels never outlive their target. Best effort throughout: the
  // platform may have been rebuilt underneath us during test
  // reconfiguration, in which case streams and pointers are already gone
  // and both calls return handle errors we deliberately ignore.
  for (const cuemStream_t s : streams_) {
    (void)cuemStreamSynchronize(s);
  }
  for (void* ptr : slots_) {
    (void)cuemFree(ptr);
  }
  for (void* ptr : scratch_) {
    (void)cuemFree(ptr);
  }
}

void* DevicePool::slot_ptr(int slot) const {
  TIDACC_CHECK_MSG(slot >= 0 && slot < num_slots(), "slot out of range");
  return slots_[static_cast<size_t>(slot)];
}

int DevicePool::slot_of_region(int region) const {
  TIDACC_CHECK_MSG(region >= 0 && region < num_regions_,
                   "region id out of range");
  return sched_.slot_of(region);
}

int DevicePool::place_region(int region) {
  TIDACC_CHECK_MSG(region >= 0 && region < num_regions_,
                   "region id out of range");
  return sched_.place(region, cache_);
}

int DevicePool::place_prefetch(int region) {
  TIDACC_CHECK_MSG(region >= 0 && region < num_regions_,
                   "region id out of range");
  return sched_.place_prefetch(region, cache_);
}

cuemStream_t DevicePool::stream_of_slot(int slot) const {
  TIDACC_CHECK_MSG(slot >= 0 && slot < num_slots(), "slot out of range");
  return streams_[static_cast<size_t>(slot)];
}

void* DevicePool::scratch_ptr(int slot) const {
  TIDACC_CHECK_MSG(slot >= 0 && slot < num_slots(), "slot out of range");
  TIDACC_CHECK_MSG(has_scratch(), "pool was built without scratch buffers");
  return scratch_[static_cast<size_t>(slot)];
}

void DevicePool::swap_slot_buffers(int slot) {
  TIDACC_CHECK_MSG(slot >= 0 && slot < num_slots(), "slot out of range");
  TIDACC_CHECK_MSG(has_scratch(), "pool was built without scratch buffers");
  std::swap(slots_[static_cast<size_t>(slot)],
            scratch_[static_cast<size_t>(slot)]);
  swapped_[static_cast<size_t>(slot)] ^= 1;
}

void DevicePool::set_stream_permutation(const std::vector<int>& perm) {
  TIDACC_CHECK_MSG(static_cast<int>(perm.size()) == num_slots(),
                   "stream permutation size must match the slot count");
  std::vector<char> seen(perm.size(), 0);
  for (const int q : perm) {
    TIDACC_CHECK_MSG(q >= 0 && q < num_slots() && !seen[static_cast<size_t>(q)],
                     "stream permutation must be a bijection over the slots");
    seen[static_cast<size_t>(q)] = 1;
  }
  for (int s = 0; s < num_slots(); ++s) {
    const int old_q = perm_[static_cast<size_t>(s)];
    const int new_q = perm[static_cast<size_t>(s)];
    if (old_q == new_q) {
      continue;
    }
    // Work already queued for this slot sits on the old stream; make the
    // new stream wait for it so the remap never reorders the slot's ops.
    const cuemStream_t from = oacc::get_cuem_stream(old_q);
    const cuemStream_t to = oacc::get_cuem_stream(new_q);
    cuemEvent_t ev = 0;
    CUEM_CHECK(cuemEventCreate(&ev));
    CUEM_CHECK(cuemEventRecord(ev, from));
    CUEM_CHECK(cuemStreamWaitEvent(to, ev, 0));
    CUEM_CHECK(cuemEventDestroy(ev));
  }
  perm_ = perm;
  for (int s = 0; s < num_slots(); ++s) {
    streams_[static_cast<size_t>(s)] =
        oacc::get_cuem_stream(perm_[static_cast<size_t>(s)]);
  }
}

void DevicePool::capture(sim::SnapshotWriter& w) const {
  w.section("device_pool");
  w.put_u64(slot_bytes_);
  w.put_int(num_regions_);
  w.put_int(num_slots());
  w.put_int(has_scratch() ? 1 : 0);
  if (has_scratch()) {
    for (int s = 0; s < num_slots(); ++s) {
      w.put_int(swapped_[static_cast<size_t>(s)] ? 1 : 0);
    }
  }
  for (int s = 0; s < num_slots(); ++s) {
    w.put_int(perm_[static_cast<size_t>(s)]);
  }
  cache_.capture(w);
  sched_.capture(w);
}

void DevicePool::restore(sim::SnapshotReader& r) {
  r.section("device_pool");
  TIDACC_CHECK_MSG(static_cast<std::size_t>(r.get_u64()) == slot_bytes_,
                   "device-pool snapshot has a different slot size");
  TIDACC_CHECK_MSG(r.get_int() == num_regions_,
                   "device-pool snapshot has a different region count");
  TIDACC_CHECK_MSG(r.get_int() == num_slots(),
                   "device-pool snapshot has a different slot count");
  TIDACC_CHECK_MSG((r.get_int() != 0) == has_scratch(),
                   "device-pool snapshot differs in scratch configuration");
  if (has_scratch()) {
    // The cuem snapshot restores allocation *contents* by address; the
    // primary/scratch pointer parity is ours to restore, so the data the
    // snapshot wrote to the primary buffer is again reachable via
    // slot_ptr().
    for (int s = 0; s < num_slots(); ++s) {
      const char want = static_cast<char>(r.get_int() != 0);
      if (swapped_[static_cast<size_t>(s)] != want) {
        std::swap(slots_[static_cast<size_t>(s)],
                  scratch_[static_cast<size_t>(s)]);
        swapped_[static_cast<size_t>(s)] = want;
      }
    }
  }
  // The platform's streams/events were restored wholesale, so the remap
  // needs no ordering edges here — just the bookkeeping.
  for (int s = 0; s < num_slots(); ++s) {
    perm_[static_cast<size_t>(s)] = r.get_int();
    streams_[static_cast<size_t>(s)] =
        oacc::get_cuem_stream(perm_[static_cast<size_t>(s)]);
  }
  cache_.restore(r);
  sched_.restore(r);
}

}  // namespace tidacc::core

#include "core/cache_table.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "sim/snapshot.hpp"

namespace tidacc::core {

namespace {

/// Records region → slot in a reverse index, growing it as needed; returns
/// the slot the index held for `region` before (-1 if none).
int index_region(std::vector<int>& slot_of_region, int region, int slot) {
  if (static_cast<size_t>(region) >= slot_of_region.size()) {
    slot_of_region.resize(static_cast<size_t>(region) + 1, -1);
  }
  return std::exchange(slot_of_region[static_cast<size_t>(region)], slot);
}

}  // namespace

CacheTable::CacheTable(int slots) {
  TIDACC_CHECK_MSG(slots > 0, "cache table needs at least one slot");
  resident_.assign(static_cast<size_t>(slots), -1);
  last_used_.assign(static_cast<size_t>(slots), 0);
}

int CacheTable::resident(int slot) const {
  check_slot(slot);
  return resident_[static_cast<size_t>(slot)];
}

void CacheTable::set(int slot, int region) {
  check_slot(slot);
  TIDACC_CHECK_MSG(region >= 0, "invalid region id");
  const int held = slot_holding(region);
  TIDACC_CHECK_MSG(held == -1 || held == slot,
                   "region already resident in another slot");
  evict(slot);
  index_region(slot_of_region_, region, slot);
  resident_[static_cast<size_t>(slot)] = region;
  touch(slot);
}

void CacheTable::touch(int slot) {
  check_slot(slot);
  last_used_[static_cast<size_t>(slot)] = ++clock_;
}

std::uint64_t CacheTable::last_used(int slot) const {
  check_slot(slot);
  return last_used_[static_cast<size_t>(slot)];
}

void CacheTable::evict(int slot) {
  check_slot(slot);
  int& region = resident_[static_cast<size_t>(slot)];
  if (region >= 0) {
    slot_of_region_[static_cast<size_t>(region)] = -1;
  }
  region = -1;
}

int CacheTable::slot_holding(int region) const {
  if (region < 0 || static_cast<size_t>(region) >= slot_of_region_.size()) {
    return -1;
  }
  return slot_of_region_[static_cast<size_t>(region)];
}

int CacheTable::occupied() const {
  return static_cast<int>(
      std::count_if(resident_.begin(), resident_.end(),
                    [](int r) { return r >= 0; }));
}

void CacheTable::check_slot(int slot) const {
  TIDACC_CHECK_MSG(slot >= 0 && slot < num_slots(), "slot out of range");
}

void CacheTable::capture(sim::SnapshotWriter& w) const {
  w.section("cache_table");
  w.put_int_vec(resident_);
  w.put_u64_vec(last_used_);
  w.put_u64(clock_);
}

void CacheTable::restore(sim::SnapshotReader& r) {
  r.section("cache_table");
  std::vector<int> resident = r.get_int_vec();
  TIDACC_CHECK_MSG(resident.size() == resident_.size(),
                   "cache-table snapshot has a different slot count");
  std::vector<int> slot_of_region;
  for (size_t s = 0; s < resident.size(); ++s) {
    if (resident[s] < 0) {
      continue;
    }
    TIDACC_CHECK_MSG(index_region(slot_of_region, resident[s],
                                  static_cast<int>(s)) == -1,
                     "cache-table snapshot holds a region in two slots");
  }
  std::vector<std::uint64_t> last_used = r.get_u64_vec();
  TIDACC_CHECK_MSG(last_used.size() == resident.size(),
                   "cache-table snapshot is inconsistent");
  resident_ = std::move(resident);
  slot_of_region_ = std::move(slot_of_region);
  last_used_ = std::move(last_used);
  clock_ = r.get_u64();
}

const char* to_string(Loc l) {
  switch (l) {
    case Loc::kUninit:
      return "uninit";
    case Loc::kHost:
      return "host";
    case Loc::kDevice:
      return "device";
  }
  return "?";
}

LocationTracker::LocationTracker(int regions) {
  TIDACC_CHECK_MSG(regions > 0, "need at least one region");
  loc_.assign(static_cast<size_t>(regions), Loc::kUninit);
}

Loc LocationTracker::location(int region) const {
  check_region(region);
  return loc_[static_cast<size_t>(region)];
}

void LocationTracker::set(int region, Loc loc) {
  check_region(region);
  loc_[static_cast<size_t>(region)] = loc;
}

bool LocationTracker::any_on_device() const {
  return std::any_of(loc_.begin(), loc_.end(),
                     [](Loc l) { return l == Loc::kDevice; });
}

void LocationTracker::check_region(int region) const {
  TIDACC_CHECK_MSG(region >= 0 && region < static_cast<int>(loc_.size()),
                   "region id out of range");
}

void LocationTracker::capture(sim::SnapshotWriter& w) const {
  w.section("location_tracker");
  w.put_u64(loc_.size());
  for (Loc l : loc_) w.put_int(static_cast<int>(l));
}

void LocationTracker::restore(sim::SnapshotReader& r) {
  r.section("location_tracker");
  const std::uint64_t n = r.get_u64();
  TIDACC_CHECK_MSG(n == loc_.size(),
                   "location-tracker snapshot has a different region count");
  for (Loc& l : loc_) l = static_cast<Loc>(r.get_int());
}

}  // namespace tidacc::core

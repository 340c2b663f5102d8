// Unit tests for the TiDA-acc bookkeeping: CacheTable, LocationTracker,
// DevicePool (capacity discovery, slot mapping, stream assignment) and the
// SlotScheduler policies (static modulo, LRU, Belady oracle, prefetch
// pinning).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/cache_table.hpp"
#include "core/device_pool.hpp"
#include "core/slot_policy.hpp"
#include "cuem/cuem.hpp"
#include "oacc/oacc.hpp"
#include "sim/snapshot.hpp"

namespace tidacc::core {
namespace {

using sim::DeviceConfig;

// --- CacheTable ---

TEST(CacheTable, StartsEmpty) {
  CacheTable c(4);
  EXPECT_EQ(c.num_slots(), 4);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(c.resident(s), -1);  // the paper's initial -1 values
  }
  EXPECT_EQ(c.occupied(), 0);
}

TEST(CacheTable, SetAndEvict) {
  CacheTable c(2);
  c.set(0, 7);
  EXPECT_EQ(c.resident(0), 7);
  EXPECT_EQ(c.occupied(), 1);
  c.evict(0);
  EXPECT_EQ(c.resident(0), -1);
  EXPECT_EQ(c.occupied(), 0);
}

TEST(CacheTable, SlotHolding) {
  CacheTable c(3);
  c.set(2, 5);
  EXPECT_EQ(c.slot_holding(5), 2);
  EXPECT_EQ(c.slot_holding(4), -1);
}

TEST(CacheTable, RegionCannotOccupyTwoSlots) {
  CacheTable c(2);
  c.set(0, 3);
  EXPECT_THROW(c.set(1, 3), Error);
  c.set(0, 3);  // re-setting the same slot is fine
}

TEST(CacheTable, ReplacingResidentWithoutEvictIsAllowed) {
  CacheTable c(1);
  c.set(0, 1);
  c.set(0, 2);  // overwrite (caller handled the victim)
  EXPECT_EQ(c.resident(0), 2);
}

/// The reverse index agrees with a scan of resident() for regions 0..n-1.
void expect_index_consistent(const CacheTable& c, int regions) {
  for (int r = 0; r < regions; ++r) {
    int scan = -1;
    for (int s = 0; s < c.num_slots(); ++s) {
      if (c.resident(s) == r) {
        scan = s;
      }
    }
    EXPECT_EQ(c.slot_holding(r), scan) << "region " << r;
  }
}

TEST(CacheTable, ReverseIndexFollowsSetEvictAndOverwrite) {
  CacheTable c(3);
  EXPECT_EQ(c.slot_holding(0), -1);
  EXPECT_EQ(c.slot_holding(1000), -1);  // never seen: outside the index
  EXPECT_EQ(c.slot_holding(-1), -1);
  c.set(0, 4);
  c.set(2, 9);
  EXPECT_EQ(c.slot_holding(4), 0);
  EXPECT_EQ(c.slot_holding(9), 2);
  expect_index_consistent(c, 12);
  c.set(0, 1);  // overwrite: region 4 leaves slot 0
  EXPECT_EQ(c.slot_holding(4), -1);
  EXPECT_EQ(c.slot_holding(1), 0);
  c.set(1, 4);  // and may now move into another slot
  EXPECT_EQ(c.slot_holding(4), 1);
  expect_index_consistent(c, 12);
  c.evict(2);
  EXPECT_EQ(c.slot_holding(9), -1);
  c.evict(2);  // evicting an empty slot is a no-op
  expect_index_consistent(c, 12);
  c.set(2, 9);
  EXPECT_EQ(c.slot_holding(9), 2);
  expect_index_consistent(c, 12);
}

TEST(CacheTable, RestoreRebuildsReverseIndex) {
  CacheTable c(4);
  c.set(0, 3);
  c.set(1, 7);
  c.set(3, 0);
  c.touch(1);
  sim::SnapshotWriter w;
  c.capture(w);

  CacheTable back(4);
  back.set(2, 3);  // stale residency the restore must replace
  back.set(0, 5);
  sim::SnapshotReader r(w.buffer());
  back.restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back.slot_holding(3), 0);
  EXPECT_EQ(back.slot_holding(7), 1);
  EXPECT_EQ(back.slot_holding(0), 3);
  EXPECT_EQ(back.slot_holding(5), -1);
  expect_index_consistent(back, 10);
  back.set(2, 5);  // the index keeps working after the restore
  EXPECT_EQ(back.slot_holding(5), 2);
  expect_index_consistent(back, 10);
}

TEST(CacheTable, SnapshotBytesCarryOnlyResidencyStampsAndClock) {
  CacheTable c(3);
  c.set(0, 2);
  c.set(2, 6);
  c.touch(0);
  c.evict(2);
  // The format: residency, access stamps, clock — no reverse index.
  sim::SnapshotWriter expected;
  expected.section("cache_table");
  expected.put_int_vec({2, -1, -1});
  expected.put_u64_vec({3, 0, 2});
  expected.put_u64(3);

  sim::SnapshotWriter w;
  c.capture(w);
  EXPECT_EQ(w.buffer(), expected.buffer());

  CacheTable back(3);
  sim::SnapshotReader r(w.buffer());
  back.restore(r);
  sim::SnapshotWriter again;
  back.capture(again);
  EXPECT_EQ(again.buffer(), expected.buffer());
}

TEST(CacheTable, RestoreRejectsRegionInTwoSlots) {
  sim::SnapshotWriter w;
  w.section("cache_table");
  w.put_int_vec({4, 4});
  w.put_u64_vec({1, 2});
  w.put_u64(2);
  CacheTable c(2);
  c.set(1, 8);
  sim::SnapshotReader r(w.buffer());
  EXPECT_THROW(c.restore(r), Error);
  EXPECT_EQ(c.slot_holding(8), 1);  // a failed restore leaves the table
  expect_index_consistent(c, 10);
}

TEST(CacheTable, BoundsChecked) {
  CacheTable c(2);
  EXPECT_THROW(c.resident(-1), Error);
  EXPECT_THROW(c.resident(2), Error);
  EXPECT_THROW(c.set(5, 0), Error);
  EXPECT_THROW(c.set(0, -2), Error);
  EXPECT_THROW(CacheTable(0), Error);
}

// --- LocationTracker ---

TEST(LocationTracker, DefaultsToUninitialized) {
  LocationTracker t(3);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(t.location(r), Loc::kUninit);
  }
  EXPECT_FALSE(t.any_on_device());
}

TEST(LocationTracker, SetAndQuery) {
  LocationTracker t(3);
  t.set(1, Loc::kDevice);
  EXPECT_EQ(t.location(1), Loc::kDevice);
  EXPECT_TRUE(t.any_on_device());
  t.set(1, Loc::kHost);
  EXPECT_FALSE(t.any_on_device());
}

TEST(LocationTracker, BoundsChecked) {
  LocationTracker t(2);
  EXPECT_THROW(t.location(2), Error);
  EXPECT_THROW(t.set(-1, Loc::kHost), Error);
  EXPECT_THROW(LocationTracker(0), Error);
}

TEST(LocationTracker, ToString) {
  EXPECT_STREQ(to_string(Loc::kUninit), "uninit");
  EXPECT_STREQ(to_string(Loc::kHost), "host");
  EXPECT_STREQ(to_string(Loc::kDevice), "device");
}

// --- DevicePool ---

class DevicePoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/true);
    oacc::reset();
  }
};

TEST_F(DevicePoolTest, OneToOneWhenMemoryIsPlentiful) {
  DevicePool pool(1 * kMiB, 8, /*max_slots=*/1 << 20);
  EXPECT_EQ(pool.num_slots(), 8);
  EXPECT_TRUE(pool.one_to_one());
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(pool.slot_of_region(r), r);
  }
}

TEST_F(DevicePoolTest, LimitedMemoryReducesSlots) {
  cuem::configure(DeviceConfig::k40m_limited(3 * kMiB), true);
  oacc::reset();
  DevicePool pool(1 * kMiB, 8, 1 << 20);
  EXPECT_EQ(pool.num_slots(), 3);
  EXPECT_FALSE(pool.one_to_one());
  EXPECT_EQ(pool.slot_of_region(0), 0);
  EXPECT_EQ(pool.slot_of_region(3), 0);  // modulo mapping shares slots
  EXPECT_EQ(pool.slot_of_region(7), 1);
}

TEST_F(DevicePoolTest, MaxSlotsCapRespected) {
  DevicePool pool(1 * kMiB, 16, /*max_slots=*/2);
  EXPECT_EQ(pool.num_slots(), 2);
}

TEST_F(DevicePoolTest, ThrowsWhenNothingFits) {
  cuem::configure(DeviceConfig::k40m_limited(1 * kMiB), true);
  oacc::reset();
  EXPECT_THROW(DevicePool(2 * kMiB, 4, 1 << 20), Error);
}

TEST_F(DevicePoolTest, SlotsAreDistinctDevicePointers) {
  DevicePool pool(64 * kKiB, 4, 1 << 20);
  std::set<void*> ptrs;
  for (int s = 0; s < pool.num_slots(); ++s) {
    EXPECT_TRUE(cuem::is_device_ptr(pool.slot_ptr(s)));
    EXPECT_TRUE(ptrs.insert(pool.slot_ptr(s)).second);
  }
}

TEST_F(DevicePoolTest, StreamsPerSlotDistinctAndShared) {
  DevicePool a(64 * kKiB, 4, 1 << 20);
  std::set<cuemStream_t> streams;
  for (int s = 0; s < a.num_slots(); ++s) {
    EXPECT_TRUE(streams.insert(a.stream_of_slot(s)).second);
    EXPECT_NE(a.stream_of_slot(s), 0);  // never the default stream
  }
  // A sibling pool reuses the same per-slot streams (OpenACC queue map),
  // so transfers and kernels of sibling arrays serialize correctly.
  DevicePool b(32 * kKiB, 4, 1 << 20);
  for (int s = 0; s < b.num_slots(); ++s) {
    EXPECT_EQ(b.stream_of_slot(s), a.stream_of_slot(s));
  }
}

TEST_F(DevicePoolTest, AccountsDeviceMemory) {
  const std::size_t before = cuem::device_bytes_in_use();
  {
    DevicePool pool(1 * kMiB, 4, 1 << 20);
    EXPECT_EQ(cuem::device_bytes_in_use(), before + 4 * kMiB);
  }
  EXPECT_EQ(cuem::device_bytes_in_use(), before);
}

TEST_F(DevicePoolTest, CacheSizedToSlots) {
  DevicePool pool(1 * kMiB, 8, 3);
  EXPECT_EQ(pool.cache().num_slots(), 3);
  EXPECT_EQ(pool.cache().resident(0), -1);
}

TEST_F(DevicePoolTest, InvalidArgumentsRejected) {
  EXPECT_THROW(DevicePool(0, 4, 4), Error);
  EXPECT_THROW(DevicePool(1024, 0, 4), Error);
  EXPECT_THROW(DevicePool(1024, 4, 0), Error);
  DevicePool pool(1024, 4, 4);
  EXPECT_THROW(pool.slot_ptr(9), Error);
  EXPECT_THROW(pool.slot_of_region(4), Error);
  EXPECT_THROW(pool.stream_of_slot(-1), Error);
}

// --- SlotPolicy / SlotScheduler ---

// The scheduler only decides; residency updates are the caller's job (in
// the library, AccTileArray::acquire_on_device / prefetch_to_device). The
// helpers below replay that caller protocol against a bare CacheTable.
int acquire(SlotScheduler& sched, CacheTable& cache, int region) {
  const int slot = sched.place(region, cache);
  if (cache.resident(slot) != region) {
    if (cache.resident(slot) != -1) {
      cache.evict(slot);
    }
    cache.set(slot, region);
  }
  return slot;
}

int prefetch(SlotScheduler& sched, CacheTable& cache, int region) {
  const int slot = sched.place_prefetch(region, cache);
  if (slot >= 0) {
    if (cache.resident(slot) != -1) {
      cache.evict(slot);
    }
    cache.set(slot, region);
  }
  return slot;
}

/// Misses a policy takes on `seq` with `slots` slots over `regions` regions.
int policy_misses(SlotPolicyKind kind, int slots, int regions,
                  const std::vector<int>& seq) {
  CacheTable cache(slots);
  SlotScheduler sched(slots, regions, make_slot_policy(kind));
  sched.set_future(seq);
  int misses = 0;
  for (const int r : seq) {
    misses += cache.slot_holding(r) == -1;
    acquire(sched, cache, r);
  }
  return misses;
}

/// Exhaustive offline-optimal miss count (tries every eviction choice) —
/// the ground truth Belady's greedy farthest-next-use must match.
int brute_force_min_misses(const std::vector<int>& seq, std::size_t pos,
                           std::vector<int> resident, int slots) {
  while (pos < seq.size() &&
         std::find(resident.begin(), resident.end(), seq[pos]) !=
             resident.end()) {
    ++pos;  // hits are free for every policy
  }
  if (pos == seq.size()) {
    return 0;
  }
  if (static_cast<int>(resident.size()) < slots) {
    resident.push_back(seq[pos]);
    return 1 + brute_force_min_misses(seq, pos + 1, std::move(resident),
                                      slots);
  }
  int best = static_cast<int>(seq.size()) + 1;
  for (std::size_t v = 0; v < resident.size(); ++v) {
    std::vector<int> next = resident;
    next[v] = seq[pos];
    best = std::min(best, brute_force_min_misses(seq, pos + 1,
                                                 std::move(next), slots));
  }
  return 1 + best;
}

TEST(SlotPolicy, ParseAndToString) {
  EXPECT_EQ(parse_slot_policy("static"), SlotPolicyKind::kStaticModulo);
  EXPECT_EQ(parse_slot_policy("modulo"), SlotPolicyKind::kStaticModulo);
  EXPECT_EQ(parse_slot_policy("lru"), SlotPolicyKind::kLru);
  EXPECT_EQ(parse_slot_policy("belady"), SlotPolicyKind::kBeladyOracle);
  EXPECT_EQ(parse_slot_policy("oracle"), SlotPolicyKind::kBeladyOracle);
  EXPECT_THROW(parse_slot_policy("fifo"), Error);
  EXPECT_STREQ(to_string(SlotPolicyKind::kStaticModulo), "static");
  EXPECT_STREQ(to_string(SlotPolicyKind::kLru), "lru");
  EXPECT_STREQ(to_string(SlotPolicyKind::kBeladyOracle), "belady");
  for (const auto kind :
       {SlotPolicyKind::kStaticModulo, SlotPolicyKind::kLru,
        SlotPolicyKind::kBeladyOracle}) {
    EXPECT_EQ(make_slot_policy(kind)->kind(), kind);
    EXPECT_EQ(parse_slot_policy(to_string(kind)), kind);
  }
}

TEST(SlotPolicy, StaticModuloMatchesThePaperMapping) {
  CacheTable cache(3);
  SlotScheduler sched(3, 8,
                      make_slot_policy(SlotPolicyKind::kStaticModulo));
  EXPECT_EQ(sched.policy_kind(), SlotPolicyKind::kStaticModulo);
  for (const int r : {0, 5, 2, 7, 5, 1, 6}) {
    EXPECT_EQ(acquire(sched, cache, r), r % 3);
    EXPECT_EQ(sched.slot_of(r), r % 3);
  }
}

TEST(SlotPolicy, DefaultPolicyIsStaticModulo) {
  SlotScheduler sched(2, 4, nullptr);
  EXPECT_EQ(sched.policy_kind(), SlotPolicyKind::kStaticModulo);
}

TEST(SlotPolicy, LruFillsEmptySlotsFirst) {
  CacheTable cache(3);
  SlotScheduler sched(3, 6, make_slot_policy(SlotPolicyKind::kLru));
  std::set<int> used;
  for (const int r : {4, 1, 5}) {
    used.insert(acquire(sched, cache, r));
  }
  EXPECT_EQ(used.size(), 3u);  // no eviction while a slot is free
}

TEST(SlotPolicy, LruEvictsLeastRecentlyUsed) {
  CacheTable cache(2);
  SlotScheduler sched(2, 4, make_slot_policy(SlotPolicyKind::kLru));
  const int s0 = acquire(sched, cache, 0);
  const int s1 = acquire(sched, cache, 1);
  // Region 0 is the oldest — region 2 must take its slot.
  EXPECT_EQ(acquire(sched, cache, 2), s0);
  // Hit on 1 refreshes it; the next miss evicts 2 (now the oldest).
  EXPECT_EQ(acquire(sched, cache, 1), s1);
  EXPECT_EQ(acquire(sched, cache, 3), s0);
  EXPECT_EQ(cache.slot_holding(2), -1);
  EXPECT_EQ(cache.slot_holding(1), s1);
}

TEST(SlotPolicy, LruResolvesHitsWithoutMoving) {
  CacheTable cache(2);
  SlotScheduler sched(2, 4, make_slot_policy(SlotPolicyKind::kLru));
  const int s = acquire(sched, cache, 3);
  EXPECT_EQ(acquire(sched, cache, 3), s);
  EXPECT_EQ(sched.slot_of(3), s);
  EXPECT_EQ(cache.occupied(), 1);
}

TEST(SlotPolicy, BeladyEvictsFarthestNextUse) {
  CacheTable cache(2);
  SlotScheduler sched(2, 3, make_slot_policy(SlotPolicyKind::kBeladyOracle));
  //           cursor:  0  1  2  3  4
  sched.set_future({0, 1, 2, 0, 1});
  const int s0 = acquire(sched, cache, 0);
  const int s1 = acquire(sched, cache, 1);
  // At cursor 2: region 0 next used at 3, region 1 at 4 — evict region 1.
  EXPECT_EQ(acquire(sched, cache, 2), s1);
  EXPECT_EQ(cache.slot_holding(0), s0);
}

TEST(SlotPolicy, BeladyEvictsNeverUsedAgainFirst) {
  CacheTable cache(2);
  SlotScheduler sched(2, 3, make_slot_policy(SlotPolicyKind::kBeladyOracle));
  sched.set_future({0, 1, 2, 0, 0, 0});
  acquire(sched, cache, 0);
  const int s1 = acquire(sched, cache, 1);
  // Region 1 never appears after cursor 2 — it must be the victim even
  // though region 0 is older.
  EXPECT_EQ(acquire(sched, cache, 2), s1);
}

TEST(SlotPolicy, BeladyMatchesBruteForceOptimum) {
  // Greedy farthest-next-use is provably optimal; check it against an
  // exhaustive search over eviction choices on randomized sequences.
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 40; ++trial) {
    const int slots = 2 + static_cast<int>(trial % 2);
    const int regions = 4 + static_cast<int>(trial % 3);
    std::vector<int> seq(14);
    for (int& r : seq) {
      r = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(regions)));
    }
    const int belady =
        policy_misses(SlotPolicyKind::kBeladyOracle, slots, regions, seq);
    const int optimal = brute_force_min_misses(seq, 0, {}, slots);
    EXPECT_EQ(belady, optimal) << "trial " << trial;
    // And the oracle lower-bounds the online policies.
    EXPECT_LE(belady,
              policy_misses(SlotPolicyKind::kLru, slots, regions, seq));
    EXPECT_LE(belady, policy_misses(SlotPolicyKind::kStaticModulo, slots,
                                    regions, seq));
  }
}

TEST(SlotScheduler, PrefetchPinsUntilDemandConsumes) {
  CacheTable cache(3);
  SlotScheduler sched(3, 6, make_slot_policy(SlotPolicyKind::kLru));
  const int slot = prefetch(sched, cache, 4);
  ASSERT_GE(slot, 0);
  EXPECT_TRUE(sched.pinned(slot));
  EXPECT_EQ(sched.pinned_count(), 1);
  EXPECT_EQ(acquire(sched, cache, 4), slot);  // demand lands on the pin
  EXPECT_FALSE(sched.pinned(slot));
  EXPECT_EQ(sched.pinned_count(), 0);
}

TEST(SlotScheduler, PrefetchNeverEvictsInFlightRegion) {
  CacheTable cache(2);
  SlotScheduler sched(2, 6, make_slot_policy(SlotPolicyKind::kLru));
  const int a = prefetch(sched, cache, 0);
  const int b = prefetch(sched, cache, 1);
  EXPECT_NE(a, b);
  // Both slots carry un-consumed prefetches: a third must be refused, not
  // clobber either transfer.
  EXPECT_EQ(prefetch(sched, cache, 2), -1);
  EXPECT_EQ(cache.slot_holding(0), a);
  EXPECT_EQ(cache.slot_holding(1), b);
}

TEST(SlotScheduler, PrefetchSkipsRegionAlreadyResident) {
  CacheTable cache(2);
  SlotScheduler sched(2, 4, make_slot_policy(SlotPolicyKind::kLru));
  acquire(sched, cache, 1);
  EXPECT_EQ(prefetch(sched, cache, 1), -1);
}

TEST(SlotScheduler, PrefetchNeverEvictsTheComputingRegion) {
  CacheTable cache(2);
  SlotScheduler sched(2, 6, make_slot_policy(SlotPolicyKind::kLru));
  const int s0 = acquire(sched, cache, 0);
  // Region 0's kernel is the one in flight: the prefetch must take the
  // other slot even though slot s0 holds the LRU-oldest data.
  const int p = prefetch(sched, cache, 1);
  ASSERT_GE(p, 0);
  EXPECT_NE(p, s0);
  // With one slot computing and one in flight, nothing is evictable.
  EXPECT_EQ(prefetch(sched, cache, 2), -1);
}

TEST(SlotScheduler, StaticPrefetchRefusesConflictingSlot) {
  CacheTable cache(2);
  SlotScheduler sched(2, 8,
                      make_slot_policy(SlotPolicyKind::kStaticModulo));
  const int p3 = prefetch(sched, cache, 3);
  EXPECT_EQ(p3, 1);  // forced mapping: 3 % 2
  EXPECT_EQ(prefetch(sched, cache, 5), -1);  // 5 % 2 collides with the pin
  // The demanded region always wins over a conflicting in-flight prefetch.
  EXPECT_EQ(acquire(sched, cache, 1), 1);
  EXPECT_FALSE(sched.pinned(1));
}

TEST(SlotScheduler, DemandPrefersUnpinnedSlots) {
  CacheTable cache(2);
  SlotScheduler sched(2, 6, make_slot_policy(SlotPolicyKind::kLru));
  const int s0 = acquire(sched, cache, 0);
  const int p = prefetch(sched, cache, 1);
  ASSERT_GE(p, 0);
  // A demand miss must not land on the in-flight slot while an unpinned
  // candidate exists — even the one holding the most recent data.
  EXPECT_EQ(acquire(sched, cache, 2), s0);
  EXPECT_TRUE(sched.pinned(p));
}

TEST(SlotScheduler, DemandDropsPinsOnlyWhenEverySlotIsPinned) {
  CacheTable cache(1);
  SlotScheduler sched(1, 4, make_slot_policy(SlotPolicyKind::kLru));
  // One slot: a prefetch pins it; a demand for another region has no
  // unpinned candidate and must proceed anyway (correctness first).
  ASSERT_EQ(prefetch(sched, cache, 0), 0);
  EXPECT_EQ(acquire(sched, cache, 1), 0);
  EXPECT_FALSE(sched.pinned(0));
}

TEST(SlotScheduler, RejectsInvalidArguments) {
  CacheTable cache(2);
  SlotScheduler sched(2, 4, make_slot_policy(SlotPolicyKind::kLru));
  EXPECT_THROW(sched.place(-1, cache), Error);
  EXPECT_THROW(sched.place(4, cache), Error);
  EXPECT_THROW(sched.place_prefetch(7, cache), Error);
  EXPECT_THROW(sched.pinned(2), Error);
  EXPECT_THROW(SlotScheduler(0, 4, nullptr), Error);
  EXPECT_THROW(SlotScheduler(2, 0, nullptr), Error);
}

// --- DevicePool + scheduler integration ---

TEST_F(DevicePoolTest, PlaceRegionWithLruReusesAllSlots) {
  DevicePool pool(1 * kMiB, 8, /*max_slots=*/4,
                  make_slot_policy(SlotPolicyKind::kLru));
  std::set<int> used;
  for (int r = 0; r < 4; ++r) {
    const int slot = pool.place_region(r);
    pool.cache().set(slot, r);
    used.insert(slot);
  }
  EXPECT_EQ(used.size(), 4u);
  EXPECT_EQ(pool.scheduler().policy_kind(), SlotPolicyKind::kLru);
}

TEST_F(DevicePoolTest, DefaultSchedulerKeepsModuloMapping) {
  DevicePool pool(1 * kMiB, 8, /*max_slots=*/3);
  EXPECT_EQ(pool.scheduler().policy_kind(),
            SlotPolicyKind::kStaticModulo);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(pool.place_region(r), r % 3);
  }
}

}  // namespace
}  // namespace tidacc::core

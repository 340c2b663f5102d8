// AccTileArray — the paper's GPU-extended tileArray (TiDA-acc, §V).
//
// The one-device case of MultiAccTileArray (core/multi_acc_array.hpp),
// which implements the caching protocol of §IV-B4 and the dual-path ghost
// exchange of §IV-B6 for any device set. This facade keeps the paper's
// single-device interface: the AccOptions constructor, slot queries
// without a device ordinal, and the AccTile / AccTileIterator traversal
// that compute() consumes.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "core/multi_acc_array.hpp"
#include "tida/tile_iterator.hpp"

namespace tidacc::core {

template <typename T>
class AccTileArray : public MultiAccTileArray<T> {
 public:
  using Multi = MultiAccTileArray<T>;

  AccTileArray(const tida::Box& domain, const tida::Index3& region_size,
               int ghost, AccOptions opts = {})
      : Multi(domain, region_size, ghost, one_device(opts)) {}

  int num_slots() const { return Multi::num_slots(0); }
  int slot_of_region(int region) const {
    return this->pool_of(0).slot_of_region(region);
  }
  const CacheTable& cache() const { return Multi::cache(0); }
  const SlotScheduler& scheduler() const { return Multi::scheduler(0); }
  SlotPolicyKind slot_policy() const { return scheduler().policy_kind(); }

  /// Remaps slot→stream through the pool (see
  /// DevicePool::set_stream_permutation). Fuzzing/ablation hook.
  void set_stream_permutation(const std::vector<int>& perm) {
    Multi::set_stream_permutation(0, perm);
  }

 private:
  static MultiAccOptions one_device(const AccOptions& opts) {
    MultiAccOptions m;
    static_cast<AccOptions&>(m) = opts;
    m.devices = 1;
    return m;
  }
};

/// A tile bound to its AccTileArray plus the traversal's GPU flag — what
/// compute() consumes.
template <typename T>
struct AccTile {
  AccTileArray<T>* array = nullptr;
  tida::Tile<T> tile;
  bool gpu = false;
};

/// Tile iterator over an AccTileArray; tile() yields AccTiles carrying the
/// GPU flag set by reset(GPU=true) (paper §V).
template <typename T>
class AccTileIterator : public tida::TileIterator<T> {
 public:
  explicit AccTileIterator(AccTileArray<T>& array,
                           const tida::Index3& tile_size = {0, 0, 0})
      : tida::TileIterator<T>(array, tile_size), array_(&array) {}

  AccTile<T> tile() const {
    return AccTile<T>{array_, tida::TileIterator<T>::tile(), this->gpu()};
  }

  /// Binds the same traversal position to a sibling array (same geometry):
  /// the paper's multi-tile compute passes tiles of several arrays at the
  /// same iterator position.
  AccTile<T> tile_in(AccTileArray<T>& other) const {
    const tida::Tile<T> t = tida::TileIterator<T>::tile();
    TIDACC_CHECK_MSG(other.partition() == array_->partition(),
                     "sibling array must share the partition geometry");
    return AccTile<T>{&other,
                      tida::Tile<T>{other.region(t.region.id), t.box},
                      this->gpu()};
  }

 private:
  AccTileArray<T>* array_;
};

}  // namespace tidacc::core

// Simulator-internal node-id sets: the heap-backed DynamicNodeBitmap and
// the density-adaptive InterfererSet the radio's channel model runs on.
// (The query-packet wire format lives in node_set.h; the old fixed 128-bit
// NodeBitmap it replaced is gone.)
#ifndef SCOOP_COMMON_NODE_BITMAP_H_
#define SCOOP_COMMON_NODE_BITMAP_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace scoop {

/// Heap-backed bitmap over node ids, for simulator-internal sets (per-node
/// interferer sets, the active-transmitter set). This is not a wire format:
/// it has no node cap, so the radio layer can model networks of any size
/// (benchmarks run 10000 nodes).
class DynamicNodeBitmap {
 public:
  DynamicNodeBitmap() = default;

  /// Creates an empty set able to hold ids in [0, num_nodes).
  explicit DynamicNodeBitmap(int num_nodes)
      : words_((static_cast<size_t>(num_nodes) + 63) / 64, 0) {}

  /// Marks `id` as a member. `id` must be within capacity.
  void Set(NodeId id) {
    SCOOP_CHECK_LT(static_cast<size_t>(id) / 64, words_.size());
    words_[id / 64] |= (uint64_t{1} << (id % 64));
  }

  /// Removes `id` from the set. `id` must be within capacity.
  void Clear(NodeId id) {
    SCOOP_CHECK_LT(static_cast<size_t>(id) / 64, words_.size());
    words_[id / 64] &= ~(uint64_t{1} << (id % 64));
  }

  /// True iff `id` is a member (ids beyond capacity are never members).
  bool Test(NodeId id) const {
    size_t w = static_cast<size_t>(id) / 64;
    if (w >= words_.size()) return false;
    return (words_[w] >> (id % 64)) & 1;
  }

  /// Number of member ids.
  int Count() const {
    int total = 0;
    for (uint64_t w : words_) total += std::popcount(w);
    return total;
  }

  /// True iff no ids are members.
  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Calls `fn(id)` for each id in the intersection with `other`, in
  /// ascending id order, stopping early as soon as a call returns true.
  /// Returns true iff some call did. The radio's carrier sense uses this to
  /// scan only (active transmitters AND audible interferers).
  template <typename Fn>
  bool AnyOfIntersection(const DynamicNodeBitmap& other, Fn&& fn) const {
    size_t n = std::min(words_.size(), other.words_.size());
    for (size_t i = 0; i < n; ++i) {
      uint64_t bits = words_[i] & other.words_[i];
      while (bits != 0) {
        int b = std::countr_zero(bits);
        if (fn(static_cast<NodeId>(i * 64 + static_cast<size_t>(b)))) return true;
        bits &= bits - 1;
      }
    }
    return false;
  }

  /// Member ids in ascending order.
  std::vector<NodeId> ToVector() const {
    std::vector<NodeId> out;
    out.reserve(static_cast<size_t>(Count()));
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        int b = std::countr_zero(bits);
        out.push_back(static_cast<NodeId>(w * 64 + static_cast<size_t>(b)));
        bits &= bits - 1;
      }
    }
    return out;
  }

  friend bool operator==(const DynamicNodeBitmap& a, const DynamicNodeBitmap& b) {
    return a.words_ == b.words_;
  }

 private:
  std::vector<uint64_t> words_;
};

/// A per-receiver interferer set, stored in whichever form is smaller for
/// its density: a sorted sparse NodeId list when few senders are audible
/// (O(links) memory across all receivers -- grids and other constant-degree
/// regimes at large N), or a DynamicNodeBitmap above the density threshold
/// (the paper's ~20%-audible regime, where the bitmap is more compact and
/// word-parallel). Both forms answer the same queries with identical
/// ascending-id visitation order, so the radio's channel model is
/// bit-for-bit independent of the representation (equivalence-tested).
class InterfererSet {
 public:
  InterfererSet() = default;

  /// Sparse form wins on memory once fewer than 1/kSparseDensityDivisor of
  /// the universe is audible (2-byte entries vs. universe/8 bitmap bytes).
  static constexpr int kSparseDensityDivisor = 16;

  /// Builds from `ids` (strictly ascending) over [0, universe), picking the
  /// form by density.
  static InterfererSet Of(std::vector<NodeId> ids, int universe) {
    bool dense = static_cast<size_t>(universe) <
                 ids.size() * static_cast<size_t>(kSparseDensityDivisor);
    return OfForm(std::move(ids), universe, dense);
  }

  /// Forces a specific form regardless of density (equivalence tests).
  static InterfererSet OfForm(std::vector<NodeId> ids, int universe, bool dense) {
    InterfererSet set;
    if (dense) {
      set.dense_ = DynamicNodeBitmap(universe);
      for (NodeId id : ids) set.dense_.Set(id);
      set.dense_form_ = true;
    } else {
      set.sparse_ = std::move(ids);
    }
    return set;
  }

  bool is_dense() const { return dense_form_; }

  /// True iff `id` is a member.
  bool Test(NodeId id) const {
    if (dense_form_) return dense_.Test(id);
    return std::binary_search(sparse_.begin(), sparse_.end(), id);
  }

  /// Number of member ids.
  int Count() const {
    return dense_form_ ? dense_.Count() : static_cast<int>(sparse_.size());
  }

  /// Calls `fn(id)` for each member that is also set in `active`, in
  /// ascending id order, stopping early as soon as a call returns true.
  /// Returns true iff some call did (the radio's carrier sense).
  template <typename Fn>
  bool AnyActive(const DynamicNodeBitmap& active, Fn&& fn) const {
    if (dense_form_) return active.AnyOfIntersection(dense_, fn);
    for (NodeId id : sparse_) {
      if (active.Test(id) && fn(id)) return true;
    }
    return false;
  }

  /// Member ids in ascending order.
  std::vector<NodeId> ToVector() const {
    return dense_form_ ? dense_.ToVector() : sparse_;
  }

 private:
  std::vector<NodeId> sparse_;  ///< Sorted ascending; the default form.
  DynamicNodeBitmap dense_;
  bool dense_form_ = false;
};

}  // namespace scoop

#endif  // SCOOP_COMMON_NODE_BITMAP_H_

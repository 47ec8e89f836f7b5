// The storage index (§4, Figure 1): a versioned mapping from attribute
// values to the node that must store readings of that value. Stored as
// coalesced, sorted, non-overlapping value ranges; split into MTU-sized
// chunks for Trickle dissemination (§5.3).
#ifndef SCOOP_CORE_STORAGE_INDEX_H_
#define SCOOP_CORE_STORAGE_INDEX_H_

#include <optional>
#include <vector>

#include "common/types.h"
#include "net/wire.h"

namespace scoop::core {

/// Sentinel owner meaning "store this value at the node that produced it".
/// Used when the basestation decides a store-local policy is cheaper (§4).
inline constexpr NodeId kStoreLocalOwner = kInvalidNodeId;

/// An immutable storage index for one attribute.
class StorageIndex {
 public:
  /// Empty, invalid index (id == kNoIndex).
  StorageIndex() = default;

  /// Builds an index from a dense owner array: owners[i] owns value
  /// `domain_lo + i`. Consecutive equal owners are coalesced into ranges.
  static StorageIndex FromOwnerArray(IndexId id, AttrId attr, Value domain_lo,
                                     const std::vector<NodeId>& owners);

  /// Builds an index from explicit ranges (must be sorted, non-overlapping,
  /// and cover [domain_lo, domain_hi] exactly; checked).
  static StorageIndex FromRanges(IndexId id, AttrId attr,
                                 std::vector<RangeEntry> entries);

  /// Builds a multi-owner index (the §4 "owner sets" extension): ranges may
  /// overlap, giving each value several candidate owners in listed order.
  static StorageIndex FromOwnerSets(IndexId id, AttrId attr, Value domain_lo,
                                    const std::vector<std::vector<NodeId>>& owner_sets);

  /// True iff this index holds a usable mapping.
  bool valid() const { return id_ != kNoIndex && !entries_.empty(); }

  IndexId id() const { return id_; }
  AttrId attr() const { return attr_; }
  Value domain_lo() const {
    if (entries_.empty()) return 0;
    return multi_owner_ ? domain_lo_multi() : entries_.front().lo;
  }
  Value domain_hi() const {
    if (entries_.empty()) return 0;
    return multi_owner_ ? domain_hi_multi() : entries_.back().hi;
  }

  /// Owner of `v`. Values outside the domain clamp to the nearest range
  /// (sensor drift past the statistics window must still be storable).
  /// Returns nullopt only when the index is invalid. For multi-owner
  /// indices this is the first candidate; see LookupAll().
  std::optional<NodeId> Lookup(Value v) const;

  /// All candidate owners of `v` (one entry unless this is a multi-owner
  /// index). Empty only when the index is invalid.
  std::vector<NodeId> LookupAll(Value v) const;

  /// True iff built by FromOwnerSets (ranges may overlap).
  bool multi_owner() const { return multi_owner_; }

  /// All owners responsible for any value in [lo, hi] (deduplicated,
  /// ascending). Used by the basestation's query planner.
  std::vector<NodeId> OwnersInRange(Value lo, Value hi) const;

  /// The coalesced range entries, ascending by value.
  const std::vector<RangeEntry>& entries() const { return entries_; }

  /// Splits the index into dissemination chunks of at most
  /// `max_entries_per_chunk` ranges each.
  std::vector<MappingPayload> ToChunks(int max_entries_per_chunk) const;

  /// Reassembles an index from a complete chunk set (any order). Returns
  /// nullopt if chunks are missing/inconsistent.
  static std::optional<StorageIndex> FromChunks(const std::vector<MappingPayload>& chunks);

  /// Number of integer domain values whose first-choice owner (what
  /// Lookup() returns) is `owner`. Computed by walking the coalesced range
  /// entries -- O(entries), not O(domain) -- so metrics collection over
  /// wide domains stays cheap.
  int64_t OwnedValueCount(NodeId owner) const;

 private:
  Value domain_lo_multi() const;
  Value domain_hi_multi() const;

  IndexId id_ = kNoIndex;
  AttrId attr_ = 0;
  bool multi_owner_ = false;
  std::vector<RangeEntry> entries_;
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_STORAGE_INDEX_H_

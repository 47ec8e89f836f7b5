#include "core/storage_index.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/check.h"

namespace scoop::core {

StorageIndex StorageIndex::FromOwnerArray(IndexId id, AttrId attr, Value domain_lo,
                                          const std::vector<NodeId>& owners) {
  SCOOP_CHECK(!owners.empty());
  StorageIndex index;
  index.id_ = id;
  index.attr_ = attr;
  Value lo = domain_lo;
  NodeId current = owners[0];
  for (size_t i = 1; i < owners.size(); ++i) {
    if (owners[i] != current) {
      index.entries_.push_back(
          RangeEntry{lo, domain_lo + static_cast<Value>(i) - 1, current});
      lo = domain_lo + static_cast<Value>(i);
      current = owners[i];
    }
  }
  index.entries_.push_back(
      RangeEntry{lo, domain_lo + static_cast<Value>(owners.size()) - 1, current});
  return index;
}

StorageIndex StorageIndex::FromRanges(IndexId id, AttrId attr,
                                      std::vector<RangeEntry> entries) {
  SCOOP_CHECK(!entries.empty());
  std::sort(entries.begin(), entries.end(),
            [](const RangeEntry& a, const RangeEntry& b) { return a.lo < b.lo; });
  for (size_t i = 0; i < entries.size(); ++i) {
    SCOOP_CHECK_LE(entries[i].lo, entries[i].hi);
    if (i > 0) SCOOP_CHECK_EQ(entries[i].lo, entries[i - 1].hi + 1);
  }
  StorageIndex index;
  index.id_ = id;
  index.attr_ = attr;
  index.entries_ = std::move(entries);
  return index;
}

StorageIndex StorageIndex::FromOwnerSets(
    IndexId id, AttrId attr, Value domain_lo,
    const std::vector<std::vector<NodeId>>& owner_sets) {
  SCOOP_CHECK(!owner_sets.empty());
  size_t max_rank = 0;
  for (const auto& set : owner_sets) max_rank = std::max(max_rank, set.size());
  SCOOP_CHECK_GT(max_rank, 0u);

  StorageIndex index;
  index.id_ = id;
  index.attr_ = attr;
  index.multi_owner_ = max_rank > 1;
  // Rank-major: coalesce runs of equal owners within each preference rank.
  // Values lacking a rank simply split the run.
  for (size_t rank = 0; rank < max_rank; ++rank) {
    std::optional<Value> run_lo;
    NodeId run_owner = kInvalidNodeId;
    for (size_t i = 0; i <= owner_sets.size(); ++i) {
      bool has = i < owner_sets.size() && owner_sets[i].size() > rank;
      NodeId owner = has ? owner_sets[i][rank] : kInvalidNodeId;
      Value v = domain_lo + static_cast<Value>(i);
      if (run_lo.has_value() && (!has || owner != run_owner)) {
        index.entries_.push_back(RangeEntry{*run_lo, v - 1, run_owner});
        run_lo.reset();
      }
      if (has && !run_lo.has_value()) {
        run_lo = v;
        run_owner = owner;
      }
    }
  }
  return index;
}

std::optional<NodeId> StorageIndex::Lookup(Value v) const {
  if (!valid()) return std::nullopt;
  if (multi_owner_) {
    std::vector<NodeId> all = LookupAll(v);
    if (all.empty()) return std::nullopt;
    return all.front();
  }
  if (v <= entries_.front().hi) return entries_.front().owner;
  if (v >= entries_.back().lo) return entries_.back().owner;
  // Binary search for the range containing v.
  auto it = std::partition_point(entries_.begin(), entries_.end(),
                                 [v](const RangeEntry& e) { return e.hi < v; });
  SCOOP_CHECK(it != entries_.end());
  SCOOP_CHECK_LE(it->lo, v);
  return it->owner;
}

std::vector<NodeId> StorageIndex::LookupAll(Value v) const {
  if (!valid()) return {};
  if (!multi_owner_) {
    std::optional<NodeId> owner = Lookup(v);
    return owner.has_value() ? std::vector<NodeId>{*owner} : std::vector<NodeId>{};
  }
  // Multi-owner: entries are stored rank-major, so insertion order is the
  // preference order. Clamp out-of-domain values like Lookup().
  Value clamped = std::clamp(v, domain_lo_multi(), domain_hi_multi());
  std::vector<NodeId> out;
  for (const RangeEntry& e : entries_) {
    if (e.lo <= clamped && clamped <= e.hi) out.push_back(e.owner);
  }
  return out;
}

int64_t StorageIndex::OwnedValueCount(NodeId owner) const {
  if (!valid()) return 0;
  if (!multi_owner_) {
    // Entries are sorted, non-overlapping, and cover the domain exactly:
    // the owned count is the summed width of the matching ranges.
    int64_t owned = 0;
    for (const RangeEntry& e : entries_) {
      if (e.owner == owner) {
        owned += static_cast<int64_t>(e.hi) - static_cast<int64_t>(e.lo) + 1;
      }
    }
    return owned;
  }
  // Multi-owner: Lookup() returns the first entry in rank-major insertion
  // order that covers the value, so sweep the entry boundaries keeping the
  // set of covering entries; within a segment the winner is the smallest
  // entry index.
  std::vector<std::pair<Value, int>> events;  // (boundary, +idx+1 open / -idx-1 close)
  events.reserve(entries_.size() * 2);
  for (size_t i = 0; i < entries_.size(); ++i) {
    events.emplace_back(entries_[i].lo, static_cast<int>(i) + 1);
    SCOOP_CHECK_LT(entries_[i].hi, std::numeric_limits<Value>::max());
    events.emplace_back(entries_[i].hi + 1, -(static_cast<int>(i) + 1));
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::set<int> active;  // Entry indices covering the current segment.
  int64_t owned = 0;
  size_t k = 0;
  while (k < events.size()) {
    Value at = events[k].first;
    for (; k < events.size() && events[k].first == at; ++k) {
      int idx = events[k].second;
      if (idx > 0) {
        active.insert(idx - 1);
      } else {
        active.erase(-idx - 1);
      }
    }
    if (active.empty() || k == events.size()) continue;
    Value next = events[k].first;
    if (entries_[static_cast<size_t>(*active.begin())].owner == owner) {
      owned += static_cast<int64_t>(next) - static_cast<int64_t>(at);
    }
  }
  return owned;
}

Value StorageIndex::domain_lo_multi() const {
  Value lo = entries_.front().lo;
  for (const RangeEntry& e : entries_) lo = std::min(lo, e.lo);
  return lo;
}

Value StorageIndex::domain_hi_multi() const {
  Value hi = entries_.front().hi;
  for (const RangeEntry& e : entries_) hi = std::max(hi, e.hi);
  return hi;
}

std::vector<NodeId> StorageIndex::OwnersInRange(Value lo, Value hi) const {
  std::set<NodeId> owners;
  if (!valid() || lo > hi) return {};
  // Clamped semantics match Lookup(): out-of-domain values belong to the
  // edge ranges.
  for (const RangeEntry& e : entries_) {
    bool overlaps = e.lo <= hi && e.hi >= lo;
    bool clamped_low = (e.lo == domain_lo() && hi < domain_lo());
    bool clamped_high = (e.hi == domain_hi() && lo > domain_hi());
    if (overlaps || clamped_low || clamped_high) owners.insert(e.owner);
  }
  return {owners.begin(), owners.end()};
}

std::vector<MappingPayload> StorageIndex::ToChunks(int max_entries_per_chunk) const {
  SCOOP_CHECK_GT(max_entries_per_chunk, 0);
  SCOOP_CHECK(valid());
  int num_chunks =
      (static_cast<int>(entries_.size()) + max_entries_per_chunk - 1) / max_entries_per_chunk;
  SCOOP_CHECK_LE(num_chunks, 255);
  std::vector<MappingPayload> chunks;
  chunks.reserve(static_cast<size_t>(num_chunks));
  for (int c = 0; c < num_chunks; ++c) {
    MappingPayload chunk;
    chunk.index_id = id_;
    chunk.attr = attr_;
    chunk.chunk_idx = static_cast<uint8_t>(c);
    chunk.num_chunks = static_cast<uint8_t>(num_chunks);
    chunk.domain_lo = domain_lo();
    chunk.domain_hi = domain_hi();
    size_t begin = static_cast<size_t>(c) * static_cast<size_t>(max_entries_per_chunk);
    size_t end = std::min(entries_.size(), begin + static_cast<size_t>(max_entries_per_chunk));
    chunk.entries.assign(entries_.begin() + static_cast<long>(begin),
                         entries_.begin() + static_cast<long>(end));
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

std::optional<StorageIndex> StorageIndex::FromChunks(
    const std::vector<MappingPayload>& chunks) {
  if (chunks.empty()) return std::nullopt;
  uint8_t num_chunks = chunks[0].num_chunks;
  IndexId id = chunks[0].index_id;
  if (chunks.size() != num_chunks) return std::nullopt;
  std::vector<const MappingPayload*> ordered(num_chunks, nullptr);
  for (const MappingPayload& chunk : chunks) {
    if (chunk.index_id != id || chunk.num_chunks != num_chunks) return std::nullopt;
    if (chunk.chunk_idx >= num_chunks || ordered[chunk.chunk_idx] != nullptr) {
      return std::nullopt;
    }
    ordered[chunk.chunk_idx] = &chunk;
  }
  std::vector<RangeEntry> entries;
  for (const MappingPayload* chunk : ordered) {
    entries.insert(entries.end(), chunk->entries.begin(), chunk->entries.end());
  }
  if (entries.empty()) return std::nullopt;
  for (const RangeEntry& e : entries) {
    if (e.lo > e.hi) return std::nullopt;
  }
  // Contiguous entries form a plain index; anything else is a multi-owner
  // index (ranks are serialized in preference order, which chunk order
  // preserves).
  bool contiguous = true;
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].lo != entries[i - 1].hi + 1) {
      contiguous = false;
      break;
    }
  }
  if (contiguous) return FromRanges(id, chunks[0].attr, std::move(entries));
  StorageIndex index;
  index.id_ = id;
  index.attr_ = chunks[0].attr;
  index.multi_owner_ = true;
  index.entries_ = std::move(entries);
  return index;
}

}  // namespace scoop::core

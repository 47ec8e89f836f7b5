#include "net/descendants.h"

#include <algorithm>

namespace scoop::net {

namespace {

/// lower_bound comparator over id-sorted slots.
constexpr auto kIdLess = [](const auto& slot, NodeId id) { return slot.id < id; };

}  // namespace

DescendantsTable::DescendantsTable() {
  // Bounded table: one up-front allocation covers its whole lifetime.
  entries_.reserve(static_cast<size_t>(kCapacity));
}

std::vector<DescendantsTable::Slot>::const_iterator DescendantsTable::Find(NodeId id) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), id, kIdLess);
  return (it != entries_.end() && it->id == id) ? it : entries_.end();
}

void DescendantsTable::Learn(NodeId descendant, NodeId via_child, SimTime now) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), descendant, kIdLess);
  if (it != entries_.end() && it->id == descendant) {
    it->via_child = via_child;
    it->last_update = now;
    return;
  }
  if (static_cast<int>(entries_.size()) >= kCapacity) {
    EvictOldest();
    // Eviction shifted slots; recompute the insertion point.
    it = std::lower_bound(entries_.begin(), entries_.end(), descendant, kIdLess);
  }
  entries_.insert(it, Slot{descendant, via_child, now});
}

std::optional<NodeId> DescendantsTable::NextHop(NodeId dst) const {
  auto it = Find(dst);
  if (it == entries_.end()) return std::nullopt;
  return it->via_child;
}

void DescendantsTable::EvictStale(SimTime now) {
  std::erase_if(entries_,
                [now](const Slot& slot) { return now - slot.last_update > kEvictionTimeout; });
}

std::vector<NodeId> DescendantsTable::Ids() const {
  std::vector<NodeId> out;
  out.reserve(entries_.size());
  for (const Slot& slot : entries_) out.push_back(slot.id);
  return out;
}

void DescendantsTable::EvictOldest() {
  // Slots are in ascending id, so the first minimum of last_update is the
  // minimum of (last_update, id).
  auto oldest = std::min_element(entries_.begin(), entries_.end(),
                                 [](const Slot& a, const Slot& b) {
                                   return a.last_update < b.last_update;
                                 });
  if (oldest != entries_.end()) entries_.erase(oldest);
}

}  // namespace scoop::net

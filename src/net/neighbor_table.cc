#include "net/neighbor_table.h"

#include <algorithm>
#include <cmath>

namespace scoop::net {

NeighborTable::NeighborTable() {
  // Bounded table: one up-front allocation covers its whole lifetime.
  entries_.reserve(static_cast<size_t>(kCapacity));
}

std::vector<NeighborTable::Slot>::const_iterator NeighborTable::LowerBound(NodeId id) const {
  return std::lower_bound(entries_.begin(), entries_.end(), id,
                          [](const Slot& slot, NodeId key) { return slot.id < key; });
}

size_t NeighborTable::Locate(NodeId id, uint16_t in_link) const {
  size_t hinted = hint_[in_link % hint_.size()];
  if (hinted < entries_.size() && entries_[hinted].id == id) return hinted;
  auto it = LowerBound(id);
  return it != entries_.end() && it->id == id ? static_cast<size_t>(it - entries_.begin())
                                              : entries_.size();
}

void NeighborTable::OnPacketSeen(NodeId src, uint16_t seq, SimTime now, uint16_t in_link) {
  uint8_t& hint = HintFor(in_link);
  size_t pos = hint;
  if (pos >= entries_.size() || entries_[pos].id != src) {
    auto it = LowerBound(src);
    if (it == entries_.end() || it->id != src) {
      if (static_cast<int>(entries_.size()) >= kCapacity) {
        EvictWorst();
        it = LowerBound(src);  // Eviction shifted slots.
      }
      Entry entry;
      entry.last_seq = seq;
      entry.window_received = 1;
      entry.quality = kInitialQuality;
      entry.has_estimate = false;
      entry.last_heard = now;
      it = entries_.insert(it, Slot{src, entry});
      hint = static_cast<uint8_t>(it - entries_.begin());
      return;
    }
    pos = static_cast<size_t>(it - entries_.begin());
    hint = static_cast<uint8_t>(pos);
  }

  Entry& entry = entries_[pos].entry;
  entry.last_heard = now;
  uint16_t gap = static_cast<uint16_t>(seq - entry.last_seq);
  if (gap == 0) return;  // Link-layer retransmission; not a new packet.
  entry.last_seq = seq;
  entry.window_received += 1;
  // A gap of g means g-1 packets from this sender were missed. Huge gaps
  // (sender rebooted or we were deaf a long time) are clamped to the window.
  int missed = std::min<int>(gap - 1, kEstimationWindow);
  entry.window_missed += missed;

  if (entry.window_received + entry.window_missed >= kEstimationWindow) {
    double observed = static_cast<double>(entry.window_received) /
                      (entry.window_received + entry.window_missed);
    if (entry.has_estimate) {
      entry.quality = kEwmaAlpha * observed + (1 - kEwmaAlpha) * entry.quality;
    } else {
      entry.quality = observed;
      entry.has_estimate = true;
    }
    entry.window_received = 0;
    entry.window_missed = 0;
  }
}

void NeighborTable::OnReverseReport(NodeId neighbor, double quality_they_hear_us,
                                    uint16_t in_link) {
  size_t pos = Locate(neighbor, in_link);
  if (pos == entries_.size()) return;  // Only track reports from known neighbors.
  Entry& entry = entries_[pos].entry;
  if (entry.has_reverse) {
    entry.reverse_quality =
        kEwmaAlpha * quality_they_hear_us + (1 - kEwmaAlpha) * entry.reverse_quality;
  } else {
    entry.reverse_quality = quality_they_hear_us;
    entry.has_reverse = true;
  }
}

std::optional<double> NeighborTable::TrackedQuality(NodeId src) const {
  size_t pos = Locate(src, kNoInLink);
  if (pos == entries_.size()) return std::nullopt;
  return entries_[pos].entry.quality;
}

double NeighborTable::UnicastQuality(NodeId dst, uint16_t in_link) const {
  size_t pos = Locate(dst, in_link);
  if (pos == entries_.size()) return 0.0;
  const Entry& e = entries_[pos].entry;
  double out = e.has_reverse ? e.reverse_quality : e.quality;
  // The ACK returns on the inbound link; ACK frames are short, so their
  // loss is sub-linear in the link's packet loss.
  return out * std::sqrt(std::max(e.quality, 0.0));
}

std::vector<NeighborEntry> NeighborTable::BestNeighbors(int k) const {
  // Rank compact (quality, position) pairs on the stack: quality
  // descending, ties broken by ascending id, which for id-sorted slots is
  // ascending position.
  struct Ranked {
    double quality;
    uint8_t pos;
  };
  std::array<Ranked, kCapacity> ranked;
  size_t n = entries_.size();
  for (size_t i = 0; i < n; ++i) {
    ranked[i] = Ranked{entries_[i].entry.quality, static_cast<uint8_t>(i)};
  }
  size_t top = std::min(n, static_cast<size_t>(std::max(k, 0)));
  std::partial_sort(ranked.begin(), ranked.begin() + top, ranked.begin() + n,
                    [](const Ranked& a, const Ranked& b) {
                      return a.quality != b.quality ? a.quality > b.quality : a.pos < b.pos;
                    });
  std::vector<NeighborEntry> out(top);
  for (size_t i = 0; i < top; ++i) {
    out[i].id = entries_[ranked[i].pos].id;
    out[i].quality_x255 =
        static_cast<uint8_t>(std::lround(std::clamp(ranked[i].quality, 0.0, 1.0) * 255));
  }
  return out;
}

std::vector<NodeId> NeighborTable::Ids() const {
  std::vector<NodeId> out;
  out.reserve(entries_.size());
  for (const Slot& slot : entries_) out.push_back(slot.id);
  return out;
}

void NeighborTable::EvictStale(SimTime now) {
  auto keep = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (now - it->entry.last_heard <= kEvictionTimeout) {
      if (keep != it) *keep = *it;
      ++keep;
    }
  }
  entries_.erase(keep, entries_.end());
}

void NeighborTable::EvictWorst() {
  auto worst = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    // Ascending-id iteration plus strictly-less comparisons: ties on both
    // staleness and quality evict the lowest id, deterministically.
    if (worst == entries_.end() || it->entry.last_heard < worst->entry.last_heard ||
        (it->entry.last_heard == worst->entry.last_heard &&
         it->entry.quality < worst->entry.quality)) {
      worst = it;
    }
  }
  if (worst != entries_.end()) entries_.erase(worst);
}

}  // namespace scoop::net

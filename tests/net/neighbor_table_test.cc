#include "net/neighbor_table.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace scoop::net {
namespace {

TEST(NeighborTableTest, LearnsNeighbors) {
  NeighborTable table;
  EXPECT_FALSE(table.Contains(5));
  table.OnPacketSeen(5, 1, Seconds(1), 5);
  EXPECT_TRUE(table.Contains(5));
  EXPECT_EQ(table.size(), 1u);
}

TEST(NeighborTableTest, PerfectLinkEstimatesNearOne) {
  NeighborTable table;
  for (uint16_t seq = 1; seq <= 40; ++seq) {
    table.OnPacketSeen(7, seq, Seconds(seq), 7);
  }
  EXPECT_GT(table.Quality(7), 0.95);
}

TEST(NeighborTableTest, HalfLossyLinkEstimatesNearHalf) {
  NeighborTable table;
  // Hear only every other packet: gaps of 2 => 50% loss.
  for (uint16_t seq = 1; seq <= 80; seq += 2) {
    table.OnPacketSeen(7, seq, Seconds(seq), 7);
  }
  EXPECT_NEAR(table.Quality(7), 0.5, 0.12);
}

TEST(NeighborTableTest, RetransmissionsDoNotSkewEstimate) {
  NeighborTable table;
  for (uint16_t seq = 1; seq <= 40; ++seq) {
    table.OnPacketSeen(7, seq, Seconds(seq), 7);
    table.OnPacketSeen(7, seq, Seconds(seq), 7);  // Duplicate (same seq).
  }
  EXPECT_GT(table.Quality(7), 0.95);
}

TEST(NeighborTableTest, UnknownNeighborQualityIsZero) {
  NeighborTable table;
  EXPECT_DOUBLE_EQ(table.Quality(9), 0.0);
}

TEST(NeighborTableTest, BestNeighborsSortedByQuality) {
  NeighborTable table;
  // Node 1: perfect. Node 2: 50%. Node 3: one packet (initial estimate).
  for (uint16_t seq = 1; seq <= 32; ++seq) table.OnPacketSeen(1, seq, Seconds(seq), 1);
  for (uint16_t seq = 1; seq <= 64; seq += 2) table.OnPacketSeen(2, seq, Seconds(seq), 2);
  table.OnPacketSeen(3, 1, Seconds(1), 3);
  auto best = table.BestNeighbors(2);
  ASSERT_EQ(best.size(), 2u);
  EXPECT_EQ(best[0].id, 1);
  EXPECT_GT(best[0].quality_x255, best[1].quality_x255);
}

TEST(NeighborTableTest, BestNeighborsClampsToSize) {
  NeighborTable table;
  table.OnPacketSeen(1, 1, 0, 1);
  EXPECT_EQ(table.BestNeighbors(12).size(), 1u);
}

TEST(NeighborTableTest, CapacityEnforced) {
  NeighborTable table;
  const NodeId last = NeighborTable::kCapacity + 6;
  for (NodeId id = 1; id <= last; ++id) {
    table.OnPacketSeen(id, 1, Seconds(id), id);
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(NeighborTable::kCapacity));
  // The most recently heard neighbors survive.
  EXPECT_TRUE(table.Contains(last));
  EXPECT_TRUE(table.Contains(7));
  EXPECT_FALSE(table.Contains(6));
  EXPECT_FALSE(table.Contains(1));
}

TEST(NeighborTableTest, EvictStaleRemovesSilentNeighbors) {
  NeighborTable table;  // Evicts after 240 s of silence.
  table.OnPacketSeen(1, 1, Seconds(0), 1);
  table.OnPacketSeen(2, 1, Seconds(200), 2);
  table.EvictStale(Seconds(250));
  EXPECT_FALSE(table.Contains(1));
  EXPECT_TRUE(table.Contains(2));
}

TEST(NeighborTableTest, SequenceWraparoundHandled) {
  NeighborTable table;
  // Sequence numbers wrap at 65535; estimation must not explode.
  table.OnPacketSeen(4, 65533, Seconds(1), 4);
  table.OnPacketSeen(4, 65535, Seconds(2), 4);
  table.OnPacketSeen(4, 1, Seconds(3), 4);
  table.OnPacketSeen(4, 3, Seconds(4), 4);
  for (uint16_t i = 0; i < 16; ++i) {
    table.OnPacketSeen(4, static_cast<uint16_t>(5 + 2 * i), Seconds(5 + i), 4);
  }
  EXPECT_NEAR(table.Quality(4), 0.5, 0.15);
}

TEST(NeighborTableTest, QualityTracksLinkChanges) {
  NeighborTable table;
  uint16_t seq = 1;
  for (int i = 0; i < 32; ++i) table.OnPacketSeen(6, seq++, Seconds(i), 6);
  double good = table.Quality(6);
  // Link degrades: hear 1 in 4.
  for (int i = 0; i < 32; ++i) {
    seq = static_cast<uint16_t>(seq + 4);
    table.OnPacketSeen(6, seq, Seconds(100 + i), 6);
  }
  double bad = table.Quality(6);
  EXPECT_GT(good, 0.9);
  EXPECT_LT(bad, 0.5);
}

/// The mote's table written plainly: a map by id, a full sort for the
/// ranking, no in-link hints. The oracle for the model test below.
class ModelTable {
 public:
  using T = NeighborTable;

  void OnPacketSeen(NodeId src, uint16_t seq, SimTime now) {
    auto it = m_.find(src);
    if (it == m_.end()) {
      if (static_cast<int>(m_.size()) >= T::kCapacity) EvictWorst();
      E e;
      e.last_seq = seq;
      e.received = 1;
      e.quality = T::kInitialQuality;
      e.last_heard = now;
      m_[src] = e;
      return;
    }
    E& e = it->second;
    e.last_heard = now;
    uint16_t gap = static_cast<uint16_t>(seq - e.last_seq);
    if (gap == 0) return;
    e.last_seq = seq;
    e.received += 1;
    e.missed += std::min<int>(gap - 1, T::kEstimationWindow);
    if (e.received + e.missed >= T::kEstimationWindow) {
      double observed = static_cast<double>(e.received) / (e.received + e.missed);
      e.quality = e.has_estimate
                      ? T::kEwmaAlpha * observed + (1 - T::kEwmaAlpha) * e.quality
                      : observed;
      e.has_estimate = true;
      e.received = 0;
      e.missed = 0;
    }
  }

  void OnReverseReport(NodeId id, double q) {
    auto it = m_.find(id);
    if (it == m_.end()) return;
    E& e = it->second;
    e.reverse = e.has_reverse ? T::kEwmaAlpha * q + (1 - T::kEwmaAlpha) * e.reverse : q;
    e.has_reverse = true;
  }

  void EvictStale(SimTime now) {
    std::erase_if(m_, [&](const auto& kv) {
      return now - kv.second.last_heard > T::kEvictionTimeout;
    });
  }

  double Quality(NodeId id) const {
    auto it = m_.find(id);
    return it == m_.end() ? 0.0 : it->second.quality;
  }

  double UnicastQuality(NodeId id) const {
    auto it = m_.find(id);
    if (it == m_.end()) return 0.0;
    const E& e = it->second;
    return (e.has_reverse ? e.reverse : e.quality) * std::sqrt(std::max(e.quality, 0.0));
  }

  std::vector<std::pair<NodeId, int>> Best(int k) const {
    std::vector<std::pair<double, NodeId>> ranked;
    for (const auto& [id, e] : m_) ranked.emplace_back(e.quality, id);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    ranked.resize(std::min(ranked.size(), static_cast<size_t>(k)));
    std::vector<std::pair<NodeId, int>> out;
    for (const auto& [q, id] : ranked) {
      out.emplace_back(id, static_cast<int>(std::lround(std::clamp(q, 0.0, 1.0) * 255)));
    }
    return out;
  }

  std::vector<NodeId> Ids() const {
    std::vector<NodeId> ids;
    for (const auto& kv : m_) ids.push_back(kv.first);
    return ids;
  }

  size_t size() const { return m_.size(); }

 private:
  struct E {
    uint16_t last_seq = 0;
    int received = 0;
    int missed = 0;
    double quality = 0;
    bool has_estimate = false;
    double reverse = 0;
    bool has_reverse = false;
    SimTime last_heard = 0;
  };

  void EvictWorst() {
    auto worst = m_.begin();
    for (auto it = m_.begin(); it != m_.end(); ++it) {
      if (it->second.last_heard < worst->second.last_heard ||
          (it->second.last_heard == worst->second.last_heard &&
           it->second.quality < worst->second.quality)) {
        worst = it;
      }
    }
    m_.erase(worst);
  }

  std::map<NodeId, E> m_;
};

enum class Hints { kCorrect, kWrong, kStale };

/// Random op sequences over more senders than the table holds (inserts at
/// capacity, evictions, stale purges, reverse reports), fed to the real
/// table with in-link hints of the given kind and to the model without
/// any. Every query must agree after every op.
void RunModelSequence(Hints hints, uint64_t seed) {
  NeighborTable table;
  ModelTable model;
  Rng rng(seed, /*stream=*/static_cast<uint64_t>(hints));
  constexpr int kSenders = NeighborTable::kCapacity * 3 / 2;
  std::vector<uint16_t> seq(kSenders + 1, 0);
  // Correct ranks are a fixed permutation of 0..kSenders-1; stale ranks
  // are re-dealt every 40 ops, so cached positions go on naming whichever
  // sender held the rank before.
  std::vector<uint16_t> rank(kSenders + 1);
  for (int id = 1; id <= kSenders; ++id) rank[id] = static_cast<uint16_t>(id - 1);
  rng.Shuffle(rank.begin() + 1, rank.end());
  auto in_link = [&](NodeId id) -> uint16_t {
    switch (hints) {
      case Hints::kCorrect:
      case Hints::kStale:
        return rank[id];
      case Hints::kWrong:
        return static_cast<uint16_t>(rng.UniformInt(0, 0xFFFF));
    }
    return 0;
  };
  SimTime now = 0;
  int inserts_at_capacity = 0;
  int stale_drops = 0;
  for (int op = 0; op < 3000; ++op) {
    if (hints == Hints::kStale && op % 40 == 0) rng.Shuffle(rank.begin() + 1, rank.end());
    // Steps average 2.4 s, so a 250-op phase spans ~600 s, well past the
    // 240 s eviction timeout.
    now += rng.UniformInt(0, Millis(4800));
    // Phases alternate: all senders talk (the table overflows), then only
    // ten do (the others go stale).
    bool quiet_phase = (op / 250) % 2 == 1;
    NodeId id = static_cast<NodeId>(rng.UniformInt(1, quiet_phase ? 10 : kSenders));
    int kind = static_cast<int>(rng.UniformInt(0, 99));
    if (kind < 80) {
      // Gaps of 0 (a retransmission) up to a few lost packets.
      seq[id] = static_cast<uint16_t>(seq[id] + rng.UniformInt(0, 3));
      if (table.size() == static_cast<size_t>(NeighborTable::kCapacity) &&
          !table.Contains(id)) {
        ++inserts_at_capacity;
      }
      table.OnPacketSeen(id, seq[id], now, in_link(id));
      model.OnPacketSeen(id, seq[id], now);
    } else if (kind < 95) {
      double q = static_cast<double>(rng.UniformInt(0, 255)) / 255.0;
      table.OnReverseReport(id, q, in_link(id));
      model.OnReverseReport(id, q);
    } else {
      size_t before = table.size();
      table.EvictStale(now);
      model.EvictStale(now);
      if (table.size() < before) ++stale_drops;
    }

    ASSERT_EQ(table.size(), model.size()) << "op " << op;
    std::vector<NodeId> ids = table.Ids();
    std::sort(ids.begin(), ids.end());
    ASSERT_EQ(ids, model.Ids()) << "op " << op;
    for (NodeId n = 1; n <= kSenders; ++n) {
      ASSERT_EQ(table.Quality(n), model.Quality(n)) << "op " << op << " id " << n;
      ASSERT_EQ(table.UnicastQuality(n, in_link(n)), model.UnicastQuality(n))
          << "op " << op << " id " << n;
      ASSERT_EQ(table.UnicastQuality(n), model.UnicastQuality(n)) << "op " << op;
    }
    for (int k : {0, 1, 5, 12, 40}) {
      std::vector<std::pair<NodeId, int>> best;
      for (const NeighborEntry& e : table.BestNeighbors(k)) {
        best.emplace_back(e.id, static_cast<int>(e.quality_x255));
      }
      ASSERT_EQ(best, model.Best(k)) << "op " << op << " k " << k;
    }
  }
  EXPECT_GT(inserts_at_capacity, 0);
  EXPECT_GT(stale_drops, 0);
}

TEST(NeighborTableTest, MatchesHintFreeModelWithCorrectHints) {
  for (uint64_t seed : {1, 2, 3}) RunModelSequence(Hints::kCorrect, seed);
}

TEST(NeighborTableTest, MatchesHintFreeModelWithWrongHints) {
  for (uint64_t seed : {1, 2, 3}) RunModelSequence(Hints::kWrong, seed);
}

TEST(NeighborTableTest, MatchesHintFreeModelWithStaleHints) {
  for (uint64_t seed : {1, 2, 3}) RunModelSequence(Hints::kStale, seed);
}

TEST(NeighborTableTest, BestNeighborsBreaksQualityTiesByAscendingId) {
  NeighborTable table;
  for (NodeId id : {9, 4, 7}) table.OnPacketSeen(id, 1, Seconds(1), id);
  std::vector<NeighborEntry> best = table.BestNeighbors(3);
  ASSERT_EQ(best.size(), 3u);
  EXPECT_EQ(best[0].id, 4);
  EXPECT_EQ(best[1].id, 7);
  EXPECT_EQ(best[2].id, 9);
}

}  // namespace
}  // namespace scoop::net

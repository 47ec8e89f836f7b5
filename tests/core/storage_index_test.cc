#include "core/storage_index.h"

#include <gtest/gtest.h>

namespace scoop::core {
namespace {

TEST(StorageIndexTest, DefaultIsInvalid) {
  StorageIndex index;
  EXPECT_FALSE(index.valid());
  EXPECT_FALSE(index.Lookup(5).has_value());
  EXPECT_TRUE(index.LookupAll(5).empty());
}

TEST(StorageIndexTest, FromOwnerArrayCoalesces) {
  // Owners: 1 1 1 2 2 1 -> three ranges.
  StorageIndex index = StorageIndex::FromOwnerArray(7, 0, 10, {1, 1, 1, 2, 2, 1});
  ASSERT_TRUE(index.valid());
  EXPECT_EQ(index.id(), 7u);
  ASSERT_EQ(index.entries().size(), 3u);
  EXPECT_EQ(index.entries()[0], (RangeEntry{10, 12, 1}));
  EXPECT_EQ(index.entries()[1], (RangeEntry{13, 14, 2}));
  EXPECT_EQ(index.entries()[2], (RangeEntry{15, 15, 1}));
  EXPECT_EQ(index.domain_lo(), 10);
  EXPECT_EQ(index.domain_hi(), 15);
}

TEST(StorageIndexTest, SingleOwnerCoalescesToOneRange) {
  StorageIndex index = StorageIndex::FromOwnerArray(1, 0, 0, std::vector<NodeId>(100, 5));
  EXPECT_EQ(index.entries().size(), 1u);
}

TEST(StorageIndexTest, LookupInsideDomain) {
  StorageIndex index = StorageIndex::FromOwnerArray(1, 0, 10, {1, 1, 2, 2, 3, 3});
  EXPECT_EQ(index.Lookup(10).value(), 1);
  EXPECT_EQ(index.Lookup(11).value(), 1);
  EXPECT_EQ(index.Lookup(12).value(), 2);
  EXPECT_EQ(index.Lookup(14).value(), 3);
  EXPECT_EQ(index.Lookup(15).value(), 3);
}

TEST(StorageIndexTest, LookupClampsOutsideDomain) {
  // Sensor drift past the statistics window must still be storable.
  StorageIndex index = StorageIndex::FromOwnerArray(1, 0, 10, {1, 2, 3});
  EXPECT_EQ(index.Lookup(-100).value(), 1);
  EXPECT_EQ(index.Lookup(9).value(), 1);
  EXPECT_EQ(index.Lookup(13).value(), 3);
  EXPECT_EQ(index.Lookup(1000).value(), 3);
}

TEST(StorageIndexTest, FromRangesValidatesContiguity) {
  std::vector<RangeEntry> good = {{0, 4, 1}, {5, 9, 2}};
  StorageIndex index = StorageIndex::FromRanges(1, 0, good);
  EXPECT_TRUE(index.valid());
  std::vector<RangeEntry> gap = {{0, 4, 1}, {6, 9, 2}};
  EXPECT_DEATH(StorageIndex::FromRanges(1, 0, gap), "SCOOP_CHECK");
}

TEST(StorageIndexTest, OwnersInRange) {
  StorageIndex index = StorageIndex::FromOwnerArray(1, 0, 0, {1, 1, 2, 2, 3, 3, 1, 1});
  EXPECT_EQ(index.OwnersInRange(0, 1), (std::vector<NodeId>{1}));
  EXPECT_EQ(index.OwnersInRange(1, 4), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(index.OwnersInRange(6, 7), (std::vector<NodeId>{1}));
  // Entirely below / above the domain clamps to the edge owner.
  EXPECT_EQ(index.OwnersInRange(-10, -5), (std::vector<NodeId>{1}));
  EXPECT_EQ(index.OwnersInRange(100, 200), (std::vector<NodeId>{1}));
}

TEST(StorageIndexTest, ChunkRoundTrip) {
  std::vector<NodeId> owners;
  for (int i = 0; i < 100; ++i) owners.push_back(static_cast<NodeId>(i % 7));
  StorageIndex index = StorageIndex::FromOwnerArray(3, 1, 0, owners);
  std::vector<MappingPayload> chunks = index.ToChunks(13);
  EXPECT_GT(chunks.size(), 1u);
  for (const MappingPayload& c : chunks) {
    EXPECT_LE(static_cast<int>(c.entries.size()), 13);
    EXPECT_EQ(c.index_id, 3u);
    EXPECT_EQ(c.attr, 1);
  }
  std::optional<StorageIndex> rebuilt = StorageIndex::FromChunks(chunks);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->id(), index.id());
  for (Value v = 0; v < 100; ++v) {
    EXPECT_EQ(rebuilt->Lookup(v), index.Lookup(v));
  }
}

TEST(StorageIndexTest, ChunkRoundTripOutOfOrder) {
  std::vector<NodeId> owners;
  for (int i = 0; i < 60; ++i) owners.push_back(static_cast<NodeId>(i / 2));
  StorageIndex index = StorageIndex::FromOwnerArray(5, 0, 0, owners);
  std::vector<MappingPayload> chunks = index.ToChunks(7);
  std::reverse(chunks.begin(), chunks.end());
  std::optional<StorageIndex> rebuilt = StorageIndex::FromChunks(chunks);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->entries().size(), index.entries().size());
}

TEST(StorageIndexTest, FromChunksRejectsIncompleteSets) {
  StorageIndex index =
      StorageIndex::FromOwnerArray(1, 0, 0, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  std::vector<MappingPayload> chunks = index.ToChunks(3);
  ASSERT_GT(chunks.size(), 1u);
  chunks.pop_back();
  EXPECT_FALSE(StorageIndex::FromChunks(chunks).has_value());
}

TEST(StorageIndexTest, FromChunksRejectsMixedVersions) {
  StorageIndex a = StorageIndex::FromOwnerArray(1, 0, 0, {1, 2, 3, 4, 5, 6});
  StorageIndex b = StorageIndex::FromOwnerArray(2, 0, 0, {1, 2, 3, 4, 5, 6});
  std::vector<MappingPayload> chunks = a.ToChunks(3);
  std::vector<MappingPayload> other = b.ToChunks(3);
  chunks[1] = other[1];
  EXPECT_FALSE(StorageIndex::FromChunks(chunks).has_value());
}

TEST(StorageIndexTest, StoreLocalSentinel) {
  StorageIndex index = StorageIndex::FromRanges(
      1, 0, {RangeEntry{0, 99, kStoreLocalOwner}});
  EXPECT_EQ(index.Lookup(50).value(), kStoreLocalOwner);
}

// --- Multi-owner (owner-set extension, §4) ---

TEST(StorageIndexMultiOwnerTest, FromOwnerSetsPreservesPreferenceOrder) {
  std::vector<std::vector<NodeId>> sets = {
      {1, 9}, {1, 9}, {2, 9}, {2}, {2},
  };
  StorageIndex index = StorageIndex::FromOwnerSets(4, 0, 0, sets);
  EXPECT_TRUE(index.multi_owner());
  EXPECT_EQ(index.LookupAll(0), (std::vector<NodeId>{1, 9}));
  EXPECT_EQ(index.LookupAll(2), (std::vector<NodeId>{2, 9}));
  EXPECT_EQ(index.LookupAll(4), (std::vector<NodeId>{2}));
  EXPECT_EQ(index.Lookup(0).value(), 1);
  EXPECT_EQ(index.domain_lo(), 0);
  EXPECT_EQ(index.domain_hi(), 4);
}

TEST(StorageIndexMultiOwnerTest, LookupAllClampsOutOfDomain) {
  std::vector<std::vector<NodeId>> sets = {{1, 2}, {1, 2}};
  StorageIndex index = StorageIndex::FromOwnerSets(1, 0, 10, sets);
  EXPECT_EQ(index.LookupAll(0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(index.LookupAll(99), (std::vector<NodeId>{1, 2}));
}

TEST(StorageIndexMultiOwnerTest, ChunkRoundTripKeepsAllOwners) {
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < 30; ++i) {
    sets.push_back({static_cast<NodeId>(i / 10), static_cast<NodeId>(5 + i / 15)});
  }
  StorageIndex index = StorageIndex::FromOwnerSets(9, 0, 0, sets);
  std::vector<MappingPayload> chunks = index.ToChunks(3);
  std::optional<StorageIndex> rebuilt = StorageIndex::FromChunks(chunks);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_TRUE(rebuilt->multi_owner());
  for (Value v = 0; v < 30; ++v) {
    EXPECT_EQ(rebuilt->LookupAll(v), index.LookupAll(v)) << "value " << v;
  }
}

TEST(StorageIndexMultiOwnerTest, SingleRankSetsBehaveLikePlainIndex) {
  std::vector<std::vector<NodeId>> sets = {{3}, {3}, {4}};
  StorageIndex index = StorageIndex::FromOwnerSets(1, 0, 0, sets);
  EXPECT_FALSE(index.multi_owner());
  EXPECT_EQ(index.Lookup(1).value(), 3);
  EXPECT_EQ(index.Lookup(2).value(), 4);
}

// --- OwnedValueCount: the O(entries) walk the harness teardown uses ---

/// Reference: the old per-value loop OwnedValueCount replaced.
int64_t OwnedByLookup(const StorageIndex& index, NodeId owner) {
  int64_t owned = 0;
  for (Value v = index.domain_lo(); v <= index.domain_hi(); ++v) {
    if (index.Lookup(v) == std::optional<NodeId>(owner)) ++owned;
  }
  return owned;
}

TEST(StorageIndexTest, OwnedValueCountMatchesPerValueLookup) {
  std::vector<NodeId> owners;
  for (int i = 0; i < 200; ++i) {
    owners.push_back(static_cast<NodeId>((i * 7 + i / 13) % 9));
  }
  StorageIndex index = StorageIndex::FromOwnerArray(3, 0, -50, owners);
  int64_t total = 0;
  for (NodeId owner = 0; owner < 10; ++owner) {
    EXPECT_EQ(index.OwnedValueCount(owner), OwnedByLookup(index, owner))
        << "owner " << owner;
    total += index.OwnedValueCount(owner);
  }
  EXPECT_EQ(total, 200);  // Every domain value has exactly one first owner.
}

TEST(StorageIndexTest, OwnedValueCountStoreLocalRanges) {
  std::vector<RangeEntry> entries = {RangeEntry{0, 9, kStoreLocalOwner},
                                     RangeEntry{10, 19, 2},
                                     RangeEntry{20, 39, kStoreLocalOwner}};
  StorageIndex index = StorageIndex::FromRanges(7, 0, entries);
  EXPECT_EQ(index.OwnedValueCount(kStoreLocalOwner), 30);
  EXPECT_EQ(index.OwnedValueCount(2), 10);
  EXPECT_EQ(index.OwnedValueCount(5), 0);
}

TEST(StorageIndexMultiOwnerTest, OwnedValueCountMatchesPerValueLookup) {
  // Overlapping rank-major entries with gaps in the higher ranks: the
  // first-choice owner of a value is whatever Lookup() returns.
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < 60; ++i) {
    std::vector<NodeId> s;
    s.push_back(static_cast<NodeId>(i / 11));
    if (i % 3 != 0) s.push_back(static_cast<NodeId>(5 + i / 20));
    sets.push_back(std::move(s));
  }
  StorageIndex index = StorageIndex::FromOwnerSets(4, 0, 100, sets);
  ASSERT_TRUE(index.multi_owner());
  for (NodeId owner = 0; owner < 9; ++owner) {
    EXPECT_EQ(index.OwnedValueCount(owner), OwnedByLookup(index, owner))
        << "owner " << owner;
  }
}

TEST(StorageIndexTest, OwnedValueCountInvalidIndexIsZero) {
  StorageIndex index;
  EXPECT_EQ(index.OwnedValueCount(0), 0);
}

}  // namespace
}  // namespace scoop::core

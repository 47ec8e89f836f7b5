#include "core/index_store.h"

#include <gtest/gtest.h>

namespace scoop::core {
namespace {

std::vector<MappingPayload> MakeChunks(IndexId id, int domain = 30, int per_chunk = 5) {
  std::vector<NodeId> owners;
  for (int i = 0; i < domain; ++i) owners.push_back(static_cast<NodeId>(i / 3));
  return StorageIndex::FromOwnerArray(id, 0, 0, owners).ToChunks(per_chunk);
}

TEST(IndexStoreTest, StartsEmpty) {
  IndexStore store;
  EXPECT_EQ(store.current(), nullptr);
  EXPECT_EQ(store.current_id(), kNoIndex);
  EXPECT_EQ(store.newest_heard(), kNoIndex);
  EXPECT_FALSE(store.NextShareChunk().has_value());
  EXPECT_FALSE(store.assembling_complete());
}

TEST(IndexStoreTest, AssemblesInOrder) {
  IndexStore store;
  std::vector<MappingPayload> chunks = MakeChunks(1);
  ASSERT_GT(chunks.size(), 1u);
  for (size_t i = 0; i < chunks.size(); ++i) {
    auto result = store.AddChunk(chunks[i]);
    if (i + 1 < chunks.size()) {
      EXPECT_EQ(result, IndexStore::ChunkResult::kNew);
      EXPECT_EQ(store.current(), nullptr);  // Incomplete: keep the old one.
    } else {
      EXPECT_EQ(result, IndexStore::ChunkResult::kCompleted);
    }
  }
  ASSERT_NE(store.current(), nullptr);
  EXPECT_EQ(store.current_id(), 1u);
  EXPECT_TRUE(store.assembling_complete());
}

TEST(IndexStoreTest, AssemblesOutOfOrder) {
  IndexStore store;
  std::vector<MappingPayload> chunks = MakeChunks(1);
  std::reverse(chunks.begin(), chunks.end());
  IndexStore::ChunkResult last = IndexStore::ChunkResult::kNew;
  for (const auto& c : chunks) last = store.AddChunk(c);
  EXPECT_EQ(last, IndexStore::ChunkResult::kCompleted);
  EXPECT_EQ(store.current_id(), 1u);
}

TEST(IndexStoreTest, DuplicateChunksDetected) {
  IndexStore store;
  std::vector<MappingPayload> chunks = MakeChunks(1);
  EXPECT_EQ(store.AddChunk(chunks[0]), IndexStore::ChunkResult::kNew);
  EXPECT_EQ(store.AddChunk(chunks[0]), IndexStore::ChunkResult::kDuplicate);
}

TEST(IndexStoreTest, SameVersionChunksAfterCompletionAreDuplicates) {
  // Healthy steady-state gossip must not be classified as stale (that
  // caused a permanent Trickle reset storm).
  IndexStore store;
  for (const auto& c : MakeChunks(2)) store.AddChunk(c);
  ASSERT_TRUE(store.assembling_complete());
  EXPECT_EQ(store.AddChunk(MakeChunks(2)[0]), IndexStore::ChunkResult::kDuplicate);
}

TEST(IndexStoreTest, OlderVersionIsStale) {
  IndexStore store;
  for (const auto& c : MakeChunks(5)) store.AddChunk(c);
  EXPECT_EQ(store.AddChunk(MakeChunks(4)[0]), IndexStore::ChunkResult::kStale);
  EXPECT_EQ(store.current_id(), 5u);
}

TEST(IndexStoreTest, NewerVersionRestartsAssembly) {
  IndexStore store;
  std::vector<MappingPayload> old_chunks = MakeChunks(1);
  store.AddChunk(old_chunks[0]);
  store.AddChunk(old_chunks[1]);

  std::vector<MappingPayload> new_chunks = MakeChunks(2);
  EXPECT_EQ(store.AddChunk(new_chunks[0]), IndexStore::ChunkResult::kNew);
  EXPECT_EQ(store.newest_heard(), 2u);
  EXPECT_EQ(store.owned_chunk_count(), 1);  // Old partial assembly dropped.
  // Old-version chunks are now stale. (MakeChunks(1) yields exactly two
  // chunks, so re-hear an existing one; the seed indexed [2], out of
  // bounds, which AddressSanitizer rejects.)
  EXPECT_EQ(store.AddChunk(old_chunks[1]), IndexStore::ChunkResult::kStale);
}

TEST(IndexStoreTest, KeepsOldCompleteIndexWhileAssemblingNew) {
  // §5.3: nodes continue using the older complete index until the new one
  // fully arrives.
  IndexStore store;
  for (const auto& c : MakeChunks(1)) store.AddChunk(c);
  ASSERT_EQ(store.current_id(), 1u);
  store.AddChunk(MakeChunks(2)[0]);
  EXPECT_EQ(store.current_id(), 1u);   // Still the old one.
  EXPECT_EQ(store.newest_heard(), 2u);
  EXPECT_FALSE(store.assembling_complete());
  for (const auto& c : MakeChunks(2)) store.AddChunk(c);
  EXPECT_EQ(store.current_id(), 2u);
}

TEST(IndexStoreTest, NextShareChunkRoundRobins) {
  IndexStore store;
  std::vector<MappingPayload> chunks = MakeChunks(1);
  ASSERT_EQ(chunks.size(), 2u);
  for (const auto& c : chunks) store.AddChunk(c);
  std::set<uint8_t> seen;
  for (int i = 0; i < 4; ++i) {
    auto chunk = store.NextShareChunk();
    ASSERT_TRUE(chunk.has_value());
    seen.insert(chunk->chunk_idx);
  }
  EXPECT_EQ(seen.size(), 2u);  // Both chunks get airtime.
}

TEST(IndexStoreTest, OwnedMaskTracksChunks) {
  IndexStore store;
  std::vector<MappingPayload> chunks = MakeChunks(1, 60, 5);  // 4 chunks.
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(store.owned_mask(), 0u);
  store.AddChunk(chunks[1]);
  EXPECT_EQ(store.owned_mask(), 0b0010u);
  store.AddChunk(chunks[3]);
  EXPECT_EQ(store.owned_mask(), 0b1010u);
}

TEST(IndexStoreTest, ChunkAtReturnsHeldChunks) {
  IndexStore store;
  std::vector<MappingPayload> chunks = MakeChunks(3, 60, 5);
  store.AddChunk(chunks[2]);
  EXPECT_TRUE(store.ChunkAt(3, 2).has_value());
  EXPECT_FALSE(store.ChunkAt(3, 0).has_value());
  EXPECT_FALSE(store.ChunkAt(2, 2).has_value());
}

}  // namespace
}  // namespace scoop::core

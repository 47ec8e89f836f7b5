#include "core/index_store.h"

#include <vector>

#include "common/check.h"

namespace scoop::core {

IndexId IndexStore::newest_heard() const {
  return std::max(assembling_id_, current_id());
}

IndexStore::ChunkResult IndexStore::AddChunk(const MappingPayload& chunk) {
  if (chunk.index_id < assembling_id_) {
    // Strictly older than the version we track: the sender lags behind.
    // (Chunks of the *current* version fall through to duplicate handling
    // below -- they are healthy gossip, not staleness.)
    return ChunkResult::kStale;
  }
  if (chunk.index_id > assembling_id_) {
    // A newer index appeared: drop the old partial assembly (§5.3 -- nodes
    // keep using their last complete index until the new one is whole).
    assembling_id_ = chunk.index_id;
    num_chunks_ = chunk.num_chunks;
    chunks_.clear();
    share_cursor_ = 0;
  }
  if (chunks_.count(chunk.chunk_idx) > 0) return ChunkResult::kDuplicate;
  SCOOP_CHECK_EQ(chunk.num_chunks, num_chunks_);
  chunks_.emplace(chunk.chunk_idx, chunk);

  if (static_cast<int>(chunks_.size()) < num_chunks_) return ChunkResult::kNew;

  // All chunks present: assemble.
  std::vector<MappingPayload> all;
  all.reserve(chunks_.size());
  for (const auto& [idx, c] : chunks_) all.push_back(c);
  std::optional<StorageIndex> index = StorageIndex::FromChunks(all);
  if (!index.has_value()) {
    // Corrupt chunk set; discard the assembly and wait for retransmissions.
    chunks_.clear();
    return ChunkResult::kNew;
  }
  complete_ = std::move(*index);
  has_complete_ = true;
  return ChunkResult::kCompleted;
}

std::optional<MappingPayload> IndexStore::ChunkAt(IndexId id, uint8_t idx) const {
  if (id != assembling_id_) return std::nullopt;
  auto it = chunks_.find(idx);
  if (it == chunks_.end()) return std::nullopt;
  return it->second;
}

std::optional<MappingPayload> IndexStore::NextShareChunk() {
  if (chunks_.empty()) return std::nullopt;
  // Round-robin: advance the cursor to the next chunk index we hold.
  auto it = chunks_.upper_bound(share_cursor_);
  if (it == chunks_.end()) it = chunks_.begin();
  share_cursor_ = it->first;
  return it->second;
}

}  // namespace scoop::core

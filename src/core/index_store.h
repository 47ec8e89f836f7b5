// Node-side storage-index management (§5.3): assembles mapping chunks that
// arrive via Trickle into complete indices, keeps the latest complete index
// for routing, and serves chunks of the newest known version back to the
// gossip layer.
#ifndef SCOOP_CORE_INDEX_STORE_H_
#define SCOOP_CORE_INDEX_STORE_H_

#include <map>
#include <optional>

#include "core/storage_index.h"
#include "net/wire.h"

namespace scoop::core {

/// Assembly and versioning state for one node's view of the storage index.
class IndexStore {
 public:
  /// Outcome of feeding one mapping chunk to the store.
  enum class ChunkResult {
    kStale,      ///< Chunk belongs to an older version than we already track.
    kDuplicate,  ///< Already had this chunk.
    kNew,        ///< New chunk recorded; index still incomplete.
    kCompleted,  ///< This chunk completed a new index; current() changed.
  };

  /// Feeds one received (or locally generated) chunk.
  ChunkResult AddChunk(const MappingPayload& chunk);

  /// The latest *complete* index, or nullptr if none assembled yet. Nodes
  /// without a complete index store readings locally (§5.3).
  const StorageIndex* current() const { return has_complete_ ? &complete_ : nullptr; }

  /// Version of the latest complete index (kNoIndex if none).
  IndexId current_id() const { return has_complete_ ? complete_.id() : kNoIndex; }

  /// Newest version we have heard of (complete or still assembling).
  IndexId newest_heard() const;

  /// Next chunk to share with neighbors, round-robin over the chunks we
  /// hold of the newest version. nullopt if we hold nothing.
  std::optional<MappingPayload> NextShareChunk();

  /// Chunks held of the newest (assembling) version.
  int owned_chunk_count() const { return static_cast<int>(chunks_.size()); }

  /// True iff we hold every chunk of the newest version we have heard of.
  bool assembling_complete() const {
    return num_chunks_ > 0 && static_cast<int>(chunks_.size()) == num_chunks_;
  }

  /// Bitmap of chunk indices held for the newest version (bit i = chunk i;
  /// chunk counts beyond 16 saturate the mask).
  uint16_t owned_mask() const {
    uint16_t mask = 0;
    for (const auto& [idx, chunk] : chunks_) {
      if (idx < 16) mask = static_cast<uint16_t>(mask | (1u << idx));
    }
    return mask;
  }

  /// The chunk payload for (id, idx) if we hold it.
  std::optional<MappingPayload> ChunkAt(IndexId id, uint8_t idx) const;


 private:
  StorageIndex complete_;
  bool has_complete_ = false;

  IndexId assembling_id_ = kNoIndex;
  int num_chunks_ = 0;
  std::map<uint8_t, MappingPayload> chunks_;
  uint8_t share_cursor_ = 0;
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_INDEX_STORE_H_

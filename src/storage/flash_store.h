// The mote's Flash data buffer (§2.1, §5.4, §5.5): a circular tuple store
// with the linear query scan of §5.5. Its energy is not modelled here:
// node lifetime comes from metrics::LifetimeDays over radio traffic.
#ifndef SCOOP_STORAGE_FLASH_STORE_H_
#define SCOOP_STORAGE_FLASH_STORE_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "net/wire.h"
#include "storage/ring_buffer.h"

namespace scoop::storage {

/// A tuple as stored at its owner.
struct StoredTuple {
  NodeId producer = kInvalidNodeId;
  Value value = 0;
  SimTime time = 0;
};

/// Circular Flash store with scan support.
class FlashStore {
 public:
  /// Tuple capacity. The paper notes ~670,000 12-bit readings fit in 1 MB;
  /// this is far smaller to keep simulations honest about overwrites
  /// within a 40-minute run.
  static constexpr size_t kCapacityTuples = 16384;

  FlashStore() : buffer_(kCapacityTuples) {}

  /// Appends a tuple (overwrite-oldest).
  void Store(const StoredTuple& tuple) { buffer_.Push(tuple); }

  /// Linear scan (§5.5): returns tuples matching the query's time range and
  /// value ranges (empty ranges match all values).
  std::vector<ReplyTuple> Scan(const QueryPayload& query) const;

  /// Number of live tuples.
  size_t size() const { return buffer_.size(); }

  /// Drops all live tuples (crash-reboot fault: volatile-side bookkeeping
  /// and the ring's contents are gone; lifetime write/overwrite counters
  /// survive, matching RingBuffer::Clear).
  void Clear() { buffer_.Clear(); }


  /// Tuples lost to ring overwrite.
  uint64_t tuples_overwritten() const { return buffer_.overwritten(); }

  /// Visits all live tuples, oldest first.
  template <typename F>
  void ForEach(F&& fn) const {
    buffer_.ForEach(fn);
  }

 private:
  RingBuffer<StoredTuple> buffer_;
};

}  // namespace scoop::storage

#endif  // SCOOP_STORAGE_FLASH_STORE_H_

// The mote's Flash data buffer (§2.1, §5.4, §5.5): a circular tuple store
// with energy accounting and the linear query scan of §5.5.
#ifndef SCOOP_STORAGE_FLASH_STORE_H_
#define SCOOP_STORAGE_FLASH_STORE_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "net/wire.h"
#include "storage/ring_buffer.h"

namespace scoop::storage {

/// Tunables for FlashStore.
struct FlashOptions {
  /// Tuple capacity. The paper notes ~670,000 12-bit readings fit in 1 MB;
  /// the default is far smaller to keep simulations honest about
  /// overwrites within a 40-minute run.
  size_t capacity_tuples = 16384;
  /// Energy to write one bit (§2.1: ~28 nJ/bit on a NX25P32).
  double write_nj_per_bit = 28.0;
  /// Energy to read one bit (reads are "substantially cheaper").
  double read_nj_per_bit = 7.0;
  /// Bits per stored tuple (value + timestamp + producer).
  int bits_per_tuple = 64;
};

/// A tuple as stored at its owner.
struct StoredTuple {
  NodeId producer = kInvalidNodeId;
  Value value = 0;
  SimTime time = 0;
};

/// Circular Flash store with scan support.
class FlashStore {
 public:
  explicit FlashStore(const FlashOptions& options = {});

  /// Appends a tuple (overwrite-oldest), charging write energy.
  void Store(const StoredTuple& tuple);

  /// Linear scan (§5.5): returns tuples matching the query's time range and
  /// value ranges (empty ranges match all values), charging read energy for
  /// the full scan.
  std::vector<ReplyTuple> Scan(const QueryPayload& query);

  /// Number of live tuples.
  size_t size() const { return buffer_.size(); }

  /// Drops all live tuples (crash-reboot fault: volatile-side bookkeeping
  /// and the ring's contents are gone; lifetime write/overwrite counters
  /// survive, matching RingBuffer::Clear).
  void Clear() { buffer_.Clear(); }


  /// Tuples lost to ring overwrite.
  uint64_t tuples_overwritten() const { return buffer_.overwritten(); }

  /// Total Flash energy consumed, in nanojoules.
  double energy_nj() const { return energy_nj_; }

  /// Visits all live tuples, oldest first.
  template <typename F>
  void ForEach(F&& fn) const {
    buffer_.ForEach(fn);
  }

 private:
  FlashOptions options_;
  RingBuffer<StoredTuple> buffer_;
  double energy_nj_ = 0;
};

}  // namespace scoop::storage

#endif  // SCOOP_STORAGE_FLASH_STORE_H_

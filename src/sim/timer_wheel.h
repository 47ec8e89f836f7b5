// Two-level hierarchical timer wheel: the near-future tier the simulator's
// queue (ShardQueue, sim/shard.h) puts in front of its spill heap to absorb
// MAC/Trickle timer churn at O(1) per schedule.
//
// Layout. Time is bucketed by the frame of an event's absolute microsecond
// timestamp, frame(t) = t >> 10:
//
//   L0   1024 buckets, one per exact microsecond of the CURRENT frame
//        (the frame the cursor sits in). A bucket holds only entries with
//        one identical timestamp, so bucket order is the only order that
//        matters inside it.
//   L1   1024 buckets, one per FUTURE frame in (cursor, cursor + 1024) --
//        a ~1.05 s horizon. A bucket spans 1024 us of timestamps.
//   far  anything at frame(t) >= cursor + 1024 is rejected by TryPush and
//        stays in the host's comparison-based heap, which is always
//        correct for any timestamp.
//
// The measured grid_1024 churn (the `mac.backoff_us` histogram) is 8-64 ms
// CSMA backoff plus sub-ms airtime completions: all of it lands in L0/L1
// and most of it is cancelled before its frame is ever reached, so the
// common schedule/cancel pair never touches a heap comparison.
//
// Determinism. The host's total order is Earlier(a, b) -- (time, tiebreak)
// with a unique tiebreak per entry. The wheel reproduces exactly that
// order:
//   * across buckets, by construction: L0 buckets are disjoint exact
//     timestamps in ascending order, L1 frames are disjoint ascending
//     timestamp ranges after L0, and the host merges the wheel head with
//     its heap head through Earlier itself;
//   * inside a bucket, by sorting: a bucket is lazily sorted with Earlier
//     the first time its front is needed, and later same-bucket pushes
//     insert at upper_bound past the consumed prefix. With ShardQueue's
//     canonical (phase, origin, counter) key the sort is load-bearing:
//     append order is schedule order, not key order. Insertion past the
//     consumed prefix mirrors heap
//     semantics: an entry scheduled "now" with a smaller tiebreak than
//     entries that already ran still runs next among the PENDING set.
//
// Cursor discipline. The host advances the cursor to frame(now) whenever
// its clock moves (AdvanceTo). Because the host only ever executes the
// global Earlier-minimum, every entry left in a frame the cursor passes is
// stale (cancelled) -- AdvanceTo drops them and cascades the new current
// frame's L1 bucket into L0's exact-time buckets, preserving bucket order.
// The cursor therefore never runs ahead of the clock, and TryPush never
// sees a frame below the cursor (such a time would be < now; the host
// checks at >= now). Cancellation never touches the wheel: the host's
// slot/staleness scheme invalidates entries in place, Front() skims them,
// and CompactStale() sweeps both levels when the host decides stale
// entries outnumber live ones.
//
// The Host type provides:
//   using WheelEntry = ...;                      // POD heap entry
//   static SimTime WheelTime(const WheelEntry&);  // timestamp
//   static bool WheelEarlier(a, b);               // the queue's total order
//   bool WheelLive(const WheelEntry&) const;      // slot staleness check
//   void WheelStaleDropped(size_t n);             // stale_ -= n bookkeeping
#ifndef SCOOP_SIM_TIMER_WHEEL_H_
#define SCOOP_SIM_TIMER_WHEEL_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"

namespace scoop::sim {

template <typename Host>
class TimerWheel {
 public:
  using Entry = typename Host::WheelEntry;

  /// Frame width: 1024 us (so L0 has one bucket per exact microsecond).
  static constexpr int kFrameBits = 10;
  static constexpr size_t kBuckets = size_t{1} << kFrameBits;  // Per level.
  static constexpr size_t kMask = kBuckets - 1;
  /// Times >= this far past the cursor frame spill to the host's heap.
  static constexpr SimTime kHorizon =
      static_cast<SimTime>(kBuckets << kFrameBits);

  explicit TimerWheel(Host* host) : host_(host) {}
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Accepts `e` (at timestamp `at`, in frame >= the cursor frame) into a
  /// wheel bucket, or returns false for far-future times the caller must
  /// push on its heap instead.
  bool TryPush(SimTime at, const Entry& e) {
    uint64_t f = Frame(at);
    if (f == cursor_) {
      Push(/*level=*/0, static_cast<size_t>(at) & kMask, e);
      return true;
    }
    // Unsigned wrap makes any f < cursor_ (impossible while the host keeps
    // at >= now) land in the heap, which is correct for every timestamp.
    if (f - cursor_ >= kBuckets) return false;
    Push(/*level=*/1, static_cast<size_t>(f) & kMask, e);
    return true;
  }

  /// Earliest live entry across both levels, or nullptr if none. Skims
  /// stale entries and lazily sorts the buckets it visits; the pointer is
  /// valid until the next wheel mutation. A non-null result arms
  /// PopEarliest() for that entry.
  const Entry* PeekEarliest() {
    // Per-level entry counts gate the bitmap scans: L0 sits empty whenever
    // the pending mix lives beyond the current ~1 ms frame (MAC backoffs
    // land in L1), and a scan over an all-zero bitmap is cheap but on the
    // once-per-event path it is not free.
    if (l0_entries_ > 0) {
      // L0 first: every L0 timestamp precedes every L1 frame.
      for (size_t i = FindFrom(l0_bits_, l0_from_); i < kBuckets;
           i = FindFrom(l0_bits_, i + 1)) {
        l0_from_ = i;
        if (const Entry* e = Front(/*level=*/0, i)) {
          peek_level_ = 0;
          peek_index_ = i;
          return e;
        }
      }
      l0_from_ = kBuckets;
    }
    if (l1_entries_ > 0) {
      // L1 frames in ascending absolute-frame order: circularly from the
      // cursor's successor (the window is < kBuckets wide, so index order
      // from there IS frame order).
      size_t start = static_cast<size_t>(cursor_ + 1) & kMask;
      for (int seg = 0; seg < 2; ++seg) {
        size_t lo = seg == 0 ? start : 0;
        size_t hi = seg == 0 ? kBuckets : start;
        for (size_t i = FindFrom(l1_bits_, lo); i < hi;
             i = FindFrom(l1_bits_, i + 1)) {
          if (const Entry* e = Front(/*level=*/1, i)) {
            peek_level_ = 1;
            peek_index_ = i;
            return e;
          }
        }
      }
    }
    return nullptr;
  }

  /// Removes the entry the immediately preceding successful PeekEarliest()
  /// returned. No wheel mutation may intervene.
  Entry PopEarliest() {
    Bucket& b = bucket(peek_level_, peek_index_);
    SCOOP_DCHECK(b.head < b.items.size());
    Entry e = b.items[b.head++];
    Account(peek_level_, -1);
    if (b.head == b.items.size()) ClearBucket(peek_level_, peek_index_);
    return e;
  }

  /// Moves the cursor to frame(now): drops the (all-stale) remains of
  /// passed frames and cascades the new current frame's L1 bucket into
  /// L0's exact-time buckets. Call whenever the host clock advances.
  void AdvanceTo(SimTime now) {
    uint64_t target = Frame(now);
    if (target == cursor_) return;
    SCOOP_DCHECK(target > cursor_);
    // Anything left in the old current frame is cancelled: a live entry
    // here would have time < now, and the host executes in time order.
    // (An occupied bucket always holds entries, so empty levels skip the
    // bitmap scans -- sparse runs change frame on almost every event.)
    if (l0_entries_ > 0) {
      for (size_t i = FindFrom(l0_bits_, 0); i < kBuckets;
           i = FindFrom(l0_bits_, i + 1)) {
        DropBucket(/*level=*/0, i);
      }
    }
    l0_from_ = kBuckets;
    if (l1_entries_ == 0) {
      cursor_ = target;
      return;
    }
    if (target - cursor_ >= kBuckets) {
      // Jumped past the whole L1 window; every held frame is now past.
      for (size_t i = FindFrom(l1_bits_, 0); i < kBuckets;
           i = FindFrom(l1_bits_, i + 1)) {
        DropBucket(/*level=*/1, i);
      }
    } else {
      // Drop only the OCCUPIED frames in (cursor_, target): a bitmap scan
      // over the (possibly wrapping) window instead of one iteration per
      // mostly-empty frame -- idle stretches (sparse scenarios, long
      // RunUntil jumps) would otherwise pay one step per elapsed
      // millisecond of simulated time.
      size_t lo = static_cast<size_t>(cursor_ + 1) & kMask;
      size_t len = static_cast<size_t>(target - cursor_) - 1;
      size_t hi = lo + len <= kBuckets ? lo + len : kBuckets;
      for (size_t i = FindFrom(l1_bits_, lo); i < hi; i = FindFrom(l1_bits_, i + 1)) {
        DropBucket(/*level=*/1, i);
      }
      size_t wrapped = lo + len > kBuckets ? lo + len - kBuckets : 0;
      for (size_t i = FindFrom(l1_bits_, 0); i < wrapped;
           i = FindFrom(l1_bits_, i + 1)) {
        DropBucket(/*level=*/1, i);
      }
      Cascade(static_cast<size_t>(target) & kMask);
    }
    cursor_ = target;
  }

  /// Removes every stale entry from both levels and returns how many were
  /// dropped. Does NOT call WheelStaleDropped -- the caller is rebuilding
  /// its stale accounting wholesale (Compact() zeroes it).
  size_t CompactStale() {
    size_t dropped = 0;
    for (int level = 0; level < 2; ++level) {
      const Bits& bits = level == 0 ? l0_bits_ : l1_bits_;
      for (size_t i = FindFrom(bits, 0); i < kBuckets; i = FindFrom(bits, i + 1)) {
        Bucket& b = bucket(level, i);
        size_t out = 0;
        for (size_t j = b.head; j < b.items.size(); ++j) {
          if (host_->WheelLive(b.items[j])) {
            b.items[out++] = b.items[j];
          } else {
            ++dropped;
          }
        }
        // Stable removal keeps both append order and sorted order intact.
        Account(level, static_cast<ptrdiff_t>(out) -
                           static_cast<ptrdiff_t>(b.items.size() - b.head));
        b.items.resize(out);
        b.head = 0;
        if (b.items.empty()) ClearBucket(level, i);
      }
    }
    return dropped;
  }

  /// Entries currently held (live + not-yet-skimmed stale), per level and
  /// total. The host's two-tier occupancy reporting sums these with its
  /// heap size.
  size_t l0_entries() const { return l0_entries_; }
  size_t l1_entries() const { return l1_entries_; }
  size_t entries() const { return l0_entries_ + l1_entries_; }

 private:
  struct Bucket {
    std::vector<Entry> items;
    /// Consumed/skimmed prefix: [0, head) already popped or dropped.
    size_t head = 0;
    /// True once items[head..] is sorted by WheelEarlier (and kept sorted
    /// by upper_bound inserts); false while it is in raw append order.
    bool sorted = false;
  };
  static constexpr size_t kWords = kBuckets / 64;
  using Bits = std::array<uint64_t, kWords>;

  static uint64_t Frame(SimTime t) { return static_cast<uint64_t>(t) >> kFrameBits; }

  Bucket& bucket(int level, size_t i) { return level == 0 ? l0_[i] : l1_[i]; }

  void Account(int level, ptrdiff_t delta) {
    size_t& n = level == 0 ? l0_entries_ : l1_entries_;
    n = static_cast<size_t>(static_cast<ptrdiff_t>(n) + delta);
  }

  /// First set bit index >= from, or kBuckets.
  static size_t FindFrom(const Bits& bits, size_t from) {
    if (from >= kBuckets) return kBuckets;
    size_t w = from >> 6;
    uint64_t word = bits[w] & (~uint64_t{0} << (from & 63));
    for (;;) {
      if (word != 0) return (w << 6) + static_cast<size_t>(std::countr_zero(word));
      if (++w == kWords) return kBuckets;
      word = bits[w];
    }
  }

  void SetBit(Bits& bits, size_t i) { bits[i >> 6] |= uint64_t{1} << (i & 63); }
  void ClearBit(Bits& bits, size_t i) { bits[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  void Push(int level, size_t i, const Entry& e) {
    Bucket& b = bucket(level, i);
    if (b.items.empty()) {
      SetBit(level == 0 ? l0_bits_ : l1_bits_, i);
      b.head = 0;
      b.sorted = false;
      b.items.push_back(e);
      if (level == 0 && i < l0_from_) l0_from_ = i;
    } else if (!b.sorted) {
      b.items.push_back(e);
    } else {
      // Keep the pending suffix sorted: the new entry lands at its
      // canonical position among the still-pending entries.
      auto pos = std::upper_bound(
          b.items.begin() + static_cast<ptrdiff_t>(b.head), b.items.end(), e,
          [](const Entry& a, const Entry& c) { return Host::WheelEarlier(a, c); });
      b.items.insert(pos, e);
      if (level == 0 && i < l0_from_) l0_from_ = i;
    }
    Account(level, +1);
  }

  /// Front live entry of bucket i, sorting it on first use and skimming
  /// stale entries; clears the bucket and returns nullptr if none remain.
  const Entry* Front(int level, size_t i) {
    Bucket& b = bucket(level, i);
    if (!b.sorted) {
      SCOOP_DCHECK(b.head == 0);
      if (b.items.size() > 1) {
        std::sort(b.items.begin(), b.items.end(),
                  [](const Entry& a, const Entry& c) { return Host::WheelEarlier(a, c); });
      }
      b.sorted = true;
    }
    size_t dropped = 0;
    while (b.head < b.items.size() && !host_->WheelLive(b.items[b.head])) {
      ++b.head;
      ++dropped;
    }
    if (dropped != 0) {
      Account(level, -static_cast<ptrdiff_t>(dropped));
      host_->WheelStaleDropped(dropped);
    }
    if (b.head < b.items.size()) return &b.items[b.head];
    ClearBucket(level, i);
    return nullptr;
  }

  /// Drops a bucket whose remaining entries are all stale (passed frames).
  void DropBucket(int level, size_t i) {
    Bucket& b = bucket(level, i);
    if (b.items.empty()) return;
    size_t dropped = b.items.size() - b.head;
    for (size_t j = b.head; j < b.items.size(); ++j) {
      SCOOP_DCHECK(!host_->WheelLive(b.items[j]));
    }
    Account(level, -static_cast<ptrdiff_t>(dropped));
    host_->WheelStaleDropped(dropped);
    ClearBucket(level, i);
  }

  /// Moves frame f's L1 bucket into L0's exact-time buckets (L0 is empty:
  /// AdvanceTo just dropped the old frame). Iteration order preserves the
  /// source order, so each destination inherits the source's sortedness:
  /// a sorted source emits each timestamp's subsequence in tiebreak order,
  /// an unsorted one in append order.
  void Cascade(size_t i) {
    Bucket& src = l1_[i];
    if (src.items.empty()) return;
    size_t moved = 0;
    size_t dropped = 0;
    for (size_t j = src.head; j < src.items.size(); ++j) {
      const Entry& e = src.items[j];
      if (!host_->WheelLive(e)) {
        ++dropped;
        continue;
      }
      SimTime at = Host::WheelTime(e);
      size_t d = static_cast<size_t>(at) & kMask;
      Bucket& dst = l0_[d];
      if (dst.items.empty()) {
        SetBit(l0_bits_, d);
        dst.head = 0;
        dst.sorted = src.sorted;
        if (d < l0_from_) l0_from_ = d;
      }
      dst.items.push_back(e);
      ++moved;
    }
    Account(/*level=*/1, -static_cast<ptrdiff_t>(moved + dropped));
    Account(/*level=*/0, static_cast<ptrdiff_t>(moved));
    if (dropped != 0) host_->WheelStaleDropped(dropped);
    ClearBucket(/*level=*/1, i);
  }

  void ClearBucket(int level, size_t i) {
    Bucket& b = bucket(level, i);
    b.items.clear();  // Keeps capacity: buckets stay warm across frames.
    b.head = 0;
    b.sorted = false;
    ClearBit(level == 0 ? l0_bits_ : l1_bits_, i);
  }

  Host* host_;
  std::array<Bucket, kBuckets> l0_;
  std::array<Bucket, kBuckets> l1_;
  Bits l0_bits_{};
  Bits l1_bits_{};
  /// Frame the L0 level currently represents (== frame(host now)).
  uint64_t cursor_ = 0;
  /// Lower bound on the first occupied L0 bucket (scan hint).
  size_t l0_from_ = 0;
  size_t l0_entries_ = 0;
  size_t l1_entries_ = 0;
  /// Location PeekEarliest() last returned, consumed by PopEarliest().
  int peek_level_ = 0;
  size_t peek_index_ = 0;
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_TIMER_WHEEL_H_

#include "storage/flash_store.h"

namespace scoop::storage {

std::vector<ReplyTuple> FlashStore::Scan(const QueryPayload& query) const {
  std::vector<ReplyTuple> out;
  buffer_.ForEach([&](const StoredTuple& t) {
    if (t.time < query.time_lo || t.time > query.time_hi) return;
    if (!query.ranges.empty()) {
      bool in_range = false;
      for (const ValueRange& r : query.ranges) {
        if (r.Contains(t.value)) {
          in_range = true;
          break;
        }
      }
      if (!in_range) return;
    }
    out.push_back(ReplyTuple{t.producer, t.value, t.time});
  });
  return out;
}

}  // namespace scoop::storage

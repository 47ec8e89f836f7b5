// Basestation-side query statistics (§5.5): tracks the query rate and which
// value ranges users ask for, providing the P(user queries v) and
// query-rate terms of the Figure 2 cost model.
#ifndef SCOOP_CORE_QUERY_STATS_H_
#define SCOOP_CORE_QUERY_STATS_H_

#include <deque>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "net/wire.h"

namespace scoop::core {

/// Sliding-window statistics over issued queries: rates and value
/// popularity are computed over the last 10 minutes.
class QueryStats {
 public:
  /// Records a query issued at `now` asking for `ranges` (empty = whole
  /// domain, e.g. a pure node-list query).
  void RecordQuery(const std::vector<ValueRange>& ranges, SimTime now);

  /// Queries per second over the window ending at `now`.
  double QueryRate(SimTime now) const;

  /// P(user queries v): fraction of windowed queries whose ranges contain
  /// `v` (range-free queries count as containing every value).
  double ProbQueries(Value v, SimTime now) const;

  /// Number of queries in the window.
  int WindowCount(SimTime now) const;

  /// Total queries ever recorded.
  uint64_t total_queries() const { return total_; }

 private:
  void Prune(SimTime now) const;

  // Mutable: pruning old entries is a logical no-op for observers.
  mutable std::deque<std::pair<SimTime, std::vector<ValueRange>>> recent_;
  uint64_t total_ = 0;
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_QUERY_STATS_H_

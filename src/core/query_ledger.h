// The basestation's record of every query id it hands out (§5.5), one
// entry per id and indexed by it. An entry is a query -- flooded, or
// answered on the spot -- or the wire id of a timeout re-issue, which
// credits the query it re-asks. Replies are counted here, each requested
// responder once, and a query closes here exactly once.
#ifndef SCOOP_CORE_QUERY_LEDGER_H_
#define SCOOP_CORE_QUERY_LEDGER_H_

#include <cstdint>
#include <vector>

#include "common/node_bitmap.h"
#include "common/sim_time.h"
#include "core/query.h"

namespace scoop::core {

class QueryLedger {
 public:
  struct Entry {
    /// The query replies to this id count toward: the entry's own id, or
    /// the original query's for a re-issue wire id.
    uint32_t credits = 0;
    bool flooded = false;  ///< False for outcomes answered without traffic.
    int reissues = 0;      ///< Timeout re-issues spent (fault degradation).
    SimTime issued_at = 0;
    QueryOutcome outcome;
    /// The targets the planner asked for. The wire set may be a coarsened
    /// superset (MTU fitting); replies from the extra nodes are dropped, so
    /// outcomes only ever reflect the requested set.
    DynamicNodeBitmap requested;
    DynamicNodeBitmap responded;  ///< Requested targets that answered.
  };

  explicit QueryLedger(int num_nodes) : num_nodes_(num_nodes) {}

  /// Opens a query flooded at `requested`; returns its id.
  uint32_t Open(const Query& query, DynamicNodeBitmap requested, SimTime now);
  /// Opens an outcome answered without network traffic; returns its id.
  uint32_t Record(QueryOutcome outcome);
  /// Counts a re-issue of the open query `id`; returns the fresh wire id
  /// that credits it.
  uint32_t Alias(uint32_t id);

  /// The open query `id`; null once closed, and for unknown or wire ids.
  /// Entry pointers and outcome references live until the next Open,
  /// Record or Alias.
  Entry* open(uint32_t id);

  /// Counts a reply tagged `wire_id` from `responder` and returns the open
  /// query it credits; `*first` tells whether the responder is new. Null
  /// (dropped) for an unknown id, a closed query or an unrequested node.
  Entry* Credit(uint32_t wire_id, NodeId responder, bool* first);

  /// Closes the open query `id` at `now`; returns its final outcome.
  const QueryOutcome& Close(uint32_t id, SimTime now);

  /// The outcome of query `id` once closed; null before, and for unknown
  /// or wire ids.
  const QueryOutcome* outcome(uint32_t id) const;

 private:
  /// Appends an entry crediting its own (next) id.
  Entry& Add();

  int num_nodes_;
  std::vector<Entry> entries_;  ///< Id i at index i - 1: ids start at 1.
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_QUERY_LEDGER_H_

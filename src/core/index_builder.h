// The Figure 2 indexing algorithm: for every value v in the attribute
// domain, pick the owner o minimizing
//
//   cost(o,v) = sum_p P(p produces v) * rate_p * xmits(p→o)
//             + P(user queries v) * query_rate * xmits(base→o→base)
//
// This satisfies properties P1-P4 of §4. Also prices a "store-local" policy
// and can return it instead when cheaper (§4), and implements the paper's
// extensions: owner sets (multiple candidate owners per value) and
// range-granularity placement.
#ifndef SCOOP_CORE_INDEX_BUILDER_H_
#define SCOOP_CORE_INDEX_BUILDER_H_

#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "core/query_stats.h"
#include "core/storage_index.h"
#include "core/xmits_estimator.h"
#include "storage/histogram.h"

namespace scoop::core {

/// Per-producer statistics the basestation holds when building an index
/// (from the last summary received from that node, §5.2).
struct ProducerStats {
  NodeId id = kInvalidNodeId;
  /// Distribution of the node's recent readings.
  storage::ValueHistogram histogram;
  /// Readings per second this node produces.
  double rate = 0.0;
};

/// Options controlling index construction.
struct IndexBuilderOptions {
  /// If true, also price a store-local policy and return it when cheaper
  /// (§4). The paper's experiments disable this (§6, "one important
  /// change").
  bool consider_store_local = false;
  /// Owner-set extension (§4): candidate owners per value. 1 = paper
  /// default (single owner).
  int owner_set_size = 1;
  /// Range-placement extension (§4): place blocks of this many consecutive
  /// values on one owner. 1 = per-value placement (paper default).
  int range_granularity = 1;
};

/// Everything the optimizer consumes.
struct BuildInputs {
  AttrId attr = 0;
  /// Attribute domain to cover (the base derives it from summary min/max).
  Value domain_lo = 0;
  Value domain_hi = 0;
  /// Statistics per producing node.
  std::vector<ProducerStats> producers;
  /// Candidate owners (normally every node incl. the basestation).
  std::vector<NodeId> candidates;
  /// Pairwise transmission-cost oracle (must be Build()-ed).
  const XmitsEstimator* xmits = nullptr;
  /// Query statistics; may be null (no queries recorded yet).
  const QueryStats* query_stats = nullptr;
  /// Previous index generation, whose owners are kept unless clearly
  /// beaten (owner hysteresis, index_builder.cc); may be null.
  const StorageIndex* previous = nullptr;
  NodeId base = 0;
  SimTime now = 0;
};

/// Result of one optimization run.
struct BuildResult {
  /// The chosen index (invalid if store-local won and was requested).
  StorageIndex index;
  /// Expected message cost per second of `index`.
  double expected_cost = 0.0;
  /// Expected cost per second of the store-local alternative.
  double store_local_cost = 0.0;
  /// True iff store-local was cheaper and consider_store_local was set; the
  /// returned `index` then maps the whole domain to kStoreLocalOwner.
  bool chose_store_local = false;
};

/// Stateless optimizer implementing Figure 2.
class IndexBuilder {
 public:
  /// Runs the optimizer and labels the result with version `new_id`.
  static BuildResult Build(const BuildInputs& inputs, const IndexBuilderOptions& options,
                           IndexId new_id);

  /// Expected per-second message cost of the store-local policy: every
  /// query floods (one broadcast per node) and every node replies to the
  /// base (§4, §6 LOCAL).
  static double EvaluateStoreLocal(const BuildInputs& inputs);

  /// Expected per-second cost of a given complete index under `inputs`
  /// (exposed for tests and the suppression heuristic).
  static double EvaluateIndex(const BuildInputs& inputs, const StorageIndex& index);

  /// Workload-weighted similarity between two indices for the §5.3
  /// suppression decision: each value's agreement is weighted by how much
  /// traffic (data production + query interest) it actually carries, so a
  /// disagreement on a hot value blocks suppression while disagreements on
  /// values nobody produces or queries do not.
  static double WeightedSimilarity(const BuildInputs& inputs, const StorageIndex& a,
                                   const StorageIndex& b);
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_INDEX_BUILDER_H_

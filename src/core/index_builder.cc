#include "core/index_builder.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace scoop::core {

namespace {

/// Owner hysteresis: keep the previous generation's owner unless the new
/// argmin is cheaper than this fraction of the incumbent's cost. Stabilizes
/// the index across remaps, which shrinks both mapping traffic (more
/// suppression, §5.3) and the owner unions historical queries must contact
/// (§5.5).
constexpr double kOwnerHysteresis = 0.90;

/// Per-value data-production weight of one producer: P(p→v) * rate_p.
struct WeightedProducer {
  NodeId id;
  double weight;
};

/// Precomputed per-value inputs.
struct ValueTerm {
  std::vector<WeightedProducer> producers;  // Nonzero-weight producers only.
  double query_weight = 0.0;                // P(user queries v) * query_rate.
};

std::vector<ValueTerm> PrecomputeTerms(const BuildInputs& inputs) {
  int64_t domain =
      static_cast<int64_t>(inputs.domain_hi) - inputs.domain_lo + 1;
  SCOOP_CHECK_GT(domain, 0);
  std::vector<ValueTerm> terms(static_cast<size_t>(domain));
  double qrate = inputs.query_stats != nullptr
                     ? inputs.query_stats->QueryRate(inputs.now)
                     : 0.0;
  for (int64_t i = 0; i < domain; ++i) {
    Value v = inputs.domain_lo + static_cast<Value>(i);
    ValueTerm& term = terms[static_cast<size_t>(i)];
    for (const ProducerStats& p : inputs.producers) {
      double w = p.histogram.ProbabilityOf(v) * p.rate;
      if (w > 0) term.producers.push_back(WeightedProducer{p.id, w});
    }
    if (inputs.query_stats != nullptr && qrate > 0) {
      term.query_weight = inputs.query_stats->ProbQueries(v, inputs.now) * qrate;
    }
  }
  return terms;
}

/// cost(o, v-block): the Figure 2 inner expression, over a block of
/// precomputed value terms (block size 1 = the paper's per-value loop).
double CostOf(NodeId owner, const std::vector<const ValueTerm*>& block,
              const BuildInputs& inputs) {
  double cost = 0;
  for (const ValueTerm* term : block) {
    for (const WeightedProducer& p : term->producers) {
      cost += p.weight * inputs.xmits->Xmits(p.id, owner);
    }
    cost += term->query_weight * inputs.xmits->RoundTrip(inputs.base, owner);
  }
  return cost;
}

/// Greedy owner-set selection (§4 extension): start from the best single
/// owner, then add owners while they reduce expected cost. Producers store
/// at the *nearest* owner in the set; queries must contact every owner.
std::vector<NodeId> SelectOwnerSet(const std::vector<const ValueTerm*>& block,
                                   const BuildInputs& inputs, int max_owners) {
  std::vector<NodeId> set;
  auto set_cost = [&](const std::vector<NodeId>& owners) {
    double cost = 0;
    for (const ValueTerm* term : block) {
      for (const WeightedProducer& p : term->producers) {
        double best = std::numeric_limits<double>::infinity();
        for (NodeId o : owners) best = std::min(best, inputs.xmits->Xmits(p.id, o));
        cost += p.weight * best;
      }
      for (NodeId o : owners) {
        cost += term->query_weight * inputs.xmits->RoundTrip(inputs.base, o);
      }
    }
    return cost;
  };

  double current_cost = std::numeric_limits<double>::infinity();
  while (static_cast<int>(set.size()) < max_owners) {
    NodeId best_add = kInvalidNodeId;
    double best_cost = current_cost;
    for (NodeId candidate : inputs.candidates) {
      if (std::find(set.begin(), set.end(), candidate) != set.end()) continue;
      set.push_back(candidate);
      double c = set_cost(set);
      set.pop_back();
      // The first owner always beats the infinite starting cost; afterwards
      // only strict improvements grow the set.
      if (c < best_cost) {
        best_cost = c;
        best_add = candidate;
      }
    }
    if (best_add == kInvalidNodeId) break;
    set.push_back(best_add);
    current_cost = best_cost;
  }
  return set;
}

}  // namespace

double IndexBuilder::EvaluateStoreLocal(const BuildInputs& inputs) {
  double qrate = inputs.query_stats != nullptr
                     ? inputs.query_stats->QueryRate(inputs.now)
                     : 0.0;
  if (qrate <= 0) return 0.0;  // No queries: storing locally is free.
  // Flood: every node rebroadcasts the query once; replies: every node
  // sends one answer to the base.
  double flood = static_cast<double>(inputs.candidates.size());
  double replies = 0;
  for (NodeId n : inputs.candidates) {
    if (n == inputs.base) continue;
    replies += inputs.xmits->Xmits(n, inputs.base);
  }
  return qrate * (flood + replies);
}

double IndexBuilder::EvaluateIndex(const BuildInputs& inputs, const StorageIndex& index) {
  SCOOP_CHECK(inputs.xmits != nullptr);
  std::vector<ValueTerm> terms = PrecomputeTerms(inputs);
  double cost = 0;
  for (size_t i = 0; i < terms.size(); ++i) {
    Value v = inputs.domain_lo + static_cast<Value>(i);
    std::vector<NodeId> owners = index.LookupAll(v);
    if (owners.empty()) continue;
    for (const WeightedProducer& p : terms[i].producers) {
      double best = std::numeric_limits<double>::infinity();
      for (NodeId o : owners) {
        double x = (o == kStoreLocalOwner) ? 0.0 : inputs.xmits->Xmits(p.id, o);
        best = std::min(best, x);
      }
      cost += p.weight * best;
    }
    for (NodeId o : owners) {
      if (o == kStoreLocalOwner) continue;
      cost += terms[i].query_weight * inputs.xmits->RoundTrip(inputs.base, o);
    }
  }
  return cost;
}

double IndexBuilder::WeightedSimilarity(const BuildInputs& inputs, const StorageIndex& a,
                                        const StorageIndex& b) {
  if (!a.valid() || !b.valid()) return 0.0;
  Value lo = std::min({inputs.domain_lo, a.domain_lo(), b.domain_lo()});
  Value hi = std::max({inputs.domain_hi, a.domain_hi(), b.domain_hi()});
  double qrate = inputs.query_stats != nullptr
                     ? inputs.query_stats->QueryRate(inputs.now)
                     : 0.0;
  double total = 0, same = 0;
  for (Value v = lo; v <= hi; ++v) {
    double weight = 1e-6;  // Floor: unproduced values still count a little.
    for (const ProducerStats& p : inputs.producers) {
      weight += p.histogram.ProbabilityOf(v) * p.rate;
    }
    if (inputs.query_stats != nullptr) {
      weight += inputs.query_stats->ProbQueries(v, inputs.now) * qrate;
    }
    total += weight;
    if (a.Lookup(v) == b.Lookup(v)) same += weight;
  }
  return total <= 0 ? 0.0 : same / total;
}

BuildResult IndexBuilder::Build(const BuildInputs& inputs, const IndexBuilderOptions& options,
                                IndexId new_id) {
  SCOOP_CHECK(inputs.xmits != nullptr);
  SCOOP_CHECK(!inputs.candidates.empty());
  SCOOP_CHECK_LE(inputs.domain_lo, inputs.domain_hi);
  SCOOP_CHECK_GE(options.owner_set_size, 1);
  SCOOP_CHECK_GE(options.range_granularity, 1);

  std::vector<ValueTerm> terms = PrecomputeTerms(inputs);
  int64_t domain = static_cast<int64_t>(terms.size());

  BuildResult result;
  bool multi = options.owner_set_size > 1;
  std::vector<NodeId> owners_flat(static_cast<size_t>(domain), inputs.base);
  std::vector<std::vector<NodeId>> owner_sets(static_cast<size_t>(domain));

  // Outer loop of Figure 2, generalized to blocks of `range_granularity`
  // consecutive values (granularity 1 == the paper's per-value loop).
  for (int64_t block_lo = 0; block_lo < domain; block_lo += options.range_granularity) {
    int64_t block_hi = std::min<int64_t>(domain, block_lo + options.range_granularity);
    std::vector<const ValueTerm*> block;
    block.reserve(static_cast<size_t>(block_hi - block_lo));
    for (int64_t i = block_lo; i < block_hi; ++i) {
      block.push_back(&terms[static_cast<size_t>(i)]);
    }

    if (multi) {
      std::vector<NodeId> set = SelectOwnerSet(block, inputs, options.owner_set_size);
      SCOOP_CHECK(!set.empty());
      for (int64_t i = block_lo; i < block_hi; ++i) {
        owner_sets[static_cast<size_t>(i)] = set;
      }
      continue;  // Cost accounted below via EvaluateIndex.
    }

    // Inner loops of Figure 2: try every candidate owner, keep the argmin.
    NodeId best_owner = kInvalidNodeId;
    double best_cost = std::numeric_limits<double>::infinity();
    for (NodeId o : inputs.candidates) {
      double cost = CostOf(o, block, inputs);
      // Deterministic tie-break on node id.
      if (cost < best_cost || (cost == best_cost && o < best_owner)) {
        best_cost = cost;
        best_owner = o;
      }
    }
    SCOOP_CHECK_NE(best_owner, kInvalidNodeId);
    // Owner hysteresis: stick with the incumbent unless clearly beaten.
    if (inputs.previous != nullptr && inputs.previous->valid()) {
      Value block_value = inputs.domain_lo + static_cast<Value>(block_lo);
      std::optional<NodeId> incumbent = inputs.previous->Lookup(block_value);
      if (incumbent.has_value() && *incumbent != best_owner &&
          *incumbent != kStoreLocalOwner) {
        double incumbent_cost = CostOf(*incumbent, block, inputs);
        if (incumbent_cost * kOwnerHysteresis <= best_cost) {
          best_owner = *incumbent;
          best_cost = incumbent_cost;
        }
      }
    }
    for (int64_t i = block_lo; i < block_hi; ++i) {
      owners_flat[static_cast<size_t>(i)] = best_owner;
    }
    result.expected_cost += best_cost;
  }

  if (multi) {
    result.index = StorageIndex::FromOwnerSets(new_id, inputs.attr, inputs.domain_lo,
                                               owner_sets);
    result.expected_cost = EvaluateIndex(inputs, result.index);
  } else {
    result.index =
        StorageIndex::FromOwnerArray(new_id, inputs.attr, inputs.domain_lo, owners_flat);
  }

  result.store_local_cost = EvaluateStoreLocal(inputs);
  if (options.consider_store_local && result.store_local_cost < result.expected_cost) {
    // Publish a store-local index: the whole domain maps to the sentinel.
    result.chose_store_local = true;
    result.index = StorageIndex::FromRanges(
        new_id, inputs.attr,
        {RangeEntry{inputs.domain_lo, inputs.domain_hi, kStoreLocalOwner}});
    result.expected_cost = result.store_local_cost;
  }
  return result;
}

}  // namespace scoop::core

#include "core/policy_agents.h"

#include <set>

#include "common/check.h"

namespace scoop::core {

// ---------------------------------------------------------------------------
// LOCAL
// ---------------------------------------------------------------------------

LocalNodeAgent::LocalNodeAgent(const AgentConfig& config) : AgentBase(config) {
  SCOOP_CHECK(!config.is_base());
}

void LocalNodeAgent::OnSample(Value v) { RouteReading(cfg_.self, Reading{v, ctx().now()}); }

LocalBaseAgent::LocalBaseAgent(const AgentConfig& config) : AgentBase(config) {
  SCOOP_CHECK(config.is_base());
}

// ---------------------------------------------------------------------------
// BASE (send-to-base)
// ---------------------------------------------------------------------------

BasePolicyNodeAgent::BasePolicyNodeAgent(const AgentConfig& config) : AgentBase(config) {
  SCOOP_CHECK(!config.is_base());
}

void BasePolicyNodeAgent::OnSample(Value v) {
  // Routing rules degenerate to "up the tree" (with the neighbor shortcut
  // firing for nodes adjacent to the base).
  RouteData(OwnReadings(cfg_.base, kNoIndex, {Reading{v, ctx().now()}}), cfg_.self,
            tree_.parent());
}

BasePolicyBaseAgent::BasePolicyBaseAgent(const AgentConfig& config) : AgentBase(config) {
  SCOOP_CHECK(config.is_base());
}

uint32_t BasePolicyBaseAgent::IssueQuery(const Query& query) {
  // All data lives here: answer from local Flash, no messages (§4).
  QueryOutcome outcome;
  outcome.query = query;
  outcome.tuples = flash().Scan(MakeQueryPayload(query, NodeSet()));
  if (!query.explicit_nodes.empty()) {
    std::set<NodeId> wanted(query.explicit_nodes.begin(), query.explicit_nodes.end());
    std::erase_if(outcome.tuples,
                  [&wanted](const ReplyTuple& t) { return wanted.count(t.producer) == 0; });
  }
  if (query.kind != Query::Kind::kTuples && !outcome.tuples.empty()) {
    Value best = outcome.tuples.front().value;
    for (const ReplyTuple& t : outcome.tuples) {
      best = query.kind == Query::Kind::kMax ? std::max(best, t.value)
                                             : std::min(best, t.value);
    }
    outcome.aggregate = best;
  }
  return RecordImmediateOutcome(std::move(outcome));
}

// ---------------------------------------------------------------------------
// HASH (GHT-style static hashing; simulated variant)
// ---------------------------------------------------------------------------

NodeId HashOwner(Value v, int num_nodes) {
  SCOOP_CHECK_GT(num_nodes, 0);
  // Knuth multiplicative hash over the value.
  uint32_t h = static_cast<uint32_t>(v) * 2654435761u;
  return static_cast<NodeId>(h % static_cast<uint32_t>(num_nodes));
}

HashNodeAgent::HashNodeAgent(const AgentConfig& config) : AgentBase(config) {
  SCOOP_CHECK(!config.is_base());
}

void HashNodeAgent::OnSample(Value v) {
  // Batching only helps when consecutive values hash alike (e.g. EQUAL).
  RouteReading(HashOwner(v, cfg_.num_nodes), Reading{v, ctx().now()});
}

void HashNodeAgent::RouteBatch(NodeId owner, std::vector<Reading> readings) {
  // The hash "index" is static and version-less: sid 1.
  RouteData(OwnReadings(owner, 1, std::move(readings)), cfg_.self, tree_.parent());
}

HashBaseAgent::HashBaseAgent(const AgentConfig& config) : AgentBase(config) {
  SCOOP_CHECK(config.is_base());
}

uint32_t HashBaseAgent::IssueQuery(const Query& query) {
  if (!query.explicit_nodes.empty()) {
    return IssueQueryToTargets(query, query.explicit_nodes);
  }
  std::set<NodeId> owners;
  std::vector<ValueRange> ranges = query.ranges;
  if (ranges.empty()) ranges.push_back(cfg_.hash_domain);
  for (const ValueRange& r : ranges) {
    for (Value v = r.lo; v <= r.hi; ++v) {
      NodeId owner = HashOwner(v, cfg_.num_nodes);
      if (owner != cfg_.self) owners.insert(owner);
    }
  }
  return IssueQueryToTargets(query, {owners.begin(), owners.end()});
}

}  // namespace scoop::core

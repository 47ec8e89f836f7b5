// The baseline storage policies of §4/§6:
//
//   LOCAL -- sensors store readings locally; queries flood the network and
//            every node replies.
//   BASE  -- sensors send every reading up the tree to the basestation
//            (TinyDB/Cougar style); queries cost nothing.
//   HASH  -- a static uniform hash maps each value to a node (GHT style).
//            The paper evaluates HASH analytically (core/hash_model.h);
//            these agents additionally provide a *simulated* HASH for
//            validation.
//
// Each agent only names an owner for a reading and the targets of a query;
// storing, batching, routing and query collection are AgentBase's.
#ifndef SCOOP_CORE_POLICY_AGENTS_H_
#define SCOOP_CORE_POLICY_AGENTS_H_

#include <vector>

#include "core/agent_base.h"
#include "core/query.h"
#include "core/storage_index.h"

namespace scoop::core {

/// LOCAL sensor node: stores every sample in its own Flash.
class LocalNodeAgent : public AgentBase {
 public:
  explicit LocalNodeAgent(const AgentConfig& config);

 protected:
  void OnSample(Value v) override;
};

/// LOCAL basestation: floods every query to all nodes and collects replies
/// (AgentBase::IssueQuery's default plan).
class LocalBaseAgent : public AgentBase {
 public:
  explicit LocalBaseAgent(const AgentConfig& config);
};

/// BASE sensor node: unicasts each reading (unbatched, like TinyDB's
/// per-epoch result packets) up the routing tree.
class BasePolicyNodeAgent : public AgentBase {
 public:
  explicit BasePolicyNodeAgent(const AgentConfig& config);

 protected:
  void OnSample(Value v) override;
};

/// BASE basestation: stores everything; answers queries from local Flash
/// with zero network traffic.
class BasePolicyBaseAgent : public AgentBase {
 public:
  explicit BasePolicyBaseAgent(const AgentConfig& config);

  /// Answers the query from the local store (no messages).
  uint32_t IssueQuery(const Query& query) override;
};

/// The static hash function shared by HASH agents and the planner:
/// uniformly maps a value to a node id in [0, num_nodes).
NodeId HashOwner(Value v, int num_nodes);

/// HASH sensor node: routes readings to hash(value) using the same
/// batching and routing rules as Scoop, minus statistics and index traffic.
class HashNodeAgent : public AgentBase {
 public:
  explicit HashNodeAgent(const AgentConfig& config);

 protected:
  void OnSample(Value v) override;
  /// Sends the batch as-is: the hash never changes.
  void RouteBatch(NodeId owner, std::vector<Reading> readings) override;
};

/// HASH basestation: queries exactly the nodes the hash maps the requested
/// value ranges to.
class HashBaseAgent : public AgentBase {
 public:
  explicit HashBaseAgent(const AgentConfig& config);

  uint32_t IssueQuery(const Query& query) override;
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_POLICY_AGENTS_H_

// The Scoop protocol stack for a regular sensor node: sampling into the
// recent-readings buffer, periodic summaries up the tree (§5.2), storage-
// index assembly via Trickle gossip (§5.3), and the owner choices of §5.4:
// PickOwner for its own readings, rule 1's index rewriting for readings it
// forwards. AgentBase batches and routes.
#ifndef SCOOP_CORE_SCOOP_NODE_AGENT_H_
#define SCOOP_CORE_SCOOP_NODE_AGENT_H_

#include <vector>

#include "core/agent_base.h"
#include "storage/ring_buffer.h"

namespace scoop::core {

/// A Scoop sensor node.
class ScoopNodeAgent : public AgentBase {
 public:
  explicit ScoopNodeAgent(const AgentConfig& config);

 protected:
  void OnAgentBoot() override;
  /// Stores/forwards the reading per the current index.
  void OnSample(Value v) override;
  void HandleData(const Packet& pkt) override;
  /// Rule 1 applies to queued readings as well: re-resolves owners against
  /// the *current* index, splitting the batch where the mapping changed.
  void RouteBatch(NodeId owner, std::vector<Reading> readings) override;
  void OnAgentReboot() override;
  bool MappingGossipEnabled() const override { return true; }

 private:
  void ScheduleSummaryLoop();
  void LoopSummary();
  void SendSummary();

  /// Looks up the owner for `v`, handling multi-owner indices: prefer self,
  /// then the best-connected candidate in the neighbor table, then the
  /// first listed candidate.
  NodeId PickOwner(const StorageIndex& index, Value v) const;

  storage::RingBuffer<Reading> recent_readings_;
  uint16_t samples_since_summary_ = 0;
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_SCOOP_NODE_AGENT_H_

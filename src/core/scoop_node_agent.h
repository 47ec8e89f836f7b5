// The Scoop protocol stack for a regular sensor node: sampling into the
// recent-readings buffer, periodic summaries up the tree (§5.2), storage-
// index assembly via Trickle gossip (§5.3), and the full data routing of
// §5.4 (rule 1 index rewriting, batching, shortcuts).
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
  void OnIndexCompleted() override;
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

  /// Sends the pending batch (if any), re-resolving owners against the
  /// current index (rule 1 applies to not-yet-sent readings too) and
  /// splitting when readings now map to different owners.
  void FlushBatch();

  storage::RingBuffer<Reading> recent_readings_;
  uint16_t samples_since_summary_ = 0;

  /// Pending outgoing batch (§5.4: up to max_batch readings for one owner).
  struct Batch {
    bool active = false;
    NodeId owner = kInvalidNodeId;
    IndexId sid = kNoIndex;
    std::vector<Reading> readings;
  };
  Batch batch_;
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_SCOOP_NODE_AGENT_H_

// The interface between protocol code and the simulated node it runs on.
// Protocol agents implement `App`; the simulator hands them a `Context`
// giving access to the radio, timers, and per-node randomness.
#ifndef SCOOP_SIM_APP_H_
#define SCOOP_SIM_APP_H_

#include <cstdint>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/small_callback.h"
#include "common/types.h"
#include "net/wire.h"

namespace scoop::sim {

/// Handle for a scheduled event, usable with Cancel(). Packs the schedule
/// sequence number (high 40 bits) over the queue's slab slot index (low 24
/// bits); see ShardQueue.
using EventId = uint64_t;

/// Sentinel for "no event". Sequence numbers start at 1, so no id is 0.
inline constexpr EventId kInvalidEventId = 0;

/// Metadata accompanying a received or overheard packet.
struct ReceiveInfo {
  /// True if the packet was unicast to this node or broadcast (OnReceive);
  /// false for an overheard unicast (OnSnoop).
  bool addressed_to_me = true;
  /// True if this (link_src, seq) was already delivered -- a link-layer
  /// retransmission whose ACK was lost. Data paths should ignore duplicates;
  /// link estimators may still count them. Always false in OnSnoop.
  bool duplicate = false;
  /// Host-only, never on the wire: the rank of link_src among the senders
  /// this node can hear (Topology::in_rank), a dense small integer per
  /// neighbor that per-neighbor tables can index instead of searching.
  uint16_t in_link = 0;
};

/// Services a node's protocol code can use. Implemented by the simulator;
/// unit tests can provide fakes.
class Context {
 public:
  virtual ~Context() = default;

  /// This node's id.
  virtual NodeId self() const = 0;

  /// Current simulated time.
  virtual SimTime now() const = 0;

  /// This node's deterministic random stream.
  virtual Rng& rng() = 0;

  /// Queues `pkt` for local broadcast (no link-layer ACK).
  virtual void Broadcast(Packet pkt) = 0;

  /// Queues `pkt` for unicast to `dst` with link-layer ACK + retransmit.
  virtual void Unicast(NodeId dst, Packet pkt) = 0;

  /// Runs `fn` after `delay`; returns a handle for Cancel(). Takes the
  /// event queue's inline-storage callback type directly, so scheduling a
  /// small lambda never boxes it through a std::function.
  virtual EventId Schedule(SimTime delay, SmallCallback fn) = 0;

  /// Cancels a pending Schedule() callback.
  virtual void Cancel(EventId id) = 0;
};

/// A protocol stack running on one node.
class App {
 public:
  virtual ~App() = default;

  /// Called once when the node powers up (at a jittered time near t=0).
  virtual void OnBoot(Context& ctx) = 0;

  /// Called for packets addressed to this node (unicast to it, or broadcast).
  virtual void OnReceive(Context& ctx, const Packet& pkt, const ReceiveInfo& info) = 0;

  /// Called for overheard unicasts addressed to someone else (promiscuous
  /// listening; used for link estimation, §5.2).
  virtual void OnSnoop(Context& ctx, const Packet& pkt, const ReceiveInfo& info) {
    (void)ctx;
    (void)pkt;
    (void)info;
  }

  /// Called when a queued packet leaves the MAC: `success` is true for
  /// broadcasts that made it onto the air and for ACKed unicasts.
  virtual void OnSendDone(Context& ctx, const Packet& pkt, bool success) {
    (void)ctx;
    (void)pkt;
    (void)success;
  }

  /// Fault injection (src/fault/): the node's power is cut. The radio is
  /// already off; the app should stop doing work until OnReboot. Pending
  /// Schedule() callbacks still fire, so loops must gate on a down flag.
  virtual void OnCrash(Context& ctx) { (void)ctx; }

  /// Fault injection: the node powers back up after a crash with volatile
  /// state (storage, routing) expected to reset; the persistent index is
  /// whatever survived (stale until the next dissemination).
  virtual void OnReboot(Context& ctx) { (void)ctx; }

  /// Fault injection (base failover): `promote` makes this node advertise
  /// itself as the routing-tree root; false reverts it to a regular node.
  virtual void OnRootPromote(Context& ctx, bool promote) {
    (void)ctx;
    (void)promote;
  }
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_APP_H_

// Application-level success counters, shared by agents and read by the
// experiment harness: data-path storage outcomes (§5.4: "about 85% of the
// time the appropriate destination node is found") and query success
// (§6: ~78% of query results retrieved).
#ifndef SCOOP_METRICS_TELEMETRY_H_
#define SCOOP_METRICS_TELEMETRY_H_

#include <cstdint>

namespace scoop::metrics {

/// Shared mutable counters for one simulation run.
struct Telemetry {
  // --- Data path ---
  /// Readings sampled by all nodes.
  uint64_t readings_produced = 0;
  /// Readings durably stored anywhere.
  uint64_t readings_stored = 0;
  /// ... at the owner the (newest applicable) index designated.
  uint64_t stored_at_owner = 0;
  /// ... locally because the node had no complete index yet (§5.3).
  uint64_t stored_local_no_index = 0;
  /// Readings lost in transit (MAC drop with no further fallback).
  uint64_t readings_lost = 0;
  /// Data packets queued by their producer (batches count once).
  uint64_t data_packets_originated = 0;
  /// Readings that left their producer over the radio.
  uint64_t readings_sent_remote = 0;

  // --- Queries ---
  uint64_t queries_issued = 0;
  /// Sum over queries of the number of nodes asked.
  uint64_t query_targets_total = 0;
  /// Responder answers received at the base (first reply per responder).
  uint64_t replies_received = 0;
  /// Tuples returned to the user.
  uint64_t tuples_returned = 0;
  /// Queries answered without network traffic, from stored summaries (§5.5).
  uint64_t queries_answered_from_summaries = 0;

  // --- Index lifecycle (basestation) ---
  uint64_t indices_built = 0;
  uint64_t indices_disseminated = 0;
  /// Rebuilds suppressed because the new index was too similar (§5.3).
  uint64_t indices_suppressed = 0;

  // --- Statistics collection ---
  uint64_t summaries_sent = 0;
  uint64_t summaries_received_at_base = 0;

  // --- Graceful degradation under faults (src/fault/) ---
  /// Readings parked locally with an "orphaned" mark because their owner
  /// was unreachable (no route, or forwarding retries exhausted).
  uint64_t readings_orphaned = 0;
  /// Orphaned readings re-routed to their owner after a later remap.
  uint64_t readings_rehomed = 0;
  /// Base-side query re-issues against the still-missing responder set.
  uint64_t queries_reissued = 0;
  /// Routing-tree parent evictions (beacon silence timeout).
  uint64_t parent_losses = 0;
  /// Packet send retries scheduled by the bounded-backoff fallback.
  uint64_t send_retries = 0;

  /// Accumulates another run's (or another shard's) counters into this
  /// one. Sharded trials keep one Telemetry per shard (each mutated only
  /// by its shard's thread) and merge after the run.
  void MergeFrom(const Telemetry& other) {
    readings_produced += other.readings_produced;
    readings_stored += other.readings_stored;
    stored_at_owner += other.stored_at_owner;
    stored_local_no_index += other.stored_local_no_index;
    readings_lost += other.readings_lost;
    data_packets_originated += other.data_packets_originated;
    readings_sent_remote += other.readings_sent_remote;
    queries_issued += other.queries_issued;
    query_targets_total += other.query_targets_total;
    replies_received += other.replies_received;
    tuples_returned += other.tuples_returned;
    queries_answered_from_summaries += other.queries_answered_from_summaries;
    indices_built += other.indices_built;
    indices_disseminated += other.indices_disseminated;
    indices_suppressed += other.indices_suppressed;
    summaries_sent += other.summaries_sent;
    summaries_received_at_base += other.summaries_received_at_base;
    readings_orphaned += other.readings_orphaned;
    readings_rehomed += other.readings_rehomed;
    queries_reissued += other.queries_reissued;
    parent_losses += other.parent_losses;
    send_retries += other.send_retries;
  }

  /// Fraction of produced readings that were durably stored.
  double StorageSuccessRate() const {
    return readings_produced == 0
               ? 0.0
               : static_cast<double>(readings_stored) / readings_produced;
  }

  /// Fraction of *routed* readings that reached their designated owner
  /// (§5.4's ~85%). Readings stored locally before the first index existed
  /// are excluded: they were never routed.
  double OwnerHitRate() const {
    uint64_t routed = readings_stored - stored_local_no_index;
    return routed == 0 ? 0.0 : static_cast<double>(stored_at_owner) / routed;
  }

  /// Fraction of asked nodes whose replies reached the base.
  double QuerySuccessRate() const {
    return query_targets_total == 0
               ? 0.0
               : static_cast<double>(replies_received) / query_targets_total;
  }

  /// Fraction of summaries that survived the trip to the base.
  double SummaryDeliveryRate() const {
    return summaries_sent == 0
               ? 0.0
               : static_cast<double>(summaries_received_at_base) / summaries_sent;
  }
};

}  // namespace scoop::metrics

#endif  // SCOOP_METRICS_TELEMETRY_H_

// Constructs the periodic summary message of §5.2 from a node's recent
// readings and neighbor table.
#ifndef SCOOP_STORAGE_SUMMARY_BUILDER_H_
#define SCOOP_STORAGE_SUMMARY_BUILDER_H_

#include "net/neighbor_table.h"
#include "net/wire.h"
#include "storage/ring_buffer.h"

namespace scoop::storage {

/// Readings a node's summary covers: its recent-readings buffer holds the
/// last this many (§5.2; paper: 30).
inline constexpr int kSummaryReadings = 30;

/// Builds a SummaryPayload over the node's recent readings (§5.2). The
/// histogram (10 bins), min, max, and sum cover exactly the
/// recent-readings buffer; the neighbor list holds the 12 best-connected
/// neighbors (both counts from the paper). `sample_count` is the number
/// of readings produced since the previous summary (lets the basestation
/// estimate the node's data rate).
SummaryPayload BuildSummary(AttrId attr, const RingBuffer<Reading>& recent_readings,
                            uint16_t sample_count, const net::NeighborTable& neighbors,
                            IndexId last_complete_index);

}  // namespace scoop::storage

#endif  // SCOOP_STORAGE_SUMMARY_BUILDER_H_

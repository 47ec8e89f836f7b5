// Energy model from §2.1: radio costs ~700 nJ/bit (two orders of magnitude
// above Flash's 28 nJ/bit write), so communication dominates node lifetime
// and a node's lifetime is projected from its radio workload bytes alone,
// each bit charged at the transmit rate. Backs the paper's "LOCAL node
// lasts a month, SCOOP average node three months, SCOOP root two weeks"
// comparison.
#ifndef SCOOP_METRICS_ENERGY_MODEL_H_
#define SCOOP_METRICS_ENERGY_MODEL_H_

#include <cstdint>

#include "common/sim_time.h"

namespace scoop::metrics {

/// Battery lifetime in days of a node whose radio moved `workload_bytes`
/// (MessageStats::WorkloadBytesBy) over `duration` of operation, at
/// 700 nJ/bit against a 20 kJ battery: +inf when it moved nothing, 0 for
/// an empty duration.
double LifetimeDays(uint64_t workload_bytes, SimTime duration);

}  // namespace scoop::metrics

#endif  // SCOOP_METRICS_ENERGY_MODEL_H_

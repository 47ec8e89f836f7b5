#include "metrics/energy_model.h"

#include <limits>

namespace scoop::metrics {

namespace {

/// Radio energy per bit (§2.1: ~700 nJ/bit to transmit).
constexpr double kRadioNanojoulesPerBit = 700.0;
/// Usable battery capacity: 2x AA alkaline hold ~9 Wh usable at mote loads
/// (~32 kJ); this is a conservative fraction of that.
constexpr double kBatteryJoules = 20000.0;

}  // namespace

double LifetimeDays(uint64_t workload_bytes, SimTime duration) {
  if (duration <= 0) return 0.0;
  double energy_j = kRadioNanojoulesPerBit * 8.0 * static_cast<double>(workload_bytes) * 1e-9;
  double power_w = energy_j / ToSeconds(duration);
  if (power_w <= 0) return std::numeric_limits<double>::infinity();
  double lifetime_s = kBatteryJoules / power_w;
  return lifetime_s / 86400.0;
}

}  // namespace scoop::metrics

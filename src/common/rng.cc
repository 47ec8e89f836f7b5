#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace scoop {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  SCOOP_CHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t r;
  do {
    r = NextU64();
  } while (r >= limit);
  return lo + static_cast<int64_t>(r % span);
}

double Rng::Gaussian(double mean, double stddev) {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return mean + stddev * cached_gaussian_;
  }
  // Box-Muller transform; u1 in (0,1] to keep the log finite.
  double u1;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  double u2 = UniformDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(theta);
  has_cached_gaussian_ = true;
  return mean + stddev * radius * std::cos(theta);
}

}  // namespace scoop

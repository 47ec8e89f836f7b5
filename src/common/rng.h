// Deterministic pseudo-random number generation (PCG32). Every simulation
// entity derives its own stream from (trial seed, entity id) so that results
// are bit-reproducible and insensitive to event interleaving.
#ifndef SCOOP_COMMON_RNG_H_
#define SCOOP_COMMON_RNG_H_

#include <cstdint>
#include <iterator>

namespace scoop {

/// PCG32 generator (O'Neill 2014): 64-bit state, 32-bit output, selectable
/// stream. Small, fast, and statistically solid for simulation use. The
/// radio builds one short-lived generator per keyed draw (millions per
/// large trial), so construction and the Bernoulli path are inline.
class Rng {
 public:
  /// Creates a generator. Different `stream` values give statistically
  /// independent sequences for the same `seed`.
  explicit Rng(uint64_t seed, uint64_t stream = 0) : state_(0), inc_((stream << 1u) | 1u) {
    NextU32();
    state_ += seed;
    NextU32();
  }

  /// Uniform 32-bit value.
  uint32_t NextU32() {
    uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
    uint32_t rot = static_cast<uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform 64-bit value.
  uint64_t NextU64() {
    uint64_t hi = NextU32();
    return (hi << 32) | NextU32();
  }

  /// Uniform double in [0, 1): 53 random bits.
  double UniformDouble() {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// True with probability `p` (clamped to [0, 1]). Draws nothing when
  /// `p` is outside (0, 1).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Sample from N(mean, stddev^2) via Box-Muller.
  double Gaussian(double mean, double stddev);

  /// Fisher-Yates shuffle of [first, last).
  template <typename It>
  void Shuffle(It first, It last) {
    auto n = std::distance(first, last);
    for (auto i = n - 1; i > 0; --i) {
      auto j = UniformInt(0, i);
      std::swap(first[i], first[j]);
    }
  }

 private:
  uint64_t state_;
  uint64_t inc_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Mixes a seed with an entity id to derive a per-entity stream seed
/// (SplitMix64 finalizer; avalanches all bits).
inline uint64_t MixSeed(uint64_t seed, uint64_t entity_id) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (entity_id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace scoop

#endif  // SCOOP_COMMON_RNG_H_

// The radio/MAC model's fixed parameters that code outside the radio reads:
// a Mica2 CC1000 radio running TinyOS CSMA-CA (§2.1-2.2). Agents size
// chunks to the MTU, the engine's cross-shard lookahead is the minimum
// backoff, and the analytical HASH model prices ACKs as the MAC does. The
// bitrate, link framing, channel-attempt limit and capture ratio have no
// reader outside ShardRadio and live in shard.cc.
#ifndef SCOOP_SIM_RADIO_CONSTANTS_H_
#define SCOOP_SIM_RADIO_CONSTANTS_H_

#include <algorithm>

#include "common/check.h"
#include "common/sim_time.h"

namespace scoop::sim {

/// Maximum Packet::WireSize() the radio accepts. Larger payloads must be
/// chunked by the sender (mapping and reply packets do this).
inline constexpr int kMaxPacketBytes = 96;

/// CSMA backoff window bounds: the window starts at kBackoffMin, doubles
/// with each failed channel-acquisition attempt, and clamps at kBackoffMax
/// (binary exponential backoff). kBackoffMin sits near a typical frame
/// airtime (a 25-byte frame is ~7.5 ms at 38.4 kbps) so a backed-off
/// sender does not burn several channel attempts re-sensing while a single
/// foreign frame is still on the air; kBackoffMax spans about three
/// maximum-length frames. A fresh acquisition waits kBackoffMin plus a
/// draw from [0, kBackoffMin - 1], and that floor is the engine's
/// cross-shard lookahead, so it must be positive.
inline constexpr SimTime kBackoffMin = Millis(8);
inline constexpr SimTime kBackoffMax = Millis(64);
static_assert(kBackoffMin >= 1 && kBackoffMax >= kBackoffMin);

/// Link-layer retransmissions for unacked unicasts (the paper's xmits()
/// cost counts these, property P4).
inline constexpr int kUnicastRetries = 5;

/// ACK frames are an order of magnitude shorter than data frames, so
/// their delivery probability is better than the reverse link's packet
/// delivery: p_ack = p_reverse ^ kAckShortnessExponent.
inline constexpr double kAckShortnessExponent = 0.5;

/// CSMA backoff window for the 1-based busy-channel `attempt`: starts at
/// kBackoffMin, doubles per attempt, clamps at kBackoffMax (binary
/// exponential backoff).
inline SimTime BackoffWindow(int attempt) {
  SCOOP_CHECK_GE(attempt, 1);
  SimTime window = kBackoffMin;
  for (int k = 1; k < attempt && window < kBackoffMax; ++k) window *= 2;
  return std::min(window, kBackoffMax);
}

}  // namespace scoop::sim

#endif  // SCOOP_SIM_RADIO_CONSTANTS_H_

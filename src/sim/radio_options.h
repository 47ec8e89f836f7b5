// Radio/MAC model parameters (defaults approximate a Mica2 CC1000 radio
// running TinyOS CSMA-CA, §2.1-2.2).
#ifndef SCOOP_SIM_RADIO_OPTIONS_H_
#define SCOOP_SIM_RADIO_OPTIONS_H_

#include <algorithm>

#include "common/check.h"
#include "common/sim_time.h"

namespace scoop::sim {

/// Tunables of the shared-channel radio model.
struct RadioOptions {
  /// Raw channel bitrate (Mica2: 38.4 kbps; §2.1).
  double bitrate_bps = 38400.0;

  /// Link-layer framing overhead per packet (preamble, sync, link src/dst,
  /// CRC) added to Packet::WireSize() for airtime.
  int link_header_bytes = 11;

  /// Maximum Packet::WireSize() the radio accepts. Larger payloads must be
  /// chunked by the sender (mapping and reply packets do this).
  int max_packet_bytes = 96;

  /// CSMA backoff window bounds: the window starts at backoff_min, doubles
  /// with each failed channel-acquisition attempt, and clamps at
  /// backoff_max (binary exponential backoff). backoff_min sits near a
  /// typical frame airtime (a 25-byte frame is ~7.5 ms at 38.4 kbps) so a
  /// backed-off sender does not burn several channel attempts re-sensing
  /// while a single foreign frame is still on the air; backoff_max spans
  /// about three maximum-length frames.
  SimTime backoff_min = Millis(8);
  SimTime backoff_max = Millis(64);

  /// After this many failed channel-acquisition attempts the frame is
  /// dropped (counted as a channel drop).
  int max_channel_attempts = 16;

  /// Link-layer retransmissions for unacked unicasts (the paper's xmits()
  /// cost counts these, property P4).
  int unicast_retries = 5;

  /// ACK frames are an order of magnitude shorter than data frames, so
  /// their delivery probability is better than the reverse link's packet
  /// delivery: p_ack = p_reverse ^ ack_shortness_exponent.
  double ack_shortness_exponent = 0.5;

  /// Capture effect: a concurrent transmission corrupts reception only if
  /// the interferer's link to the receiver is at least this fraction as
  /// strong as the signal's (delivery probability as a power proxy).
  double capture_ratio = 0.5;

  /// If false, overlapping transmissions do not corrupt each other (useful
  /// for isolating protocol behaviour in tests).
  bool model_collisions = true;
};

/// CSMA backoff window for the 1-based busy-channel `attempt`: starts at
/// backoff_min, doubles per attempt, clamps at backoff_max (binary
/// exponential backoff).
inline SimTime BackoffWindow(const RadioOptions& options, int attempt) {
  SCOOP_CHECK_GE(attempt, 1);
  SimTime window = options.backoff_min;
  for (int k = 1; k < attempt && window < options.backoff_max; ++k) window *= 2;
  return std::min(window, options.backoff_max);
}

}  // namespace scoop::sim

#endif  // SCOOP_SIM_RADIO_OPTIONS_H_

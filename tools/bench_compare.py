#!/usr/bin/env python3
"""Diffs two BENCH_radio.json perf-trajectory points.

For every google-benchmark entry present in both files, prints the
old/new items-per-second (falling back to inverse wall time when a bench
reports no item counter) and the speedup ratio new/old; for the campaign
probes, compares trials per second (the inverse of wall seconds per
trial, so bigger is better throughout) and, informationally,
events-per-second. Sharded probes additionally get an informational
shard.stall_us / shard.mirrored_frames sync-cost diff, and probes run
with --profile a sim-profiler bucket diff (queue/radio/agent/shard-sync/
other wall seconds) -- never part of the gate.

Usage: tools/bench_compare.py OLD.json NEW.json [--min-ratio R] [--fail-below R]
  --min-ratio R   print a trailing WARNING line listing benches whose
                  ratio fell below R (still exit 0)
  --fail-below R  GATE: exit 1 when any campaign probe's wall seconds per
                  trial grow so that the new/old trials-per-second ratio
                  drops below R. Only the campaign probes gate --
                  microbenchmarks are too noisy on shared CI runners to
                  fail the build on -- and only on wall time per trial:
                  events/s counts engine bookkeeping events, which change
                  with the engine and shard count without any change in
                  cost. Set BENCH_ALLOW_REGRESSION=1 to downgrade the gate
                  to a warning (exit 0), e.g. when a PR knowingly trades
                  throughput for correctness.
"""

import argparse
import json
import os
import sys


def bench_rates(doc):
    """Flattens one BENCH json into {bench_name: items_per_second}."""
    rates = {}
    for section, payload in doc.items():
        if not isinstance(payload, dict):
            continue
        if "benchmarks" in payload:  # google-benchmark output
            for bench in payload["benchmarks"]:
                if bench.get("run_type") == "aggregate":
                    continue
                name = f"{section}/{bench['name']}"
                if "items_per_second" in bench:
                    rates[name] = bench["items_per_second"]
                elif bench.get("real_time", 0) > 0:
                    # Convert to a rate so "bigger is better" holds uniformly.
                    scale = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}.get(
                        bench.get("time_unit", "ns"), 1e9)
                    rates[name] = scale / bench["real_time"]
        elif "events_per_second" in payload:  # campaign perf probe
            rates[f"{section}/events_per_second"] = payload["events_per_second"]
            per_trial = payload.get("wall_seconds_per_trial", 0)
            if per_trial > 0:
                rates[f"{section}/trials_per_second"] = 1.0 / per_trial
    return rates


def profile_buckets(doc):
    """Flattens profiled campaign probes into {section/bucket: seconds}.

    Probes run with --profile carry a top-level "profile" object of
    wall-clock bucket totals (see CampaignPerfJson); unprofiled probes
    simply have no entry here.
    """
    buckets = {}
    for section, payload in doc.items():
        if not isinstance(payload, dict):
            continue
        for key, seconds in payload.get("profile", {}).items():
            buckets[f"{section}/{key}"] = seconds
    return buckets


def queue_splits(doc):
    """Flattens campaign probes into {section: (absorbed, spilled, rate)}.

    Campaign perf probes carry a top-level "queue" object with the
    timer-wheel tier split (see CampaignPerfJson); older baselines and
    microbench sections simply have no entry here.
    """
    splits = {}
    for section, payload in doc.items():
        if not isinstance(payload, dict):
            continue
        q = payload.get("queue")
        if isinstance(q, dict) and "wheel_absorb_rate" in q:
            splits[section] = (q.get("wheel_absorbed", 0.0),
                               q.get("wheel_spilled", 0.0),
                               q["wheel_absorb_rate"])
    return splits


def print_queue_diff(old_doc, new_doc):
    """Informational (never gating) diff of the queue.wheel.* tier split."""
    old_q = queue_splits(old_doc)
    new_q = queue_splits(new_doc)
    names = sorted(set(old_q) | set(new_q))
    if not names:
        return
    print(f"\nqueue.wheel.* tier split (informational, absorb rate):")
    print(f"{'probe':<72} {'old rate':>12} {'new rate':>12}")
    for name in names:
        def fmt(entry):
            if entry is None:
                return "-"
            absorbed, spilled, rate = entry
            return f"{rate:.4f}"
        print(f"{name:<72} {fmt(old_q.get(name)):>12} {fmt(new_q.get(name)):>12}")
        if name in new_q:
            absorbed, spilled, _ = new_q[name]
            print(f"  new absorbed={absorbed:.0f} spilled={spilled:.0f}")


def shard_splits(doc):
    """Flattens campaign probes into {section: shard-sync dict}.

    Sharded campaign perf probes carry a top-level "shard" object with the
    null-message sync costs (see CampaignPerfJson): stall_us/stall_episodes
    are wall-clock time shards spent parked on their neighbors' EPT
    promises, mirrored_frames counts cross-shard announce copies. Older
    baselines and sequential probes simply have no entry here (or an
    all-zero one, which reads the same).
    """
    splits = {}
    for section, payload in doc.items():
        if not isinstance(payload, dict):
            continue
        s = payload.get("shard")
        if isinstance(s, dict) and "stall_us" in s:
            splits[section] = s
    return splits


def print_shard_diff(old_doc, new_doc):
    """Informational (never gating) diff of the shard.* sync costs."""
    old_s = shard_splits(old_doc)
    new_s = shard_splits(new_doc)
    # Probes where both sides never sharded (all-zero rows) are noise.
    def active(entry):
        return entry is not None and any(entry.get(k, 0) for k in
                                         ("stall_us", "stall_episodes",
                                          "mirrored_frames"))
    names = sorted(n for n in set(old_s) | set(new_s)
                   if active(old_s.get(n)) or active(new_s.get(n)))
    if not names:
        return
    print(f"\nshard sync costs (informational; stall is wall-clock, noisy):")
    print(f"{'probe':<56} {'old stall ms':>13} {'new stall ms':>13} "
          f"{'old mirr':>10} {'new mirr':>10}")
    for name in names:
        def fmt(entry, key, scale=1.0):
            if entry is None or key not in entry:
                return "-"
            return f"{entry[key] * scale:.1f}"
        print(f"{name:<56} {fmt(old_s.get(name), 'stall_us', 1e-3):>13} "
              f"{fmt(new_s.get(name), 'stall_us', 1e-3):>13} "
              f"{fmt(old_s.get(name), 'mirrored_frames'):>10} "
              f"{fmt(new_s.get(name), 'mirrored_frames'):>10}")


def print_profile_diff(old_doc, new_doc):
    """Informational (never gating) diff of the sim-profiler buckets."""
    old_prof = profile_buckets(old_doc)
    new_prof = profile_buckets(new_doc)
    names = sorted(set(old_prof) | set(new_prof))
    if not names:
        return
    print(f"\nprofiler buckets (informational, wall seconds):")
    print(f"{'bucket':<72} {'old s':>12} {'new s':>12} {'ratio':>7}")
    for name in names:
        old_s = old_prof.get(name)
        new_s = new_prof.get(name)
        old_text = f"{old_s:.3f}" if old_s is not None else "-"
        new_text = f"{new_s:.3f}" if new_s is not None else "-"
        if old_s and new_s is not None:
            ratio = f"{new_s / old_s:>6.2f}x"
        else:
            ratio = f"{'-':>7}"
        print(f"{name:<72} {old_text:>12} {new_text:>12} {ratio}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="baseline BENCH json (e.g. checked-in BENCH_radio.json)")
    parser.add_argument("new", help="fresh BENCH json to compare against the baseline")
    parser.add_argument("--min-ratio", type=float, default=None,
                        help="warn (exit 0) when a bench's new/old ratio drops below this")
    parser.add_argument("--fail-below", type=float, default=None,
                        help="exit 1 when a campaign probe's trials-per-second "
                             "(1 / wall seconds per trial) ratio drops below this "
                             "(BENCH_ALLOW_REGRESSION=1 downgrades to a warning)")
    args = parser.parse_args()

    with open(args.old) as f:
        old_doc = json.load(f)
    with open(args.new) as f:
        new_doc = json.load(f)

    old_rates = bench_rates(old_doc)
    new_rates = bench_rates(new_doc)
    common = sorted(set(old_rates) & set(new_rates))
    if not common:
        print("no common benchmarks between the two files")
        return 0

    print(f"{'benchmark':<72} {'old/s':>12} {'new/s':>12} {'ratio':>7}")
    slow = []
    gate_failures = []
    for name in common:
        old_rate, new_rate = old_rates[name], new_rates[name]
        ratio = new_rate / old_rate if old_rate > 0 else float("inf")
        print(f"{name:<72} {old_rate:>12.3g} {new_rate:>12.3g} {ratio:>6.2f}x")
        if args.min_ratio is not None and ratio < args.min_ratio:
            slow.append((name, ratio))
        if (args.fail_below is not None and name.endswith("/trials_per_second")
                and ratio < args.fail_below):
            gate_failures.append((name, ratio))

    print_queue_diff(old_doc, new_doc)
    print_shard_diff(old_doc, new_doc)
    print_profile_diff(old_doc, new_doc)

    only_old = sorted(set(old_rates) - set(new_rates))
    only_new = sorted(set(new_rates) - set(old_rates))
    if only_old:
        print(f"\n{len(only_old)} bench(es) only in {args.old} (first: {only_old[0]})")
    if only_new:
        print(f"{len(only_new)} bench(es) only in {args.new} (first: {only_new[0]})")
    if slow:
        names = ", ".join(f"{n} ({r:.2f}x)" for n, r in slow)
        print(f"\nWARNING: below --min-ratio {args.min_ratio}: {names}")
    if gate_failures:
        names = ", ".join(f"{n} ({r:.2f}x)" for n, r in gate_failures)
        if os.environ.get("BENCH_ALLOW_REGRESSION"):
            print(f"\nWARNING (gate waived by BENCH_ALLOW_REGRESSION): "
                  f"below --fail-below {args.fail_below}: {names}")
        else:
            print(f"\nFAIL: wall-seconds-per-trial regression beyond --fail-below "
                  f"{args.fail_below}: {names}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

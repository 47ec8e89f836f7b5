#!/usr/bin/env python3
"""Validates a Chrome trace-event JSON written by --trace-out.

Checks (stdlib only, no Perfetto needed in CI):
  - the file parses as JSON with a "traceEvents" list
  - every event has name/cat/ph/ts/pid/tid; "X" events carry dur >= 0,
    "i" events a scope; no other phases are emitted by the simulator
  - timestamps and durations are non-negative (sim time starts at 0)
  - "X" spans nest properly within each (pid, tid) track: two spans on
    one track either don't intersect or one contains the other, which is
    what makes them render as a flame graph instead of garbage. Spans in
    the "query" category are exempt: they are issue-to-close lifetimes of
    concurrent async operations, emitted retroactively at close, and under
    faults (timeouts, re-issues) a query legitimately outlives the issue
    interval and overlaps its neighbours -- the Chrome format would model
    them as async b/e events, which the simulator's minimal X/i vocabulary
    does not emit
  - "fault"-category events are well-shaped instants: phase "i" and a
    name from the fault vocabulary -- either an injected fault.* instant
    (fault.crash, fault.reboot, ..., which must carry an args.kind
    discriminant) or a graceful-degradation marker (data.orphaned,
    data.rehomed, query.reissue, route.parent_lost)
  - (--require-cat) each named category occurs at least once, e.g.
      tools/trace_check.py t.json --require-cat packet query shard-sync

Prints a per-category event summary; exits 1 on any violation.
"""

import argparse
import collections
import json
import sys


def load_events(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("top level must be an object with a traceEvents list")
    return doc


# Injected-fault instant vocabulary (src/harness/experiment.cc,
# FaultInstantName); each carries an args.kind discriminant.
FAULT_INJECT_NAMES = frozenset({
    "fault.crash", "fault.reboot", "fault.radio_up", "fault.promote",
    "fault.demote", "fault.partition",
})
# Graceful-degradation markers emitted by the agents on the same category
# (src/core/agent_base.cc); no kind discriminant.
FAULT_DEGRADE_NAMES = frozenset({
    "data.orphaned", "data.rehomed", "query.reissue", "route.parent_lost",
})


def check_events(events):
    """Yields error strings for malformed events."""
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            yield f"{where}: not an object"
            continue
        for field in ("name", "cat", "ph", "ts", "pid", "tid"):
            if field not in e:
                yield f"{where}: missing '{field}'"
        ph = e.get("ph")
        if ph not in ("X", "i"):
            yield f"{where}: unexpected phase {ph!r} (simulator emits only X and i)"
        if ph == "X" and e.get("dur", -1) < 0:
            yield f"{where}: X span without a non-negative dur"
        if ph == "i" and "s" not in e:
            yield f"{where}: instant without a scope"
        if e.get("ts", 0) < 0:
            yield f"{where}: negative ts {e.get('ts')}"
        if e.get("cat") == "fault":
            if ph != "i":
                yield f"{where}: fault event with phase {ph!r} (must be an instant)"
            name = e.get("name")
            if name in FAULT_INJECT_NAMES:
                kind = e.get("args", {}).get("kind")
                if not isinstance(kind, int) or kind < 0:
                    yield f"{where}: fault instant without an integer args.kind"
            elif name not in FAULT_DEGRADE_NAMES:
                yield f"{where}: unknown fault instant name {name!r}"


def check_nesting(events):
    """Yields error strings for partially-overlapping spans on one track."""
    tracks = collections.defaultdict(list)
    for e in events:
        if isinstance(e, dict) and e.get("ph") == "X" and e.get("cat") != "query":
            start = e.get("ts", 0)
            tracks[(e.get("pid"), e.get("tid"))].append(
                (start, start + max(e.get("dur", 0), 0), e.get("name")))
    for track, spans in sorted(tracks.items()):
        # Sweep in start order, outermost (longest) first at equal starts;
        # a span starting inside the enclosing span but ending outside it
        # is a partial overlap the viewer cannot nest.
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for start, end, name in spans:
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack and end > stack[-1][1]:
                yield (f"track pid={track[0]} tid={track[1]}: span "
                       f"'{name}' [{start}, {end}) partially overlaps "
                       f"'{stack[-1][2]}' [{stack[-1][0]}, {stack[-1][1]})")
                continue  # Don't push; report each overlap once.
            stack.append((start, end, name))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON (--trace-out output)")
    parser.add_argument("--require-cat", nargs="+", default=[], metavar="CAT",
                        help="categories that must each appear at least once")
    parser.add_argument("--max-errors", type=int, default=20,
                        help="stop printing after this many violations")
    args = parser.parse_args()

    try:
        doc = load_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"FAIL: {args.trace}: {err}", file=sys.stderr)
        return 1
    events = doc["traceEvents"]

    errors = []
    for err in check_events(events):
        errors.append(err)
        if len(errors) >= args.max_errors:
            break
    if not errors:  # Nesting only makes sense on well-formed events.
        for err in check_nesting(events):
            errors.append(err)
            if len(errors) >= args.max_errors:
                break

    by_cat = collections.Counter()
    spans_by_cat = collections.Counter()
    for e in events:
        if isinstance(e, dict):
            by_cat[e.get("cat", "?")] += 1
            if e.get("ph") == "X":
                spans_by_cat[e.get("cat", "?")] += 1
    print(f"{args.trace}: {len(events)} events on "
          f"{len({(e.get('pid'), e.get('tid')) for e in events if isinstance(e, dict)})} tracks")
    for cat in sorted(by_cat):
        print(f"  {cat:<12} {by_cat[cat]:>8} events ({spans_by_cat[cat]} spans)")
    dropped = doc.get("otherData", {}).get("dropped", 0)
    if dropped:
        print(f"  note: {dropped} events dropped at the sink cap")

    for cat in args.require_cat:
        if by_cat.get(cat, 0) == 0:
            errors.append(f"required category '{cat}' has no events")

    if errors:
        for err in errors:
            print(f"FAIL: {err}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

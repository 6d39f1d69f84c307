#!/usr/bin/env python3
"""CI perf-trajectory gate for bench/fleet_scale.

Compares a freshly generated BENCH_fleet_scale.json against the committed
copy. Both hold schema_version 10 records keyed by (case, shape, variant);
for every committed record the gate requires:

  - a fresh record with the same key (a dropped case, shape or variant
    fails the gate);
  - wall_ms > 0 and an integer events count on both sides (else bad input);
  - fresh wall_ms at most MAX_RATIO x the committed wall_ms;
  - fresh events/s (events / wall_ms) at least 1/MAX_RATIO of the
    committed events/s, which catches "each event got slower" even when a
    run also processes fewer events;
  - every invariant, committed or fresh, present and true in the fresh
    record: those are the claims a case exists to demonstrate.

A changed counter only prints a behaviour-change note: counters are
deterministic per (case, shape, variant), but the golden and determinism
tests pin behaviour, not this gate. MAX_RATIO is deliberately tolerant
(shared CI runners are noisy); the gate exists to catch "something went
quadratic again", not single-digit-percent drift. Fresh records with no
committed counterpart are not gated.

Usage:
  check_perf_trajectory.py FRESH.json COMMITTED.json

Exit codes: 0 ok, 1 regression or missing record, 2 bad input.
"""

import json
import sys

MAX_RATIO = 3.0
SCHEMA_VERSION = 10


def bad_input(message):
    print(f"check_perf_trajectory: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    """Returns {key: record} for one file; exits 2 on unusable input."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        bad_input(f"cannot read {path}: {err}")
    if (not isinstance(doc, dict)
            or doc.get("schema_version") != SCHEMA_VERSION
            or not isinstance(doc.get("records"), list)
            or not doc["records"]
            or not all(isinstance(r, dict) for r in doc["records"])):
        bad_input(f"{path}: want schema_version {SCHEMA_VERSION} with a "
                  f"non-empty records list")
    records = {}
    for r in doc["records"]:
        key = tuple(r.get(k) for k in ("case", "shape", "variant"))
        if not all(isinstance(k, str) for k in key) or key in records:
            bad_input(f"{path}: record key {key!r} is malformed or repeated")
        records[key] = r
    return records


def checked(path, label, record):
    """(wall_ms, events) of a gated record; exits 2 unless both are usable."""
    wall = record.get("wall_ms")
    events = record.get("events")
    if (not isinstance(wall, (int, float)) or isinstance(wall, bool)
            or not wall > 0):
        bad_input(f"{path}: {label} has no positive wall_ms ({wall!r})")
    if not isinstance(events, int) or isinstance(events, bool):
        bad_input(f"{path}: {label} has no events count ({events!r})")
    return wall, events


def main():
    if len(sys.argv) != 3:
        bad_input("usage: check_perf_trajectory.py FRESH.json COMMITTED.json")
    fresh_path, committed_path = sys.argv[1], sys.argv[2]
    fresh_records = load(fresh_path)
    committed_records = load(committed_path)

    failed = False
    print(f"perf trajectory (gate: {MAX_RATIO:.1f}x wall, "
          f"1/{MAX_RATIO:.1f} events/s):")
    for key, base in committed_records.items():
        label = " ".join(key)
        fresh = fresh_records.get(key)
        if fresh is None:
            print(f"  {label:<44} MISSING from fresh results")
            failed = True
            continue
        base_wall, base_events = checked(committed_path, label, base)
        wall, events = checked(fresh_path, label, fresh)
        ratio = wall / base_wall
        base_eps = base_events / base_wall * 1e3
        eps = events / wall * 1e3
        regressed = ratio > MAX_RATIO
        slowed = eps < base_eps / MAX_RATIO
        print(f"  {label:<44} committed {base_wall:8.1f} ms   "
              f"fresh {wall:8.1f} ms   ratio {ratio:4.2f}x   "
              f"{'REGRESSION' if regressed else 'ok'}")
        if slowed:
            print(f"  {label:<44} THROUGHPUT REGRESSION: events/s "
                  f"{base_eps:.0f} -> {eps:.0f} "
                  f"(floor {base_eps / MAX_RATIO:.0f})")
        failed = failed or regressed or slowed
        base_counters = dict(base.get("counters", {}), events=base_events)
        counters = dict(fresh.get("counters", {}), events=events)
        for name in sorted(set(base_counters) | set(counters)):
            if counters.get(name) != base_counters.get(name):
                print(f"  {label:<44} note: {name} changed "
                      f"{base_counters.get(name)} -> {counters.get(name)} "
                      f"(behaviour change)")
        invariants = fresh.get("invariants", {})
        for name in sorted(set(base.get("invariants", {})) | set(invariants)):
            if invariants.get(name) is not True:
                print(f"  {label:<44} INVARIANT BROKEN: {name} is "
                      f"{invariants.get(name)}")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

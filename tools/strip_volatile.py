#!/usr/bin/env python3
"""Normalize a tapas JSON export for byte-level comparison.

The JSON exports are deterministic for a fixed input — same cycles,
same Pareto frontier, same row order — except for keys that
intentionally record wall-clock facts about the producing run:

  manifest          which binary ran, with what argv, how many jobs
  compile_timings   host seconds per toolchain stage
  host_seconds      wall-clock timings from the throughput bench
  sim_khz           derived from host_seconds
  events_per_sec    derived from host_seconds

(Modelled "seconds" fields — simulated cycles over Fmax — are
deterministic and deliberately NOT stripped.)

Byte-diffing two runs (serial vs parallel sweep, interrupted+resumed
vs uninterrupted) must ignore exactly those keys and nothing else.
This script removes them recursively and re-dumps the document with
sorted keys, so

  strip_volatile.py a.json > a.norm
  strip_volatile.py b.json > b.norm
  diff a.norm b.norm

is a semantic comparison. Used by the CI interruption smoke job; handy
manually when chasing a nondeterminism report.

Usage: strip_volatile.py FILE [FILE...]   (or - for stdin)
With multiple FILEs, output is concatenated in order.
"""

import json
import sys

VOLATILE_KEYS = {
    "manifest",
    "compile_timings",
    "host_seconds",
    "sim_khz",
    "events_per_sec",
}


def strip(node):
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items()
                if k not in VOLATILE_KEYS}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def main():
    paths = sys.argv[1:]
    if not paths:
        sys.exit(f"usage: {sys.argv[0]} FILE [FILE...]  (- for stdin)")
    for path in paths:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path) as f:
                doc = json.load(f)
        json.dump(strip(doc), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

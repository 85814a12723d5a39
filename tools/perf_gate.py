#!/usr/bin/env python3
"""Simulation-throughput regression gate.

Compares a fresh `bench/sim_throughput --json` report against the
checked-in baseline (BENCH_simspeed.json at the repo root) row by row,
keyed on (workload, tiles). The metric is simulated KHz —
simulated cycles per wall-clock second — so it tracks simulator
speed, not workload behavior. Cycle counts are also cross-checked
exactly: a cycle drift means the simulator's *timing model* changed,
which is a different (and worse) kind of regression than running
slowly.

Two thresholds, expressed as current/baseline ratios:

  --warn-below R   print a warning for rows slower than R x baseline
                   (default 0.9); never affects the exit code.
  --fail-below R   exit 1 for rows slower than R x baseline (default
                   0.75: a >25% sim_khz regression is a hard failure).

events_per_sec (simulation events retired per wall-clock second) is
checked against the same --warn-below ratio, warn-only: it measures
event-processing efficiency rather than end-to-end speed (idle-cycle
skipping can change sim_khz without touching it), so a drop is worth
a look but never fails the gate by itself.

--update-baseline rewrites the baseline file from the current report
(after printing the comparison), for deliberate re-baselining after
a known simulator change; the gate then always passes.

Usage:
  build/bench/sim_throughput --json current.json
  tools/perf_gate.py --baseline BENCH_simspeed.json current.json
  tools/perf_gate.py --update-baseline current.json   # re-baseline
"""

import argparse
import json
import os
import sys


def load_rows(path):
    """Map (workload, tiles) -> row dict."""
    with open(path) as f:
        doc = json.load(f)
    rows = doc.get("rows", [])
    if not rows:
        sys.exit(f"error: {path} has no benchmark rows")
    out = {}
    for r in rows:
        if not {"workload", "tiles"} <= r.keys():
            print(f"  warn: {path} has a row without workload/tiles "
                  "keys; skipped")
            continue
        out[(r["workload"], r["tiles"])] = r
    return out


def row_name(key):
    return f"{key[0]} x{key[1]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="fresh sim_throughput --json report")
    ap.add_argument("--baseline", default="BENCH_simspeed.json",
                    help="checked-in baseline report (default: %(default)s)")
    ap.add_argument("--warn-below", type=float, default=0.9, metavar="R",
                    help="warn when sim_khz < R x baseline (default: %(default)s)")
    ap.add_argument("--fail-below", type=float, default=0.75, metavar="R",
                    help="fail when sim_khz < R x baseline (default: %(default)s)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from the current report "
                         "after comparing (gate always passes)")
    args = ap.parse_args()

    # A missing baseline is not a regression: first run on a fresh
    # branch, renamed file, or a deliberately dropped baseline. Warn
    # so the log shows the gate did not actually compare anything,
    # but let the build pass (and honor --update-baseline).
    if not os.path.exists(args.baseline):
        print(f"perf gate: warning: baseline '{args.baseline}' not "
              "found; nothing to compare, passing")
        if args.update_baseline:
            update_baseline(args.current, args.baseline)
        return 0

    base = load_rows(args.baseline)
    cur = load_rows(args.current)

    failed = False
    print(f"{'row':<22} {'tiles':>5} {'base_khz':>10} {'cur_khz':>10} "
          f"{'ratio':>7}  status")
    for key, b in sorted(base.items(), key=lambda kv: repr(kv[0])):
        c = cur.get(key)
        name = row_name(key)
        if c is None:
            print(f"  missing row for {name} in current report")
            failed = True
            continue
        if "cycles" not in b or "sim_khz" not in b:
            # A baseline row without the gated metrics cannot fail
            # anything — warn so the hole is visible, keep going.
            print(f"  warn: baseline row {name} lacks cycles/sim_khz;"
                  " skipped")
            continue
        if "cycles" not in c or "sim_khz" not in c:
            print(f"  current row {name} lacks cycles/sim_khz")
            failed = True
            continue
        if c["cycles"] != b["cycles"]:
            print(f"  CYCLE DRIFT on {name}: baseline {b['cycles']} vs "
                  f"current {c['cycles']} — timing model changed; "
                  "re-baseline deliberately or fix the regression")
            failed = True
        ratio = c["sim_khz"] / b["sim_khz"] if b["sim_khz"] else float("inf")
        if ratio < args.fail_below:
            status = "FAIL"
            failed = True
        elif ratio < args.warn_below:
            status = "warn"
        else:
            status = "ok"
        print(f"{key[0]:<22} {key[1]:>5} {b['sim_khz']:>10.1f} "
              f"{c['sim_khz']:>10.1f} {ratio:>6.2f}x  {status}")
        b_eps = b.get("events_per_sec")
        c_eps = c.get("events_per_sec")
        if b_eps and c_eps is not None:
            eps_ratio = c_eps / b_eps
            if eps_ratio < args.warn_below:
                print(f"  warn: {name} events_per_sec {c_eps:.3g} is "
                      f"{eps_ratio:.2f}x baseline {b_eps:.3g}")

    for key in sorted(set(cur) - set(base), key=repr):
        print(f"  note: {row_name(key)} present only in current report")

    if args.update_baseline:
        update_baseline(args.current, args.baseline)
        print("perf gate: baseline updated, passing")
        return 0
    if failed:
        print("perf gate: FAIL")
        return 1
    print("perf gate: ok")
    return 0


def update_baseline(current_path, baseline_path):
    """Copy the current report over the baseline, dropping the
    volatile run manifest so the checked-in file stays stable."""
    with open(current_path) as f:
        doc = json.load(f)
    doc.pop("manifest", None)
    tmp = baseline_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=False)
        f.write("\n")
    os.replace(tmp, baseline_path)
    print(f"perf gate: wrote {baseline_path} from {current_path}")


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark in one command.

Builds benchmark/tapas_bench (a Release CMake project of its own, in
build/benchmark/), runs each workload in its own process, checks every
op's output and modeled cycles, and prints every metric with its unit
and, for the end-to-end ones, the bound from BENCHMARK.json.

  python3 benchmark/run.py                   all workloads, untraced;
                                             writes build/benchmark/results.json
  python3 benchmark/run.py --trace           the traced pass: per-layer tables,
                                             Chrome traces, trace.overhead
  python3 benchmark/run.py --smoke           one round per workload, all checks
  python3 benchmark/run.py --repeat N        N untraced sets; spread vs bound
  python3 benchmark/run.py --compare A B     deltas of B against A vs bound
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                             one workload; the last stdout line
                                             is a JSON summary of its metrics

Exit status: 0 when every op passed (and, for --repeat/--compare, every
metric stayed within its bound); 1 otherwise, naming what failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build" / "benchmark"
BINARY = BUILD / "tapas_bench"


def fatal(msg):
    print(f"fatal: {msg}", file=sys.stderr)
    sys.exit(1)


class Parser(argparse.ArgumentParser):
    def error(self, message):
        fatal(message)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fatal(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure once, then build; all tool output goes to stderr."""
    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fatal("benchmark build failed: " + " ".join(cmd))

    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "Makefile").exists():
        step(["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))])


def run_workload(name, seed, seconds, trace, smoke):
    """One tapas_bench process; returns its result document."""
    suffix = ".traced" if trace else ""
    out = BUILD / f"{name}{suffix}.json"
    out.unlink(missing_ok=True)
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(out)]
    if trace:
        trace_path = BUILD / f"{name}.perfetto.json"
        trace_path.unlink(missing_ok=True)
        cmd += ["--trace", str(trace_path)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=5 * seconds + 60)
    except subprocess.TimeoutExpired:
        fatal(f"{name}: tapas_bench did not finish in time")
    if proc.returncode not in (0, 3):
        fatal(f"{name}: tapas_bench exited with status {proc.returncode}")
    res = json.loads(out.read_text())
    if trace:
        try:
            json.loads(trace_path.read_text())
        except ValueError as e:
            fatal(f"{name}: trace {trace_path} is not valid JSON: {e}")
        res["trace_file"] = str(trace_path.relative_to(ROOT))
    return res


def failures(res):
    """'workload/case: reason' for each distinct failure the run reported."""
    lines = [f"{res['workload']}/{f['case']}: {f['reason']}"
             for f in res["failures"]]
    if res["failed"]:
        lines.append(f"{res['workload']}: {res['failed']} of {res['attempted']} ops failed")
    return lines


def fmt(v):
    if v is None:
        return "-"
    if v == int(v) and abs(v) >= 1000:
        return str(int(v))
    return f"{v:.4g}"


def print_table(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def print_result(res, spec, trace):
    print(f"\n{res['workload']}: seed {res['seed']}, {res['rounds']} rounds, "
          f"{res['attempted']} ops attempted, {res['failed']} failed, "
          f"{res['build_type']} build")
    print("  n per case: " + ", ".join(f"{k} {v}" for k, v in res["n_per_case"].items()))
    rows = []
    for m in spec["end_to_end"]:
        rows.append([m["name"], fmt(res["e2e"][m["name"]]), fmt(res["e2e_raw"][m["name"]]),
                     m["unit"], m["better"], f"{m['bound']:.0%}"])
    print_table(["end-to-end", "value", "raw", "unit", "better", "bound"], rows)

    case_rows = []
    for name, c in res["cases"].items():
        ok = "ok" if c["cycles"] == c["pin_cycles"] else f"PIN {c['pin_cycles']}"
        case_rows.append([name, c["tiles"], c["n"], c["cycles"], ok, c["events"],
                          fmt(c["op_ms_p50"]), fmt(c["run_ms_p50"]),
                          fmt(c["ns_per_event"]), fmt(c.get("obs_slowdown"))])
    print_table(["case", "tiles", "n", "cycles", "pin", "events", "op_ms_p50",
                 "run_ms_p50", "ns/event", "obs_slowdown"], case_rows)
    if res["event_cost_ratio"]:
        print("  ns/event at the high tile count over the low one: " +
              ", ".join(f"{k} {fmt(v)}x" for k, v in res["event_cost_ratio"].items()))
    hs = res["host_speed"]
    print(f"  noise.block_spread {res['noise.block_spread']:.3f}; host slowness "
          f"p25/p50/p75 {hs['slowness_p25']:.2f}/{hs['slowness_p50']:.2f}/"
          f"{hs['slowness_p75']:.2f} over {hs['samples']} samples")
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print_table(["per-layer", "value", "unit"],
                    [[k, fmt(v), units.get(k, "?")] for k, v in res["per_layer"].items()])
        print(f"  trace: {res['trace_file']}")


def contract_metrics(res, spec, trace):
    """The metrics BENCHMARK.json lists for this pass, with units."""
    section, source = ("per_layer", res.get("per_layer", {})) if trace else \
        ("end_to_end", res["e2e"])
    out = {}
    for m in spec[section]:
        if m["name"] not in source:
            fatal(f"{res['workload']}: metric {m['name']} missing from the run")
        # null only when every op of a case failed, which fails the run.
        out[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    return out


def spread(values):
    return (max(values) - min(values)) / statistics.median(values)


def counts(res):
    """The exact modeled counts every run of the same code repeats."""
    return {name: (c["cycles"], c["events"], c["spawns"]) for name, c in res["cases"].items()}


def worse_by(base, new, better):
    """Signed share by which `new` is worse than `base`."""
    delta = (new - base) / base
    return delta if better == "lower" else -delta


def repeat(args, spec, names):
    sets = []
    for i in range(args.repeat):
        print(f"\n=== set {i + 1} of {args.repeat} ===")
        sets.append({n: run_workload(n, args.seed + i, args.seconds, False, False)
                     for n in names})
        for n in names:
            print_result(sets[-1][n], spec, False)
    problems = [line for s in sets for res in s.values() for line in failures(res)]
    print(f"\nspread over {args.repeat} sets: (max - min) / median, against the bound")
    rows = []
    for n in names:
        for m in spec["end_to_end"]:
            vals = [s[n]["e2e"][m["name"]] for s in sets]
            sp = spread(vals)
            over = sp > m["bound"]
            rows.append([n, m["name"], " ".join(fmt(v) for v in vals), m["unit"],
                         f"{sp:.1%}", f"{m['bound']:.0%}", "OVER" if over else "ok"])
            if over:
                problems.append(f"{n}: {m['name']} spread {sp:.1%} exceeds bound {m['bound']:.0%}")
        if any(counts(s[n]) != counts(sets[0][n]) for s in sets):
            problems.append(f"{n}: modeled cycles/events/spawns differ between sets")
    print_table(["workload", "metric", "values", "unit", "spread", "bound", ""], rows)
    return problems


def compare(paths, spec):
    docs = []
    for p in paths:
        try:
            docs.append(json.loads(Path(p).read_text())["workloads"])
        except (OSError, ValueError, KeyError) as e:
            fatal(f"cannot read results file {p}: {e}")
    base, new = docs
    problems = []
    rows = []
    for n in base:
        if n not in new:
            problems.append(f"{n}: missing from {paths[1]}")
            continue
        for m in spec["end_to_end"]:
            b, v = base[n]["e2e"][m["name"]], new[n]["e2e"][m["name"]]
            w = worse_by(b, v, m["better"])
            over = w > m["bound"]
            rows.append([n, m["name"], fmt(b), fmt(v), m["unit"], f"{(v - b) / b:+.1%}",
                         f"{m['bound']:.0%}", "WORSE" if over else "ok"])
            if over:
                problems.append(f"{n}: {m['name']} worse by {w:.1%}, bound {m['bound']:.0%}")
        if counts(base[n]) != counts(new[n]):
            problems.append(f"{n}: modeled cycles/events/spawns changed")
        problems += failures(new[n])
    print_table(["workload", "metric", "base", "new", "unit", "delta", "bound", ""], rows)
    return problems


def finish(problems):
    for line in problems:
        print(f"FAIL {line}")
    sys.exit(1 if problems else 0)


def main():
    spec = load_spec()
    all_names = [w["name"] for w in spec["workloads"]]
    ap = Parser(description="Build and run the repository benchmark.")
    ap.add_argument("--workload", choices=all_names,
                    help="run one workload and end with a JSON summary line")
    ap.add_argument("--seed", type=int, default=1, help="op-order seed (default 1)")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"],
                    help="measured seconds per workload (default %(default)s)")
    ap.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"],
                    help="the traced pass: per-layer metrics and Chrome traces")
    ap.add_argument("--smoke", action="store_true", help="one round per workload")
    ap.add_argument("--repeat", type=int, metavar="N", help="run N untraced sets")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two results.json files")
    args = ap.parse_args()
    if args.seed < 0:
        fatal("--seed must be non-negative")
    if args.seconds < 1:
        fatal("--seconds must be at least 1")
    if args.repeat is not None and args.repeat < 2:
        fatal("--repeat needs at least 2 sets")
    trace = args.trace == "1"

    if args.compare:
        finish(compare(args.compare, spec))

    names = [args.workload] if args.workload else all_names
    build()

    if args.repeat is not None:
        finish(repeat(args, spec, names))

    results = {n: run_workload(n, args.seed, args.seconds, trace, args.smoke)
               for n in names}
    problems = []
    for res in results.values():
        print_result(res, spec, trace)
        problems += failures(res)

    if args.workload:
        res = results[args.workload]
        for line in problems:
            print(f"FAIL {line}")
        print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                          "failed": res["failed"],
                          "metrics": contract_metrics(res, spec, trace)}))
        sys.exit(1 if problems else 0)

    out = BUILD / ("results.traced.json" if trace else "results.json")
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "trace": trace, "smoke": args.smoke,
                               "workloads": results}, indent=1) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    finish(problems)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Checks on the lalr benchmark itself; run from the root of a checkout.

    python3 perfbench/tools.py steadiness [--runs 10] [--seed N] [--seconds S]
        Runs each workload N times, on consecutive seeds from --seed, and
        prints per end-to-end metric every run's value, the median, the IQR
        as a share of the median, and the drift between the medians of the
        first and second half of the runs. A metric fails, setup_s included,
        when its IQR exceeds a third of its bound from BENCHMARK.json (the
        margin the bounds are meant to leave) or its halves differ by more
        than the bound.

    python3 perfbench/tools.py budget [--seed N] [--seconds S]
        One untraced and one traced run per workload. Prints each
        workload's per-layer table, checks that the gen-cold parts sum to
        within 10% of the untraced operation time and that the traced
        shares match the workload design, and prints the tracing overhead.

    python3 perfbench/tools.py seeds [--seconds S]
        Runs every workload twice on the default seed and once on the
        held-out seed; structural counts must repeat exactly on one seed.

    python3 perfbench/tools.py selftest [--seed N] [--seconds S]
        Runs every workload with one reference table byte and one Earley
        verdict corrupted; each run must report success_ratio < 1 and exit
        non-zero.

Exit status is 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark entry point beside this file)

BENCH = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
STRUCTURAL = ("lr.states", "lalr.relation_edges", "edit.share.conflict",
              "edit.share.production", "edit.share.structural")


def result(binary, workload, seed, seconds, trace, corrupt=False):
    start = time.monotonic()
    code, out = run.measure(binary, workload, seed, seconds, trace, corrupt)
    lines = out.strip().splitlines()
    res = json.loads(lines[-1]) if lines else None
    return code, res, time.monotonic() - start


def metrics(res):
    return {k: v["value"] for k, v in res["metrics"].items()}


def steadiness(binary, args):
    ok = True
    for w in args.workloads:
        values, walls = {}, []
        for i in range(args.runs):
            code, res, wall = result(binary, w, args.seed + i,
                                     args.seconds, 0)
            walls.append(wall)
            if code or not res or not res["correct"]:
                print(f"{w}: run {i} failed (exit {code})")
                ok = False
                continue
            for k, v in metrics(res).items():
                values.setdefault(k, []).append(v)
        print(f"\n{w}: {args.runs} runs, {args.seconds} s each, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s per run")
        print(f"  {'metric':22s} {'median':>12s} {'iqr/med':>8s} "
              f"{'bound':>6s} {'halves':>8s}")
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            half = len(vs) // 2
            m1, m2 = statistics.median(vs[:half]), statistics.median(vs[half:])
            drift = abs(m2 - m1) / m1 if m1 else 0.0
            bound = BOUNDS[k]
            passed = spread <= bound / 3 and drift <= bound
            ok &= passed
            print(f"  {k:22s} {med:12.4f} {spread:8.4f} {bound:6.2f} "
                  f"{drift:7.4f}{'' if passed else '  FAIL'}")
            print("    " + " ".join(f"{v:.4g}" for v in vs))
    return ok


def fmt(v):
    return f"{v:12.1f}" if abs(v) >= 100 else f"{v:12.4f}"


def budget(binary, args):
    ok = True
    for w in args.workloads:
        code0, plain, _ = result(binary, w, args.seed, args.seconds, 0)
        code1, traced, _ = result(binary, w, args.seed, args.seconds, 1)
        if code0 or code1 or not plain or not traced:
            print(f"{w}: run failed")
            ok = False
            continue
        e2e, layer = metrics(plain), metrics(traced)
        print(f"\n{w}: per-layer budget "
              f"({'µs per pass over the inputs' if w == 'gen-cold' else 'µs per operation of the class'})")
        for k, v in layer.items():
            if v:
                print(f"  {k:36s}{fmt(v)} {traced['metrics'][k]['unit']}")
        overhead = 1 - layer["trace.ops_per_s"] / e2e["ops_per_s"]
        print(f"  tracing overhead: {100 * overhead:.1f}% of ops_per_s "
              f"({e2e['ops_per_s']:.0f} untraced, "
              f"{layer['trace.ops_per_s']:.0f} traced)")
        checks = []
        if w == "gen-cold":
            checks.append(("parts within 10% of the untraced operation",
                           abs(layer["budget.parts_ratio"] - 1) <= 0.10))
            checks.append(("grammar+lr+lalr >= 80% of the operation",
                           layer["share.grammar_lr_lalr"] >= 0.80))
        if w == "serve-warm":
            checks.append(("grammar+lr+lalr <= 5% of the operation",
                           layer["share.grammar_lr_lalr"] <= 0.05))
        if w == "serve-edit":
            checks.append(("edit path is over half (so the largest "
                           "share) of edit operations",
                           layer["share.edit_path"] >= 0.5))
        for name, passed in checks:
            print(f"  check: {name}: {'ok' if passed else 'FAIL'}")
            ok &= passed
    return ok


def seeds(binary, args):
    ok = True
    for w in args.workloads:
        runs = []
        for seed in (run.DEFAULT_SEED, run.DEFAULT_SEED, run.HELD_OUT_SEED):
            _, traced, _ = result(binary, w, seed, args.seconds, 1)
            _, plain, _ = result(binary, w, seed, args.seconds, 0)
            counts = {k: metrics(traced)[k] for k in STRUCTURAL}
            counts["table_bytes"] = metrics(plain)["table_bytes"]
            runs.append(counts)
        same = runs[0] == runs[1]
        ok &= same
        print(f"{w}: seed {run.DEFAULT_SEED} twice: "
              f"{'identical' if same else 'DIFFERENT'} {runs[0]}")
        print(f"{w}: held-out seed {run.HELD_OUT_SEED}: {runs[2]}")
    return ok


def selftest(binary, args):
    ok = True
    for w in args.workloads:
        code, res, _ = result(binary, w, args.seed, args.seconds, 0,
                              corrupt=True)
        ratio = metrics(res)["success_ratio"] if res else None
        passed = code != 0 and res is not None and ratio < 1
        ok &= passed
        print(f"{w}: corrupted oracle -> exit {code}, success_ratio {ratio}: "
              f"{'ok' if passed else 'FAIL'}")
    return ok


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command",
                    choices=("steadiness", "budget", "seeds", "selftest"))
    ap.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = ap.parse_args()
    binary = run.build()
    cmd = {"steadiness": steadiness, "budget": budget, "seeds": seeds,
           "selftest": selftest}[args.command]
    sys.exit(0 if cmd(binary, args) else 1)


if __name__ == "__main__":
    main()

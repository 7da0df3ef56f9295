#!/usr/bin/env python3
"""Run-to-run comparison for the repository benchmark.

    python3 perfbench/compare.py --workload <name> [--seeds 1-10] [--sets 2]
                                 [--save runs.json]
    python3 perfbench/compare.py --selftest

Runs perfbench/run.py once per seed, --sets times over, and prints for each
end-to-end metric every set's median and its spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median.  It then checks the rules the benchmark's bounds stand for:

  * in every set, each metric's spread stays within its bound (setup_s
    excepted: set-up is timed a few times per run only);
  * no later set's median is worse than the first set's by more than the
    metric's bound, setup_s included.

A spread above a third of its bound passes but is flagged "wide": such a
metric cannot resolve a regression much smaller than its spread.  Exits 1
when a rule fails or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def judge(spec_metrics, sets):
    """sets[k][metric] = list of values.  Returns (lines, failures); a line
    ends in "wide" when its spread is above a third of the bound."""
    lines, failures = [], []
    for m in spec_metrics:
        name, bound = m["name"], m["bound"]
        meds = []
        for k, s in enumerate(sets):
            vals = s.get(name, [])
            if len(vals) < 2:
                failures.append(f"{name}: set {k + 1} has {len(vals)} values")
                meds.append(None)
                continue
            sp = spread(vals)
            med = statistics.median(vals)
            meds.append(med)
            wide = "  wide" if sp > bound / 3 else ""
            lines.append(f"{name:16s} set {k + 1}: median {med:.6g} {m['unit']}, "
                         f"spread {sp:.4f} (bound {bound}){wide}")
            if name != "setup_s" and sp > bound:
                failures.append(f"{name}: set {k + 1} spread {sp:.4f} > {bound}")
        for k in range(1, len(meds)):
            if meds[0] is None or meds[k] is None:
                continue
            w = worse_by(meds[0], meds[k], m["better"])
            lines.append(f"{name:16s} set {k + 1} vs set 1: {w:+.4f}")
            if w > bound:
                failures.append(f"{name}: set {k + 1} median worse by {w:.4f} > {bound}")
    return lines, failures


def run_once(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    last = res.stdout.rstrip("\n").split("\n")[-1] if res.stdout else ""
    if res.returncode != 0 or not last.startswith("{"):
        sys.stderr.write(res.stdout[-2000:] + res.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: run failed ({res.returncode})")
    return json.loads(last)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def selftest():
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(("ok   " if cond else "FAIL ") + what)
        ok = ok and cond

    vals = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    expect(abs(spread(vals) - (q3 - q1) / 14.5) < 1e-12, "spread is IQR over median")
    expect(abs(spread(vals) - 5.5 / 14.5) < 1e-12, "spread of 10..19 is 5.5/14.5")
    expect(abs(worse_by(100, 110, "lower") - 0.10) < 1e-12, "10% slower is worse by 0.10")
    expect(abs(worse_by(100, 110, "higher") + 0.10) < 1e-12, "10% more throughput is better")
    spec = [{"name": "x_ms", "unit": "ms", "better": "lower", "bound": 0.15},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    steady = {"x_ms": [100, 101, 102, 99, 100, 101, 100, 99, 102, 100],
              "setup_s": [1, 2, 3, 1, 2, 3, 1, 2, 3, 2]}
    lines, fails = judge(spec, [steady, steady])
    expect(fails == [], "steady sets pass; setup_s spread is not judged")
    expect(not any("x_ms" in ln and ln.endswith("wide") for ln in lines),
           "a spread below a third of the bound is not flagged")
    # Spread 0.10: within the bound 0.15, above a third of it.
    wide = dict(steady, x_ms=[95, 95, 95, 105, 105, 95, 105, 105, 100, 100])
    lines, fails = judge(spec, [steady, wide])
    expect(abs(spread(wide["x_ms"]) - 0.10) < 1e-12, "test set has spread 0.10")
    expect(fails == [], "a spread within the bound passes")
    expect(any(ln.startswith("x_ms") and "set 2:" in ln and ln.endswith("wide") for ln in lines),
           "a spread above a third of the bound is flagged wide")
    noisy = dict(steady, x_ms=[100, 130, 70, 120, 80, 100, 140, 60, 100, 100])
    _, fails = judge(spec, [steady, noisy])
    expect(any("x_ms: set 2 spread" in f for f in fails), "a spread above the bound fails")
    slower = {k: [v * 1.2 for v in vals_] for k, vals_ in steady.items()}
    _, fails = judge(spec, [steady, slower])
    expect(any("x_ms: set 2 median worse" in f for f in fails), "a 20% slower median fails")
    expect(not any("setup_s: set 2 median" in f for f in fails), "setup_s within its bound")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--save")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    sets = []
    for k in range(args.sets):
        values = {}
        for seed in parse_seeds(args.seeds):
            res = run_once(args.workload, seed)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"set {k + 1} seed {seed}: " +
                  ", ".join(f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()),
                  flush=True)
        sets.append(values)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "sets": sets}, f, indent=1)
    lines, failures = judge(spec["end_to_end"], sets)
    print("\n".join(lines))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

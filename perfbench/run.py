#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  Every call configures and builds
perfbench/ (the dynsub library from src/ plus perfbench_driver) under the
build directory, $CARGO_TARGET_DIR or .bench_build, in a CMake tree of
this checkout's own, so checkouts that share a build directory never build
each other's sources; later calls only rebuild what changed.  The run is
told a hash of the sources it was built from, so the hashes and ratios it
records for a seed are only compared with runs of the same code.

Every run first runs the benchmark's arithmetic self-test, then
perfbench_driver, whose lines pass through; the last line
printed is one JSON object with "correct", "attempted", "failed" and
"metrics": the end-to-end metrics named in BENCHMARK.json, or with
--trace 1 its per-layer metrics (those a workload does not exercise read
0).  Exits 0 only when every check passed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # one run, build excluded; the caller allows 180


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures and builds the benchmark; returns the binary dir."""
    tree = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    cmake_dir = os.path.join(bdir, "cmake-" + tree)
    steps = [["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "-j", str(min(4, os.cpu_count() or 1))]]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return cmake_dir


def code_id():
    """A hash of every source file the benchmark builds: src/ and perfbench/."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()[:16]


def selftest(bindir, verbose):
    res = subprocess.run([os.path.join(bindir, "perfbench_selftest")],
                         capture_output=True, text=True, timeout=60)
    if verbose or res.returncode != 0:
        sys.stderr.write(res.stdout + res.stderr)
    if res.returncode != 0:
        log("arithmetic self-test failed")
        return False
    return True


def select_metrics(spec, measured, trace):
    """The result's metrics: BENCHMARK.json's list for this mode, in order."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise ValueError(f"end-to-end metric {m['name']} was not measured")
            out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            continue
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: measured unit {got['unit']} != {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read {spec_path}: {e}")
        return 2
    # The driver knows every workload, including the ungated triangle_n1m,
    # and rejects unknown names.
    if not args.selftest and not args.workload:
        log("--workload is required")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    bdir = build_dir()
    bindir = build(bdir)
    if bindir is None or not selftest(bindir, args.selftest):
        return 1
    if args.selftest:
        import compare
        return compare.selftest()

    cmd = [os.path.join(bindir, "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
           "--out-dir", bdir, "--code-id", code_id()]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench_driver exceeded {RUN_LIMIT_S} s and was stopped")
        return 1
    lines = out.rstrip("\n").split("\n") if out else []
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        log(f"perfbench_driver exited with {proc.returncode} and no result")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    raw = json.loads(lines[-1])
    try:
        metrics = select_metrics(spec, raw["metrics"], args.trace == 1)
    except ValueError as e:
        log(str(e))
        return 1
    result = {"correct": raw["correct"] and proc.returncode == 0,
              "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}
    log(f"run took {time.monotonic() - start:.1f} s")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Real-TCP service benchmark for RITAS (see perfbench/NOTES.md).

Builds the benchmark (and the RITAS libraries, from ../src) with CMake into
.bench_build/perfbench under the repository root, then runs one workload.

  python3 perfbench/run.py --workload ab_small --seed 1 --seconds 60 --trace 0
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --probe [--groups 4] [--rates 200,400,800] [--step-seconds 5]
  python3 perfbench/run.py --overhead --workload ab_small --seed 1 --seconds 60

ab_small and kv_sharded are the gated workloads (BENCHMARK.json); ab_bulk
runs the same way but is report-only (NOTES.md explains why).

A workload run prints one metric per line and, as the last line of
stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
It exits non-zero, with no metrics, when any correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ab_small", "ab_bulk", "kv_sharded")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: RITAS sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
           "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def binary(name):
    return os.path.join(BUILD, name)


def run_bench(args):
    """Runs the benchmark binary, passing stdout through; returns (code, lines)."""
    p = subprocess.run([binary("ritas_perfbench")] + args, stdout=subprocess.PIPE,
                       text=True)
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    return p.returncode, p.stdout.splitlines()


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def printed_value(lines, name):
    """The value on a run's "<name> <value> <unit>" line, or None."""
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == name:
            return float(parts[1])
    return None


def selftest():
    """Unit checks, a smoke run of every workload (both modes), the
    injected-fault runs, and the metric names against BENCHMARK.json."""
    build(["ritas_perfbench", "perfbench_selftest"])
    failures = []
    if subprocess.run([binary("perfbench_selftest")]).returncode != 0:
        failures.append("unit checks")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {"0": [m["name"] for m in spec["end_to_end"]],
            "1": [m["name"] for m in spec["per_layer"]]}
    for w in WORKLOADS:
        for trace in ("0", "1"):
            code, lines = run_bench(["--workload", w, "--seed", "7", "--seconds", "2",
                                     "--trace", trace])
            r = result_of(lines)
            ok = (code == 0 and r is not None and r["correct"] and r["failed"] == 0
                  and r["attempted"] >= 1 and sorted(r["metrics"]) == sorted(want[trace])
                  and (trace == "1" or printed_value(lines, "lat_p99_ms") is not None))
            print(("ok   " if ok else "FAIL ") + f"smoke {w} trace={trace}")
            if not ok:
                failures.append(f"smoke {w} trace={trace}")
        for fault in ("swap", "drop", "tail"):
            code, lines = run_bench(["--workload", w, "--seed", "7", "--seconds", "1",
                                     "--trace", "0", "--inject-fault", fault])
            r = result_of(lines)
            ok = code != 0 and (r is None or (not r["correct"] and not r["metrics"]))
            print(("ok   " if ok else "FAIL ") +
                  f"{w} with injected fault '{fault}' exits {code} without metrics")
            if not ok:
                failures.append(f"inject {fault} {w}")
    print("PASS" if not failures else "FAIL: " + ", ".join(failures))
    return 1 if failures else 0


def overhead(rest):
    """Runs the untraced and the traced run with the same arguments and
    prints the traced-minus-untraced difference (report-only)."""
    _, off = run_bench(rest + ["--trace", "0"])
    _, on = run_bench(rest + ["--trace", "1"])
    r0, r1 = result_of(off), result_of(on)
    if not (r0 and r1 and r0["correct"] and r1["correct"]):
        print("overhead: a run failed")
        return 1
    for name in ("lat_p50_ms", "lat_p99_ms", "cpu_ms_per_op"):
        base = printed_value(off, name)
        traced = r1["metrics"]["trace." + name]["value"]
        print(f"tracing overhead {name}: {traced - base:+.4f} "
              f"({(traced - base) / base * 100:+.1f}% of {base:.4f})")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
        epilog="Every other argument goes to the benchmark binary unchanged.")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--overhead", action="store_true",
                    help="with --workload/--seed/--seconds, and no --trace")
    a, rest = ap.parse_known_args()

    if a.selftest:
        return selftest()
    build(["ritas_perfbench"])
    if a.overhead:
        return overhead(rest)
    code, _ = run_bench(rest + ["--spans-dir", BUILD])
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fail CI when headline bench figures regress against committed baselines.

The paper-replication benches run on the deterministic simulator and report
VIRTUAL-time numbers, so the JSON artifacts are machine-independent: a
baseline committed in bench/baselines/ is comparable across laptops and CI
runners alike (generate baselines with the same RITAS_BENCH_RUNS as
bench-smoke, currently 3). These figures are gated:

  * fig4 batched throughput  — BENCH_fig4_failure_free.json, the batched
    rows' throughput_msgs_s per (burst, msg_bytes) must not drop more than
    the tolerance below baseline.
  * buffer frames encoded    — BENCH_buffer.json, the zero-copy layer's
    frames_encoded per (msg_bytes, batched) must not grow more than the
    tolerance above baseline (fewer encodes is the whole point). The same
    artifact's syscall_rows (real-TCP transport batching, real-time) are
    checked shape-only against the bench's own floors: >= min_fps frames
    per sendmsg on the 10 B batched burst, >= 1 on every batched cell,
    exactly 1.0 on every one-frame-per-sendmsg control cell
    (batched = false, i.e. max_batch_bytes = 0), and zero payload bytes
    copied assembling batches.
  * variant matrix           — BENCH_variants.json, every in-binary shape
    gate must hold (imbs-raynal beats bracha RB on latency and messages,
    crain uses fewer messages per decision, all cells completed), and per
    (combo, faultload, n) the RB/BC latencies must not grow more than the
    tolerance above baseline. Message counts per instance are exact on the
    deterministic simulator, so they are compared exactly.
  * scaling_wan campaign     — BENCH_scaling_wan.json, the open-loop
    n-scaling battery. Virtual-time rows only. The artifact must carry
    bench/meta/rows and every row the full field schema; every cell must
    be completed and ordered with every offered op delivered and a
    monotone tail p50 <= p99 <= p999 <= max; the cell set must be exactly
    the RITAS_SCALING_SMOKE=1 matrix (n in {4, 7} x {lan, wan} x {none,
    churn, byzantine}); WAN p99 must not fall below LAN p99 for any
    (n, fault). Per (n, net, fault) cell shared with the baseline (so the
    trimmed smoke run is checked against the same rows of a full-sweep
    baseline) the p50/p99/p999 delivery tails must not grow more than the
    tolerance above baseline.

Usage:  check_bench_regression.py <bench-out-dir> [--baselines DIR]
                                  [--tolerance 0.20]
                                  [--checks fig4,buffer,variants]

Exit codes: 0 ok, 1 regression or malformed/missing artifact.
Refreshing a baseline intentionally (protocol change, retuned batching) is
one commit: rerun the bench with RITAS_BENCH_RUNS=3 and copy the JSON over
bench/baselines/, explaining the shift in EXPERIMENTS.md.
"""

import argparse
import json
import sys
from pathlib import Path


def load(directory: Path, name: str) -> dict:
    path = directory / name
    if not path.is_file():
        sys.exit(f"FAIL {name}: not found in {directory}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        sys.exit(f"FAIL {name}: invalid JSON: {e}")
    if "rows" not in doc or not doc["rows"]:
        sys.exit(f"FAIL {name}: no rows")
    return doc


def index_rows(doc: dict, keys: tuple) -> dict:
    out = {}
    for row in doc["rows"]:
        try:
            out[tuple(row[k] for k in keys)] = row
        except KeyError as e:
            sys.exit(f"FAIL: row missing key {e}: {row}")
    return out


def check_fig4(out_dir: Path, base_dir: Path, tol: float) -> list:
    """Batched throughput must stay within tol of baseline (higher is ok)."""
    name = "BENCH_fig4_failure_free.json"
    fresh = index_rows(load(out_dir, name), ("burst", "msg_bytes", "batched"))
    base = index_rows(load(base_dir, name), ("burst", "msg_bytes", "batched"))
    failures = []
    for key, brow in sorted(base.items()):
        if not key[2]:  # only the batched configuration is gated
            continue
        if key not in fresh:
            failures.append(f"fig4 {key}: row disappeared")
            continue
        got = fresh[key]["throughput_msgs_s"]
        want = brow["throughput_msgs_s"]
        floor = want * (1.0 - tol)
        verdict = "ok" if got >= floor else "REGRESSED"
        print(f"fig4 burst={key[0]} m={key[1]}B batched: "
              f"{got:.0f} vs baseline {want:.0f} msgs/s "
              f"(floor {floor:.0f}) {verdict}")
        if got < floor:
            failures.append(
                f"fig4 {key}: throughput {got:.0f} < floor {floor:.0f} "
                f"(baseline {want:.0f}, tolerance {tol:.0%})")
    return failures


def check_buffer(out_dir: Path, base_dir: Path, tol: float) -> list:
    """frames_encoded must stay within tol of baseline (fewer is ok), and
    the transport syscall-batching gates hold, re-derived from the fresh
    syscall_rows (real-time loopback numbers: shape-only, no baseline)."""
    name = "BENCH_buffer.json"
    fresh_doc = load(out_dir, name)
    fresh = index_rows(fresh_doc, ("msg_bytes", "batched"))
    base = index_rows(load(base_dir, name), ("msg_bytes", "batched"))
    failures = []
    for key, brow in sorted(base.items()):
        if key not in fresh:
            failures.append(f"buffer {key}: row disappeared")
            continue
        got = fresh[key]["frames_encoded"]
        want = brow["frames_encoded"]
        ceiling = want * (1.0 + tol)
        verdict = "ok" if got <= ceiling else "REGRESSED"
        print(f"buffer m={key[0]}B batched={key[1]}: "
              f"{got} vs baseline {want} frames encoded "
              f"(ceiling {ceiling:.0f}) {verdict}")
        if got > ceiling:
            failures.append(
                f"buffer {key}: frames_encoded {got} > ceiling {ceiling:.0f} "
                f"(baseline {want}, tolerance {tol:.0%})")

    # Transport fast path: multi-frame sendmsg batching. The 10 B bursty
    # workload must pack >= syscall_gate_min_fps frames per syscall, every
    # batched cell must reach one-frame-per-syscall, every control cell
    # (max_batch_bytes = 0) must sit at exactly 1.0, and batch assembly
    # must copy zero payload bytes; all re-derived from the rows, the
    # bench's own meta verdicts must agree.
    sys_rows = fresh_doc.get("syscall_rows")
    if not sys_rows:
        return failures + ["buffer: syscall_rows missing from artifact"]
    meta = fresh_doc.get("meta", {})
    min_fps = meta.get("syscall_gate_min_fps", 4.0)
    by_key = {(r["msg_bytes"], r["batched"]): r for r in sys_rows}
    for (m, batched), row in sorted(by_key.items()):
        fps = row["frames_per_syscall"]
        copied = row["batch_copy_bytes"]
        floor = min_fps if (batched and m == 10) else 1.0
        fps_ok = fps >= floor if batched else fps == 1.0
        verdict = "ok" if fps_ok and copied == 0 else "REGRESSED"
        bound = f"floor {floor:.1f}" if batched else "exactly 1.0"
        print(f"buffer syscalls m={m}B batched={batched}: "
              f"{fps:.1f} frames/sendmsg ({bound}), "
              f"copied {copied} B {verdict}")
        if not fps_ok:
            failures.append(
                f"buffer syscalls ({m}, {batched}): frames_per_syscall "
                f"{fps:.4f} violates {bound}")
        if copied != 0:
            failures.append(
                f"buffer syscalls ({m}, {batched}): batch assembly copied "
                f"{copied} payload bytes (must be 0)")
    for m in (10, 100, 1000):
        for batched in (True, False):
            if (m, batched) not in by_key:
                failures.append(
                    f"buffer syscalls: {m} B batched={batched} row missing")
    for gate in ("gate_frames_per_syscall_ok", "gate_control_one_per_syscall_ok",
                 "gate_batch_zero_copy_ok"):
        ok = meta.get(gate)
        print(f"buffer meta {gate}: {ok}")
        if ok is not True:
            failures.append(f"buffer: meta gate {gate} is {ok!r}")
    return failures


def check_variants(out_dir: Path, base_dir: Path, tol: float) -> list:
    """Shape gates must hold; latencies within tol; message counts exact."""
    name = "BENCH_variants.json"
    fresh_doc = load(out_dir, name)
    keys = ("rb_variant", "bc_variant", "faultload", "n")
    fresh = index_rows(fresh_doc, keys)
    base = index_rows(load(base_dir, name), keys)
    failures = []

    meta = fresh_doc.get("meta", {})
    for gate in ("gate_rb_latency_ok", "gate_rb_msgs_ok", "gate_bc_msgs_ok",
                 "all_completed"):
        ok = meta.get(gate)
        print(f"variants meta {gate}: {ok}")
        if ok is not True:
            failures.append(f"variants: meta gate {gate} is {ok!r}")

    for key, brow in sorted(base.items()):
        if key not in fresh:
            failures.append(f"variants {key}: row disappeared")
            continue
        frow = fresh[key]
        if brow.get("skipped"):
            if not frow.get("skipped"):
                print(f"variants {key}: now runs (was skipped) ok")
            continue
        if frow.get("skipped"):
            failures.append(f"variants {key}: newly skipped")
            continue
        for field in ("rb_msgs_per_bcast", "bc_msgs_per_decide"):
            got, want = frow[field], brow[field]
            verdict = "ok" if got == want else "CHANGED"
            print(f"variants {key} {field}: {got} vs baseline {want} {verdict}")
            if got != want:
                failures.append(
                    f"variants {key}: {field} {got} != baseline {want} "
                    f"(message counts are deterministic)")
        for field in ("rb_latency_us", "bc_latency_us"):
            got, want = frow[field], brow[field]
            ceiling = want * (1.0 + tol)
            verdict = "ok" if got <= ceiling else "REGRESSED"
            print(f"variants {key} {field}: {got:.1f} vs baseline {want:.1f} "
                  f"(ceiling {ceiling:.1f}) {verdict}")
            if got > ceiling:
                failures.append(
                    f"variants {key}: {field} {got:.1f} > ceiling "
                    f"{ceiling:.1f} (baseline {want:.1f}, tolerance {tol:.0%})")
    return failures


SCALING_FIELDS = ("n", "net", "fault", "seed", "ops", "ops_completed",
                  "completed", "ordered", "p50_ns", "p99_ns", "p999_ns",
                  "mean_ns", "max_ns", "backlog_peak", "elapsed_ns",
                  "retransmissions", "fingerprint")
# The RITAS_SCALING_SMOKE=1 subset: n in {4, 7} x {lan, wan} x all faults.
SCALING_FAULTS = ("none", "churn", "byzantine")
SCALING_SMOKE_CELLS = {(n, net, fault) for n in (4, 7)
                       for net in ("lan", "wan") for fault in SCALING_FAULTS}


def check_scaling_wan(out_dir: Path, base_dir: Path, tol: float) -> list:
    """Smoke campaign cells (RITAS_SCALING_SMOKE=1): schema, liveness/order
    and tail shape exact, cell set exactly the smoke matrix, WAN tail above
    LAN, tails within tol.

    Keys are intersected so the trimmed smoke sweep validates against the
    full-sweep baseline: per-cell seeds derive from the (n, net, fault)
    key, so shared rows are the same virtual runs.
    """
    name = "BENCH_scaling_wan.json"
    keys = ("n", "net", "fault")
    fresh_doc = load(out_dir, name)
    base = index_rows(load(base_dir, name), keys)
    failures = [f"scaling_wan: missing top-level '{k}'"
                for k in ("bench", "meta") if k not in fresh_doc]
    for row in fresh_doc["rows"]:
        missing = [k for k in SCALING_FIELDS if k not in row]
        if missing:
            return failures + [f"scaling_wan: row missing {missing}: {row}"]
    fresh = index_rows(fresh_doc, keys)

    if set(fresh) != SCALING_SMOKE_CELLS:
        failures.append(f"scaling_wan: cell set {sorted(fresh)} != smoke "
                        f"matrix {sorted(SCALING_SMOKE_CELLS)}")
    for key, frow in sorted(fresh.items()):
        cell = f"scaling_wan n={key[0]} {key[1]}/{key[2]}"
        if not (frow["completed"] is True and frow["ordered"] is True):
            failures.append(
                f"{cell}: completed={frow['completed']} "
                f"ordered={frow['ordered']}")
        if frow["ops_completed"] != frow["ops"]:
            failures.append(
                f"{cell}: delivered {frow['ops_completed']} of "
                f"{frow['ops']} offered ops")
        if not (frow["p50_ns"] <= frow["p99_ns"] <= frow["p999_ns"]
                <= frow["max_ns"]):
            failures.append(f"{cell}: non-monotone tail p50/p99/p999/max "
                            f"{frow['p50_ns']}/{frow['p99_ns']}/"
                            f"{frow['p999_ns']}/{frow['max_ns']}")
    # WAN must dominate LAN at the tail for every (n, fault) pair.
    for n in sorted({key[0] for key in fresh}):
        for fault in SCALING_FAULTS:
            lan, wan = fresh.get((n, "lan", fault)), fresh.get((n, "wan", fault))
            if lan and wan and wan["p99_ns"] < lan["p99_ns"]:
                failures.append(f"scaling_wan: WAN p99 {wan['p99_ns']} below "
                                f"LAN p99 {lan['p99_ns']} at n={n} "
                                f"fault={fault}")

    shared = sorted(set(fresh) & set(base))
    if not shared:
        return failures + [
            "scaling_wan: no (n, net, fault) keys shared with baseline"]
    for key in shared:
        frow, brow = fresh[key], base[key]
        cell = f"scaling_wan n={key[0]} {key[1]}/{key[2]}"
        for field in ("p50_ns", "p99_ns", "p999_ns"):
            got, want = frow[field], brow[field]
            ceiling = want * (1.0 + tol)
            verdict = "ok" if got <= ceiling else "REGRESSED"
            print(f"{cell} {field}: {got} vs baseline {want} "
                  f"(ceiling {ceiling:.0f}) {verdict}")
            if got > ceiling:
                failures.append(
                    f"{cell}: {field} {got} > ceiling {ceiling:.0f} "
                    f"(baseline {want}, tolerance {tol:.0%})")
    print(f"{name}: {len(fresh)} rows, {len(shared)} shared with baseline")
    return failures


CHECKS = {
    "fig4": check_fig4,
    "buffer": check_buffer,
    "variants": check_variants,
    "scaling_wan": check_scaling_wan,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_dir", type=Path,
                    help="directory holding the freshly produced BENCH_*.json")
    ap.add_argument("--baselines", type=Path, default=Path("bench/baselines"),
                    help="directory holding the committed baseline JSONs")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed relative regression (default 0.20)")
    ap.add_argument("--checks", default="fig4,buffer,variants",
                    help="comma-separated subset of checks to run "
                         f"(known: {','.join(sorted(CHECKS))})")
    args = ap.parse_args()

    selected = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        sys.exit(f"FAIL: unknown checks {unknown} "
                 f"(known: {','.join(sorted(CHECKS))})")

    failures = []
    for check in selected:
        failures += CHECKS[check](args.bench_dir, args.baselines,
                                  args.tolerance)

    if failures:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall headline figures within tolerance of committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())

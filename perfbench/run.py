"""Benchmark command for lrc7.

    python3 perfbench/run.py --workload {certify,build-large,simulate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; lrc7 is imported from the checkout's
``src/``.  The run makes its inputs from the seed, then runs whole passes of
the workload's operations, closed loop in one thread, until ``--seconds``
have elapsed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details (per-phase times, failures) go to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7  # timed fresh processes, after one untimed warm-up

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def import_lrc7():
    """Import lrc7 from this checkout, never from elsewhere on the path."""
    if not (SRC / "lrc7" / "__init__.py").is_file():
        raise SystemExit(f"error: no lrc7 sources under {SRC}; run from a checkout of the repository")
    import lrc7

    if Path(lrc7.__file__).resolve().parent != (SRC / "lrc7").resolve():
        raise SystemExit(f"error: imported lrc7 from {lrc7.__file__}, not from {SRC}")


def _time_setup(name: str, work: Path) -> float:
    """Median time, in reference seconds, of the workload's set-up in fresh
    processes, scaled by the speed probed inside each process."""
    import speed

    argv = [sys.executable, str(HERE / "probe.py"), name, str(work)]
    subprocess.run(argv, check=True, timeout=120, capture_output=True)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, check=True, timeout=120, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((wall - report["probes_s"]) * speed.REF_S / report["probe_s"])
    return statistics.median(times)


def _passes(wl, state, seed: int, seconds: float) -> list:
    """Whole passes until the time is up; one Tally per pass."""
    import workloads

    tallies = []
    start = time.perf_counter()
    while not tallies or time.perf_counter() - start < seconds:
        tally = workloads.Tally(speed_exponent=wl.SPEED_EXPONENT)
        wl.run_pass(state, seed, len(tallies), tally)
        tallies.append(tally)
    return tallies


def _report_failures(tallies) -> None:
    for t in tallies:
        for err in t.errors:
            print(f"FAILED {err}", file=sys.stderr)


def end_to_end(wl, work: Path, seed: int, seconds: float) -> tuple[list, dict]:
    setup_s = _time_setup(wl.name, work)
    state = wl.setup(work)
    tallies = _passes(wl, state, seed, seconds)
    phases = sorted({p for t in tallies for p in t.phase_s})
    detail = {
        "workload": wl.name,
        "passes": len(tallies),
        "pass_s_each": [round(t.lrc7_s, 4) for t in tallies],
        "pass_wall_s_each": [round(t.wall_s, 4) for t in tallies],
        "phase_s_median": {p: round(statistics.median(t.phase_s.get(p, 0.0) for t in tallies), 4) for p in phases},
        "trace_bytes_median": statistics.median(t.trace_bytes for t in tallies),
    }
    print(json.dumps(detail), file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(t.lrc7_s for t in tallies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return tallies, metrics


def _field_microbench() -> tuple[float, float]:
    """(ns per scalar mul/sub/inv, ns per element of arr_mul/arr_add) at q = 9 and 32."""
    import numpy as np

    import lrc7

    scalar, array = [], []
    for p, e in ((3, 2), (2, 5)):
        F = lrc7.field_create(p, e)
        q = F.q
        xs = [1 + (7 * i + 3) % (q - 1) for i in range(512)]
        ys = [1 + (5 * i + 1) % (q - 1) for i in range(512)]
        reps = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(10):
                for a, b in zip(xs, ys):
                    F.mul(a, b)
                    F.sub(a, b)
                    F.inv(a)
            reps.append((time.perf_counter() - t0) / (10 * 3 * len(xs)))
        scalar.append(statistics.median(reps))
        rng = np.random.default_rng(0)
        A = rng.integers(0, q, size=1 << 16).astype(np.int32)
        B = rng.integers(0, q, size=1 << 16).astype(np.int32)
        reps = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(10):
                F.arr_mul(A, B)
                F.arr_add(A, B)
            reps.append((time.perf_counter() - t0) / (10 * 2 * A.size))
        array.append(statistics.median(reps))
    return statistics.mean(scalar) * 1e9, statistics.mean(array) * 1e9


def per_layer(wl, work: Path, seed: int, seconds: float) -> tuple[list, dict]:
    """Alternate untraced and traced iterations (set-up plus one pass) on the
    same inputs; per-layer figures are self times and counts per iteration."""
    import workloads
    from spans import Recorder, traced

    rec = Recorder()
    tallies, overhead = [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        wall = {}
        # alternate which side runs first, so first-run costs do not bias the overhead
        for tracing in (False, True) if index % 2 == 0 else (True, False):
            tally = workloads.Tally()
            t0 = time.perf_counter()
            if tracing:
                with traced(rec):
                    wl.run_pass(wl.setup(work), seed, index, tally)
                tallies.append(tally)
            else:
                wl.run_pass(wl.setup(work), seed, index, tally)
            wall[tracing] = time.perf_counter() - t0
        overhead.append(wall[True] - wall[False])
        index += 1
    rec.save(OUT / f"spans-{wl.name}.npz")
    it = len(tallies)
    st = rec.self_times()

    def calls(*names):
        return sum(st.get(n, (0, 0.0))[0] for n in names) / it

    def secs(*names):
        return sum(st.get(n, (0, 0.0))[1] for n in names) / it

    def per_call_us(name):
        c, s = st.get(name, (0, 0.0))
        return s / c * 1e6 if c else 0.0

    rref = ("linalg.rank", "linalg.kernel_basis", "linalg.solve_columns")
    rounds = sum(t.rounds for t in tallies) / it
    scalar_ns, array_ns = _field_microbench()
    metrics = {
        "fields.create_s": (secs("fields.create"), "s"),
        "fields.scalar_op_ns": (scalar_ns, "ns"),
        "fields.array_op_ns": (array_ns, "ns"),
        "linalg.small_rank_calls": (calls("linalg.small_rank"), "count"),
        "linalg.small_rank_s": (secs("linalg.small_rank"), "s"),
        "linalg.rref_calls": (calls(*rref), "count"),
        "linalg.rref_s": (secs(*rref), "s"),
        "spread.build_s": (secs("spread.build"), "s"),
        "spread.verify_s": (secs("spread.verify"), "s"),
        "construct.run_s": (secs("construct.run"), "s"),
        "construct.rounds": (rounds, "count"),
        "construct.round_ms": (secs("construct.run") / rounds * 1e3 if rounds else 0.0, "ms"),
        "construct.conditions_s": (secs("construct.conditions"), "s"),
        "construct.replay_s": (secs("construct.replay"), "s"),
        "construct.trace_bytes": (sum(t.trace_bytes for t in tallies) / it, "bytes"),
        "codec.min_distance_calls": (calls("codec.min_distance"), "count"),
        "codec.min_distance_s": (secs("codec.min_distance"), "s"),
        "codec.code_build_s": (secs("codec.code_build"), "s"),
        "codec.encode_us": (per_call_us("codec.encode"), "us"),
        "codec.local_repair_us": (per_call_us("codec.local_repair"), "us"),
        "codec.global_repair_us": (per_call_us("codec.global_repair"), "us"),
        "codec.local_repairs": (calls("codec.local_repair"), "count"),
        "codec.global_repairs": (calls("codec.global_repair"), "count"),
        "codec.simulate_s": (secs("codec.simulate"), "s"),
        "bounds.report_s": (secs("bounds.report"), "s"),
        "cli.self_s": (secs("cli.main"), "s"),
        "bench.trace_overhead_s": (statistics.median(overhead), "s"),
    }
    print(json.dumps({"workload": wl.name, "iterations": it, "spans": len(rec)}), file=sys.stderr)
    return tallies, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("certify", "build-large", "simulate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_lrc7()
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        wl.prepare(work, args.seed)
        run = per_layer if args.trace else end_to_end
        tallies, metrics = run(wl, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _report_failures(tallies)
    result = {
        "correct": all(t.wrong == 0 for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sweep seeded construction runs and report the length distribution.

For each field order, runs the lex policy plus N seeded runs, prints the
distribution of L (code length n = 3L), and optionally saves the artifacts
of the best run.

Example:
    python scripts/seed_sweep.py --q 7 --seeds 50 --out best_q7
"""

import argparse
import collections
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lrc7.codec import block_distance  # noqa: E402
from lrc7.construct import (  # noqa: E402
    PairSpanTable,
    assemble_parity_check,
    guaranteed_min_rounds,
    run_algorithm1,
)
from lrc7.fields import FieldSpec, factor_prime_power, write_json  # noqa: E402
from lrc7.linalg import matrix_to_json_dict, rank  # noqa: E402


def sweep(q: int, seeds: int, out: str | None) -> None:
    p, e = factor_prime_power(q)
    field = FieldSpec(p, e)
    runs = [("lex", None, *run_algorithm1(field, "lex"))]
    for seed in range(seeds):
        runs.append(("seeded", seed, *run_algorithm1(field, "seeded", seed)))
    hist = collections.Counter(seq.L for _, _, seq, _ in runs)
    best = max(runs, key=lambda r: r[2].L)
    policy, seed, seq, trace = best
    floor = guaranteed_min_rounds(q) if q >= 4 else None
    print(f"q={q}: {len(runs)} runs, L distribution {dict(sorted(hist.items()))}"
          + (f", guaranteed L >= {floor}" if floor else ""))
    label = policy if seed is None else f"{policy} seed={seed}"
    print(f"  best: L={seq.L} (n={3 * seq.L}) from {label}")
    report, d = block_distance(PairSpanTable.of(seq))
    if not report.ok:
        print("  WARNING: best run fails the sequence conditions", file=sys.stderr)
        return
    if out:
        H = assemble_parity_check(seq, check=False)  # the conditions were checked above
        n, k = H.cols, H.cols - rank(H)
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        seq.save_json(outdir / "sequence.json")
        trace.save_json(outdir / "trace.json")
        payload = matrix_to_json_dict(H, {"params": {"n": n, "k": k, "d": d, "r": 2}})
        write_json(outdir / "matrix.json", payload)
        print(f"  saved ({n}, {k}, {d}, 2)_{q} to {outdir}/")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=str, default="4,5,7,8,9", help="field orders (comma list)")
    ap.add_argument("--seeds", type=int, default=20, help="number of seeded runs per q")
    ap.add_argument("--out", type=str, default=None, help="directory for the best run's artifacts (one --q only)")
    ns = ap.parse_args()
    if ns.out is not None and "," in ns.q:
        ap.error("--out takes a single --q")
    for q in (int(tok) for tok in ns.q.split(",")):
        sweep(q, ns.seeds, ns.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

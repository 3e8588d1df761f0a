#!/usr/bin/env python3
"""Sweep seeded construction runs and report the length distribution.

For each field order, runs the lex policy plus N seeded runs, prints the
distribution of L (code length n = 3L), and optionally saves the artifacts
of the best run through `lrc7 construct --out`.

Example:
    python scripts/seed_sweep.py --q 7 --seeds 50 --out best_q7
"""

import argparse
import collections
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lrc7.cli import main as lrc7_main  # noqa: E402
from lrc7.construct import guaranteed_min_rounds, run_algorithm1, verify_conditions  # noqa: E402
from lrc7.fields import FieldSpec, factor_prime_power  # noqa: E402


def sweep(q: int, seeds: int, out: str | None) -> int:
    """Print the L distribution at q; with out, write the best run's files
    and return the exit code of the `lrc7 construct` call that writes them."""
    p, e = factor_prime_power(q)
    field = FieldSpec(p, e)
    runs = [("lex", None, *run_algorithm1(field, "lex"))]
    for seed in range(seeds):
        runs.append(("seeded", seed, *run_algorithm1(field, "seeded", seed)))
    hist = collections.Counter(seq.L for _, _, seq, _ in runs)
    best = max(runs, key=lambda r: r[2].L)
    policy, seed, seq, _ = best
    floor = guaranteed_min_rounds(q) if q >= 4 else None
    print(f"q={q}: {len(runs)} runs, L distribution {dict(sorted(hist.items()))}"
          + (f", guaranteed L >= {floor}" if floor else ""))
    label = policy if seed is None else f"{policy} seed={seed}"
    print(f"  best: L={seq.L} (n={3 * seq.L}) from {label}")
    if not verify_conditions(seq).ok:
        print("  WARNING: best run fails the sequence conditions", file=sys.stderr)
    elif out is not None:
        # the one construct-and-write path: the same flags give the same four files
        seeded = [] if seed is None else ["--policy", "seeded", "--seed", str(seed)]
        return lrc7_main(["construct", "--q", str(q), *seeded, "--out", out])
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=str, default="4,5,7,8,9", help="field orders (comma list)")
    ap.add_argument("--seeds", type=int, default=20, help="number of seeded runs per q")
    ap.add_argument("--out", type=str, default=None, help="directory for the best run's artifacts (one --q only)")
    ns = ap.parse_args()
    if ns.out is not None and "," in ns.q:
        ap.error("--out takes a single --q")
    return max(sweep(int(tok), ns.seeds, ns.out) for tok in ns.q.split(","))


if __name__ == "__main__":
    raise SystemExit(main())

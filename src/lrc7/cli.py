"""Command-line front end.

Subcommands:
  construct   run the greedy constructor, verify it, and report the code
  verify      recompute the parameters and classification of a stored matrix
  bounds      evaluate the parameter bounds for one point or a grid (CSV)
  simulate    run the erasure-repair simulator on a stored matrix

Exit codes: 0 success, 1 verification failure, 2 usage error.  Every
command is deterministic given its full flag set (including --seed), and
every file written embeds the run configuration.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import os
import sys
import warnings
from pathlib import Path
from typing import Optional, Sequence

from .bounds import bounds_report, dim_bound_eq3
from .codec import (
    FIXTURES,
    _STREAM_VERSION,
    block_distance,
    code_from_parity_check,
    fixture_path,
    min_distance,
    parse_failure_model,
    simulate_repairs,
)
from .construct import PairSpanTable, VectorSequence, assemble_parity_check, run_algorithm1
from .fields import FieldSpec, factor_prime_power, json_text, write_json
from .linalg import MatrixF, load_matrix_json, matrix_to_json_dict, rank

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


def _config(**flags) -> dict:
    """The flag set of one invocation, embedded in every output file; flags
    left unset (None) drop out."""
    return {name: value for name, value in flags.items() if value is not None}


def _int_list(text: str) -> list[int]:
    """'4' -> [4]; '4,5,7' -> [4,5,7]; '4..9' -> [4..9]; an empty list
    ('', ',' or '5..4') is refused."""
    text = text.strip()
    lo, dots, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi) + 1)) if dots else [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty int list: {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _out_path(text: str) -> str:
    """An output path; '' is refused, since it names no file."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _failure_model(text: str) -> str:
    """Validate a --failure-model spec at parsing; the raw text is kept."""
    try:
        parse_failure_model(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _check_out_dir(path: str) -> None:
    """Raise now the OSError that creating the output directory would raise
    once the work is done: the nearest existing ancestor must be a writable
    directory (or the path itself a directory)."""
    target = Path(path).absolute()
    base = next(p for p in (target, *target.parents) if p.exists())
    if not base.is_dir():
        code = errno.EEXIST if base == target else errno.ENOTDIR
    elif not os.access(base, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _shown_distance(d: Optional[int], cap: int) -> int | str:
    """d, or '>=cap+1' when a search capped at cap found no dependency."""
    return d if d is not None else f">={cap + 1}"


# -- construct -----------------------------------------------------------------


def _certify(seq: VectorSequence, H: MatrixF, cap: int) -> Optional[tuple[int, int, Optional[int]]]:
    """(n, k, d) of seq's block code H, with d read from seq's pair-span
    table (`block_distance`), or None once stderr says why it fails."""
    report, d = block_distance(PairSpanTable.of(seq))
    if not report.ok:
        print(f"verification failed: sequence conditions do not hold: {report}", file=sys.stderr)
        return None
    return H.cols, H.cols - rank(H), d if d <= cap else None


def cmd_construct(ns: argparse.Namespace) -> int:
    q, modulus, policy, seed, cap = ns.q, ns.modulus, ns.policy, ns.seed, ns.distance_cap
    if seed is not None and policy == "lex":
        # run_algorithm1 drops a lex seed: the artifacts' config would name a seed the trace does not
        raise ValueError("--seed applies only to --policy seeded")
    cfg = _config(command="construct", q=q, modulus=modulus, policy=policy, seed=seed, out=ns.out,
                  format=ns.format, distance_cap=cap)
    field = FieldSpec(*factor_prime_power(q), modulus)
    if modulus is not None and modulus != list(field.modulus):
        # a prime field drops its modulus and GF(p^e) reduces it mod p: config.modulus would not be the field's
        raise ValueError(f"--modulus must be the modulus the run uses, {list(field.modulus)} for GF({q})")
    if ns.out is not None:
        _check_out_dir(ns.out)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seq, trace = run_algorithm1(field, policy=policy, seed=seed)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    # each file is built only when --out writes it, from its payload or,
    # for the trace, by its own writer
    def writer(build):
        return lambda path: write_json(path, {**build(), "config": cfg})

    artifacts = {
        "sequence.json": writer(seq.to_json_dict),
        "trace.json": lambda path: trace.save_json(path, config=cfg),
    }
    if seq.L < 3:
        # short runs happen only without the q >= 4 guarantee; report and stop
        message = f"construction stopped after L = {seq.L} < 3 rounds; no code assembled"
        if ns.format == "json":
            print(json_text({"config": cfg, "q": q, "L": seq.L, "message": message}))
        else:
            print(message)
    else:
        H = assemble_parity_check(seq, check=False)
        certified = _certify(seq, H, cap)
        if certified is None:
            return EXIT_VERIFICATION
        n, k, d = certified
        rep = bounds_report(n=n, k=k, d=d, r=2, q=q)
        attained = k == dim_bound_eq3(n, 2, q)
        shown = _shown_distance(d, cap)
        payload = {
            "config": cfg,
            "L": seq.L,
            "n": n,
            "k": k,
            "d": shown,
            "r": 2,
            "q": q,
            "classification": rep["classification"],
            "attains_dim_bound": attained,
        }
        if ns.format == "json":
            print(json_text(payload))
        else:
            print(f"({n}, {k}, {shown}, 2)_{q}  L={seq.L}  policy={policy}" + (f" seed={seed}" if seed is not None else ""))
            print(f"classification: {rep['classification'] or '-'}")
            print(f"attains dimension bound: {'yes' if attained else 'no'}")
        params = {"n": n, "k": k, "r": 2} if d is None else {"n": n, "k": k, "d": d, "r": 2}
        artifacts["matrix.json"] = writer(lambda: matrix_to_json_dict(H, {"params": params}))
        artifacts["bounds.json"] = writer(lambda: rep)
    if ns.out is not None:
        outdir = Path(ns.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, save in artifacts.items():
            save(outdir / name)
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def cmd_verify(ns: argparse.Namespace) -> int:
    cap = ns.distance_cap
    try:
        M, extras = load_matrix_json(fixture_path(ns.matrix) if ns.matrix in FIXTURES else ns.matrix)
        declared = extras.get("params")
        ints = isinstance(declared, dict) and all(type(declared.get(key, 0)) is int for key in ("n", "k", "d", "r"))
        if declared is not None and not ints:
            raise ValueError("declared params must be an object whose n, k, d and r are JSON integers")
    except (OSError, ValueError) as exc:
        print(f"error: cannot load matrix: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    try:
        code = code_from_parity_check(M)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    d = min_distance(code, cap=cap)
    n, k, q = code.n, code.k, code.field.q
    # without d the search only established d >= cap + 1
    six_independent = d >= 7 if d is not None else True if cap >= 6 else None
    rep = bounds_report(n=n, k=k, d=d, r=2, q=q)
    payload = {
        "n": n,
        "k": k,
        "d": _shown_distance(d, cap),
        "r": 2,
        "q": q,
        "groups": [list(g) for g in code.groups],
        "six_column_independence": six_independent,
        "classification": rep["classification"],
    }
    mismatches = {}
    if declared is not None:
        computed = {"n": n, "k": k, "d": payload["d"], "r": 2}
        for key in ("n", "k", "d", "r"):
            if key not in declared:
                continue
            # an inconclusive search only requires the declared d to exceed the cap
            if (declared[key] <= cap) if key == "d" and d is None else declared[key] != computed[key]:
                mismatches[key] = [declared[key], computed[key]]
        payload["declared_params"] = declared
        if mismatches:
            payload["mismatches"] = mismatches
    if ns.format == "json":
        print(json_text(payload))
    else:
        print(f"({n}, {k}, {payload['d']}, 2)_{q}  groups={len(code.groups)}")
        shown_six = "unknown" if six_independent is None else "yes" if six_independent else "no"
        print(f"six-column independence: {shown_six}")
        print(f"classification: {rep['classification'] or '-'}")
        if declared is not None:
            print(f"declared parameters match: {'no' if mismatches else 'yes'}")
    if mismatches:
        print("verification failed: declared parameters do not match", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


# -- bounds -------------------------------------------------------------------


def cmd_bounds(ns: argparse.Namespace) -> int:
    supplied = {name: getattr(ns, name) for name in ("n", "k", "d", "r", "q") if getattr(ns, name)}
    if not supplied:
        print("error: provide at least one of --n/--k/--d/--r/--q", file=sys.stderr)
        return EXIT_USAGE
    grid = any(len(vals) > 1 for vals in supplied.values())
    combos: list[dict] = [{}]
    for name, vals in supplied.items():
        combos = [dict(c, **{name: v}) for c in combos for v in vals]
    rows = [bounds_report(**combo) for combo in combos]
    if grid or ns.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({key: ("" if v is None else v) for key, v in row.items()} for row in rows)
        text = buf.getvalue()
    elif ns.format == "json":
        text = json_text(rows[0]) + "\n"
    else:
        row = rows[0]
        if row["wang_k_max"] is not None:
            row["wang_k_max"] = f"{row['wang_k_max']:.6f}"
        width = max(len(name) for name in row)
        text = "".join(f"{name:<{width}}  {'-' if val is None else val}\n" for name, val in row.items())
    if ns.out is not None:
        Path(ns.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


# -- simulate -----------------------------------------------------------------


def cmd_simulate(ns: argparse.Namespace) -> int:
    cfg = _config(command="simulate", input=ns.matrix, trials=ns.trials, failure_model=ns.failure_model,
                  seed=ns.seed, stream=_STREAM_VERSION, out=ns.out)
    try:
        M, _ = load_matrix_json(fixture_path(ns.matrix) if ns.matrix in FIXTURES else ns.matrix)
        code = code_from_parity_check(M)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    # outside the try: its ValueErrors are usage errors, which main exits 2 on
    stats = simulate_repairs(code, trials=ns.trials, failure_model=ns.failure_model, seed=ns.seed)
    summary = {"config": cfg, **stats.summary_dict()}
    # the files first: an unwritable one exits 2 with nothing on stdout
    if ns.out is not None:
        write_json(ns.out, summary)
    if ns.jsonl is not None:
        with open(ns.jsonl, "w") as fh:
            stats.write_jsonl(fh)
    print(json_text(summary))
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrc7", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="run the greedy constructor and verify the code")
    p_con.set_defaults(run=cmd_construct)
    p_con.add_argument("--q", type=int, required=True, help="field order (prime power)")
    p_con.add_argument("--modulus", type=_int_list, default=None, help="comma-separated modulus coefficients, low degree first")
    p_con.add_argument("--policy", choices=("lex", "seeded"), default="lex")
    p_con.add_argument("--seed", type=int, default=None)
    p_con.add_argument("--out", type=_out_path, default=None, help="directory for sequence/trace/matrix/bounds JSON")
    p_con.add_argument("--format", choices=("text", "json"), default="text")
    p_con.add_argument("--distance-cap", type=_positive_int, default=8)

    p_ver = sub.add_parser("verify", help="recompute parameters of a stored matrix")
    p_ver.set_defaults(run=cmd_verify)
    p_ver.add_argument("matrix", type=str, help="matrix JSON path, or a fixture name (h1, h2)")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.add_argument("--distance-cap", type=_positive_int, default=8)

    p_bnd = sub.add_parser("bounds", help="evaluate parameter bounds (grid inputs emit CSV)")
    p_bnd.set_defaults(run=cmd_bounds)
    for flag in ("n", "k", "d", "r", "q"):
        p_bnd.add_argument(f"--{flag}", type=_int_list, default=None, help="int, comma list, or lo..hi range")
    p_bnd.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_bnd.add_argument("--out", type=_out_path, default=None)

    p_sim = sub.add_parser("simulate", help="run the erasure-repair simulator")
    p_sim.set_defaults(run=cmd_simulate)
    p_sim.add_argument("matrix", type=str, help="matrix JSON path, or a fixture name (h1, h2)")
    p_sim.add_argument("--trials", type=_positive_int, required=True)
    p_sim.add_argument("--failure-model", type=_failure_model, required=True,
                       help="single-uniform | multi-uniform(f) | group-burst")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", type=_out_path, default=None)
    p_sim.add_argument("--jsonl", type=_out_path, default=None, help="per-trial JSON-lines output path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.run(ns)
    except (OSError, ValueError) as exc:
        # bad parameter values and unwritable outputs: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

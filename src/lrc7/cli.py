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
import io
import json
import sys
import warnings
from dataclasses import asdict, dataclass, fields as dc_fields
from pathlib import Path
from typing import Optional, Sequence

from .bounds import BoundsReport, bounds_report, dim_bound_eq3
from .codec import (
    GroupDetectionError,
    code_from_parity_check,
    min_distance,
    parse_failure_model,
    simulate_repairs,
)
from .construct import assemble_parity_check, run_algorithm1, verify_conditions
from .fields import FieldSpec, write_json
from .linalg import load_matrix_json, matrix_to_json_dict

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    """The full flag set of one invocation, embedded in every output file."""

    command: str
    q: Optional[int] = None
    modulus: Optional[tuple[int, ...]] = None
    policy: Optional[str] = None
    seed: Optional[int] = None
    trials: Optional[int] = None
    failure_model: Optional[str] = None
    input: Optional[str] = None
    out: Optional[str] = None
    format: Optional[str] = None
    distance_cap: Optional[int] = None

    def to_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(self).items() if v is not None}


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"field order must be at least 2, got {q}")
    f = 2
    while f * f <= q:
        if q % f == 0:
            e = 0
            m = q
            while m % f == 0:
                m //= f
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return f, e
        f += 1
    return q, 1


def _parse_int_list(text: str) -> list[int]:
    """'4' -> [4]; '4,5,7' -> [4,5,7]; '4..9' -> [4..9]."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _failure_model(text: str) -> str:
    """Validate a --failure-model spec at parsing; the raw text is kept."""
    try:
        parse_failure_model(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _shown_distance(d: Optional[int], cap: int) -> int | str:
    """d, or '>=cap+1' when a search capped at cap found no dependency."""
    return d if d is not None else f">={cap + 1}"


def _field_from_flags(q: int, modulus: Optional[Sequence[int]]) -> FieldSpec:
    p, e = _factor_prime_power(q)
    return FieldSpec(p, e, modulus)


def _resolve_matrix_path(token: str) -> Path:
    from .codec import fixture_names, fixture_path

    if token in fixture_names():
        return Path(str(fixture_path(token)))
    return Path(token)


def _print_report_text(rep: BoundsReport) -> None:
    rows = rep.to_json_dict()
    if rep.wang_k_max is not None:
        rows["wang_k_max"] = f"{rep.wang_k_max:.6f}"
    width = max(len(name) for name in rows)
    for name, val in rows.items():
        print(f"{name:<{width}}  {'-' if val is None else val}")


# -- construct -----------------------------------------------------------------


def cmd_construct(
    q: int,
    policy: str = "lex",
    seed: Optional[int] = None,
    out: Optional[str] = None,
    modulus: Optional[Sequence[int]] = None,
    fmt: str = "text",
    distance_cap: int = 8,
) -> int:
    cfg = RunConfig(
        command="construct",
        q=q,
        modulus=tuple(modulus) if modulus else None,
        policy=policy,
        seed=seed,
        out=out,
        format=fmt,
        distance_cap=distance_cap,
    )
    field = _field_from_flags(q, modulus)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seq, trace = run_algorithm1(field, policy=policy, seed=seed)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    artifacts = {"sequence.json": seq.to_json_dict(), "trace.json": trace.to_json_dict()}
    if seq.L < 3:
        # short runs happen only without the q >= 4 guarantee; report and stop
        message = f"construction stopped after L = {seq.L} < 3 rounds; no code assembled"
        if fmt == "json":
            print(json.dumps({"config": cfg.to_dict(), "q": q, "L": seq.L, "message": message}, indent=2, sort_keys=True))
        else:
            print(message)
    else:
        report = verify_conditions(seq)
        if not report.ok:
            print(f"verification failed: sequence conditions do not hold: {report}", file=sys.stderr)
            return EXIT_VERIFICATION
        H = assemble_parity_check(seq, check=False)
        code = code_from_parity_check(H)
        d = min_distance(code, cap=distance_cap)
        n, k = code.n, code.k
        # a search capped below 8 that finds nothing only shows d >= cap + 1
        if d not in (7, 8) and not (d is None and distance_cap < 8):
            print(f"verification failed: computed distance {d} not in {{7, 8}}", file=sys.stderr)
            return EXIT_VERIFICATION
        rep = bounds_report(n=n, k=k, d=d, r=2, q=q)
        attained = k == dim_bound_eq3(n, 2, q)
        shown = _shown_distance(d, distance_cap)
        payload = {
            "config": cfg.to_dict(),
            "L": seq.L,
            "n": n,
            "k": k,
            "d": shown,
            "r": 2,
            "q": q,
            "classification": rep.classification,
            "attains_dim_bound": attained,
        }
        if fmt == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"({n}, {k}, {shown}, 2)_{q}  L={seq.L}  policy={policy}" + (f" seed={seed}" if seed is not None else ""))
            print(f"classification: {rep.classification or '-'}")
            print(f"attains dimension bound: {'yes' if attained else 'no'}")
        params = {"n": n, "k": k, "r": 2} if d is None else {"n": n, "k": k, "d": d, "r": 2}
        artifacts["matrix.json"] = matrix_to_json_dict(H, {"params": params})
        artifacts["bounds.json"] = rep.to_json_dict()
    if out is not None:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, artifact in artifacts.items():
            write_json(outdir / name, {**artifact, "config": cfg.to_dict()})
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def cmd_verify(matrix_path: str, fmt: str = "text", distance_cap: int = 8) -> int:
    try:
        M, extras = load_matrix_json(_resolve_matrix_path(matrix_path))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load matrix: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    try:
        code = code_from_parity_check(M)
    except (GroupDetectionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    d = min_distance(code, cap=distance_cap)
    n, k, q = code.n, code.k, code.field.q
    if d is not None:
        six_independent = d >= 7
    else:
        # the search only established d >= cap + 1
        six_independent = True if distance_cap >= 6 else None
    rep = bounds_report(n=n, k=k, d=d, r=2, q=q)
    payload = {
        "n": n,
        "k": k,
        "d": _shown_distance(d, distance_cap),
        "r": 2,
        "q": q,
        "groups": [list(g) for g in code.groups],
        "six_column_independence": six_independent,
        "classification": rep.classification,
    }
    ok = True
    declared = extras.get("params")
    if declared is not None:
        computed = {"n": n, "k": k, "d": d, "r": 2}
        mismatches = {}
        for key in ("n", "k", "d", "r"):
            if key not in declared:
                continue
            if key == "d" and d is None:
                # inconclusive search: the declared value must only exceed the cap
                if declared[key] <= distance_cap:
                    mismatches[key] = (declared[key], _shown_distance(d, distance_cap))
                continue
            if declared[key] != computed[key]:
                mismatches[key] = (declared[key], computed[key])
        payload["declared_params"] = declared
        if mismatches:
            ok = False
            payload["mismatches"] = {k2: list(v) for k2, v in mismatches.items()}
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        d_str = payload["d"]
        print(f"({n}, {k}, {d_str}, 2)_{q}  groups={len(code.groups)}")
        shown_six = "unknown" if six_independent is None else "yes" if six_independent else "no"
        print(f"six-column independence: {shown_six}")
        print(f"classification: {rep.classification or '-'}")
        if declared is not None:
            print(f"declared parameters match: {'yes' if ok else 'no'}")
    if not ok:
        print("verification failed: declared parameters do not match", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


# -- bounds -------------------------------------------------------------------


def cmd_bounds(
    n: Optional[list[int]] = None,
    k: Optional[list[int]] = None,
    d: Optional[list[int]] = None,
    r: Optional[list[int]] = None,
    q: Optional[list[int]] = None,
    fmt: str = "text",
    out: Optional[str] = None,
) -> int:
    axes = {"n": n, "k": k, "d": d, "r": r, "q": q}
    supplied = {name: vals for name, vals in axes.items() if vals}
    if not supplied:
        print("error: provide at least one of --n/--k/--d/--r/--q", file=sys.stderr)
        return EXIT_USAGE
    grid = any(len(vals) > 1 for vals in supplied.values())
    combos: list[dict] = [{}]
    for name, vals in supplied.items():
        combos = [dict(c, **{name: v}) for c in combos for v in vals]
    try:
        reports = [bounds_report(**combo) for combo in combos]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if grid or fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[f.name for f in dc_fields(BoundsReport)])
        writer.writeheader()
        for rep in reports:
            writer.writerow({key: ("" if v is None else v) for key, v in rep.to_json_dict().items()})
        text = buf.getvalue()
        if out:
            Path(out).write_text(text)
        else:
            print(text, end="")
        return EXIT_OK
    rep = reports[0]
    if fmt == "json":
        if out:
            write_json(out, rep.to_json_dict())
        else:
            print(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True))
    else:
        _print_report_text(rep)
    return EXIT_OK


# -- simulate -----------------------------------------------------------------


def cmd_simulate(
    matrix_path: str,
    trials: int,
    failure_model: str,
    seed: int = 0,
    out: Optional[str] = None,
    jsonl: Optional[str] = None,
) -> int:
    cfg = RunConfig(
        command="simulate",
        input=str(matrix_path),
        trials=trials,
        failure_model=failure_model,
        seed=seed,
        out=out,
    )
    try:
        M, _ = load_matrix_json(_resolve_matrix_path(matrix_path))
        code = code_from_parity_check(M)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    # outside the try: its ValueErrors are usage errors, which main exits 2 on
    stats = simulate_repairs(code, trials=trials, failure_model=failure_model, seed=seed)
    summary = {"config": cfg.to_dict(), **stats.summary_dict()}
    print(json.dumps(summary, indent=2, sort_keys=True))
    if out:
        write_json(out, summary)
    if jsonl:
        with open(jsonl, "w") as fh:
            for rec in stats.records:
                fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrc7", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="run the greedy constructor and verify the code")
    p_con.add_argument("--q", type=int, required=True, help="field order (prime power)")
    p_con.add_argument("--modulus", type=str, default=None, help="comma-separated modulus coefficients, low degree first")
    p_con.add_argument("--policy", choices=("lex", "seeded"), default="lex")
    p_con.add_argument("--seed", type=int, default=None)
    p_con.add_argument("--out", type=str, default=None, help="directory for sequence/trace/matrix/bounds JSON")
    p_con.add_argument("--format", choices=("text", "json"), default="text")
    p_con.add_argument("--distance-cap", type=_positive_int, default=8)

    p_ver = sub.add_parser("verify", help="recompute parameters of a stored matrix")
    p_ver.add_argument("matrix", type=str, help="matrix JSON path, or a fixture name (h1, h2)")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.add_argument("--distance-cap", type=_positive_int, default=8)

    p_bnd = sub.add_parser("bounds", help="evaluate parameter bounds (grid inputs emit CSV)")
    for flag in ("n", "k", "d", "r", "q"):
        p_bnd.add_argument(f"--{flag}", type=str, default=None, help="int, comma list, or lo..hi range")
    p_bnd.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_bnd.add_argument("--out", type=str, default=None)

    p_sim = sub.add_parser("simulate", help="run the erasure-repair simulator")
    p_sim.add_argument("matrix", type=str, help="matrix JSON path, or a fixture name (h1, h2)")
    p_sim.add_argument("--trials", type=_positive_int, required=True)
    p_sim.add_argument("--failure-model", type=_failure_model, required=True,
                       help="single-uniform | multi-uniform(f) | group-burst")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", type=str, default=None)
    p_sim.add_argument("--jsonl", type=str, default=None, help="per-trial JSON-lines output path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "construct":
            modulus = _parse_int_list(ns.modulus) if ns.modulus else None
            return cmd_construct(
                q=ns.q,
                policy=ns.policy,
                seed=ns.seed,
                out=ns.out,
                modulus=modulus,
                fmt=ns.format,
                distance_cap=ns.distance_cap,
            )
        if ns.command == "verify":
            return cmd_verify(ns.matrix, fmt=ns.format, distance_cap=ns.distance_cap)
        if ns.command == "bounds":
            return cmd_bounds(
                n=_parse_int_list(ns.n) if ns.n else None,
                k=_parse_int_list(ns.k) if ns.k else None,
                d=_parse_int_list(ns.d) if ns.d else None,
                r=_parse_int_list(ns.r) if ns.r else None,
                q=_parse_int_list(ns.q) if ns.q else None,
                fmt=ns.format,
                out=ns.out,
            )
        if ns.command == "simulate":
            return cmd_simulate(
                ns.matrix,
                trials=ns.trials,
                failure_model=ns.failure_model,
                seed=ns.seed,
                out=ns.out,
                jsonl=ns.jsonl,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())

"""Turn a parity-check matrix into a working erasure code.

An LrcCode bundles the parity-check matrix H, a kernel-derived generator G,
the detected repair-group structure (disjoint triples, each backed by a
weight-3 dual check), and the parameters.  On top of it sit exact minimum
distance (for an LrcCode, d = 7 read from the pair-span table when it
applies, else kernels enumerated over sets of repair groups; for a plain
matrix, column-subset enumeration with early exit), an independent
minimum-weight oracle (full codeword enumeration), local and global erasure
repair, and a seeded repair simulator.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, field as dc_field
from itertools import combinations
from typing import Optional, Sequence, Union

import numpy as np

from .bounds import CodeParams
from .construct import PairSpanTable, VectorSequence
from .fields import FieldSpec
from .linalg import (
    AmbiguousSystemError,
    MatrixF,
    _codes,
    _echelon_step,
    _kernel_codes,
    _matmul_codes,
    _solve_stack,
    kernel_basis,
    matmul,
    matrix_from_json_dict,
    rank,
    solve_columns,
)


class GroupDetectionError(ValueError):
    """H has no leading block of disjoint weight-3 indicator rows."""


class LocalRepairError(ValueError):
    """A group partner is also erased; fall back to global repair."""


class UnrecoverableErasureError(ValueError):
    """The erasure pattern does not determine the codeword uniquely."""


class EnumerationBudgetError(ValueError):
    """q^k exceeds the codeword-enumeration budget."""


class LrcCode:
    """A linear code with locality-2 repair groups of size 3."""

    __slots__ = ("H", "G", "params", "groups", "_group_checks", "_group_of")

    def __init__(self, H: MatrixF, G: MatrixF, params: CodeParams, groups, group_checks):
        self.H = H
        self.G = G
        self.params = params
        self.groups = tuple(tuple(g) for g in groups)
        self._group_checks = tuple(tuple(tuple(c) for c in checks) for checks in group_checks)
        lookup = {}
        for gi, g in enumerate(self.groups):
            for pos in g:
                lookup[pos] = gi
        self._group_of = lookup

    @property
    def field(self) -> FieldSpec:
        return self.H.field

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.params.k

    def group_index_of(self, pos: int) -> int:
        return self._group_of[pos]

    def __repr__(self) -> str:
        return f"LrcCode(n={self.n}, k={self.k}, groups={len(self.groups)}, q={self.field.q})"


def _detect_groups(H: MatrixF):
    """Read the leading disjoint weight-3 indicator rows as repair groups."""
    A = H.array
    n = H.cols
    if n % 3 != 0:
        raise GroupDetectionError(f"length {n} is not a multiple of 3")
    L = n // 3
    if H.rows < L:
        raise GroupDetectionError(f"expected at least {L} indicator rows, matrix has {H.rows}")
    groups = []
    seen: set[int] = set()
    for t in range(L):
        nz = np.nonzero(A[t])[0]
        if nz.size != 3 or not (A[t][nz] == 1).all():
            raise GroupDetectionError(f"row {t} is not a 0/1 indicator of weight 3")
        g = tuple(int(j) for j in nz)
        if seen & set(g):
            raise GroupDetectionError(f"row {t} overlaps an earlier group")
        seen.update(g)
        groups.append(g)
    checks = [((1, 1, 1),) for _ in groups]
    return groups, checks


def _checks_from_spec(field: FieldSpec, G: MatrixF, groups):
    """Derive in-group dual checks for caller-specified groups.

    For each group g, the dual codewords supported inside g are the kernel
    of G restricted to g's columns; every position must be covered by a
    check that is nonzero there.
    """
    n = G.cols
    flat = [pos for g in groups for pos in g]
    if sorted(flat) != list(range(n)) or any(len(g) != 3 for g in groups):
        raise GroupDetectionError("groups must partition the coordinates into triples")
    checks = []
    for g in groups:
        basis = [tuple(row) for row in _kernel_codes(field, G.array[:, list(g)]).tolist()]
        for slot in range(3):
            if not any(vec[slot] for vec in basis):
                raise GroupDetectionError(
                    f"position {g[slot]} has no local check inside its group"
                )
        checks.append(tuple(basis))
    return [tuple(g) for g in groups], checks


def code_from_parity_check(H: MatrixF, group_spec: Optional[Sequence[Sequence[int]]] = None) -> LrcCode:
    """Build the code: generator from the kernel, groups detected from the
    leading indicator rows (or taken from group_spec)."""
    field = H.field
    n = H.cols
    k = n - rank(H)
    if k == 0:
        raise ValueError("parity-check matrix has full column rank: the code is {0}")
    G = MatrixF(field, kernel_basis(H))
    if matmul(G, H.transpose()).array.any():
        raise AssertionError("generator is not orthogonal to the parity checks")
    if group_spec is None:
        groups, checks = _detect_groups(H)
    else:
        groups, checks = _checks_from_spec(field, G, [tuple(g) for g in group_spec])
    params = CodeParams(n=n, k=k, d=None, r=2, q=field.q)
    return LrcCode(H, G, params, groups, checks)


# -- minimum distance ----------------------------------------------------------


def _dependent_at_most(field: FieldSpec, cols, w: int) -> bool:
    """True iff some subset of at most w columns is linearly dependent.

    Depth-first enumeration in index order; the echelon form of the growing
    prefix is carried down the recursion, so each candidate column costs one
    `_echelon_step`.
    """
    n = len(cols)

    def rec(start: int, ech, depth: int) -> bool:
        last = depth == w - 1
        for c in range(start, n - (w - 1 - depth)):
            step = _echelon_step(field, cols[c], ech)
            if step is None:
                return True
            if not last and rec(c + 1, ech + [step], depth + 1):
                return True
        return False

    return rec(0, [], 0)


def _projective_points(q: int, dim: int):
    """Coefficient rows, one per point of PG(dim - 1, q) (leading entry 1),
    in blocks of at most 2^15 rows, so memory stays bounded at any q."""
    chunk = 1 << 15
    for lead in range(dim):
        tail = dim - 1 - lead
        for lo in range(0, q**tail, chunk):
            idx = np.arange(lo, min(lo + chunk, q**tail))
            block = np.zeros((idx.size, dim), dtype=np.int32)
            block[:, lead] = 1
            for s in range(tail):
                block[:, dim - 1 - s] = idx // q**s % q
            yield block


def _group_set_distance(code: LrcCode, cap: int) -> Optional[int]:
    """min_distance of an LrcCode, searched over sets of repair groups.

    Every position has an in-group dual check, so no codeword touches a
    group in exactly one position: a codeword touching m groups has weight
    at least 2m and lies in the kernel of H restricted to their columns.
    Once every m-set's kernel is enumerated (one vector per projective
    point; scaling keeps the weight), every codeword not yet seen touches
    more than m groups and so has weight at least 2m + 2: the least weight
    seen is d as soon as it is at most 2m + 2.
    """
    field, H, L = code.field, code.H.array, len(code.groups)
    best = code.n + 1
    for m in range(1, L + 1):
        for T in combinations(code.groups, m):
            basis = _kernel_codes(field, H[:, [j for g in T for j in g]])
            if not len(basis):
                continue
            for coeffs in _projective_points(field.q, len(basis)):
                words = _matmul_codes(field, coeffs, basis)
                best = min(best, int(np.count_nonzero(words, axis=1).min()))
        if best <= 2 * m + 2 or m == L:
            return best if best <= cap else None
        if 2 * m + 1 >= cap:
            return None


def _weight7_witness(code: LrcCode) -> Optional[np.ndarray]:
    """A weight-7 codeword that, with the three sequence conditions, proves
    d = 7, read from the pair-span table (`construct.PairSpanTable`).

    Applies when H is L group indicator rows (`_detect_groups`) plus exactly
    four rows h: on group (g0, g1, g2) a codeword is (a, b, -(a + b)) and its
    image a*u1 + b*u2 with u1 = h(g0) - h(g2), u2 = h(g1) - h(g2), so the code
    is the block code of those pairs.  None when H has another shape, a
    condition fails (d <= 6) or no weight-7 codeword exists (d >= 8).
    """
    try:
        groups, _ = _detect_groups(code.H)
    except GroupDetectionError:
        return None
    if code.H.rows != len(groups) + 4:
        return None
    field, h = code.field, code.H.array[len(groups) :]
    pairs = [(field.arr_sub(h[:, g0], h[:, g2]), field.arr_sub(h[:, g1], h[:, g2])) for g0, g1, g2 in groups]
    table = PairSpanTable.of(VectorSequence(field, pairs))
    parts = table.weight7_parts() if table.conditions().ok else None
    if parts is None:
        return None
    word = np.zeros(code.n, dtype=np.int32)
    for g, (a, b) in parts.items():
        word[list(groups[g])] = (a, b, field.neg(field.add(a, b)))
    return word


def min_distance(code: Union[LrcCode, MatrixF], cap: int = 8) -> Optional[int]:
    """Exact minimum distance, i.e. the smallest number of linearly
    dependent parity-check columns, searched up to ``cap``.

    Returns None when every subset of at most ``cap`` columns is
    independent (distance >= cap + 1).  An LrcCode whose H is a pair
    sequence's block code, with the three conditions holding and a weight-7
    codeword on the pair-span table, has d = 7 (`_weight7_witness`); any
    other LrcCode is searched over sets of its repair groups
    (`_group_set_distance`); a plain matrix, which has no groups, by
    depth-first enumeration of column subsets.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if isinstance(code, LrcCode):
        if _weight7_witness(code) is not None:
            return 7 if cap >= 7 else None
        return _group_set_distance(code, cap)
    field = code.field
    cols = [tuple(int(x) for x in code.array[:, j]) for j in range(code.cols)]
    for w in range(1, min(cap, code.cols) + 1):
        if _dependent_at_most(field, cols, w):
            return w
    return None


def min_weight_oracle(code: Union[LrcCode, MatrixF], budget: int = 10**6) -> int:
    """Minimum Hamming weight over all q^k - 1 nonzero codewords.

    Independent of min_distance: this enumerates messages through the
    generator instead of testing column subsets.  Refuses to run when
    q^k exceeds the budget.
    """
    field = code.field
    G = code.G.array if isinstance(code, LrcCode) else _kernel_codes(field, code.array)
    if not len(G):
        raise ValueError("the code is {0}: no nonzero codewords")
    q, (k, n) = field.q, G.shape
    total = q**k
    if total > budget:
        raise EnumerationBudgetError(f"q^k = {total} exceeds the enumeration budget {budget}")
    best = n + 1
    chunk = 1 << 15
    for lo in range(1, total, chunk):
        ms = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        digits = (ms[:, None] // q ** np.arange(k, dtype=np.int64) % q).astype(np.int32)
        best = min(best, int(np.count_nonzero(_matmul_codes(field, digits, G), axis=1).min()))
    return best


# -- encoding and repair ---------------------------------------------------------


def _symbols(field: FieldSpec, symbols) -> np.ndarray:
    """A message or received word as codes (`linalg._codes`); a bool symbol
    is rejected here, since numpy reads one among integers as 0 or 1."""
    if any(isinstance(x, (bool, np.bool_)) for x in symbols):
        raise ValueError("symbols must be integer codes, got a bool")
    return _codes(field, symbols)


def encode(code: LrcCode, msg) -> tuple[int, ...]:
    """msg @ G as a tuple of codes; the result satisfies every parity check."""
    codes = _symbols(code.field, msg)
    if codes.shape != (code.k,):
        raise ValueError(f"message of shape {codes.shape} is not k = {code.k} codes")
    return tuple(_matmul_codes(code.field, codes[None, :], code.G.array)[0].tolist())


Received = Sequence[Optional[int]]


def _received_codes(code: LrcCode, word: Received) -> tuple[np.ndarray, list[int]]:
    """A received word's codes (0 at each erasure, marked by None) and its
    erased positions."""
    if len(word) != code.n:
        raise ValueError(f"word length {len(word)} != n = {code.n}")
    erased = [j for j, x in enumerate(word) if x is None]
    return _symbols(code.field, [0 if x is None else x for x in word]), erased


def _local_rule(code: LrcCode, pos: int, erased) -> tuple[int, list[tuple[int, int]]]:
    """The first check of pos's group that is nonzero at pos and reads no
    erased position: (its coefficient at pos, [(helper, coefficient)]).

    Raises LocalRepairError when every such check needs an erased partner.
    """
    gi = code.group_index_of(pos)
    group = code.groups[gi]
    slot = group.index(pos)
    for check in code._group_checks[gi]:
        if check[slot] == 0:
            continue
        helpers = [(j, check[s]) for s, j in enumerate(group) if s != slot and check[s]]
        if not any(j in erased for j, _ in helpers):
            return check[slot], helpers
    raise LocalRepairError(
        f"position {pos}: a group partner is also erased; use repair_global"
    )


def _repair_local_info(code: LrcCode, word: Received, pos: int) -> tuple[int, int]:
    """(repaired code, helpers read); raises LocalRepairError on partner loss."""
    field = code.field
    codes, erased = _received_codes(code, word)
    if word[pos] is not None:
        raise ValueError(f"position {pos} is not erased")
    lead, helpers = _local_rule(code, pos, set(erased))
    acc = 0
    for j, coeff in helpers:
        acc = field.add(acc, field.mul(coeff, int(codes[j])))
    return field.div(field.neg(acc), lead), len(helpers)


def repair_local(code: LrcCode, word: Received, pos: int) -> int:
    """Repair one erased position from its group check alone; returns its code.

    Reads exactly the surviving group partners (two symbols for weight-3
    checks).  Raises LocalRepairError when a needed partner is erased too.
    """
    value, _ = _repair_local_info(code, word, pos)
    return value


def repair_global(code: LrcCode, word: Received) -> tuple[int, ...]:
    """Solve the parity checks over the erased coordinates; returns the
    repaired word as a tuple of codes.

    Any pattern of fewer than d erasures restricts H to full column rank and
    is repaired exactly; rank-deficient restrictions raise
    UnrecoverableErasureError.
    """
    field = code.field
    codes, erased = _received_codes(code, word)
    if erased:
        H = code.H.array
        syndrome = _matmul_codes(field, codes[None, :], H.T)
        try:
            x = solve_columns(field, H[:, erased], field.arr_neg(syndrome.T))
        except AmbiguousSystemError as exc:
            raise UnrecoverableErasureError(
                f"{len(erased)} erasures do not determine the codeword uniquely"
            ) from exc
        codes[erased] = x[:, 0]
    return tuple(codes.tolist())


# -- repair simulation -------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    erased: tuple[int, ...]
    mode: str  # "local" or "global"
    success: bool
    helpers: int


@dataclass(frozen=True)
class RepairStats:
    """Aggregated simulator output plus the per-trial records."""

    trials: int
    successes: int
    local_trials: int
    erased_symbols: int
    locally_repaired_symbols: int
    helpers_total: int
    records: tuple[TrialRecord, ...] = dc_field(repr=False)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def local_symbol_fraction(self) -> float:
        return self.locally_repaired_symbols / self.erased_symbols

    @property
    def mean_helpers_per_trial(self) -> float:
        return self.helpers_total / self.trials

    @property
    def mean_helpers_per_symbol(self) -> float:
        return self.helpers_total / self.erased_symbols

    def wilson_ci_95(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)

    def summary_dict(self) -> dict:
        lo, hi = self.wilson_ci_95()
        return {
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "success_wilson_ci_95": [lo, hi],
            "local_trials": self.local_trials,
            "erased_symbols": self.erased_symbols,
            "locally_repaired_symbols": self.locally_repaired_symbols,
            "local_symbol_fraction": self.local_symbol_fraction,
            "mean_helpers_per_trial": self.mean_helpers_per_trial,
            "mean_helpers_per_symbol": self.mean_helpers_per_symbol,
        }


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def parse_failure_model(spec: str) -> tuple[str, Optional[int]]:
    """Parse 'single-uniform', 'multi-uniform(f)' / 'multi-uniform:f',
    or 'group-burst'."""
    s = spec.strip()
    if s == "single-uniform":
        return "single-uniform", None
    if s == "group-burst":
        return "group-burst", None
    for opener, closer in (("(", ")"), (":", "")):
        if s.startswith("multi-uniform" + opener):
            body = s[len("multi-uniform" + opener):]
            if closer:
                if not body.endswith(closer):
                    break
                body = body[: -len(closer)]
            try:
                f = int(body)
            except ValueError:
                break
            if f < 1:
                raise ValueError("multi-uniform needs at least one erasure")
            return "multi-uniform", f
    raise ValueError(
        f"unknown failure model {spec!r}; expected single-uniform, "
        "multi-uniform(f) or group-burst"
    )


def simulate_repairs(code: LrcCode, trials: int, failure_model: str, seed: int = 0) -> RepairStats:
    """Encode random messages, erase per the failure model, repair local-first.

    A trial is repaired locally when every touched group has exactly one
    erasure; otherwise one global repair covers the whole pattern.  All
    randomness derives from the seed, one child stream per trial.

    The messages are encoded in one product through G and the erasures kept
    as one (trials, f) array.  In a local trial no helper is erased, so each
    erased position has one repair rule (`_local_rule`), read once and
    applied to every local trial by gathers.  The global trials are solved
    in stacks, one elimination of [H over the erased columns | -syndrome]
    per trial (`linalg._solve_stack`), and every trial's repaired symbols
    are compared with its own codeword.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    kind, f = parse_failure_model(failure_model)
    field = code.field
    n, k, q = code.n, code.k, field.q
    if kind == "multi-uniform" and f > n:
        raise ValueError(f"cannot erase {f} of {n} symbols")
    groups = np.array(code.groups)
    msgs = np.empty((trials, k), dtype=np.int32)
    E = np.empty((trials, {"single-uniform": 1, "multi-uniform": f, "group-burst": 3}[kind]), dtype=np.intp)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        msgs[t] = rng.integers(0, q, size=k)
        if kind == "single-uniform":
            E[t] = rng.integers(0, n)
        elif kind == "multi-uniform":
            E[t] = rng.choice(n, size=f, replace=False)
        else:
            E[t] = groups[rng.integers(0, len(groups))]
    if kind == "multi-uniform":
        E.sort(axis=1)
    words = _matmul_codes(field, msgs, code.G.array)
    group_of = np.array([code.group_index_of(j) for j in range(n)])
    touched = np.sort(group_of[E], axis=1)
    local = (touched[:, 1:] != touched[:, :-1]).all(axis=1)
    ok = np.zeros(trials, dtype=bool)
    helpers = np.zeros(trials, dtype=np.int64)
    add, mul, neg = field._ADD_NP, field._MUL_NP, field._NEG_NP

    rows = np.flatnonzero(local)
    if rows.size:  # rule of position j: inverse lead, two helpers (coefficient 0 pads)
        e, r = E[rows], rows[:, None]
        ilead = np.zeros(n, dtype=np.int32)
        hpos = np.zeros((2, n), dtype=np.intp)
        hcoef = np.zeros((2, n), dtype=np.int32)
        count = np.zeros(n, dtype=np.int64)
        for j in sorted(set(e.ravel().tolist())):
            lead, rule = _local_rule(code, j, ())
            ilead[j], count[j] = field.inv(lead), len(rule)
            for s, (h, coeff) in enumerate(rule):
                hpos[s, j], hcoef[s, j] = h, coeff
        acc = add[mul[hcoef[0, e], words[r, hpos[0, e]]], mul[hcoef[1, e], words[r, hpos[1, e]]]]
        ok[rows] = (mul[neg[acc], ilead[e]] == words[r, e]).all(axis=1)
        helpers[rows] = count[e].sum(axis=1)

    H = code.H.array
    glob = np.flatnonzero(~local)
    helpers[glob] = n - E.shape[1]
    chunk = max(1, (1 << 14) // (H.shape[0] * (E.shape[1] + 1)))  # a few hundred KiB of temporaries at any trial count
    for lo in range(0, glob.size, chunk):
        rows = glob[lo : lo + chunk]
        e, r = E[rows], rows[:, None]
        received = words[rows]
        received[np.arange(rows.size)[:, None], e] = 0
        rhs = field.arr_neg(_matmul_codes(field, received, H.T))
        x, unique = _solve_stack(field, H.T[e].transpose(0, 2, 1), rhs)
        ok[rows] = unique & (x == words[r, e]).all(axis=1)

    records = tuple(
        TrialRecord(t, tuple(erased), "local" if is_local else "global", good, h)
        for t, (erased, is_local, good, h) in enumerate(zip(E.tolist(), local.tolist(), ok.tolist(), helpers.tolist()))
    )
    return RepairStats(
        trials=trials,
        successes=int(ok.sum()),
        local_trials=int(local.sum()),
        erased_symbols=E.size,
        locally_repaired_symbols=int(local.sum()) * E.shape[1],
        helpers_total=int(helpers.sum()),
        records=records,
    )


# -- bundled example matrices -----------------------------------------------------


def fixture_names() -> tuple[str, ...]:
    return ("h1", "h2")


def fixture_path(name: str):
    if name not in fixture_names():
        raise KeyError(f"unknown fixture {name!r}; available: {fixture_names()}")
    return importlib.resources.files("lrc7") / "fixtures" / f"{name}.json"


def load_fixture(name: str) -> tuple[MatrixF, dict]:
    """Load a bundled parity-check matrix plus its declared parameters."""
    data = json.loads(fixture_path(name).read_text())
    return matrix_from_json_dict(data)

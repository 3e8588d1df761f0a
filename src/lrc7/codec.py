"""Turn a parity-check matrix into a working erasure code.

An LrcCode bundles the parity-check matrix H, a kernel-derived generator G
and the repair groups (disjoint triples, read from H's leading 0/1
indicator rows).  On top of it sit exact minimum distance (for
a pair sequence's block code that meets the three conditions, d = 7 or 8
read from its pair-span table; for any other LrcCode, kernels enumerated
over sets of repair groups; for a plain matrix, column-subset enumeration
with early exit), an independent minimum-weight oracle (full codeword
enumeration), local and global erasure repair, and a seeded repair
simulator.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence, Union

import numpy as np

from .construct import ConditionReport, PairSpanTable, VectorSequence
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
    load_matrix_json,
    matmul,
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
    """A linear code with locality-2 repair groups of size 3: H's leading
    rows are the groups' 0/1 indicators, so each erased symbol is minus the
    sum of its two group partners."""

    __slots__ = ("H", "G", "groups", "_group_of")

    def __init__(self, H: MatrixF, G: MatrixF, groups):
        self.H = H
        self.G = G
        self.groups = tuple(tuple(g) for g in groups)
        self._group_of = np.empty(H.cols, dtype=np.intp)  # group index of each position
        for gi, g in enumerate(self.groups):
            self._group_of[list(g)] = gi

    @property
    def field(self) -> FieldSpec:
        return self.H.field

    @property
    def n(self) -> int:
        return self.H.cols

    @property
    def k(self) -> int:
        return self.G.rows

    def __repr__(self) -> str:
        return f"LrcCode(n={self.n}, k={self.k}, groups={len(self.groups)}, q={self.field.q})"


def _detect_groups(H: MatrixF) -> list[tuple[int, int, int]]:
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
    return groups


def code_from_parity_check(H: MatrixF) -> LrcCode:
    """Build the code: generator from the kernel, groups detected from the
    leading indicator rows."""
    k = H.cols - rank(H)
    if k == 0:
        raise ValueError("parity-check matrix has full column rank: the code is {0}")
    if k == 1:  # locality r = 2 needs k >= r
        raise ValueError("need 1 <= r <= k, got r=2, k=1")
    G = MatrixF(H.field, kernel_basis(H))
    if matmul(G, H.transpose()).array.any():
        raise AssertionError("generator is not orthogonal to the parity checks")
    return LrcCode(H, G, _detect_groups(H))


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


def _block_table(code: LrcCode) -> Optional[PairSpanTable]:
    """The pair-span table (`construct.PairSpanTable`) of a block code; None
    unless H is the L group indicator rows plus exactly four rows h.

    On group (g0, g1, g2) a codeword is (a, b, -(a + b)) and its image
    a*u1 + b*u2 with u1 = h(g0) - h(g2), u2 = h(g1) - h(g2), so the code is
    the block code of those pairs.
    """
    L = len(code.groups)
    if code.H.rows != L + 4:
        return None
    field, h, g = code.field, code.H.array[L:], np.array(code.groups).T
    u1, u2 = field.arr_sub(h[:, g[0]], h[:, g[2]]), field.arr_sub(h[:, g[1]], h[:, g[2]])
    return PairSpanTable.of(VectorSequence(field, np.stack([u1.T, u2.T], axis=1)))


def block_distance(table: PairSpanTable) -> tuple[ConditionReport, Optional[int]]:
    """The distance rule for the block code of a pair sequence: the table's
    conditions report and d, which is 7 or 8 when c1-c3 hold and L >= 3,
    and None otherwise.

    The conditions give d >= 7, and a weight-7 point of the table
    (`weight7_parts`) gives d = 7.  With no such point d = 8: take three
    pairs i, j, t.  P_j + P_t is all of GF(q)^4 (c2), so u0(i) = x + y with
    x in P_j and y in P_t, both nonzero.  If x and y are both
    representatives, c3 fails.  If exactly one is, the other lies on the
    span of u0(i) and that representative and in a third plane, and is no
    representative: a weight-7 point.  So neither is: with x = A_j*u1(j) +
    B_j*u2(j) and y = A_t*u1(t) + B_t*u2(t), the word (1, -1, 0 | -A_j,
    -B_j, A_j + B_j | -A_t, -B_t, A_t + B_t) on groups i, j, t is a
    codeword of weight 8.
    """
    report = table.conditions()
    if not report.ok or table.seq.L < 3:
        return report, None
    return report, 7 if table.weight7_parts() is not None else 8


def min_distance(code: Union[LrcCode, MatrixF], cap: int = 8) -> Optional[int]:
    """Exact minimum distance, i.e. the smallest number of linearly
    dependent parity-check columns, searched up to ``cap``.

    Returns None when every subset of at most ``cap`` columns is
    independent (distance >= cap + 1).  An LrcCode whose H is the block
    code of a pair sequence of L >= 3 pairs meeting the three conditions
    has d = 7 or 8 by the rule of its pair-span table (`block_distance`);
    any other LrcCode is searched over sets of its repair groups
    (`_group_set_distance`); a plain matrix, which has no groups, by
    depth-first enumeration of column subsets.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if isinstance(code, LrcCode):
        table = _block_table(code)
        d = block_distance(table)[1] if table is not None else None
        if d is None:
            return _group_set_distance(code, cap)
        return d if d <= cap else None
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


def encode(code: LrcCode, msg) -> tuple[int, ...]:
    """msg @ G as a tuple of codes; the result satisfies every parity check."""
    codes = _codes(code.field, msg)
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
    return _codes(code.field, [0 if x is None else x for x in word]), erased


def _repair_local_info(code: LrcCode, word: Received, pos: int) -> tuple[int, int]:
    """(repaired code, helpers read): minus the sum of the two group
    partners of pos (the group's indicator row).  Raises LocalRepairError
    when a partner is erased too and ValueError unless pos is an int (not a
    bool) in [0, n)."""
    if isinstance(pos, bool) or not isinstance(pos, (int, np.integer)) or not 0 <= pos < code.n:
        raise ValueError(f"position must be an int in [0, {code.n}), got {pos!r}")
    field = code.field
    codes, erased = _received_codes(code, word)
    if word[pos] is not None:
        raise ValueError(f"position {pos} is not erased")
    a, b = (j for j in code.groups[code._group_of[pos]] if j != pos)
    if a in erased or b in erased:
        raise LocalRepairError(f"position {pos}: a group partner is also erased; use repair_global")
    return field.neg(field.add(int(codes[a]), int(codes[b]))), 2


def repair_local(code: LrcCode, word: Received, pos: int) -> int:
    """Repair one erased position from its group check alone; returns its code.

    Reads exactly the two group partners.  Raises LocalRepairError when a
    partner is erased too, and ValueError unless pos is an int (not a bool)
    in [0, n).
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


_SIM_BLOCK_BYTES = 1 << 22  # one block's messages and codewords in `simulate_repairs`, in whole stream units
_STREAM_TRIALS = 1024  # trials per unit of the seeded stream; trial t is drawn in unit t // _STREAM_TRIALS
_STREAM_VERSION = 2  # the stream `_trial_draws` defines, recorded in `lrc7 simulate`'s config


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    erased: tuple[int, ...]
    mode: str  # "local" or "global"
    success: bool
    helpers: int


@dataclass(frozen=True, eq=False)
class RepairStats:
    """Simulator output as arrays over the trials: the erased positions
    (trials, f), whether each trial was local, whether it succeeded and the
    symbols it read.  `records` builds the TrialRecords on first read, and
    `summary_dict` sums the arrays into the run's counters and rates."""

    erasures: np.ndarray
    local: np.ndarray
    ok: np.ndarray
    helpers: np.ndarray

    def __post_init__(self):
        for a in self._arrays():
            a.setflags(write=False)  # the records, once built, stay true

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.erasures, self.local, self.ok, self.helpers

    def __eq__(self, other) -> bool:
        if not isinstance(other, RepairStats):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays()))

    @cached_property
    def records(self) -> tuple[TrialRecord, ...]:
        return tuple(
            TrialRecord(t, tuple(erased), "local" if is_local else "global", good, h)
            for t, (erased, is_local, good, h) in enumerate(zip(*(a.tolist() for a in self._arrays())))
        )

    def write_jsonl(self, fh) -> None:
        """Write each record as the line json.dumps(asdict(record),
        sort_keys=True) gives, from the arrays, 65,536 trials at a time."""
        for lo in range(0, self.ok.size, 1 << 16):
            rows = zip(range(lo, self.ok.size), *(a[lo : lo + (1 << 16)].tolist() for a in self._arrays()))
            fh.writelines(f'{{"erased": {e}, "helpers": {h}, "mode": "{("global", "local")[loc]}", '
                          f'"success": {str(ok).lower()}, "trial": {t}}}\n' for t, e, loc, ok, h in rows)

    def summary_dict(self) -> dict:
        trials, successes, erased = self.ok.size, int(self.ok.sum()), self.erasures.size
        local_trials, helpers = int(self.local.sum()), int(self.helpers.sum())
        local_erased = local_trials * self.erasures.shape[1]
        return {
            "trials": trials,
            "successes": successes,
            "success_rate": successes / trials,
            "success_wilson_ci_95": list(wilson_interval(successes, trials)),
            "local_trials": local_trials,
            "erased_symbols": erased,
            "locally_repaired_symbols": local_erased,
            "local_symbol_fraction": local_erased / erased,
            "mean_helpers_per_trial": helpers / trials,
            "mean_helpers_per_symbol": helpers / erased,
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
    randomness derives from the seed through stream 2 (`_trial_draws`):
    trial t depends only on (seed, t), so a run's first T trials are the
    T-trial run.  Each block of whole stream units is drawn unit by unit
    into the run's erasure array and one message buffer, encoded in one
    product through G and repaired (`_repair_block`).  The seed is a
    non-negative int, so that every run can be repeated.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    kind, f = parse_failure_model(failure_model)
    n, k, q = code.n, code.k, code.field.q
    if kind == "multi-uniform" and f > n:
        raise ValueError(f"cannot erase {f} of {n} symbols")
    groups = np.array(code.groups)
    width = {"single-uniform": 1, "multi-uniform": f, "group-burst": groups.shape[1]}[kind]
    arrays = (np.empty((trials, width), np.int32), *(np.empty(trials, t) for t in (bool, bool, np.int32)))
    block = _STREAM_TRIALS * max(1, _SIM_BLOCK_BYTES // (8 * (n + k) * _STREAM_TRIALS))
    msgs = np.empty((min(block, trials), k), np.int64)
    for lo in range(0, trials, block):
        hi = min(lo + block, trials)
        M, E = msgs[: hi - lo], arrays[0][lo:hi]  # the block's messages and erasures
        for s in range(0, hi - lo, _STREAM_TRIALS):
            e = min(s + _STREAM_TRIALS, hi - lo)
            M[s:e], E[s:e] = _trial_draws(seed, (lo + s) // _STREAM_TRIALS, e - s, q, k, kind, f, groups)
        for a, part in zip(arrays[1:], _repair_block(code, groups, _matmul_codes(code.field, M, code.G.array), E)):
            a[lo:hi] = part
    return RepairStats(*arrays)


def _trial_draws(seed: int, u: int, B: int, q: int, k: int, kind: str, f: Optional[int], groups: np.ndarray):
    """The messages (B, k) and erased positions of the first B <=
    _STREAM_TRIALS trials of stream unit u, trials u * _STREAM_TRIALS
    onwards.  The unit draws from two generators,
    PCG64(SeedSequence(seed, spawn_key=(u, i))): i = 0 draws the messages,
    integers(0, q, (B, k)); i = 1 the erasures, integers(0, n, (B, 1)), the
    sorted first f columns of (B, n) rows of arange(n) each permuted, or
    groups[integers(0, L, B)].
    """
    n = groups.size
    msg_rng, erasure_rng = (np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(u, i))) for i in (0, 1))
    if kind == "single-uniform":
        E = erasure_rng.integers(0, n, (B, 1))
    elif kind == "multi-uniform":
        E = np.sort(erasure_rng.permuted(np.broadcast_to(np.arange(n), (B, n)), axis=1)[:, :f], axis=1)
    else:
        E = groups[erasure_rng.integers(0, len(groups), B)]
    return msg_rng.integers(0, q, (B, k)), E


def _repair_block(code: LrcCode, groups: np.ndarray, words: np.ndarray, E: np.ndarray):
    """(local, ok, helpers) for codewords words[t] with positions E[t]
    erased.  A local trial compares each erased symbol with minus the sum
    of its two group partners (as `_repair_local_info`) in one gather; the
    global trials are solved in stacks, one elimination of [H over the
    erased columns | -syndrome] per trial (`linalg._solve_stack`)."""
    field, H, (T, f) = code.field, code.H.array, E.shape
    touched = np.sort(code._group_of[E], axis=1)
    local = (touched[:, 1:] != touched[:, :-1]).all(axis=1)
    ok = np.zeros(T, dtype=bool)
    helpers = np.where(local, 2 * f, code.n - f).astype(np.int32)

    rows = np.flatnonzero(local)
    if rows.size:
        e, r = E[rows], rows[:, None]
        g = groups[code._group_of[e]]
        partners = g[g != e[:, :, None]].reshape(*e.shape, 2)
        w = words[r[:, :, None], partners]
        ok[rows] = (field._NEG_NP[field._ADD_NP[w[..., 0], w[..., 1]]] == words[r, e]).all(axis=1)

    glob = np.flatnonzero(~local)
    chunk = max(1, (1 << 16) // (H.shape[0] * (f + 1)))  # about a MiB of temporaries at any trial count
    for lo in range(0, glob.size, chunk):
        rows = glob[lo : lo + chunk]
        e, r = E[rows], rows[:, None]
        received = words[rows]
        received[np.arange(rows.size)[:, None], e] = 0
        rhs = field.arr_neg(_matmul_codes(field, received, H.T))
        x, unique = _solve_stack(field, H.T[e].transpose(0, 2, 1), rhs)
        ok[rows] = unique & (x == words[r, e]).all(axis=1)
    return local, ok, helpers


# -- bundled example matrices -----------------------------------------------------


FIXTURES = ("h1", "h2")


def fixture_path(name: str):
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; available: {FIXTURES}")
    return importlib.resources.files("lrc7") / "fixtures" / f"{name}.json"


def load_fixture(name: str) -> tuple[MatrixF, dict]:
    """Load a bundled parity-check matrix plus its declared parameters."""
    return load_matrix_json(fixture_path(name))

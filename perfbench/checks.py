"""Correctness checks computed apart from lrc7.

Field arithmetic, ranks, round bounds, spread point sets and repair-rate
expectations are recomputed here with plain integers.  Every check raises
`CheckFailed` with a message naming what disagreed; the benchmark counts
the operation as failed and goes on.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Optional, Sequence


class CheckFailed(AssertionError):
    """An output of lrc7 disagrees with the independent computation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- GF(p^e) on integer codes sum(c_i * p**i), independent of lrc7.fields ---------


class Field:
    """Full add/mul tables of GF(p^e) for a given monic modulus."""

    def __init__(self, p: int, e: int, modulus: Sequence[int]):
        self.p, self.e, self.q = p, e, p**e
        q = self.q
        digits = [self._digits(x) for x in range(q)]
        self.add = [[self._code([(a + b) % p for a, b in zip(da, db)]) for db in digits] for da in digits]
        self.neg = [self._code([(-a) % p for a in da]) for da in digits]
        mod = [int(c) % p for c in modulus] if e > 1 else [0, 1]
        self.mul = [[self._polymul(da, db, mod) for db in digits] for da in digits]
        self.inv = [0] * q
        for a in range(1, q):
            row = self.mul[a]
            hits = [b for b in range(1, q) if row[b] == 1]
            require(len(hits) == 1, f"modulus {list(modulus)} does not give a field of order {q}")
            self.inv[a] = hits[0]

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(x % self.p)
            x //= self.p
        return out

    def _code(self, digits: Iterable[int]) -> int:
        return sum(d * self.p**i for i, d in enumerate(digits))

    def _polymul(self, a: list[int], b: list[int], mod: list[int]) -> int:
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the monic modulus of degree e, highest degree first
        for deg in range(len(prod) - 1, e - 1, -1):
            c = prod[deg]
            if c:
                for i in range(e + 1):
                    prod[deg - e + i] = (prod[deg - e + i] - c * mod[i]) % p
        return self._code(prod[:e])

    def normalize(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Scale so the first nonzero coordinate is 1."""
        for x in vec:
            if x:
                iv = self.inv[x]
                return tuple(self.mul[iv][y] for y in vec)
        raise CheckFailed("zero vector where a projective point was expected")

    def rank(self, rows: Sequence[Sequence[int]]) -> int:
        """Rank by plain Gaussian elimination on a copy of the rows."""
        m = [list(r) for r in rows]
        ncols = len(m[0]) if m else 0
        r = 0
        for c in range(ncols):
            piv = next((i for i in range(r, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            iv = self.inv[m[r][c]]
            m[r] = [self.mul[iv][x] for x in m[r]]
            for i in range(len(m)):
                f = m[i][c]
                if i != r and f:
                    mf = self.mul[f]
                    m[i] = [self.add[x][self.neg[mf[y]]] for x, y in zip(m[i], m[r])]
            r += 1
            if r == len(m):
                break
        return r


# -- code parameters -----------------------------------------------------------------


def round_bound(q: int) -> int:
    """max(ceil(sqrt(2) * q / 3), 3) in integer arithmetic.

    ceil(sqrt(2) q / 3) is the least m with 3m >= sqrt(2 q^2), i.e. 9 m^2 >= 2 q^2.
    """
    m = math.isqrt(2 * q * q) // 3
    while 9 * m * m < 2 * q * q:
        m += 1
    return max(m, 3)


def check_code_params(q: int, L: int, n: int, k: int, d: Optional[int], constructed: bool = True) -> None:
    """n = 3L, k = 2L - 4, d in {7, 8} and d = 7 once n > q + 4; constructed
    codes also meet the round bound."""
    if constructed:
        require(L >= round_bound(q), f"q={q}: L={L} below the round bound {round_bound(q)}")
    require(n == 3 * L, f"q={q}: n={n} != 3L={3 * L}")
    require(k == 2 * L - 4, f"q={q}: k={k} != 2L-4={2 * L - 4}")
    if d is not None:
        require(d in (7, 8), f"q={q}: d={d} not in {{7, 8}}")
        require(n <= q + 4 or d == 7, f"q={q}: n={n} > q+4 but d={d} != 7")


def groups_of(entries: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Repair groups read from the leading weight-3 0/1 indicator rows."""
    n = len(entries[0])
    require(n % 3 == 0, f"length {n} is not a multiple of 3")
    groups = []
    for row in entries[: n // 3]:
        support = tuple(j for j, x in enumerate(row) if x)
        require(len(support) == 3 and all(row[j] == 1 for j in support), f"row {list(row)} is not a group indicator")
        groups.append(support)
    flat = sorted(j for g in groups for j in g)
    require(flat == list(range(n)), "indicator rows do not partition the coordinates")
    return groups


def check_parity_matrix(data: dict, k: int) -> None:
    """A matrix JSON dict holds group rows and has n - rank(H) = k."""
    F = Field(data["p"], data["e"], data["modulus"])
    entries = data["entries"]
    groups_of(entries)
    n = len(entries[0])
    require(n - F.rank(entries) == k, f"n - rank(H) = {n - F.rank(entries)} != k = {k}")


# -- CLI text output ---------------------------------------------------------------

_CONSTRUCT_RE = re.compile(r"^\((\d+), (\d+), (\d+), 2\)_(\d+)  L=(\d+)")
_VERIFY_RE = re.compile(r"^\((\d+), (\d+), (\d+), 2\)_(\d+)  groups=(\d+)")


def parse_construct(text: str) -> dict:
    m = _CONSTRUCT_RE.match(text)
    require(m is not None, f"unexpected construct output: {text[:80]!r}")
    n, k, d, q, L = (int(x) for x in m.groups())
    require("attains dimension bound: yes" in text, "construct: dimension bound not attained")
    return {"n": n, "k": k, "d": d, "q": q, "L": L}


def parse_verify(text: str) -> dict:
    m = _VERIFY_RE.match(text)
    require(m is not None, f"unexpected verify output: {text[:80]!r}")
    n, k, d, q, groups = (int(x) for x in m.groups())
    require("six-column independence: yes" in text, "verify: six-column independence not reported")
    require("declared parameters match: yes" in text, "verify: declared parameters do not match")
    return {"n": n, "k": k, "d": d, "q": q, "L": groups}


# -- spreads and sequences ----------------------------------------------------------


def check_spread_points(F: Field, planes: Sequence[tuple[Sequence[int], Sequence[int]]]) -> None:
    """q^2 + 1 planes, q + 1 distinct canonical points each, all distinct:
    (q^4 - 1) / (q - 1) points in total."""
    q = F.q
    require(len(planes) == q * q + 1, f"{len(planes)} planes, expected {q * q + 1}")
    seen: set[tuple[int, ...]] = set()
    for b1, b2 in planes:
        pts = {F.normalize(b2)}
        for t in range(q):
            mt = F.mul[t]
            pts.add(F.normalize([F.add[x][mt[y]] for x, y in zip(b1, b2)]))
        require(len(pts) == q + 1, f"plane {b1, b2} has {len(pts)} points, expected {q + 1}")
        seen |= pts
    total = (q**4 - 1) // (q - 1)
    require(len(seen) == total, f"{len(seen)} distinct points, expected {total}")


def check_assembled(F: Field, pairs, H_entries) -> None:
    """H is the (L+4) x 3L block matrix of the pairs and has rank L + 4."""
    L = len(pairs)
    require(len(H_entries) == L + 4 and len(H_entries[0]) == 3 * L, "assembled matrix has the wrong shape")
    for t, (u1, u2) in enumerate(pairs):
        for j in range(3):
            require(H_entries[t][3 * t + j] == 1, f"group row {t} misses column {3 * t + j}")
        for r in range(4):
            require(
                (H_entries[L + r][3 * t], H_entries[L + r][3 * t + 1], H_entries[L + r][3 * t + 2]) == (u1[r], u2[r], 0),
                f"bottom block of group {t} does not hold (u1, u2, 0)",
            )
    require(F.rank(H_entries) == L + 4, "assembled matrix is not of full row rank")


# -- repair simulation ---------------------------------------------------------------


def local_rate(L: int, f: int) -> float:
    """Chance that f uniform erasures of n = 3L symbols hit f distinct groups."""
    return math.comb(L, f) * 3**f / math.comb(3 * L, f)


def check_simulation(summary: dict, records: Sequence[dict], groups: Sequence[Sequence[int]], model: str, trials: int) -> None:
    """Every trial repaired; modes and helper counts follow from the groups;
    the local count under multi-uniform(f) lies within 5 sigma of its rate."""
    n = sum(len(g) for g in groups)
    group_of = {j: gi for gi, g in enumerate(groups) for j in g}
    require(len(records) == trials, f"{len(records)} trial records, expected {trials}")
    require(summary["trials"] == trials, "summary trial count differs")
    local = 0
    for rec in records:
        erased = rec["erased"]
        require(len(erased) <= 6, f"trial {rec['trial']}: {len(erased)} erasures")
        require(rec["success"], f"trial {rec['trial']}: repair of {erased} failed")
        distinct = len({group_of[j] for j in erased}) == len(erased)
        want_mode = "local" if distinct else "global"
        require(rec["mode"] == want_mode, f"trial {rec['trial']}: mode {rec['mode']}, expected {want_mode}")
        want_helpers = 2 * len(erased) if distinct else n - len(erased)
        require(rec["helpers"] == want_helpers, f"trial {rec['trial']}: {rec['helpers']} helpers, expected {want_helpers}")
        local += distinct
        if model == "single-uniform":
            require(len(erased) == 1, f"trial {rec['trial']}: single-uniform erased {erased}")
        elif model == "group-burst":
            require(tuple(sorted(erased)) in {tuple(sorted(g)) for g in groups}, f"trial {rec['trial']}: {erased} is not a group")
    require(summary["successes"] == trials, f"{trials - summary['successes']} failed trials")
    require(summary["local_trials"] == local, "summary local count differs from the records")
    if model.startswith("multi-uniform"):
        f = int(model[len("multi-uniform(") : -1])
        p = local_rate(len(groups), f)
        sigma = math.sqrt(trials * p * (1 - p))
        require(abs(local - trials * p) <= 5 * sigma, f"{local} local trials, expected {trials * p:.1f} +- {5 * sigma:.1f}")

"""Greedy construction of vector-pair sequences over a 2-spread.

The constructor keeps one candidate point set per spread plane (its q + 1
projective points) as an owner array over the PG(3, q) point index and a
count of the points each plane has left.  Each round of `run_algorithm1`
picks a surviving plane and three of its points, scales representatives
u1, u2, u0 with u0 = u1 - u2, drops the plane, and removes every surviving
point that lies in a plane spanned by one new and one earlier
representative.  Planes left with fewer than three points are discarded;
the loop ends when no plane is left.  Each round's trace keeps the removed
points as one (m, 4) int32 array of canonical codes and the count removed
from each plane as one (h, 2) int32 array, so a run holds no Python object
per removed point or cut plane.
`replay_trace` reproduces a run by re-running its header.

The resulting pairs (u1, u2) satisfy three conditions that make the
assembled block parity-check matrix a distance >= 7, locality 2 code:
each pair is independent, distinct pairs span complementary planes, and
every cross-pair triple of representatives has rank 3.  `verify_conditions`
reads them from the PG(3, q) points of a `PairSpanTable`.
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .fields import FieldSpec, field_from_header, field_header, json_key_order, json_text, write_json
from .linalg import MatrixF, _codes, solve_pair
from .spread import _spread_bases, point_codes, point_index, span_point_index

POLICIES = ("lex", "seeded")


class ReplayError(ValueError):
    """A recorded trace does not match the recomputed construction."""


def guaranteed_min_rounds(q: int) -> int:
    """Exact lower bound on the number of rounds for q >= 4.

    Computed as max(m, 3) for the smallest integer m with 9*m^2 >= 2*q^2,
    avoiding floating-point square roots.
    """
    m = 1
    while 9 * m * m < 2 * q * q:
        m += 1
    return max(m, 3)


class VectorSequence:
    """Ordered pairs (u1, u2) of length-4 vectors, held as one read-only
    (L, 2, 4) int32 `array`; u0(i) = u1(i) - u2(i)."""

    __slots__ = ("field", "array")

    def __init__(self, field: FieldSpec, pairs):
        arr = _codes(field, pairs)  # a new array, so freezing it leaves the input alone
        if arr.size and arr.shape[1:] != (2, 4):
            raise ValueError(f"expected pairs of two length-4 vectors, got shape {arr.shape}")
        self.field = field
        self.array = arr.reshape(-1, 2, 4)
        self.array.flags.writeable = False

    @property
    def L(self) -> int:
        return len(self.array)

    @property
    def pairs(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """The pairs (u1, u2) as tuples of int codes."""
        return tuple((tuple(u1), tuple(u2)) for u1, u2 in self.array.tolist())

    def triples(self) -> np.ndarray:
        """(L, 3, 4) int32 array of (u0, u1, u2) per pair."""
        u1, u2 = self.array[:, 0], self.array[:, 1]
        return np.stack([self.field.arr_sub(u1, u2), u1, u2], axis=1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorSequence):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"VectorSequence(q={self.field.q}, L={self.L})"

    def to_json_dict(self) -> dict:
        return {**field_header(self.field), "q": self.field.q, "pairs": self.array.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "VectorSequence":
        """The sequence `to_json_dict` wrote; its q must be the JSON integer
        p**e of its header."""
        field, _, pairs = field_from_header(d, "sequence", "q", "pairs")
        return cls(field, pairs)

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load_json(cls, path) -> "VectorSequence":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True, eq=False)
class TraceRound:
    plane_id: int
    points: tuple[tuple[int, ...], ...]  # the three chosen points, ascending
    cut: np.ndarray  # (h, 2) int32 rows (plane id, points removed) per hit plane, ascending by plane
    removed: np.ndarray  # (m, 4) int32 canonical codes, grouped as in cut, ascending within a plane
    discarded: tuple[int, ...]  # planes dropped below three survivors

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceRound):
            return NotImplemented
        same = (self.plane_id, self.points, self.discarded) == (other.plane_id, other.points, other.discarded)
        return same and np.array_equal(self.cut, other.cut) and np.array_equal(self.removed, other.removed)


def _removals_json(rd: TraceRound) -> dict[str, list[tuple[int, ...]]]:
    """{str(plane id): its removed points}, the layout of `trace.json`."""
    # tuple rows, zipped from the columns: the encoder writes them as lists,
    # no per-row list is made, and the cyclic GC stops tracking tuples of ints
    rows = list(zip(*rd.removed.T.tolist()))
    out, a = {}, 0
    for pid, m in rd.cut.tolist():
        out[str(pid)] = rows[a : a + m]
        a += m
    return out


def _ints(xs) -> bool:
    """Whether xs lists ints as `json.loads` makes them (bool is not)."""
    return isinstance(xs, (list, tuple)) and set(map(type, xs)) <= {int}


def _round_from_json(i: int, rd: dict) -> TraceRound:
    """Round i (1-based, for the error message) as `trace.json` holds it.
    The removed points are read as recorded, so a wrong code stays wrong
    for `replay_trace` to find.  The other fields must be JSON integers
    as written: 0.9, 1.0, "5" or true is refused, not coerced."""
    if not isinstance(rd, dict) or {"plane_id", "points", "discarded", "removals"} - rd.keys():
        raise ValueError(f"round {i} must be an object with plane_id, points, discarded and removals")
    plane_id, points, discarded, removals = rd["plane_id"], rd["points"], rd["discarded"], rd["removals"]
    ok = type(plane_id) is int and _ints(discarded) and isinstance(points, (list, tuple)) and all(map(_ints, points))
    if not ok:
        raise ValueError(f"round {i}: plane_id, points and discarded must hold JSON integers")
    if len(points) != 3 or set(map(len, points)) != {4}:
        raise ValueError(f"round {i}: the chosen points must be three points of four codes")
    ints = (plane_id, *discarded, *chain.from_iterable(points))
    if not -(2**31) <= min(ints) <= max(ints) < 2**31:
        raise ValueError(f"round {i}: plane_id, every chosen code and every discarded plane id must be an int32")
    if not isinstance(removals, dict):
        raise ValueError(f"round {i}: removals must be an object")
    try:
        ids = list(map(int, removals))
    except ValueError:  # refused below: [] lists no key
        ids = []
    if list(map(str, ids)) != list(removals):  # as str(pid) writes it
        raise ValueError(f"round {i}: every plane id must be an int32")
    if not all(map(isinstance, removals.values(), repeat((list, tuple)))):
        raise ValueError(f"round {i}: every plane's removed points must be a list")
    ids.sort()
    cut = list(map(removals.__getitem__, map(str, ids)))
    rows = list(chain.from_iterable(cut))
    try:  # the types of one flat list as loaded: numpy would read a true among ints as 1
        flat = list(chain.from_iterable(rows))
        ok = set(map(len, rows)) <= {4} and set(map(type, flat)) <= {int}
        removed = np.fromiter(flat, dtype=np.int64, count=len(flat)).reshape(-1, 4) if ok else None
    except (TypeError, OverflowError):  # a point that is no list, a code past int64
        removed = None
    codes = None if removed is None else removed.astype(np.int32)
    if codes is None or not np.array_equal(codes, removed):
        raise ValueError(f"round {i}: every removed point must be four int32 codes")
    try:
        cut_rows = np.array([ids, list(map(len, cut))], dtype=np.int32).T.copy()
    except OverflowError:
        raise ValueError(f"round {i}: every plane id must be an int32") from None
    return TraceRound(plane_id, tuple(map(tuple, points)), cut_rows, codes, tuple(discarded))


@dataclass(frozen=True)
class ConstructionTrace:
    """Everything needed to reproduce a run bit-exactly."""

    field: FieldSpec
    policy: str
    seed: Optional[int]
    rounds: tuple[TraceRound, ...]

    @property
    def L(self) -> int:
        return len(self.rounds)

    def to_json_dict(self) -> dict:
        return self._json_dict(map(_removals_json, self.rounds))

    def _json_dict(self, removals) -> dict:
        """The trace as a JSON object, with removals[t] as round t's removals."""
        # the point tuples go to the encoder as they are: it writes tuples as lists
        rounds = [
            {"plane_id": rd.plane_id, "points": rd.points, "removals": r, "discarded": rd.discarded}
            for rd, r in zip(self.rounds, removals)
        ]
        return {**field_header(self.field), "q": self.field.q, "policy": self.policy, "seed": self.seed, "rounds": rounds}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConstructionTrace":
        """The trace `to_json_dict` or `save_json` wrote.  The header, like
        each round, must hold JSON integers as written: a q of 4.9 or a seed
        of "1" is refused, not coerced."""
        field, _, policy, seed, rounds = field_from_header(d, "trace", "q", "policy", "seed", "rounds")
        if not isinstance(rounds, (list, tuple)):
            raise ValueError(f"trace rounds must be a list, got {type(rounds).__name__}")
        rounds = tuple(_round_from_json(i, rd) for i, rd in enumerate(rounds, start=1))
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if seed is not None and (type(seed) is not int or seed < 0):
            raise ValueError(f"trace seed must be null or a non-negative JSON integer, got {seed!r}")
        return cls(field, policy, seed, rounds)

    def save_json(self, path) -> None:
        """Write the bytes of ``json_text`` of `to_json_dict()` and a final
        newline, with no Python object per removed point.

        `json_text` writes the trace with each round's removals as ``{}``.
        Only "seed" (an int or null) follows the int-only "rounds", so the
        text's last L ``"removals": {}`` are the rounds' own.  Each is
        filled by one bytes ``%`` of the round's plane ids, each followed by
        its points' codes, with the planes in the order ``sort_keys`` gives
        their texts ("10" before "2", "-" first).
        """
        opening = b'"removals": {'
        parts = (json_text(self._json_dict([{}] * self.L)) + "\n").encode().rsplit(opening + b"}", self.L)
        point = b"\n          [" + b",".join([b"\n            %d"] * 4) + b"\n          ]"
        plane = {0: b'\n        "%d": []'}  # the text of a plane with m removed points, by m
        with open(path, "wb") as fh:
            fh.write(parts[0])
            for rd, part in zip(self.rounds, parts[1:]):
                fh.write(opening)
                if len(rd.cut):
                    pids, counts = rd.cut.T
                    order = json_key_order(pids)
                    m = counts[order]
                    start = np.cumsum(m) - m
                    # the removed rows plane by plane in key order, each plane's id before its codes
                    at = np.repeat((np.cumsum(counts) - counts)[order] - start, m) + np.arange(m.sum())
                    values = np.insert(rd.removed[at].ravel(), 4 * start, pids[order]).tolist()
                    m = m.tolist()
                    for k in set(m) - plane.keys():
                        plane[k] = b'\n        "%d": [' + b",".join([point] * k) + b"\n        ]"
                    fh.write(b",".join(map(plane.__getitem__, m)) % tuple(values) + b"\n      ")
                fh.write(b"}" + part)

    @classmethod
    def load_json(cls, path) -> "ConstructionTrace":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


# -- choosing a triple -------------------------------------------------------


def choose_triple(field: FieldSpec, points):
    """Scale representatives of three distinct points of one plane.

    The points (code tuples) are <v1>, <v2>, <v3> in the order given; then
    v3 = alpha*v1 + beta*v2 with alpha, beta nonzero, and the returned
    vectors are u1 = alpha*v1, u2 = -beta*v2, u0 = u1 - u2 (a representative
    of <v3>).  Returns (u0, u1, u2) as code tuples.
    """
    v1, v2, v3 = points
    alpha, beta = solve_pair(field, v1, v2, v3)
    if alpha == 0 or beta == 0:
        raise ValueError("chosen points are not in general position in the plane")
    mul = field.mul
    u1 = tuple(mul(alpha, x) for x in v1)
    u2 = tuple(mul(field.neg(beta), x) for x in v2)
    u0 = tuple(field.sub(a, b) for a, b in zip(u1, u2))
    return u0, u1, u2


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Verdict on the three sequence conditions, read from the pair-span table.

    c1: each pair (u1, u2) is linearly independent.
    c2: distinct pairs span planes meeting only in 0 (stacked rank 4).
    c3: every cross-pair triple u_a(i), u_b(j), u_c(t) has rank 3.
    Witnesses are 0-based indices of the first counterexample in
    lexicographic order: i, (i, j) with i < j, (i, j, t, a, b, c) with
    i < j < t.
    """

    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    c1_witness: Optional[int] = None
    c2_witness: Optional[tuple[int, int]] = None
    c3_witness: Optional[tuple[int, int, int, int, int, int]] = None

    @property
    def ok(self) -> bool:
        return self.c1_ok and self.c2_ok and self.c3_ok


@dataclass(frozen=True, eq=False)
class PairSpanTable:
    """The PG(3, q) points (`spread.point_index`) that decide the three
    conditions and the weight-7 codewords of a sequence's block code.

    reps[t, c]: the point of u_c(t), c = 0, 1, 2, or -1 for a zero vector.
    planes[t]: the q + 1 points of P_t = span(u1(t), u2(t)), or -1 when the
        pair is dependent.
    spans[p, 3a + b]: the q + 1 points of span(u_a(i), u_b(j)) for the p-th
        pair i < j in `combinations` order, in an order fixed by the pair
        (`spread.span_point_index`), or -1 when the two vectors are
        dependent.
    plane_of[x]: the least t whose P_t holds point x, or L.  It has one extra
        last entry, read through the -1 entries, that lies in no plane.
    """

    seq: VectorSequence
    reps: np.ndarray
    planes: np.ndarray
    spans: np.ndarray
    plane_of: np.ndarray

    @classmethod
    def of(cls, seq: VectorSequence) -> "PairSpanTable":
        if seq.L < 1:
            raise ValueError("sequence is empty")
        field, L, q = seq.field, seq.L, seq.field.q
        V = seq.triples()
        nonzero = V.any(axis=2)
        reps = np.full((L, 3), -1, dtype=np.int32)
        reps[nonzero] = point_index(field, V[nonzero])
        indep = (reps[:, 1] >= 0) & (reps[:, 2] >= 0) & (reps[:, 1] != reps[:, 2])
        planes = np.full((L, q + 1), -1, dtype=np.int32)
        planes[indep] = span_point_index(field, V[indep, 1], V[indep, 2])
        plane_of = np.full((q**4 - 1) // (q - 1) + 1, L, dtype=np.int32)
        np.minimum.at(plane_of, planes[indep], np.flatnonzero(indep)[:, None])

        pi, pj = np.triu_indices(L, 1)
        ra, rb = reps[pi][:, :, None], reps[pj][:, None, :]
        rows = np.flatnonzero((ra >= 0) & (rb >= 0) & (ra != rb))
        X = np.broadcast_to(V[pi][:, :, None, :], (pi.size, 3, 3, 4)).reshape(-1, 4)
        Y = np.broadcast_to(V[pj][:, None, :, :], (pi.size, 3, 3, 4)).reshape(-1, 4)
        spans = np.full((pi.size * 9, q + 1), -1, dtype=np.int32)
        spans[rows] = span_point_index(field, X[rows], Y[rows])
        return cls(seq, reps, planes, spans.reshape(pi.size, 9, q + 1), plane_of)

    def conditions(self) -> ConditionReport:
        """c1, c2 and c3 with their first witnesses (see `ConditionReport`)."""
        L, reps, spans = self.seq.L, self.reps, self.spans
        dependent = self.planes[:, 0] < 0
        c1_w = int(dependent.argmax()) if dependent.any() else None

        # c2: a dependent pair fails with every other pair, an independent
        # P_j with the least plane before it that it meets
        met = self.plane_of[self.planes].min(axis=1)
        late = np.flatnonzero(met < np.arange(L))
        failing = list(zip(met[late].tolist(), late.tolist()))
        if c1_w is not None and L > 1:
            failing.append((0, max(c1_w, 1)))
        c2_w = min(failing, default=None)

        # c3: first[p, 3a + b] is the least 3t + c, t > j, whose u_c(t) is
        # zero, lies on span(u_a(i), u_b(j)), or is any vector when u_a(i)
        # and u_b(j) are dependent; 3L when there is none
        pi, pj = np.triu_indices(L, 1)
        after = 3 * (pj + 1)
        flat = reps.ravel().tolist()
        zero = np.array([r if x < 0 else 3 * L for r, x in enumerate(flat)] + [3 * L])
        zero_after = np.minimum.accumulate(zero[::-1])[::-1]
        first = np.where(spans[:, :, 0] < 0, after[:, None], zero_after[after][:, None])
        # the representatives on each point, chained from the least: lead[x], then nxt[r]
        lead = np.full(self.plane_of.size, 3 * L, dtype=np.int32)
        nxt = np.full(3 * L + 1, 3 * L, dtype=np.int32)
        for r in range(3 * L - 1, -1, -1):
            if flat[r] >= 0:
                nxt[r], lead[flat[r]] = lead[flat[r]], r
        on = lead[spans]
        low = on < after[:, None, None]
        while low.any():
            on[low] = nxt[on[low]]
            low = on < after[:, None, None]
        first = np.minimum(first, on.min(axis=2))
        t = first // 3
        bad = np.flatnonzero(t.min(axis=1) < L)
        c3_w = None
        if bad.size:
            p = bad[0]
            ab = int(t[p].argmin())
            c3_w = (int(pi[p]), int(pj[p]), int(t[p, ab]), ab // 3, ab % 3, int(first[p, ab] % 3))
        return ConditionReport(c1_w is None, c2_w is None, c3_w is None, c1_w, c2_w, c3_w)

    def weight7_parts(self) -> Optional[dict[int, tuple[int, int]]]:
        """A weight-7 codeword of the block code, when the conditions hold.

        It is read from the least point w, on the first span(u_a(i), u_b(j))
        that has one, that lies in a third plane P_t and is none of the
        representatives; None when there is no such point.  Two
        `solve_pair` calls give w = alpha*u_a(i) + beta*u_b(j) = A*u1(t) +
        B*u2(t), so the word does not depend on the order of a span's
        points.  Returned as {group g: (A, B)}: the codeword is
        (A, B, -(A + B)) on group g, whose image A*u1(g) + B*u2(g) the
        three groups sum to 0.
        """
        L, field = self.seq.L, self.seq.field
        w7 = self.plane_of < L  # a point of some plane P_t and none of the representatives
        w7[self.reps[self.reps >= 0]] = False
        hit = w7[self.spans]
        found = hit.any(axis=2)
        if not found.any():
            return None
        p, ab = (int(v) for v in np.unravel_index(found.argmax(), found.shape))
        x = int(self.spans[p, ab][hit[p, ab]].min())
        i, j = (int(v[p]) for v in np.triu_indices(L, 1))
        a, b, t = ab // 3, ab % 3, int(self.plane_of[x])
        w = point_codes(field.q, x).tolist()
        V = self.seq.triples()
        alpha, beta = solve_pair(field, V[i, a].tolist(), V[j, b].tolist(), w)
        A, B = solve_pair(field, *self.seq.array[t].tolist(), w)
        unit = ((1, field.neg(1)), (1, 0), (0, 1))  # u0, u1, u2 in the basis u1, u2
        return {
            i: tuple(field.neg(field.mul(alpha, e)) for e in unit[a]),
            j: tuple(field.neg(field.mul(beta, e)) for e in unit[b]),
            t: (A, B),
        }


def verify_conditions(seq: VectorSequence) -> ConditionReport:
    """Check the three conditions on a sequence from its `PairSpanTable`."""
    return PairSpanTable.of(seq).conditions()


# -- the greedy loop -----------------------------------------------------------


def run_algorithm1(field: FieldSpec, policy: str = "lex", seed: Optional[int] = None):
    """Run the greedy choose/trim loop to exhaustion.

    Returns (VectorSequence, ConstructionTrace).  For q >= 4 the output
    length L is at least guaranteed_min_rounds(q) and satisfies the three
    sequence conditions whenever L >= 3; smaller q runs to completion but
    only after emitting a warning.  The seed is a non-negative int or None
    (0 under 'seeded'); 'lex' ignores it.

    Each round picks a surviving plane and three of its surviving points,
    ascending: the least plane id and its three least points under 'lex',
    `rng.choice` of the planes and `rng.sample` of its points under
    'seeded'.  It appends their representatives (`choose_triple`) to reps,
    drops the plane, removes every surviving point on a span of one new and
    one earlier representative, and discards the planes left with fewer
    than three points.  Between rounds: plane_points[t]
    holds the PG(3, q) indices (see `spread.point_index`) of spread plane
    t's q + 1 points; owner[x] is the plane id of point x, or -1 once x is
    removed; left[t] is the number of points plane t still has, 0 once t is
    chosen or discarded and never 1 or 2; reps holds the representatives
    u0, u1, u2 of every round so far, three rows a round; mark is all False.
    """
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        # random.Random uses abs(seed): a negative seed would build its positive twin's code
        raise ValueError(f"seed must be a non-negative int or None, got {seed!r}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if field.q < 4:
        warnings.warn(
            f"the output-length guarantee requires q >= 4 (got q = {field.q})",
            UserWarning,
            stacklevel=2,
        )
    if policy == "seeded":
        seed = 0 if seed is None else seed
        rng = random.Random(seed)
    else:
        seed = None
        rng = None
    B = _spread_bases(field)
    plane_points = span_point_index(field, B[:, 0], B[:, 1])
    owner = np.full(plane_points.size, -1, dtype=np.int32)
    owner[plane_points] = np.arange(len(B), dtype=np.int32)[:, None]
    mark = np.zeros(owner.size, dtype=bool)
    left = np.full(len(B), field.q + 1)
    reps = np.zeros((0, 4), dtype=np.int32)
    rounds: list[TraceRound] = []
    while left.any():
        ids = np.flatnonzero(left)
        plane_id = int(ids[0]) if policy == "lex" else int(rng.choice(ids))
        idx = plane_points[plane_id]
        # the plane's surviving points, ascending: their indices sorted as ints
        # (np.sort maps 0.1 MiB more of numpy's code into a run)
        alive = sorted(idx[owner[idx] >= 0].tolist())
        pick = (0, 1, 2) if policy == "lex" else sorted(rng.sample(range(len(alive)), 3))
        chosen = tuple(map(tuple, point_codes(field.q, [alive[i] for i in pick]).tolist()))
        u0, u1, u2 = choose_triple(field, chosen)
        owner[idx], left[plane_id] = -1, 0
        cur = np.array([u0, u1, u2], dtype=np.int32)
        spans = span_point_index(field, np.repeat(cur, len(reps), axis=0), np.tile(reps, (3, 1))).ravel()
        reps = np.concatenate([reps, cur])
        mark[spans[owner[spans] >= 0]] = True
        gone = np.flatnonzero(mark)  # ascending index: ascending tuples
        mark[gone] = False
        pids = owner[gone]
        owner[gone] = -1
        cut = np.bincount(pids, minlength=left.size)
        left -= cut
        hit = np.flatnonzero(cut)
        discarded = hit[left[hit] < 3]
        owner[plane_points[discarded]], left[discarded] = -1, 0
        removed = point_codes(field.q, gone[np.argsort(pids, kind="stable")]).astype(np.int32)
        cuts = np.stack([hit, cut[hit]], axis=1).astype(np.int32)
        rounds.append(TraceRound(plane_id, chosen, cuts, removed, tuple(discarded.tolist())))
    trace = ConstructionTrace(field, policy, seed, tuple(rounds))
    return VectorSequence(field, reps.reshape(-1, 3, 4)[:, 1:]), trace


def replay_trace(trace: ConstructionTrace) -> VectorSequence:
    """Re-run the trace's header (field, policy, seed) through
    `run_algorithm1` and compare the rounds one by one.

    Raises ReplayError naming the first recorded round that differs from
    the re-run, or the mismatch in round count; otherwise returns the
    re-run's VectorSequence.  A q < 4 replay warns of nothing.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        seq, again = run_algorithm1(trace.field, trace.policy, trace.seed)
    for i, (rd, want) in enumerate(zip(trace.rounds, again.rounds), start=1):
        if rd != want:
            raise ReplayError(f"round {i}: the recorded round differs from the re-run")
    if trace.L != again.L:
        raise ReplayError(f"the trace records {trace.L} rounds, the re-run of its header makes {again.L}")
    return seq


# -- parity-check assembly ------------------------------------------------------


def assemble_parity_check(seq: VectorSequence, check: bool = True) -> MatrixF:
    """Assemble the (L+4) x 3L block parity-check matrix.

    Row t < L is the 0/1 indicator of group t (columns 3t, 3t+1, 3t+2); the
    bottom four rows of group t hold u1(t), u2(t) and a zero column.
    """
    L = seq.L
    if L < 3:
        raise ValueError(f"need at least 3 pairs, got {L}")
    if check:
        report = verify_conditions(seq)
        if not report.ok:
            raise ValueError(f"sequence fails the pair conditions: {report}")
    H = np.zeros((L + 4, 3 * L), dtype=np.int32)
    H[:L].reshape(L, L, 3)[np.arange(L), np.arange(L)] = 1
    H[L:].reshape(4, L, 3)[:, :, :2] = seq.array.transpose(2, 0, 1)
    return MatrixF(seq.field, H)

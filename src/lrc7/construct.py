"""Greedy construction of vector-pair sequences over a 2-spread.

The constructor keeps one candidate point set per spread plane (its q + 1
projective points) in a mutable `_Survivors` state: an owner array over the
PG(3, q) point index and a count of the points each plane has left.  Each
round (`_round`, shared by `run_algorithm1` and `replay_trace`) picks a
surviving plane and three of its points, scales representatives u1, u2, u0
with u0 = u1 - u2, drops the plane, and removes every surviving point that
lies in a plane spanned by one new and one earlier representative.  Planes
left with fewer than three points are discarded; the loop ends when no
plane is left.  Each round's trace keeps the removed points as one (m, 4)
int32 array of canonical codes and the count removed from each plane as
one (h, 2) int32 array, so a run holds no Python object per removed point
or cut plane.

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
from pathlib import Path
from typing import Optional

import numpy as np

from .fields import FieldSpec, field_from_header, field_header, write_json
from .linalg import MatrixF, _codes, solve_columns
from .spread import _spread_bases, canonical_rep, point_codes, point_index, span_point_index

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
    """Ordered pairs (u1, u2) of length-4 vectors; u0(i) = u1(i) - u2(i)."""

    __slots__ = ("field", "pairs")

    def __init__(self, field: FieldSpec, pairs):
        arr = _codes(field, pairs)
        if arr.size and arr.shape[1:] != (2, 4):
            raise ValueError(f"expected pairs of two length-4 vectors, got shape {arr.shape}")
        self.field = field
        self.pairs = tuple((tuple(u1), tuple(u2)) for u1, u2 in arr.tolist())

    @property
    def L(self) -> int:
        return len(self.pairs)

    def u1(self, i: int) -> tuple[int, ...]:
        return self.pairs[i][0]

    def u2(self, i: int) -> tuple[int, ...]:
        return self.pairs[i][1]

    def u0(self, i: int) -> tuple[int, ...]:
        sub = self.field.sub
        return tuple(sub(a, b) for a, b in zip(*self.pairs[i]))

    def triple(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(u0, u1, u2) of pair i (0-based)."""
        return (self.u0(i), self.u1(i), self.u2(i))

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorSequence):
            return NotImplemented
        return self.field == other.field and self.pairs == other.pairs

    def __repr__(self) -> str:
        return f"VectorSequence(q={self.field.q}, L={self.L})"

    def to_json_dict(self) -> dict:
        return {
            **field_header(self.field),
            "q": self.field.q,
            "pairs": [[list(u1), list(u2)] for u1, u2 in self.pairs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "VectorSequence":
        return cls(field_from_header(d), d["pairs"])

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
        return (
            self.plane_id == other.plane_id
            and self.points == other.points
            and np.array_equal(self.cut, other.cut)
            and self.discarded == other.discarded
            and np.array_equal(self.removed, other.removed)
        )


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


def _round_from_json(i: int, rd: dict) -> TraceRound:
    """Round i (1-based, for the error message) as `trace.json` holds it.
    The removed points are read as recorded, so a wrong code stays wrong
    for `replay_trace` to find."""
    cut = sorted((int(pid), pts) for pid, pts in rd["removals"].items())
    rows = [pt for _, pts in cut for pt in pts]
    try:
        removed = np.array(rows or np.empty((0, 4), dtype=np.int32))
    except ValueError:  # ragged rows
        removed = np.empty(0)
    codes = removed.astype(np.int32) if removed.dtype.kind in "iu" else None
    if removed.ndim != 2 or removed.shape[1] != 4 or codes is None or not np.array_equal(codes, removed):
        raise ValueError(f"round {i}: every removed point must be four int32 codes")
    try:
        cut_rows = np.array([(pid, len(pts)) for pid, pts in cut], dtype=np.int32).reshape(-1, 2)
    except OverflowError:
        raise ValueError(f"round {i}: every plane id must be an int32") from None
    return TraceRound(
        plane_id=int(rd["plane_id"]),
        points=tuple(tuple(map(int, pt)) for pt in rd["points"]),
        cut=cut_rows,
        removed=codes,
        discarded=tuple(map(int, rd["discarded"])),
    )


@dataclass(frozen=True)
class ConstructionTrace:
    """Everything needed to reproduce a run bit-exactly."""

    p: int
    e: int
    modulus: tuple[int, ...]
    q: int
    policy: str
    seed: Optional[int]
    rounds: tuple[TraceRound, ...]

    @property
    def L(self) -> int:
        return len(self.rounds)

    def to_json_dict(self) -> dict:
        # the point tuples go to the encoder as they are: it writes tuples as lists
        return {
            **field_header(self),
            "q": self.q,
            "policy": self.policy,
            "seed": self.seed,
            "rounds": [
                {
                    "plane_id": rd.plane_id,
                    "points": rd.points,
                    "removals": _removals_json(rd),
                    "discarded": rd.discarded,
                }
                for rd in self.rounds
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConstructionTrace":
        rounds = tuple(_round_from_json(i, rd) for i, rd in enumerate(d["rounds"], start=1))
        field = field_from_header(d)
        return cls(
            p=field.p,
            e=field.e,
            modulus=field.modulus,
            q=int(d["q"]),
            policy=d["policy"],
            seed=d["seed"],
            rounds=rounds,
        )

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load_json(cls, path) -> "ConstructionTrace":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


# -- choosing a triple -------------------------------------------------------


def choose_triple(field: FieldSpec, points, policy: str = "lex", rng: Optional[random.Random] = None):
    """Pick three of a plane's points (canonical code tuples) and scale
    representatives.

    The selected points keep their input order as <v1>, <v2>, <v3>; then
    v3 = alpha*v1 + beta*v2 with alpha, beta nonzero, and the returned
    vectors are u1 = alpha*v1, u2 = -beta*v2, u0 = u1 - u2 (a representative
    of <v3>).  Returns (u0, u1, u2) as code tuples.

    Policy 'lex' selects the three canonically smallest points, 'seeded'
    samples three with the supplied rng.
    """
    pts = list(dict.fromkeys(tuple(int(x) for x in p) for p in points))
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    if policy == "lex":
        chosen = set(sorted(range(len(pts)), key=lambda i: pts[i])[:3])
    elif policy == "seeded":
        if rng is None:
            raise ValueError("policy 'seeded' requires an rng")
        chosen = set(rng.sample(range(len(pts)), 3))
    else:
        raise ValueError(f"unknown policy {policy!r}")
    v1, v2, v3 = [pts[i] for i in sorted(chosen)]
    A = np.array([v1, v2], dtype=np.int32).T
    coeffs = solve_columns(field, A, np.array(v3, dtype=np.int32))
    alpha, beta = int(coeffs[0]), int(coeffs[1])
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
        V = np.array([seq.triple(t) for t in range(L)], dtype=np.int32)
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
            on = np.where(low, nxt[on], on)
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
        `solve_columns` give w = alpha*u_a(i) + beta*u_b(j) = A*u1(t) +
        B*u2(t), so the word does not depend on the order of a span's
        points.  Returned as {group g: (A, B)}: the codeword is
        (A, B, -(A + B)) on group g, whose image A*u1(g) + B*u2(g) the
        three groups sum to 0.
        """
        L, field = self.seq.L, self.seq.field
        on_rep = np.zeros(self.plane_of.size, dtype=bool)
        on_rep[self.reps[self.reps >= 0]] = True
        hit = (self.plane_of[self.spans] < L) & ~on_rep[self.spans]
        found = hit.any(axis=2)
        if not found.any():
            return None
        p, ab = (int(v) for v in np.unravel_index(found.argmax(), found.shape))
        x = int(self.spans[p, ab][hit[p, ab]].min())
        i, j = (int(v[p]) for v in np.triu_indices(L, 1))
        a, b, t = ab // 3, ab % 3, int(self.plane_of[x])
        w = point_codes(field.q, x)
        ua, ub = self.seq.triple(i)[a], self.seq.triple(j)[b]
        alpha, beta = solve_columns(field, np.array([ua, ub]).T, w).tolist()
        A, B = solve_columns(field, np.array(self.seq.pairs[t]).T, w).tolist()
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


class _Survivors:
    """The candidate point sets, one per spread plane not yet ruled out,
    changed in place round by round.

    plane_points[t] holds the PG(3, q) indices (see `spread.point_index`)
    of plane t's q + 1 points, read from the spread's basis array.  owner[x]
    is the plane id of point x, or -1 once x is removed.  left[t] is the
    number of points plane t still has: 0 once t is chosen or discarded,
    and never 1 or 2.  reps holds the representatives u0, u1, u2 of every
    round so far, three rows a round.  mark is all False between rounds.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        B = _spread_bases(field)
        self.plane_points = span_point_index(field, B[:, 0], B[:, 1])
        self.owner = np.full(self.plane_points.size, -1, dtype=np.int32)
        self.owner[self.plane_points] = np.arange(len(B), dtype=np.int32)[:, None]
        self.mark = np.zeros(self.owner.size, dtype=bool)
        self.left = np.full(len(B), field.q + 1)
        self.reps = np.zeros((0, 4), dtype=np.int32)

    def ids(self) -> list[int]:
        return np.flatnonzero(self.left).tolist()

    def points_of(self, plane_id: int) -> list[tuple[int, ...]]:
        """The surviving points of one plane, ascending."""
        idx = self.plane_points[plane_id]
        return sorted(map(tuple, point_codes(self.field.q, idx[self.owner[idx] >= 0]).tolist()))

    def drop(self, planes) -> None:
        self.owner[self.plane_points[planes]] = -1
        self.left[planes] = 0


def _round(family: _Survivors, pairs: list, plane_id: int, points, policy: str, rng) -> TraceRound:
    """One round: choose a triple among `points` of plane plane_id and
    append its pair (u1, u2) to pairs; then drop the plane, remove every
    surviving point on a span of one new and one earlier representative,
    and discard the planes left with fewer than three points."""
    field = family.field
    u0, u1, u2 = choose_triple(field, points, policy, rng)
    pairs.append((u1, u2))
    chosen = tuple(sorted(canonical_rep(field, v) for v in (u0, u1, u2)))
    family.drop([plane_id])
    cur, old = np.array([u0, u1, u2], dtype=np.int32), family.reps
    family.reps = np.concatenate([old, cur])
    spans = span_point_index(field, np.repeat(cur, len(old), axis=0), np.tile(old, (3, 1))).ravel()
    owner, mark = family.owner, family.mark
    mark[spans[owner[spans] >= 0]] = True
    gone = np.flatnonzero(mark)  # ascending index: ascending tuples
    mark[gone] = False
    pids = owner[gone]
    owner[gone] = -1
    cut = np.bincount(pids, minlength=family.left.size)
    family.left -= cut
    hit = np.flatnonzero(cut)
    discarded = hit[family.left[hit] < 3]
    family.drop(discarded)
    removed = point_codes(field.q, gone[np.argsort(pids, kind="stable")]).astype(np.int32)
    cuts = np.stack([hit, cut[hit]], axis=1).astype(np.int32)
    return TraceRound(plane_id, chosen, cuts, removed, tuple(discarded.tolist()))


def run_algorithm1(field: FieldSpec, policy: str = "lex", seed: Optional[int] = None):
    """Run the greedy choose/trim loop to exhaustion.

    Returns (VectorSequence, ConstructionTrace).  For q >= 4 the output
    length L is at least guaranteed_min_rounds(q) and satisfies the three
    sequence conditions whenever L >= 3; smaller q runs to completion but
    only after emitting a warning.
    """
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
    family = _Survivors(field)
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    rounds: list[TraceRound] = []
    while ids := family.ids():
        pid = ids[0] if policy == "lex" else rng.choice(ids)
        rounds.append(_round(family, pairs, pid, family.points_of(pid), policy, rng))
    trace = ConstructionTrace(
        p=field.p,
        e=field.e,
        modulus=field.modulus,
        q=field.q,
        policy=policy,
        seed=seed,
        rounds=tuple(rounds),
    )
    return VectorSequence(field, pairs), trace


def replay_trace(trace: ConstructionTrace) -> VectorSequence:
    """Re-execute a recorded run and validate it step by step.

    Raises ReplayError when any recorded choice or removal disagrees with
    the recomputation; otherwise returns the identical VectorSequence.
    """
    field = FieldSpec(trace.p, trace.e, trace.modulus)
    family = _Survivors(field)
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for i, rd in enumerate(trace.rounds, start=1):
        if not (0 <= rd.plane_id < family.left.size and family.left[rd.plane_id]):
            raise ReplayError(f"round {i}: plane {rd.plane_id} is not available")
        points = set(rd.points)
        if len(points) != 3 or not points <= set(family.points_of(rd.plane_id)):
            raise ReplayError(f"round {i}: the recorded points are not three available points")
        if _round(family, pairs, rd.plane_id, rd.points, "lex", None) != rd:
            raise ReplayError(f"round {i}: the recomputed round differs from the recording")
    if family.ids():
        raise ReplayError("recorded rounds end before the family is empty")
    return VectorSequence(field, pairs)


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
    field = seq.field
    H = np.zeros((L + 4, 3 * L), dtype=np.int32)
    for t in range(L):
        H[t, 3 * t : 3 * t + 3] = 1
        H[L:, 3 * t] = seq.u1(t)
        H[L:, 3 * t + 1] = seq.u2(t)
    return MatrixF(field, H)

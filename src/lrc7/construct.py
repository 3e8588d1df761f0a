"""Greedy construction of vector-pair sequences over a 2-spread.

The constructor maintains the family of candidate point sets (one set of
q + 1 projective points per spread plane).  Each round picks a surviving
set, picks three of its points, scales representatives u1, u2, u0 with
u0 = u1 - u2, and then trims from every surviving set all points lying in
any plane spanned by one current and one earlier representative.  Sets
left with fewer than three points are discarded; the loop ends when the
family is empty.

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
from .linalg import MatrixF, VectorF, solve_columns
from .spread import (
    ProjectivePoint,
    Spread,
    build_2_spread,
    canonical_rep,
    point_codes,
    point_index,
    span_point_index,
    spread_point_index,
)

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
        norm = []
        for u1, u2 in pairs:
            c1 = u1.codes if isinstance(u1, VectorF) else tuple(int(x) for x in u1)
            c2 = u2.codes if isinstance(u2, VectorF) else tuple(int(x) for x in u2)
            if len(c1) != 4 or len(c2) != 4:
                raise ValueError("pair vectors must have length 4")
            norm.append((c1, c2))
        self.field = field
        self.pairs = tuple(norm)

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
        return cls(field_from_header(d), [(u1, u2) for u1, u2 in d["pairs"]])

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load_json(cls, path) -> "VectorSequence":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True, eq=False)
class CandidateFamily:
    """Surviving point sets, one per not-yet-ruled-out plane.

    Held as an owner array over the PG(3, q) point index (see
    `spread.point_index`): owner[x] is the plane id of point x, or -1 once
    x is removed.  Sets with fewer than three points are never present.
    """

    field: FieldSpec
    owner: np.ndarray

    @classmethod
    def from_spread(cls, s: Spread) -> "CandidateFamily":
        q = s.field.q
        owner = np.full((q**4 - 1) // (q - 1), -1, dtype=np.int32)
        owner[spread_point_index(s)] = [[pl.id] for pl in s.planes]
        return cls(s.field, owner)

    @property
    def sets(self) -> tuple[tuple[int, frozenset[tuple[int, ...]]], ...]:
        """(plane id, its surviving points) for every plane, by ascending id."""
        return tuple((pid, self.points_of(pid)) for pid in self.plane_ids())

    def plane_ids(self) -> list[int]:
        return np.flatnonzero(np.bincount(self.owner[self.owner >= 0])).tolist()

    def points_of(self, plane_id: int) -> frozenset[tuple[int, ...]]:
        idx = np.flatnonzero(self.owner == plane_id)
        if plane_id < 0 or idx.size == 0:
            raise KeyError(f"plane {plane_id} is not in the family")
        return frozenset(map(tuple, point_codes(self.field.q, idx).tolist()))

    def without(self, plane_id: int) -> "CandidateFamily":
        hit = self.owner == plane_id
        if plane_id < 0 or not hit.any():
            raise KeyError(f"plane {plane_id} is not in the family")
        return CandidateFamily(self.field, np.where(hit, -1, self.owner))

    def __len__(self) -> int:
        return len(self.plane_ids())


@dataclass(frozen=True)
class TraceRound:
    plane_id: int
    points: tuple[tuple[int, ...], ...]  # the three chosen points, ascending
    removals: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]  # per surviving plane
    discarded: tuple[int, ...]  # planes dropped below three survivors


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
        return {
            **field_header(self),
            "q": self.q,
            "policy": self.policy,
            "seed": self.seed,
            "rounds": [
                {
                    "plane_id": rd.plane_id,
                    "points": [list(pt) for pt in rd.points],
                    "removals": {str(pid): [list(pt) for pt in pts] for pid, pts in rd.removals},
                    "discarded": list(rd.discarded),
                }
                for rd in self.rounds
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConstructionTrace":
        rounds = tuple(
            TraceRound(
                plane_id=int(rd["plane_id"]),
                points=tuple(tuple(int(x) for x in pt) for pt in rd["points"]),
                removals=tuple(
                    sorted(
                        (int(pid), tuple(tuple(int(x) for x in pt) for pt in pts))
                        for pid, pts in rd["removals"].items()
                    )
                ),
                discarded=tuple(int(x) for x in rd["discarded"]),
            )
            for rd in d["rounds"]
        )
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


def choose_triple(points, policy: str = "lex", rng: Optional[random.Random] = None):
    """Pick three points of one plane and scale representatives.

    The selected points keep their input order as <v1>, <v2>, <v3>; then
    v3 = alpha*v1 + beta*v2 with alpha, beta nonzero, and the returned
    vectors are u1 = alpha*v1, u2 = -beta*v2, u0 = u1 - u2 (a representative
    of <v3>).  Returns (u0, u1, u2) as VectorF.

    Policy 'lex' selects the three canonically smallest points, 'seeded'
    samples three with the supplied rng.
    """
    pts = []
    field = None
    for p in points:
        if isinstance(p, ProjectivePoint):
            field = p.field
            pts.append(p.codes)
        else:
            pts.append(tuple(int(x) for x in p))
    if field is None:
        raise TypeError("choose_triple needs ProjectivePoint inputs to carry the field")
    pts = list(dict.fromkeys(pts))
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
    return VectorF(field, u0), VectorF(field, u1), VectorF(field, u2)


# -- trimming ----------------------------------------------------------------


def _trim_round(family: CandidateFamily, seq: VectorSequence, i: int):
    """Apply round i's removals; returns (family, removals, discarded)."""
    if i < 2:
        return family, (), ()
    cur = np.array(seq.triple(i - 1), dtype=np.int32)
    old = np.array([seq.triple(j) for j in range(i - 1)], dtype=np.int32).reshape(-1, 4)
    spanned = np.zeros(family.owner.size, dtype=bool)
    spanned[span_point_index(family.field, np.repeat(cur, len(old), axis=0), np.tile(old, (3, 1)))] = True
    owner = family.owner.copy()
    gone = np.flatnonzero(spanned & (owner >= 0))  # ascending index: ascending tuples
    gone_pids = owner[gone]
    owner[gone] = -1
    codes = point_codes(family.field.q, gone).tolist()
    removed_by_plane: dict[int, list[tuple[int, ...]]] = {}
    for pid, pt in zip(gone_pids.tolist(), codes):
        removed_by_plane.setdefault(pid, []).append(tuple(pt))
    removals = tuple(sorted((pid, tuple(pts)) for pid, pts in removed_by_plane.items()))
    alive = np.flatnonzero(owner >= 0)
    left = np.bincount(owner[alive], minlength=owner.size)  # plane ids < owner.size
    discarded = tuple(pid for pid, _ in removals if left[pid] < 3)
    owner[alive[left[owner[alive]] < 3]] = -1  # only planes trimmed here can fall below three
    return CandidateFamily(family.field, owner), removals, discarded


def trim(m: CandidateFamily, seq: VectorSequence, i: int) -> CandidateFamily:
    """Remove from every surviving set all points in the planes spanned by
    one round-i representative and one earlier representative, then discard
    sets left with fewer than three points.  Rounds are 1-based; round 1
    never removes anything."""
    if i < 1:
        raise ValueError("round index is 1-based")
    if seq.L < i:
        raise ValueError("sequence has fewer pairs than the round index")
    return _trim_round(m, seq, i)[0]


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
        pair i < j in `combinations` order, or -1 when the two vectors are
        dependent; entry 0 is <u_b(j)> and entry 1 + s is <u_a(i) + s*u_b(j)>.
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
        chunk = max(1, (1 << 16) // (q + 1))  # bounds the temporaries at any q
        for lo in range(0, rows.size, chunk):
            r = rows[lo : lo + chunk]
            spans[r] = span_point_index(field, X[r], Y[r])
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
        lead = np.full(self.plane_of.size, 3 * L)
        nxt = np.full(3 * L + 1, 3 * L)
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

        It is read from the first point of some span(u_a(i), u_b(j)) that
        lies in a third plane P_t and is none of P_t's representatives; None
        when there is no such point.  Returned as {group g: (A, B)}: the
        codeword is (A, B, -(A + B)) on group g, whose image A*u1(g) +
        B*u2(g) the three groups sum to 0.
        """
        L, field = self.seq.L, self.seq.field
        on_rep = np.zeros(self.plane_of.size, dtype=bool)
        on_rep[self.reps[self.reps >= 0]] = True
        hit = (self.plane_of[self.spans] < L) & ~on_rep[self.spans]
        if not hit.any():
            return None
        p, ab, x = (int(v) for v in np.unravel_index(hit.argmax(), hit.shape))
        i, j = (int(v[p]) for v in np.triu_indices(L, 1))
        a, b, s = ab // 3, ab % 3, x - 1  # x = 0 and s = 0 are representatives
        t = int(self.plane_of[self.spans[p, ab, x]])
        unit = ((1, field.neg(1)), (1, 0), (0, 1))  # u0, u1, u2 in the basis u1, u2
        v = [field.add(y, field.mul(s, z)) for y, z in zip(self.seq.triple(i)[a], self.seq.triple(j)[b])]
        A, B = solve_columns(field, np.array(self.seq.pairs[t]).T, np.array(v)).tolist()
        return {
            i: tuple(field.neg(e) for e in unit[a]),
            j: tuple(field.neg(field.mul(s, e)) for e in unit[b]),
            t: (A, B),
        }


def verify_conditions(seq: VectorSequence) -> ConditionReport:
    """Check the three conditions on a sequence from its `PairSpanTable`."""
    return PairSpanTable.of(seq).conditions()


# -- the full greedy run -------------------------------------------------------


def _greedy_round(family: CandidateFamily, pairs: list, i: int, plane_id: int, points, policy: str, rng):
    """Round i: choose a triple among points of plane plane_id, append its
    pair (u1, u2) to pairs, and trim.  Returns (family, TraceRound)."""
    field = family.field
    u0, u1, u2 = choose_triple([ProjectivePoint(field, t) for t in points], policy, rng)
    chosen = tuple(sorted(canonical_rep(field, v.codes) for v in (u0, u1, u2)))
    pairs.append((u1.codes, u2.codes))
    family, removals, discarded = _trim_round(family.without(plane_id), VectorSequence(field, pairs), i)
    return family, TraceRound(plane_id, chosen, removals, discarded)


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
    family = CandidateFamily.from_spread(build_2_spread(field))
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    rounds: list[TraceRound] = []
    ids = family.plane_ids()
    while ids:
        pid = ids[0] if policy == "lex" else rng.choice(ids)
        points = sorted(family.points_of(pid))
        family, rd = _greedy_round(family, pairs, len(rounds) + 1, pid, points, policy, rng)
        rounds.append(rd)
        ids = family.plane_ids()
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
    family = CandidateFamily.from_spread(build_2_spread(field))
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for i, rd in enumerate(trace.rounds, start=1):
        try:
            available = family.points_of(rd.plane_id)
        except KeyError as exc:
            raise ReplayError(f"round {i}: plane {rd.plane_id} is not available") from exc
        if not set(rd.points) <= available:
            raise ReplayError(f"round {i}: recorded points are not all available")
        family, again = _greedy_round(family, pairs, i, rd.plane_id, rd.points, "lex", None)
        if again != rd:
            raise ReplayError(f"round {i}: the recomputed round differs from the recording")
    if len(family):
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

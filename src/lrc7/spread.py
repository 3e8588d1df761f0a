"""2-spreads of the 4-dimensional space over GF(q).

A 2-spread is a family of q^2 + 1 two-dimensional subspaces (planes) that
pairwise meet only in the zero vector and jointly cover every vector of
GF(q)^4.  The construction here is field reduction: build GF(q^2) as a
quadratic extension of GF(q), identify GF(q)^4 with GF(q^2)^2
coordinate-wise, and read each of the q^2 + 1 one-dimensional
GF(q^2)-subspaces as a GF(q)-plane.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldSpec
from .linalg import small_rank


def canonical_rep(field: FieldSpec, codes) -> tuple[int, ...]:
    """Scale a nonzero vector so its first nonzero coordinate is 1.

    Each one-dimensional subspace has exactly one such representative.
    """
    codes = tuple(int(x) for x in codes)
    for x in codes:
        if x:
            if x == 1:
                return codes
            iv = field.inv(x)
            mul = field.mul
            return tuple(mul(iv, y) for y in codes)
    raise ValueError("the zero vector spans no projective point")


class Plane:
    """A two-dimensional subspace of GF(q)^4 with its index in the spread."""

    __slots__ = ("field", "basis", "id")

    def __init__(self, field: FieldSpec, b1, b2, plane_id: int):
        b1 = tuple(int(x) for x in b1)
        b2 = tuple(int(x) for x in b2)
        if len(b1) != 4 or len(b2) != 4:
            raise ValueError("plane basis vectors must have length 4")
        if small_rank(field, [b1, b2]) != 2:
            raise ValueError("plane basis vectors are linearly dependent")
        self.field = field
        self.basis = (b1, b2)
        self.id = plane_id

    def __repr__(self) -> str:
        return f"Plane(id={self.id}, basis={self.basis})"


class Spread:
    """A list of planes; `verify_spread` checks the spread axioms."""

    __slots__ = ("field", "planes")

    def __init__(self, field: FieldSpec, planes):
        self.field = field
        self.planes = tuple(planes)

    def __repr__(self) -> str:
        return f"Spread(q={self.field.q}, planes={len(self.planes)})"


def _irreducible_quadratic(field: FieldSpec) -> tuple[int, int]:
    """(g0, g1) of the first y^2 + g1*y + g0 without a root in GF(q), g0
    varying fastest, mirroring the base-field default modulus."""
    q, add, mul = field.q, field.add, field.mul
    for idx in range(q * q):
        g0, g1 = idx % q, idx // q
        if all(add(add(mul(t, t), mul(g1, t)), g0) for t in range(q)):
            return g0, g1
    # not reached: every GF(q) has an irreducible quadratic


def _spread_bases(field: FieldSpec) -> np.ndarray:
    """The (q^2 + 1, 2, 4) int32 bases of the field-reduction 2-spread.

    Plane i is the i-th point (x, y) of the GF(q^2)-line: (0, 1), then
    (1, c) by ascending code c = a + q*b of a + b*y.  Its basis is (x, y)
    and y*(x, y), with y*(a + b*y) = -g0*b + (a - g1*b)*y, each written
    coordinate-wise in the basis {1, y} of GF(q^2) over GF(q).
    """
    g0, g1 = _irreducible_quadratic(field)
    q = field.q
    X = np.zeros((q * q + 1, 2), dtype=np.int32)
    X[0, 1] = 1
    X[1:, 0] = 1
    X[1:, 1] = np.arange(q * q)
    a, b = X % q, X // q
    ya = field.arr_neg(field.arr_mul(g0, b))
    yb = field.arr_sub(a, field.arr_mul(g1, b))
    return np.stack([np.stack([a, b], axis=-1), np.stack([ya, yb], axis=-1)], axis=1).reshape(-1, 2, 4)


def build_2_spread(field: FieldSpec) -> Spread:
    """Construct the field-reduction 2-spread of GF(q)^4.

    Plane ids follow the canonical order of the q^2 + 1 projective points of
    the GF(q^2)-line: (0, 1) first, then (1, c) by ascending code of c.
    """
    bases = _spread_bases(field).tolist()
    return Spread(field, [Plane(field, b1, b2, pid) for pid, (b1, b2) in enumerate(bases)])


def _lead_shift(q: int) -> np.ndarray:
    """Per leading position k: index minus the base-q value of a canonical
    vector whose first nonzero coordinate (a 1) sits at position k."""
    return np.array([(q ** (3 - k) - 1) // (q - 1) - q ** (3 - k) for k in range(4)], dtype=np.int64)


def point_index(field: FieldSpec, V) -> np.ndarray:
    """PG(3, q) index of the point spanned by each nonzero vector V[..., :].

    The (q^4 - 1)/(q - 1) canonical points are numbered in ascending tuple
    order: (0,0,0,1) -> 0, (0,0,1,c) -> 1 + c, (0,1,b,c) -> 1 + q + bq + c,
    (1,a,b,c) -> 1 + q + q^2 + aq^2 + bq + c.  `point_codes` inverts it.
    """
    V = np.asarray(V, dtype=np.int32)
    nonzero = V != 0
    if not nonzero.any(axis=-1).all():
        raise ValueError("the zero vector spans no projective point")
    k = nonzero.argmax(axis=-1)
    lead = np.take_along_axis(V, k[..., None], axis=-1)
    W = field.arr_mul(field.arr_inv(lead), V).astype(np.int64)
    q = field.q
    return ((W[..., 0] * q + W[..., 1]) * q + W[..., 2]) * q + W[..., 3] + _lead_shift(q)[k]


def point_codes(q: int, idx) -> np.ndarray:
    """The canonical tuples (shape (..., 4)) of PG(3, q) point indices."""
    idx = np.asarray(idx, dtype=np.int64)
    k = 3 - (idx >= 1) - (idx >= 1 + q) - (idx >= 1 + q + q * q)
    value = idx - _lead_shift(q)[k]
    return value[..., None] // q ** np.arange(3, -1, -1, dtype=np.int64) % q


def span_point_index(field: FieldSpec, B1, B2) -> np.ndarray:
    """PG(3, q) indices (int32, shape (m, q + 1)) of the q + 1 points of
    each of the m planes span{B1[i], B2[i]}, in an order fixed by the pair.

    Each pair is brought to echelon form: r1, the pair's first vector
    nonzero at the first coordinate k1 where either is, scaled to a 1 there,
    and r2 = (the other) - (its k1 entry)*r1, scaled to a 1 at its lead
    k2 > k1.  Then <r2> and every <r1 + s*r2> are canonical as they stand,
    so a point's index is its lead shift plus its base-q value, with no
    per-point scaling.  Filled in blocks of rows that bound the temporaries
    at any q.  Raises ValueError when some B1[i], B2[i] are dependent.
    """
    B = np.stack([np.asarray(B1, dtype=np.int32), np.asarray(B2, dtype=np.int32)], axis=1)
    q = field.q
    MUL, SUB, INV, add = field._MUL_NP, field._SUB_NP, field._INV_NP, field._ADD_NP.ravel()
    shift = _lead_shift(q).astype(np.int32)
    out = np.empty((len(B), q + 1), dtype=np.int32)
    chunk = max(1, (1 << 16) // (q + 1))
    for lo in range(0, len(B), chunk):
        b = B[lo : lo + chunk]
        rows = np.arange(len(b))
        k1 = b.any(axis=1).argmax(axis=1)
        b = np.where(b[rows, 0, k1][:, None, None] == 0, b[:, ::-1], b)
        r1 = MUL[INV[b[rows, 0, k1]][:, None], b[:, 0]]
        r2 = SUB[b[:, 1], MUL[b[rows, 1, k1][:, None], r1]]
        k2 = (r2 != 0).argmax(axis=1)
        lead = r2[rows, k2]
        if not lead.all():  # a zero or dependent pair leaves r2 = 0
            raise ValueError("span_point_index needs two linearly independent vectors per pair")
        r2 = MUL[INV[lead][:, None], r2]
        blk = out[lo : lo + chunk]
        # r2[0] = 0 (r2 is zero up to k1); coordinate c of r1 + s*r2, every s: ADD[r1[c], MUL row r2[c]]
        blk[:, 0] = (r2[:, 1] * q + r2[:, 2]) * q + r2[:, 3] + shift[k2]
        A = add.take(MUL[r2[:, 1:]] + r1[:, 1:, None] * q)
        blk[:, 1:] = (A[:, 0] * q + A[:, 1]) * q + A[:, 2] + (r1[:, 0] * q**3 + shift[k1])[:, None]
    return out


def verify_spread(s: Spread) -> bool:
    """Check the three spread axioms: size q^2 + 1, pairwise trivial
    intersection, full coverage of GF(q)^4.

    A basis of rank below 2 fails (`span_point_index` raises on it).  Each
    plane of rank 2 holds q + 1 projective points, and q^2 + 1 planes hold
    as many as PG(3, q) has.  So the planes form a spread exactly when
    every point index is counted once.
    """
    q = s.field.q
    if len(s.planes) != q * q + 1:
        return False
    B = np.array([pl.basis for pl in s.planes], dtype=np.int32)
    try:
        points = span_point_index(s.field, B[:, 0], B[:, 1])
    except ValueError:
        return False
    return bool((np.bincount(points.ravel()) == 1).all())

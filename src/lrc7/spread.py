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

    def __len__(self) -> int:
        return len(self.planes)

    def __iter__(self):
        return iter(self.planes)

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
    raise ArithmeticError("no irreducible quadratic found")


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
    """PG(3, q) indices (int32, shape (m, q + 1)) of the points of the m
    planes span{B1[i], B2[i]}: <B2[i]> and <B1[i] + t*B2[i]> for every t in
    GF(q).  Filled in blocks of rows that bound the temporaries at any q.

    Raises ValueError when some B1[i], B2[i] are linearly dependent, since
    one of those vectors is then zero.
    """
    B1 = np.asarray(B1, dtype=np.int32)
    B2 = np.asarray(B2, dtype=np.int32)
    t = np.arange(field.q, dtype=np.int32)[None, :, None]
    out = np.empty((len(B1), field.q + 1), dtype=np.int32)
    chunk = max(1, (1 << 16) // (field.q + 1))
    for lo in range(0, len(B1), chunk):
        b1, b2 = B1[lo : lo + chunk, None, :], B2[lo : lo + chunk, None, :]
        V = field.arr_add(b1, field.arr_mul(t, b2))
        out[lo : lo + chunk] = point_index(field, np.concatenate([b2, V], axis=1))
    return out


def verify_spread(s: Spread) -> bool:
    """Check the three spread axioms: size q^2 + 1, pairwise trivial
    intersection, full coverage of GF(q)^4.

    A basis has rank 2 when both vectors are nonzero and span distinct
    points.  Each plane of rank 2 holds q + 1 projective points, and
    q^2 + 1 planes hold as many as PG(3, q) has.  So the planes form a
    spread exactly when every point index is counted once.
    """
    field = s.field
    q = field.q
    if len(s.planes) != q * q + 1:
        return False
    B = np.array([pl.basis for pl in s.planes], dtype=np.int32)
    if not B.any(axis=2).all():
        return False
    ends = point_index(field, B)
    if (ends[:, 0] == ends[:, 1]).any():
        return False
    counts = np.bincount(span_point_index(field, B[:, 0], B[:, 1]).ravel())
    return bool((counts == 1).all())

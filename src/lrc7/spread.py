"""2-spreads of the 4-dimensional space over GF(q).

A 2-spread is a family of q^2 + 1 two-dimensional subspaces (planes) that
pairwise meet only in the zero vector and jointly cover every vector of
GF(q)^4.  The construction here is field reduction: build GF(q^2) as a
quadratic extension of GF(q), identify GF(q)^4 with GF(q^2)^2
coordinate-wise, and read each of the q^2 + 1 one-dimensional
GF(q^2)-subspaces as a GF(q)-plane.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .fields import FieldSpec, field_from_header, field_header, write_json
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


class ProjectivePoint:
    """A one-dimensional subspace of GF(q)^4, held by its canonical rep."""

    __slots__ = ("field", "codes")

    def __init__(self, field: FieldSpec, codes):
        codes = tuple(int(x) for x in codes)
        if len(codes) != 4:
            raise ValueError("projective points live in the 4-dimensional space")
        if canonical_rep(field, codes) != codes:
            raise ValueError(f"{codes} is not a canonical representative")
        self.field = field
        self.codes = codes

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.field == other.field and self.codes == other.codes

    def __lt__(self, other: "ProjectivePoint") -> bool:
        return self.codes < other.codes

    def __hash__(self) -> int:
        return hash((self.field, self.codes))

    def __repr__(self) -> str:
        return f"ProjectivePoint({list(self.codes)})"


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

    def contains(self, codes) -> bool:
        return small_rank(self.field, [self.basis[0], self.basis[1], tuple(codes)]) == 2

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


class _QuadExt:
    """Arithmetic of GF(q^2) on packed codes a + q*b over the base field.

    The modulus y^2 + g1*y + g0 is the first irreducible monic quadratic in
    the deterministic coefficient order, mirroring the base-field default.
    """

    def __init__(self, base: FieldSpec):
        q = base.q
        for idx in range(q * q):
            g0, g1 = idx % q, idx // q
            if not self._has_root(base, g0, g1):
                self.g0, self.g1 = g0, g1
                break
        else:
            raise ArithmeticError("no irreducible quadratic found")
        self.base = base
        self.q = q

    @staticmethod
    def _has_root(base: FieldSpec, g0: int, g1: int) -> bool:
        for t in range(base.q):
            if base.add(base.add(base.mul(t, t), base.mul(g1, t)), g0) == 0:
                return True
        return False

    def mul(self, x: int, y: int) -> int:
        F, q = self.base, self.q
        a, b = x % q, x // q
        c, d = y % q, y // q
        bd = F.mul(b, d)
        lo = F.sub(F.mul(a, c), F.mul(self.g0, bd))
        hi = F.sub(F.add(F.mul(a, d), F.mul(b, c)), F.mul(self.g1, bd))
        return lo + q * hi


def _embed(q: int, x: int, y: int) -> tuple[int, int, int, int]:
    # GF(q^2)^2 -> GF(q)^4, coordinate-wise in the basis {1, y}
    return (x % q, x // q, y % q, y // q)


def build_2_spread(field: FieldSpec) -> Spread:
    """Construct the field-reduction 2-spread of GF(q)^4.

    Plane ids follow the canonical order of the q^2 + 1 projective points of
    the GF(q^2)-line: (0, 1) first, then (1, c) by ascending code of c.
    """
    ext = _QuadExt(field)
    q = field.q
    beta = q  # the adjoined element: pair (0, 1)
    reps = [(0, 1)] + [(1, c) for c in range(q * q)]
    planes = []
    for pid, (x, y) in enumerate(reps):
        b1 = _embed(q, x, y)
        b2 = _embed(q, ext.mul(beta, x), ext.mul(beta, y))
        planes.append(Plane(field, b1, b2, pid))
    return Spread(field, planes)


def verify_spread(s: Spread) -> bool:
    """Check the three spread axioms: size q^2 + 1, pairwise trivial
    intersection, full coverage of GF(q)^4.

    Each plane of rank 2 holds q^2 - 1 distinct nonzero vectors.  They are
    enumerated plane by plane into a q^4-entry seen-mask: a vector marked
    twice is a nontrivial intersection, and one never marked is uncovered.
    """
    field = s.field
    q = field.q
    if len(s.planes) != q * q + 1:
        return False
    al = np.arange(q, dtype=np.int32)
    seen = np.zeros(q**4, dtype=bool)
    seen[0] = True
    for pl in s.planes:
        if small_rank(field, [pl.basis[0], pl.basis[1]]) != 2:
            return False
        b1 = np.asarray(pl.basis[0], dtype=np.int32)
        b2 = np.asarray(pl.basis[1], dtype=np.int32)
        pts = field.arr_add(
            field.arr_mul(al[:, None, None], b1[None, None, :]),
            field.arr_mul(al[None, :, None], b2[None, None, :]),
        ).astype(np.int64)
        idx = ((pts[..., 3] * q + pts[..., 2]) * q + pts[..., 1]) * q + pts[..., 0]
        idx = idx[idx != 0]
        if seen[idx].any():
            return False
        seen[idx] = True
    return bool(seen.all())


def projective_points(pl: Plane) -> list[ProjectivePoint]:
    """The q + 1 one-dimensional subspaces of a plane, in canonical order."""
    field = pl.field
    b1, b2 = pl.basis
    pts = {canonical_rep(field, b2)}
    for t in range(field.q):
        vec = tuple(field.add(x, field.mul(t, y)) for x, y in zip(b1, b2))
        pts.add(canonical_rep(field, vec))
    return [ProjectivePoint(field, codes) for codes in sorted(pts)]


# -- serialization ---------------------------------------------------------


def spread_to_json_dict(s: Spread) -> dict:
    return {
        **field_header(s.field),
        "q": s.field.q,
        "planes": [[list(pl.basis[0]), list(pl.basis[1])] for pl in s.planes],
    }


def spread_from_json_dict(d: dict) -> Spread:
    field = field_from_header(d)
    planes = [Plane(field, b1, b2, pid) for pid, (b1, b2) in enumerate(d["planes"])]
    return Spread(field, planes)


def save_spread_json(path, s: Spread) -> None:
    write_json(path, spread_to_json_dict(s))


def load_spread_json(path) -> Spread:
    return spread_from_json_dict(json.loads(Path(path).read_text()))

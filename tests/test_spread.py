import itertools

import numpy as np
import pytest

from lrc7.fields import field_create
from lrc7.linalg import small_rank
from lrc7.spread import (
    Plane,
    Spread,
    _spread_bases,
    build_2_spread,
    canonical_rep,
    point_codes,
    point_index,
    span_point_index,
    verify_spread,
)

FIELD_ARGS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def plane_points(pl: Plane) -> list[tuple[int, ...]]:
    """The q + 1 canonical points of a plane, ascending."""
    idx = span_point_index(pl.field, [pl.basis[0]], [pl.basis[1]])[0]
    return [tuple(c) for c in point_codes(pl.field.q, np.sort(idx)).tolist()]


@pytest.fixture(scope="module")
def spreads():
    return {q: build_2_spread(field_create(*args)) for q, args in FIELD_ARGS.items()}


def test_spread_sizes(spreads):
    for q, s in spreads.items():
        assert len(s.planes) == q * q + 1


@pytest.mark.parametrize("q", sorted(FIELD_ARGS))
def test_spread_verifies_exhaustively(q, spreads):
    assert verify_spread(spreads[q])


@pytest.mark.parametrize("q", sorted(FIELD_ARGS))
def test_point_index_is_a_lex_ordered_bijection(q):
    """Index i decodes to the i-th canonical point in ascending tuple order,
    and every nonzero vector indexes its canonical representative."""
    field = field_create(*FIELD_ARGS[q])
    vectors = [v for v in itertools.product(range(q), repeat=4) if any(v)]
    canon = sorted({canonical_rep(field, v) for v in vectors})
    n_points = (q**4 - 1) // (q - 1)
    assert len(canon) == n_points
    codes = point_codes(q, np.arange(n_points)).tolist()
    assert [tuple(c) for c in codes] == canon
    assert point_index(field, codes).tolist() == list(range(n_points))
    got = point_codes(q, point_index(field, vectors)).tolist()
    assert [tuple(c) for c in got] == [canonical_rep(field, v) for v in vectors]


def test_every_nonzero_vector_in_exactly_one_plane(spreads):
    field = field_create(2, 2)
    s = spreads[4]
    hits = {}
    for pl in s.planes:
        b1, b2 = pl.basis
        for a, b in itertools.product(range(4), repeat=2):
            vec = tuple(field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(b1, b2))
            if any(vec):
                hits.setdefault(vec, set()).add(pl.id)
    assert len(hits) == 4**4 - 1
    assert all(len(owners) == 1 for owners in hits.values())


@pytest.fixture(scope="module")
def spread_at(spreads):
    """The small-q spreads plus one at q = 17."""
    return {**spreads, 17: build_2_spread(field_create(17))}


@pytest.mark.parametrize("q", [4, 17])
def test_duplicated_plane_fails_verification(q, spread_at):
    s = spread_at[q]
    broken = Spread(s.field, s.planes[:-1] + (s.planes[0],))
    assert not verify_spread(broken)


@pytest.mark.parametrize("q", [4, 17])
def test_deleted_plane_fails_verification(q, spread_at):
    s = spread_at[q]
    broken = Spread(s.field, s.planes[:-1])
    assert not verify_spread(broken)


@pytest.mark.parametrize("q", [4, 17])
def test_overlapping_plane_fails_verification(q, spread_at):
    """Plane 1 replaced by span{b1(plane 0), b1(plane 1)}: the count stays
    q^2 + 1, but the new plane meets plane 0 in a nonzero vector."""
    s = spread_at[q]
    p0, p1 = s.planes[0], s.planes[1]
    overlap = Plane(s.field, p0.basis[0], p1.basis[0], 1)
    broken = Spread(s.field, (p0, overlap) + s.planes[2:])
    assert len(broken.planes) == q * q + 1
    assert not verify_spread(broken)


def test_projective_point_counts(spreads):
    for q, s in spreads.items():
        points = [plane_points(pl) for pl in s.planes]
        assert {len(set(pts)) for pts in points} == {q + 1}
        assert len({pt for pts in points for pt in pts}) == (q**4 - 1) // (q - 1)


def test_points_lie_in_their_plane(spreads):
    s = spreads[5]
    field = s.field
    for pl in s.planes[:10]:
        for pt in plane_points(pl):
            assert small_rank(field, [pl.basis[0], pl.basis[1], pt]) == 2


def test_points_are_canonical(spreads):
    s = spreads[9]
    field = s.field
    for pl in s.planes[:5]:
        for pt in plane_points(pl):
            first_nz = next(x for x in pt if x)
            assert first_nz == 1
            assert canonical_rep(field, pt) == pt


def test_unit_plane_points_over_gf2():
    f = field_create(2)
    pl = Plane(f, (1, 0, 0, 0), (0, 1, 0, 0), 0)
    assert plane_points(pl) == [(0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)]


def test_canonical_rep_scales_leading_entry():
    f = field_create(7)
    assert canonical_rep(f, (3, 1, 0, 5)) == (1, 5, 0, 4)  # scaled by inv(3) = 5
    assert canonical_rep(f, (0, 0, 2, 4)) == (0, 0, 1, 2)
    with pytest.raises(ValueError):
        canonical_rep(f, (0, 0, 0, 0))


def test_plane_requires_independent_basis():
    f = field_create(3)
    with pytest.raises(ValueError):
        Plane(f, (1, 2, 0, 0), (2, 1, 0, 0), 0)


def test_plane_ids_are_enumeration_order(spreads):
    for s in spreads.values():
        assert [pl.id for pl in s.planes] == list(range(len(s.planes)))


def test_large_q_structural_path(spread_at):
    """A q = 17 spread verifies through the same seen-mask check as small q."""
    s = spread_at[17]
    assert len(s.planes) == 17 * 17 + 1
    assert verify_spread(s)


def _reference_bases(field) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Field reduction one element at a time: plane (x, y) has the basis
    (x, y) and y*(x, y) in GF(q^2) = GF(q)[y]/(y^2 + g1*y + g0), written
    coordinate-wise in the basis {1, y}."""
    q, add, sub, mul, neg = field.q, field.add, field.sub, field.mul, field.neg
    g0, g1 = next(
        (i % q, i // q) for i in range(q * q) if all(add(add(mul(t, t), mul(i // q, t)), i % q) for t in range(q))
    )

    def times_y(x):
        a, b = x % q, x // q
        return neg(mul(g0, b)) + q * sub(a, mul(g1, b))

    def embed(x, y):
        return (x % q, x // q, y % q, y // q)

    return [(embed(x, y), embed(times_y(x), times_y(y))) for x, y in [(0, 1)] + [(1, c) for c in range(q * q)]]


@pytest.mark.parametrize("q", sorted(FIELD_ARGS) + [16, 27])
def test_spread_bases_match_the_element_wise_reference(q):
    field = field_create(*{**FIELD_ARGS, 16: (2, 4), 27: (3, 3)}[q])
    B = _spread_bases(field)
    assert B.dtype == np.int32
    assert B.shape == (q * q + 1, 2, 4)
    assert [(tuple(b1), tuple(b2)) for b1, b2 in B.tolist()] == _reference_bases(field)


def test_span_point_index_is_filled_block_by_block():
    # q = 64: 4097 planes in blocks of (1 << 16) // 65 = 1008 rows, so 5 blocks
    field = field_create(2, 6)
    B = _spread_bases(field)
    table = span_point_index(field, B[:, 0], B[:, 1])
    assert table.dtype == np.int32
    assert table.shape == (len(B), 65)
    for i in range(len(B)):
        assert (table[i] == span_point_index(field, B[i : i + 1, 0], B[i : i + 1, 1])[0]).all()


@pytest.mark.parametrize("q", [4, 17])
@pytest.mark.parametrize("case", ["same-vector", "scaled", "zero-first", "zero-second"])
def test_dependent_basis_fails_verification_without_raising(q, case, spread_at):
    s = spread_at[q]
    field = s.field
    b1, b2 = s.planes[3].basis
    basis = {
        "same-vector": (b1, b1),
        "scaled": (b1, tuple(field.mul(2, x) for x in b1)),
        "zero-first": ((0, 0, 0, 0), b2),
        "zero-second": (b1, (0, 0, 0, 0)),
    }[case]
    bad = Plane(field, b1, b2, 3)
    bad.basis = basis  # past the constructor's rank check
    broken = Spread(field, s.planes[:3] + (bad,) + s.planes[4:])
    assert len(broken.planes) == q * q + 1
    assert verify_spread(broken) is False


SPAN_FIELDS = {5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2), 27: (3, 3)}
SPAN_SEED = 1507  # random pairs at each q of SPAN_FIELDS come from default_rng((SPAN_SEED, q))


def _brute_span(field, b1, b2) -> set[tuple[int, ...]]:
    """{canonical_rep(alpha*b1 + beta*b2)} over every nonzero (alpha, beta),
    one scalar field operation at a time."""
    add, mul = field.add, field.mul
    q = field.q
    vectors = [
        tuple(add(mul(alpha, x), mul(beta, y)) for x, y in zip(b1, b2)) for alpha in range(q) for beta in range(q)
    ]
    return {canonical_rep(field, v) for v in vectors if any(v)}


def _span_pairs(q):
    """Every pair of distinct points at q <= 4; seeded random independent
    pairs, a coordinate zeroed with probability 1/2, otherwise."""
    if q <= 4:
        field = field_create(*FIELD_ARGS[q])
        pts = point_codes(q, np.arange((q**4 - 1) // (q - 1)))
        i, j = np.array(list(itertools.permutations(range(len(pts)), 2))).T
        return field, pts[i].astype(np.int32), pts[j].astype(np.int32)
    field = field_create(*SPAN_FIELDS[q])
    rng = np.random.default_rng((SPAN_SEED, q))
    B = rng.integers(0, q, (400, 2, 4)) * (rng.random((400, 2, 4)) < 0.5)
    B = B[[small_rank(field, b.tolist()) == 2 for b in B]][:150]
    return field, B[:, 0].astype(np.int32), B[:, 1].astype(np.int32)


@pytest.mark.parametrize("q", [2, 3, 4] + sorted(SPAN_FIELDS))
def test_span_point_index_matches_brute_force(q):
    field, B1, B2 = _span_pairs(q)
    assert len(B1) >= 100
    table = span_point_index(field, B1, B2)
    assert table.dtype == np.int32
    assert table.shape == (len(B1), q + 1)
    assert all(len(set(row)) == q + 1 for row in table.tolist())
    for b1, b2, row in zip(B1.tolist(), B2.tolist(), table):
        assert {tuple(c) for c in point_codes(q, row).tolist()} == _brute_span(field, b1, b2)
    # the point set is the plane's: swap the pair or scale either vector
    c = np.random.default_rng((SPAN_SEED, q, 1)).integers(1, q, (len(B1), 1))
    want = np.sort(table, axis=1)
    for X, Y in [(B2, B1), (field.arr_mul(c, B1), B2), (B1, field.arr_mul(c, B2))]:
        assert (np.sort(span_point_index(field, X, Y), axis=1) == want).all()


@pytest.mark.parametrize("q", [4, 27, 64])
@pytest.mark.parametrize("case", ["equal", "scaled", "zero-first", "zero-second", "both-zero"])
def test_span_point_index_rejects_a_dependent_pair(q, case):
    """One bad row among spread bases, placed in the last block, raises."""
    field = field_create(*{4: (2, 2), 27: (3, 3), 64: (2, 6)}[q])
    B = _spread_bases(field)
    b1, b2 = B[-1]
    zero = np.zeros(4, dtype=np.int32)
    B[-1] = {
        "equal": (b1, b1),
        "scaled": (b1, field.arr_mul(q - 1, b1)),
        "zero-first": (zero, b2),
        "zero-second": (b1, zero),
        "both-zero": (zero, zero),
    }[case]
    with pytest.raises(ValueError, match="independent"):
        span_point_index(field, B[:, 0], B[:, 1])

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrc7.fields import factor_prime_power, field_create
from lrc7.linalg import (
    AmbiguousSystemError,
    InconsistentSystemError,
    MatrixF,
    _matmul_codes,
    _solve_stack,
    kernel_basis,
    load_matrix_json,
    matmul,
    matrix_from_json_dict,
    matrix_to_json_dict,
    rank,
    save_matrix_json,
    small_rank,
    solve_columns,
    solve_pair,
)

FIELDS = [field_create(2), field_create(3), field_create(2, 2), field_create(5), field_create(7), field_create(3, 2)]


@st.composite
def field_and_matrix(draw, max_dim=6):
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    return field, MatrixF(field, entries)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def test_rank_identity():
    f = field_create(7)
    assert rank(MatrixF(f, np.eye(4, dtype=np.int32))) == 4


def test_rank_zero_matrix():
    f = field_create(5)
    assert rank(MatrixF(f, np.zeros((3, 5), dtype=np.int32))) == 0


def test_rank_known_singular():
    f = field_create(5)
    # row3 = row1 + row2, row4 = row1 + 2*row2 (mod 5)
    M = MatrixF(f, [[1, 2, 3], [0, 1, 1], [1, 3, 4], [1, 4, 0]])
    assert rank(M) == 2


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_rank_equals_rank_of_transpose(fm):
    field, M = fm
    assert rank(M) == rank(M.transpose())


@settings(max_examples=100, deadline=None)
@given(field_and_matrix())
def test_rank_matches_small_rank(fm):
    field, M = fm
    rows = [tuple(int(x) for x in row) for row in M.array]
    assert small_rank(field, rows) == rank(M)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_of_identity_is_empty():
    f = field_create(4 // 2, 2)
    basis = kernel_basis(MatrixF(f, np.eye(5, dtype=np.int32)))
    assert basis.shape == (0, 5) and basis.dtype == np.int32


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_kernel_vectors_annihilate_and_span(fm):
    field, M = fm
    basis = kernel_basis(M)
    assert basis.dtype == np.int32 and basis.shape == (M.cols - rank(M), M.cols)
    for v in basis:
        prod = matmul(M, MatrixF(field, v[:, None]))
        assert not prod.array.any()
    if len(basis):
        assert rank(MatrixF(field, basis)) == len(basis)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_unique_roundtrip():
    f = field_create(7)
    A = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.int32)
    x = np.array([3, 5], dtype=np.int32)
    rhs = np.zeros(3, dtype=np.int32)
    for j in range(2):
        rhs = f.arr_add(rhs, f.arr_mul(int(x[j]), A[:, j]))
    got = solve_columns(f, A, rhs)
    assert (got == x).all()


def test_solve_detects_ambiguity_and_inconsistency():
    f = field_create(5)
    A = np.array([[1, 2], [2, 4]], dtype=np.int32)  # second column = 2x first
    with pytest.raises(AmbiguousSystemError):
        solve_columns(f, A, np.array([1, 2], dtype=np.int32))
    with pytest.raises(InconsistentSystemError):
        solve_columns(f, A, np.array([1, 3], dtype=np.int32))


def _pair_outcome(solve, field, x, y, w):
    """solve's (alpha, beta) for w = alpha*x + beta*y, or its error class."""
    try:
        return tuple(int(c) for c in solve(field, x, y, w))
    except (AmbiguousSystemError, InconsistentSystemError) as exc:
        return type(exc)


def _columns(field, x, y, w):
    return solve_columns(field, np.array([x, y], dtype=np.int32).T, np.array(w, dtype=np.int32))


def _assert_pair_solves_agree(field, cases):
    outcomes = set()
    for x, y, w in cases:
        want = _pair_outcome(_columns, field, x, y, w)
        assert _pair_outcome(solve_pair, field, x, y, w) == want, (x, y, w)
        outcomes.add(want if isinstance(want, type) else tuple)
    return outcomes


def test_solve_pair_matches_solve_columns_exhaustively_over_gf2():
    field = field_create(2)
    vecs = list(itertools.product(range(2), repeat=4))
    cases = itertools.product(vecs, vecs, vecs)
    assert _assert_pair_solves_agree(field, cases) == {tuple, AmbiguousSystemError, InconsistentSystemError}


def test_solve_pair_matches_solve_columns_on_every_gf3_pair():
    """Every (x, y) of GF(3)^4 with w = 0 and two sampled w (seed 3): one
    in span(x, y), one uniform."""
    field = field_create(3)
    rng = np.random.default_rng(3)
    vecs = list(itertools.product(range(3), repeat=4))
    cases = []
    for x, y in itertools.product(vecs, vecs):
        a, b = rng.integers(0, 3, 2).tolist()
        inside = tuple(field.add(field.mul(a, u), field.mul(b, v)) for u, v in zip(x, y))
        cases += [(x, y, (0, 0, 0, 0)), (x, y, inside), (x, y, tuple(rng.integers(0, 3, 4).tolist()))]
    assert _assert_pair_solves_agree(field, cases) == {tuple, AmbiguousSystemError, InconsistentSystemError}


@pytest.mark.parametrize("q, seed", [(4, 40), (5, 50), (8, 80), (9, 90), (16, 160), (27, 270)])
def test_solve_pair_matches_solve_columns_on_seeded_draws(q, seed):
    """500 draws: x zero one time in eight, y a multiple of x one time in
    four, w in span(x, y) two times in three and uniform otherwise."""
    field = field_create(*factor_prime_power(q))
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(500):
        x = rng.integers(0, q, 4) * (rng.random() >= 1 / 8)
        c = int(rng.integers(0, q))
        y = field.arr_mul(c, x) if rng.random() < 1 / 4 else rng.integers(0, q, 4)
        a, b = (int(v) for v in rng.integers(0, q, 2))
        w = field.arr_add(field.arr_mul(a, x), field.arr_mul(b, y)) if rng.random() < 2 / 3 else rng.integers(0, q, 4)
        cases.append(tuple(tuple(int(v) for v in vec) for vec in (x, y, w)))
    assert _assert_pair_solves_agree(field, cases) == {tuple, AmbiguousSystemError, InconsistentSystemError}


def _one_at_a_time(field, A, b):
    """solve_columns on each system of a stack: (x, unique), or the error
    class of the first system with no solution."""
    x = np.zeros((A.shape[0], A.shape[2]), dtype=np.int32)
    unique = np.ones(A.shape[0], dtype=bool)
    for t in range(A.shape[0]):
        try:
            x[t] = solve_columns(field, A[t], b[t])
        except AmbiguousSystemError:
            unique[t] = False
        except InconsistentSystemError:
            return InconsistentSystemError
    return x, unique


# prime fields take the integer branch, GF(509), the largest prime, at its widest products
@pytest.mark.parametrize("p, e", [(2, 1), (2, 2), (3, 2), (7, 1), (11, 1), (509, 1), (3, 3)])
@pytest.mark.parametrize("m, f", [(10, 6), (6, 6), (4, 1), (3, 5)], ids=["tall", "square", "one-column", "f>m"])
def test_solve_stack_matches_solve_columns(p, e, m, f):
    field = field_create(p, e)
    rng = np.random.default_rng([p, e, m, f])
    A = rng.integers(0, field.q, size=(60, m, f)).astype(np.int32)
    A[::3, :, 0] = 0  # rank-deficient: a zero column
    if f > 1:
        A[1::4, :, 1] = field.arr_mul(2 % p, A[1::4, :, 0])  # and a multiple of another
    x0 = rng.integers(0, field.q, size=(60, f)).astype(np.int32)
    b = np.zeros((60, m), dtype=np.int32)
    for j in range(f):
        b = field.arr_add(b, field.arr_mul(x0[:, j][:, None], A[:, :, j]))
    x, unique = _solve_stack(field, A, b)
    want_x, want_unique = _one_at_a_time(field, A, b)
    assert (unique == want_unique).all() and (x == want_x).all()
    assert unique.any() == (f <= m) and not unique.all()
    # a random right-hand side: each system alone raises what solve_columns raises
    for t in range(12):
        c = rng.integers(0, field.q, size=(1, m)).astype(np.int32)
        want = _one_at_a_time(field, A[t : t + 1], c)
        if want is InconsistentSystemError:
            with pytest.raises(InconsistentSystemError):
                _solve_stack(field, A[t : t + 1], c)
        else:
            got_x, got_unique = _solve_stack(field, A[t : t + 1], c)
            assert (got_unique == want[1]).all() and (got_x == want[0]).all()


def test_solve_stack_raises_for_one_inconsistent_system():
    f = field_create(5)
    A = np.array([[[1, 2], [2, 4]], [[1, 0], [0, 1]]], dtype=np.int32)
    x, unique = _solve_stack(f, A, np.array([[1, 2], [3, 4]], dtype=np.int32))
    assert unique.tolist() == [False, True] and x[1].tolist() == [3, 4]
    with pytest.raises(InconsistentSystemError):
        _solve_stack(f, A, np.array([[1, 3], [3, 4]], dtype=np.int32))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def test_matrix_validation():
    f = field_create(3)
    with pytest.raises(ValueError):
        MatrixF(f, [[3]])
    with pytest.raises(ValueError):
        MatrixF(f, [])
    # entries are integer codes: a float is not truncated, a string not parsed
    # nor a bool among integers read as 0 or 1
    for bad in ([[1.7, 2]], [[1.0, 2.0]], [["1", 2]], [[1.9, "2"]], [[True, False]], [[2, True]], [[1, np.bool_(0)]], [[1, 2], [0]]):
        with pytest.raises(ValueError):
            MatrixF(f, bad)
    for bad in (np.array([[1.0, 2.0]]), np.array([[True, False]]), np.array([[-1, 2]]), np.array([[2**40]])):
        with pytest.raises(ValueError):
            MatrixF(f, bad)
    M = MatrixF(f, [[np.int64(2), 1], [0, np.uint8(1)]])
    assert M.array.dtype == np.int32 and M.array.tolist() == [[2, 1], [0, 1]]


def _slow_matmul(field, A, B) -> list[list[int]]:
    """The oracle for `_matmul_codes`: a triple loop through field.mul and field.add."""
    (m, k), n = A.shape, B.shape[1]
    A, B = A.tolist(), B.tolist()
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i][j] = field.add(out[i][j], field.mul(A[i][t], B[t][j]))
    return out


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 509, 4, 8, 9, 16, 25, 27, 64])
@pytest.mark.parametrize("m,k,n", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (1, 1, 1), (5, 9, 4), (2, 40, 3)])
def test_matmul_codes_matches_a_scalar_triple_loop(q, m, k, n):
    # prime fields take one int64 product mod p, extension fields the tables
    field = field_create(*factor_prime_power(q))
    rng = np.random.default_rng(q * 1000 + m * 100 + k * 10 + n)
    A = rng.integers(0, q, (m, k)).astype(np.int32)
    B = rng.integers(0, q, (k, n)).astype(np.int32)
    if m and k:
        A[0] = q - 1  # the largest terms
    if k and n:
        B[:, 0] = q - 1
    out = _matmul_codes(field, A, B)
    assert out.dtype == np.int32 and out.shape == (m, n)
    assert out.tolist() == _slow_matmul(field, A, B)


def test_matmul_codes_accumulates_past_int32():
    # 10^4 terms of up to 508^2 sum past 2^31: an int32 accumulator wraps
    field, k = field_create(509), 10**4
    rng = np.random.default_rng(509)
    A = rng.integers(0, 509, (2, k)).astype(np.int32)
    B = rng.integers(0, 509, (k, 2)).astype(np.int32)
    A[0], B[:, 0] = 508, 508
    assert 508**2 * k > 2**31
    out = _matmul_codes(field, A, B)
    assert out[0, 0] == k % 509  # 508 = -1 mod 509
    assert out.tolist() == _slow_matmul(field, A, B)


def test_matmul_refuses_mixed_fields():
    # int codes carry no field: the owner check lives on the matrices
    A = MatrixF(field_create(5), [[1, 2]])
    with pytest.raises(ValueError, match="different fields"):
        matmul(A, MatrixF(field_create(7), [[1], [2]]))
    with pytest.raises(ValueError, match="inner dimensions"):
        matmul(A, A)


def test_matrix_copies_its_entries():
    f = field_create(5)
    src = np.array([[1, 2], [3, 4]], dtype=np.int32)
    M = MatrixF(f, src)
    src[0, 0] = 0
    assert M.array[0, 0] == 1 and not M.array.flags.writeable
    assert M.transpose().array.flags.c_contiguous


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_matrix_json_roundtrip(tmp_path):
    f = field_create(2, 2)
    M = MatrixF(f, [[0, 1, 2], [3, 2, 1]])
    path = tmp_path / "m.json"
    save_matrix_json(path, M, extra={"params": {"n": 3}})
    M2, extras = load_matrix_json(path)
    assert M2 == M
    assert extras == {"params": {"n": 3}}


def test_matrix_json_schema():
    f = field_create(2, 2)
    M = MatrixF(f, [[0, 1], [2, 3]])
    d = matrix_to_json_dict(M)
    assert set(d) == {"p", "e", "modulus", "rows", "cols", "entries"}
    assert d["modulus"] == [1, 1, 1]
    assert d["entries"] == [[0, 1], [2, 3]]
    M2, extras = matrix_from_json_dict(json.loads(json.dumps(d)))
    assert M2 == M and extras == {}


def test_matrix_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        matrix_from_json_dict(
            {"p": 2, "e": 1, "modulus": [0, 1], "rows": 3, "cols": 2, "entries": [[0, 1], [1, 0]]}
        )
    with pytest.raises(ValueError):
        matrix_from_json_dict({"p": 2, "e": 1})


@pytest.mark.parametrize(
    "key,value",
    [("rows", 1.9), ("rows", 1.0), ("rows", "1"), ("rows", True), ("cols", 2.0), ("cols", None), ("p", 3.0), ("p", "3"), ("e", True), ("modulus", [0, 1.0]), ("modulus", None)],
)
def test_matrix_json_header_must_hold_integers(key, value):
    # "rows": 1.9 once loaded through int(), as did a "p" of "3"
    d = {"p": 3, "e": 1, "modulus": [0, 1], "rows": 1, "cols": 2, "entries": [[1, 2]]}
    assert matrix_from_json_dict(d)[0].array.tolist() == [[1, 2]]
    d[key] = value
    with pytest.raises(ValueError):
        matrix_from_json_dict(d)


@pytest.mark.parametrize("entries", [[[1.9, "2"]], [[1.5, 2]], [["1", "2"]], [[True, False]], [[1, None]], [[2, True]]])
def test_matrix_json_rejects_non_integer_entries(entries):
    # a true among integers once loaded as 1
    with pytest.raises(ValueError):
        matrix_from_json_dict({"p": 3, "e": 1, "modulus": [0, 1], "rows": 1, "cols": 2, "entries": entries})

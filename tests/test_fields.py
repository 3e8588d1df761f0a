import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrc7.fields import (
    MAX_FIELD_ORDER,
    FieldSpec,
    factor_prime_power,
    field_create,
    json_text,
    write_json,
)
from lrc7.linalg import _codes

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


@pytest.fixture(scope="module")
def gf4():
    return field_create(2, 2, [1, 1, 1])


@pytest.fixture(scope="module")
def gf7():
    return field_create(7)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_gf4_default_modulus_is_x2_x_1():
    assert field_create(2, 2).modulus == (1, 1, 1)


def test_default_moduli_are_irreducible_and_smallest():
    assert field_create(3, 2).modulus == (1, 0, 1)      # x^2 + 1
    assert field_create(2, 3).modulus == (1, 1, 0, 1)   # x^3 + x + 1
    assert field_create(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1


def test_gf7_elements(gf7):
    assert [gf7.coeffs(c) for c in range(7)] == [(c,) for c in range(7)]
    assert gf7.modulus == (0, 1)


def test_reducible_modulus_rejected():
    # (x+1)^2 = x^2 + 1 in characteristic 2
    with pytest.raises(ValueError, match="reducible"):
        field_create(2, 2, [1, 0, 1])


def test_wrong_degree_modulus_rejected():
    with pytest.raises(ValueError):
        field_create(2, 2, [1, 1])
    with pytest.raises(ValueError):
        field_create(2, 2, [1, 1, 1, 1])


def test_nonprime_characteristic_rejected():
    for bad in (-3, 0, 1, 4, 6, 9, 2.0, True):
        with pytest.raises(ValueError, match="characteristic must be a prime integer"):
            field_create(bad)


def test_factor_prime_power_matches_trial_division():
    for q in range(2, 1030):
        p = next(f for f in range(2, q + 1) if q % f == 0)  # least prime factor
        e = next(e for e in range(1, q + 1) if p**e >= q)
        if p**e == q:
            assert factor_prime_power(q) == (p, e)
        else:
            with pytest.raises(ValueError, match=f"{q} is not a prime power"):
                factor_prime_power(q)
    for q in (-4, 0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            factor_prime_power(q)


def test_bad_degree_rejected():
    with pytest.raises(ValueError):
        field_create(2, 0)


def test_field_order_cap():
    for p, e in ((2, 10), (3, 7), (2, 17)):
        with pytest.raises(ValueError, match="cap"):
            field_create(p, e)
    assert MAX_FIELD_ORDER == 512
    assert field_create(2, 9).q == MAX_FIELD_ORDER


def test_field_equality_and_hash():
    assert field_create(2, 2) == field_create(2, 2, [1, 1, 1])
    assert hash(field_create(5)) == hash(field_create(5))
    assert field_create(2, 2) != field_create(5)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_char2_addition(gf4):
    assert gf4.add(1, 1) == 0


def test_gamma_squared(gf4):
    # gamma = x has code 2; x^2 reduces to x + 1 (code 3)
    assert gf4.mul(2, 2) == 3
    assert gf4.mul(2, 2) == gf4.add(2, 1)


def test_gf7_inverse_matches_exhaustive_table(gf7):
    # brute-force multiplication table as the oracle
    for a in range(1, 7):
        inv = next(b for b in range(1, 7) if (a * b) % 7 == 1)
        assert gf7.inv(a) == inv
    assert gf7.inv(3) == 5
    assert gf7.div(3, 3) == 1


def test_division_by_zero(gf4):
    with pytest.raises(ZeroDivisionError):
        gf4.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf4.div(1, 0)


def test_element_operators(gf7):
    assert gf7.add(3, 5) == 1
    assert gf7.sub(3, 5) == 5
    assert gf7.mul(3, 5) == 1
    assert gf7.div(3, 5) == 2  # 3 * inv(5) = 3 * 3 = 9 = 2


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, e):
    """All axioms over every pair/triple for q <= 16."""
    f = field_create(p, e)
    q = f.q
    add, mul = f.add, f.mul
    for a in range(q):
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert mul(a, 0) == 0
        assert add(a, f.neg(a)) == 0
        if a:
            assert mul(a, f.inv(a)) == 1
    for a in range(q):
        for b in range(q):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert f.sub(a, b) == add(a, f.neg(b))
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_frobenius_exhaustive(p, e):
    """a^q = a for every element, q <= 81."""
    f = field_create(p, e)
    for a in range(f.q):
        assert f.pow(a, f.q) == a


def test_pow_negative_and_zero(gf7):
    assert gf7.pow(3, 0) == 1
    assert gf7.pow(3, -1) == 5
    assert gf7.pow(0, 0) == 1
    assert gf7.pow(0, 3) == 0
    with pytest.raises(ZeroDivisionError):
        gf7.pow(0, -1)


def test_coeff_roundtrip():
    f = field_create(3, 2)
    for code in range(f.q):
        assert f.from_coeffs(f.coeffs(code)) == code
    assert f.from_coeffs([2, 1]) == 2 + 3
    with pytest.raises(ValueError):
        f.from_coeffs([1, 2, 0])


def test_element_validation(gf4):
    # an element is an int code in [0, q): the one check of codes is linalg._codes
    assert _codes(gf4, [0, 3]).tolist() == [0, 3]
    for bad in ([4], [-1], [1.0], [True], ["1"]):
        with pytest.raises(ValueError):
            _codes(gf4, bad)


# ---------------------------------------------------------------------------
# vectorized table operations agree with the scalar ones
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,e", [(2, 2), (7, 1), (3, 2), (2, 4)])
def test_array_ops_match_scalar(p, e):
    f = field_create(p, e)
    q = f.q
    a = np.arange(q).repeat(q)
    b = np.tile(np.arange(q), q)
    assert (f.arr_add(a, b) == [f.add(int(x), int(y)) for x, y in zip(a, b)]).all()
    assert (f.arr_sub(a, b) == [f.sub(int(x), int(y)) for x, y in zip(a, b)]).all()
    assert (f.arr_mul(a, b) == [f.mul(int(x), int(y)) for x, y in zip(a, b)]).all()
    assert (f.arr_neg(a) == [f.neg(int(x)) for x in a]).all()
    nz = np.arange(1, q)
    assert (f.arr_inv(nz) == [f.inv(int(x)) for x in nz]).all()
    with pytest.raises(ZeroDivisionError):
        f.arr_inv(np.array([0, 1]))


# ---------------------------------------------------------------------------
# the tables against schoolbook polynomial arithmetic
# ---------------------------------------------------------------------------


def _prime_powers(lo, hi):
    """(p, e) for every prime power lo < p^e <= hi."""
    out = []
    for q in range(max(lo + 1, 2), hi + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)  # least prime factor
        e, t = 0, q
        while t % p == 0:
            t, e = t // p, e + 1
        if t == 1:
            out.append((p, e))
    return out


def _coeffs(a, p, e):
    return [a // p**i % p for i in range(e)]


def _code(coeffs, p):
    return sum(c % p * p**i for i, c in enumerate(coeffs))


def _poly_mul(a, b, p, modulus):
    """Schoolbook product of two coefficient lists, reduced by the monic
    modulus from the top degree down; codes in, code out."""
    e = len(modulus) - 1
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_coeffs(a, p, e)):
        for j, y in enumerate(_coeffs(b, p, e)):
            prod[i + j] += x * y
    for i in range(2 * e - 2, e - 1, -1):
        c = prod[i] % p
        for j, m in enumerate(modulus):
            prod[i - e + j] -= c * m
    return _code(prod[:e], p)


def _poly_add(a, b, p, e, sign=1):
    return _code([x + sign * y for x, y in zip(_coeffs(a, p, e), _coeffs(b, p, e))], p)


def _assert_tables_exhaustive(f):
    p, e, q = f.p, f.e, f.q
    pairs = [(a, b) for a in range(q) for b in range(q)]
    A, B = np.array(pairs).T
    for scalar, arr, ref in (
        (f.add, f.arr_add, [_poly_add(a, b, p, e) for a, b in pairs]),
        (f.sub, f.arr_sub, [_poly_add(a, b, p, e, -1) for a, b in pairs]),
        (f.mul, f.arr_mul, [_poly_mul(a, b, p, f.modulus) for a, b in pairs]),
    ):
        assert [scalar(a, b) for a, b in pairs] == ref
        assert arr(A, B).tolist() == ref
    neg = [_poly_add(0, a, p, e, -1) for a in range(q)]
    assert [f.neg(a) for a in range(q)] == f.arr_neg(np.arange(q)).tolist() == neg
    for a in range(1, q):
        assert _poly_mul(a, f.inv(a), p, f.modulus) == 1
    assert f.arr_inv(np.arange(1, q)).tolist() == [f.inv(a) for a in range(1, q)]


@pytest.mark.parametrize("p,e", _prime_powers(1, 64))
def test_tables_match_schoolbook_exhaustive(p, e):
    _assert_tables_exhaustive(field_create(p, e))


def _irreducible_moduli(p, e):
    """Every monic irreducible of degree e over GF(p): the monic polynomials
    that are no product of two monic ones of lower degree."""

    def monic(d):
        return [_coeffs(low, p, d) + [1] for low in range(p**d)]

    reducible = set()
    for d in range(1, e // 2 + 1):
        for f in monic(d):
            for g in monic(e - d):
                prod = [0] * (e + 1)
                for i, x in enumerate(f):
                    for j, y in enumerate(g):
                        prod[i + j] += x * y
                reducible.add(tuple(c % p for c in prod))
    return [tuple(m) for m in monic(e) if tuple(m) not in reducible], sorted(reducible)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_tables_match_schoolbook_for_every_modulus(p, e):
    irreducible, reducible = _irreducible_moduli(p, e)
    assert len(irreducible) == {(2, 2): 1, (2, 3): 2, (3, 2): 3, (2, 4): 3, (5, 2): 10, (3, 3): 8}[(p, e)]
    for modulus in irreducible:
        _assert_tables_exhaustive(field_create(p, e, modulus))
    for modulus in reducible:
        with pytest.raises(ValueError, match="reducible"):
            field_create(p, e, modulus)


@pytest.mark.parametrize("p,e", _prime_powers(64, MAX_FIELD_ORDER))
def test_tables_match_schoolbook_on_a_basis(p, e):
    """q > 64: every a times each x^i against the schoolbook product, ADD,
    SUB and NEG digit-wise, and MUL distributive over ADD for every a, b and
    x^i.  Every b is a sum of basis elements x^i, so the tables agree with
    the schoolbook product on every pair."""
    f = field_create(p, e)
    q = f.q
    codes = np.arange(q)
    ppow = np.array([p**i for i in range(e)])
    digits = codes[:, None] // ppow % p
    for b in range(q):  # column b of ADD and SUB, digit by digit
        assert (f.arr_add(codes, b) == (digits + digits[b]) % p @ ppow).all()
        assert (f.arr_sub(codes, b) == (digits - digits[b]) % p @ ppow).all()
    assert (f.arr_neg(codes) == -digits % p @ ppow).all()
    for i in range(e):
        xi = p**i
        assert f.arr_mul(codes, xi).tolist() == [_poly_mul(a, xi, p, f.modulus) for a in range(q)]
        lhs = f.arr_mul(codes[:, None], f.arr_add(codes[None, :], xi))
        rhs = f.arr_add(f.arr_mul(codes[:, None], codes[None, :]), f.arr_mul(codes[:, None], xi))
        assert (lhs == rhs).all()
    assert not f.arr_mul(codes, 0).any()
    assert (f.arr_mul(codes[1:], f.arr_inv(codes[1:])) == 1).all()


@pytest.mark.parametrize("p,e", _prime_powers(1, 64))
def test_pow_matches_repeated_multiplication(p, e):
    f = field_create(p, e)
    q = f.q
    for a in range(q):
        up = down = 1
        for n in range(2 * q + 1):
            assert f.pow(a, n) == up
            up = f.mul(up, a)
            if a and n <= q:
                assert f.pow(a, -n) == down
                down = f.mul(down, f.inv(a))
    assert f.pow(0, 0) == 1
    for n in range(-q, 0):
        with pytest.raises(ZeroDivisionError):
            f.pow(0, n)


# ---------------------------------------------------------------------------
# JSON text
# ---------------------------------------------------------------------------

# strings that hit the layout's masks: quotes, backslash runs, brackets and
# commas inside strings, and non-ASCII text the encoder escapes
_json_str = st.text(st.sampled_from('"\\[]{},: x\n\x00\xe9\u2603\U0001f600') | st.characters(), max_size=6)
_json_scalar = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | _json_str
)
_json_payload = st.recursive(
    _json_scalar,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_json_str, kids, max_size=4),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_json_payload)
def test_json_text_is_the_stdlib_indented_encoding(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def _nested(depth: int):
    obj: object = [[], {}, "]", 0]
    for level in range(depth):
        obj = {"k": [obj, level]} if level % 2 else [obj, {}]
    return obj


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        "",
        '"',
        "\\",
        '\\"[',
        0,
        -(2**100),
        float("-inf"),
        None,
        True,
        [[[]]],
        {"": {"": []}},
        {1: "a", 2.5: ["b"], 10: {}},
        {True: [1], False: {}},
        {"a\\": ["\\\\", "\\\"", {"[": "{"}]},
        _nested(200),
    ],
)
def test_json_text_edge_cases(obj, tmp_path):
    expected = json.dumps(obj, indent=2, sort_keys=True)
    assert json_text(obj) == expected
    write_json(tmp_path / "out.json", obj)
    assert (tmp_path / "out.json").read_bytes() == (expected + "\n").encode()

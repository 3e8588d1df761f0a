import numpy as np
import pytest

from lrc7.fields import (
    MAX_FIELD_ORDER,
    FieldElement,
    FieldSpec,
    field_create,
)

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
    assert [e.code for e in gf7.elements()] == list(range(7))
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
    for bad in (1, 4, 6, 9):
        with pytest.raises(ValueError):
            field_create(bad)


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
    one = gf4.one
    assert (one + one).code == 0


def test_gamma_squared(gf4):
    # gamma = x has code 2; x^2 reduces to x + 1 (code 3)
    gamma = gf4.element(2)
    assert (gamma * gamma).code == 3
    assert gamma * gamma == gamma + 1


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
        gf4.element(1) / gf4.element(0)


def test_owner_mismatch(gf4, gf7):
    with pytest.raises(ValueError):
        gf4.element(1) + gf7.element(1)
    with pytest.raises(ValueError):
        gf4.element(1) / gf7.element(1)


def test_element_operators(gf7):
    a, b = gf7.element(3), gf7.element(5)
    assert (a + b).code == 1
    assert (a - b).code == 5
    assert (a * b).code == 1
    assert (a / b).code == 2  # 3 * inv(5) = 3 * 3 = 9 = 2


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
        assert f.from_coeffs(f.coeffs(code)).code == code
    assert f.from_coeffs([2, 1]).code == 2 + 3


def test_element_validation(gf4):
    with pytest.raises(ValueError):
        gf4.element(4)
    with pytest.raises(ValueError):
        FieldElement(gf4, -1)


def test_element_repr(gf4, gf7):
    assert repr(gf7.element(3)) == "F7(3)"
    assert repr(gf4.element(3)) == "F4(a+1)"
    assert repr(gf4.element(0)) == "F4(0)"


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

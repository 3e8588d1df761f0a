import math
from fractions import Fraction

import pytest

from lrc7.bounds import (
    bounds_report,
    ceil_log,
    classify,
    cor1_distance_cap,
    dim_bound_eq3,
    eq2_holds,
    length_bound_eq5,
    prior_length_bounds,
    singleton_like,
    wang_bound,
)

# ---------------------------------------------------------------------------
# singleton-like distance cap
# ---------------------------------------------------------------------------


def test_singleton_like_values():
    assert singleton_like(9, 2, 2) == 8
    assert singleton_like(18, 8, 2) == 8
    for n, k in [(10, 4), (12, 5), (9, 3)]:
        assert singleton_like(n, k, k) == n - k + 1  # classical cap at r = k


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_h1_h2_parameters():
    assert classify(9, 2, 7, 2) == "almost-optimal"
    assert classify(18, 8, 7, 2) == "almost-optimal"


def test_classify_optimal_and_neither():
    # cap = 9 - 2 - 1 + 2 = 8; d = 5 falls short by more than one
    assert classify(9, 2, 5, 2) == "neither"
    # cap = 10 - 2 - 1 + 2 = 9 met exactly; 3 does not divide 10
    assert classify(10, 2, 9, 2) == "optimal"
    # cap met exactly with (r+1) | n but residue (9-2) mod 3 = 1 != 2
    assert classify(12, 3, 9, 2) == "optimal"


def test_classify_distance_cap_met_with_residue_condition():
    # (d-2) mod (r+1) == r together with (r+1) | n and the cap met exactly is
    # flagged infeasible; build one artificially through the formula pieces.
    cap = singleton_like(9, 2, 2)
    assert cap == 8
    # 8 - 2 = 6 = 0 mod 3, so the residue clause does NOT fire: optimal
    assert classify(9, 2, 8, 2) == "optimal"


def test_infeasible_parameter_sets_are_arithmetically_empty():
    """For r in 1..3 and every divisible n, no (n, k) meets the distance cap
    exactly while (d - 2) mod (r + 1) == r: such parameters cannot coexist,
    so the 'infeasible' verdict never fires on consistent inputs."""
    hits = []
    for r in (1, 2, 3):
        for n in range(r + 1, 92, r + 1):
            for k in range(1, n):
                d = singleton_like(n, k, r)
                if 1 <= d <= n and (d - 2) % (r + 1) == r and r <= k:
                    hits.append((n, k, d, r))
    assert hits == []


def test_eq2_holds():
    assert eq2_holds(9, 2, 7, 2) is True  # 9-2-3 = 4 = 5 - floor(5/3)
    assert eq2_holds(9, 3, 7, 2) is False
    assert eq2_holds(10, 2, 7, 2) is None  # 3 does not divide 10


def test_code_params_validation():
    assert bounds_report(n=18, k=8, d=7, r=2, q=7)["k"] == 8
    for n, k, d, r, match in [
        (5, 6, 3, 2, "need 1 <= k <= n, got k=6, n=5"),
        (9, 2, 10, 2, "need 1 <= d <= n, got d=10, n=9"),
        (9, 2, 7, 3, "need 1 <= r <= k, got r=3, k=2"),
    ]:
        with pytest.raises(ValueError, match=match):
            classify(n, k, d, r)
        with pytest.raises(ValueError, match=match):
            bounds_report(n=n, k=k, d=d, r=r, q=4)
    with pytest.raises(ValueError, match="classification needs the minimum distance"):
        classify(9, 2, None, 2)


# ---------------------------------------------------------------------------
# dimension caps
# ---------------------------------------------------------------------------


def test_dim_bound_values():
    assert dim_bound_eq3(9, 2, 4) == 2
    assert dim_bound_eq3(18, 2, 7) == 8


def test_dim_bound_inner_count_at_q4_n9():
    # inner count 4 + 3*4*7 = 88; 4^3 = 64 < 88 <= 256 = 4^4, so the ceiling
    # term is 4 and the cap is 6 - 4 = 2
    inner = 4 + (4 - 1) * 4 * (9 - 2)
    assert inner == 88
    assert ceil_log(4, inner) == 4
    assert dim_bound_eq3(9, 2, 4) == 9 * 2 // 3 - 4


def test_dim_bound_requires_divisibility():
    with pytest.raises(ValueError):
        dim_bound_eq3(10, 2, 4)


def test_dim_bound_power_inequality_is_tight():
    """At the returned cap, q^u reaches the inner count and q^(u-1) does not."""
    for q in (4, 8, 16):
        for r in (2, 3):
            for n in range(r + 1, 201, r + 1):
                k_max = dim_bound_eq3(n, r, q)
                u = r * n // (r + 1) - k_max
                inner = q + (q - 1) * q * (r * n // 2 - r)
                assert q**u >= inner
                assert q ** (u - 1) < inner


def test_wang_bound_value_and_floor():
    real, floor = wang_bound(9, 2, 4)
    # inner count 1 + 27 + 18 = 46; the cap is 6 - log_4(46) ~ 3.238
    assert floor == 3
    assert math.isclose(real, 6 - math.log(46) / math.log(4), rel_tol=1e-12)
    assert 3.23 < real < 3.25
    # exact bracketing of the floor: 4^2 < 46 <= 4^3
    assert 4**2 < 46 <= 4**3


def test_wang_bound_r1_third_term_vanishes():
    real, _ = wang_bound(8, 1, 4)
    inner = 1 + 3 * 1 * 8 // 2  # (r-1) factor kills the cubic term
    assert math.isclose(real, 4 - math.log(inner) / math.log(4), rel_tol=1e-12)


def test_eq3_never_exceeds_wang_floor():
    for q in (4, 8, 16):
        for r in (2, 3):
            for n in range(r + 1, 201, r + 1):
                assert dim_bound_eq3(n, r, q) <= wang_bound(n, r, q)[1]


def test_eq3_strictly_tighter_at_example_point():
    assert dim_bound_eq3(9, 2, 4) == 2 < 3 == wang_bound(9, 2, 4)[1]


# ---------------------------------------------------------------------------
# length caps
# ---------------------------------------------------------------------------


def test_length_bound_values():
    assert length_bound_eq5(4) == 23
    assert length_bound_eq5(7) == 59
    assert length_bound_eq5(2) == 9


def test_prior_length_bounds_at_d7_r2():
    g, c = prior_length_bounds(7, 2, 4)
    assert (g, c) == (128, 85)
    assert isinstance(g, Fraction) and isinstance(c, Fraction)
    g7, c7 = prior_length_bounds(7, 2, 7)
    assert g7 == Fraction(3 * 7**4, 12) and c7 == Fraction(7**4 - 1, 6)


def test_prior_length_bounds_branch_selection():
    from lrc7.bounds import _a_of

    assert _a_of(7) == 3  # selects the d = 3, 4 (mod 4) branch
    assert _a_of(6) == 2
    assert _a_of(9) == 1
    g, c = prior_length_bounds(6, 2, 4)  # d = 2 mod 4 branch, integer exponent
    assert g == Fraction(3, 2) * Fraction(4, 12) * 4**4
    assert c == Fraction(4**3 - 1, 3)
    with pytest.raises(ValueError):
        prior_length_bounds(4, 2, 4)


def test_length_cap_chain_at_d7_r2():
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 25, 32):
        eq5 = length_bound_eq5(q)
        guru, chen = prior_length_bounds(7, 2, q)
        assert eq5 < chen < guru


# ---------------------------------------------------------------------------
# the distance-7 cap
# ---------------------------------------------------------------------------


def test_cor1_distance_cap():
    assert cor1_distance_cap(9, 2, 4) == 7  # 9 > 8 = q + 4
    assert cor1_distance_cap(9, 2, 5) is None  # 9 = q + 4: no cap asserted
    assert cor1_distance_cap(18, 8, 7) == 7
    with pytest.raises(ValueError):
        cor1_distance_cap(10, 2, 4)
    with pytest.raises(ValueError):
        cor1_distance_cap(9, 3, 4)


def test_ceil_log():
    assert ceil_log(4, 1) == 0
    assert ceil_log(4, 4) == 1
    assert ceil_log(4, 5) == 2
    assert ceil_log(2, 1024) == 10
    assert ceil_log(2, 1025) == 11
    with pytest.raises(ValueError):
        ceil_log(1, 5)


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------


def test_bounds_report_full():
    rep = bounds_report(n=9, k=2, d=7, r=2, q=4)
    assert rep["singleton_d_max"] == 8
    assert rep["eq2_holds"] is True
    assert rep["eq3_k_max"] == 2
    assert rep["eq5_n_max"] == 23
    assert rep["wang_k_max_floor"] == 3
    assert rep["guruswami_n_max"] == 128.0
    assert rep["chen_n_max"] == 85.0
    assert rep["cor1_d_max"] == 7
    assert rep["classification"] == "almost-optimal"
    assert list(rep) == [
        "n", "k", "d", "r", "q", "singleton_d_max", "eq2_holds", "eq3_k_max", "eq5_n_max", "wang_k_max",
        "wang_k_max_floor", "guruswami_n_max", "chen_n_max", "cor1_d_max", "classification",
    ]


def test_bounds_report_rejects_n_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"need n >= 1, got n={n}"):
            bounds_report(n=n, r=2, q=4)
    assert bounds_report(n=1, q=4)["n"] == 1


def test_bounds_report_rejects_q_below_two():
    for q in (1, 0, -3):
        with pytest.raises(ValueError, match=f"need q >= 2, got q={q}"):
            bounds_report(d=7, r=2, q=q)
    assert bounds_report(q=2)["eq5_n_max"] is not None


def test_bounds_report_partial():
    rep = bounds_report(q=7)
    assert rep["eq5_n_max"] == 59
    assert rep["singleton_d_max"] is None
    assert rep["classification"] is None
    rep = bounds_report(n=10, k=2, d=7, r=2, q=4)  # (r+1) does not divide n
    assert rep["eq3_k_max"] is None and rep["eq2_holds"] is None
    assert rep["singleton_d_max"] == singleton_like(10, 2, 2) == 9

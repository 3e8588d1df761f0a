"""Parameter bounds and the optimal / almost-optimal classifier.

Every bound with an integer conclusion is computed by exact integer power
comparison; floating point only appears in the real-valued reports, never
in a decision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Real = Union[Fraction, float]


def ceil_log(q: int, x: int) -> int:
    """Least u >= 0 with q**u >= x, by exact integer comparison."""
    if q < 2:
        raise ValueError("base must be at least 2")
    if x < 1:
        raise ValueError("argument must be positive")
    u = 0
    pw = 1
    while pw < x:
        pw *= q
        u += 1
    return u


def _check_params(n: Optional[int], k: Optional[int], d: Optional[int], r: Optional[int], q: Optional[int] = None) -> None:
    """Raise ValueError unless 1 <= n, 1 <= k <= n, 1 <= d <= n, 1 <= r <= k
    and q >= 2.

    A parameter given as None drops out of every rule it appears in.
    """
    if n is not None and n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if k is not None and (k < 1 or (n is not None and k > n)):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if d is not None and (d < 1 or (n is not None and d > n)):
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    if r is not None and (r < 1 or (k is not None and r > k)):
        raise ValueError(f"need 1 <= r <= k, got r={r}, k={k}")
    if q is not None and q < 2:
        raise ValueError(f"need q >= 2, got q={q}")


def singleton_like(n: int, k: int, r: int) -> int:
    """Distance cap n - k - ceil(k/r) + 2 for locality-r codes."""
    return n - k - -(-k // r) + 2


def eq2_holds(n: int, k: int, d: int, r: int) -> Optional[bool]:
    """Whether n - k - n/(r+1) = d - 2 - floor((d-2)/(r+1)); None if (r+1) | n fails."""
    if n % (r + 1) != 0:
        return None
    return n - k - n // (r + 1) == d - 2 - (d - 2) // (r + 1)


def classify(n: int, k: int, d: Optional[int], r: int) -> str:
    """One of 'optimal', 'almost-optimal', 'infeasible', 'neither'.

    A code meeting the distance cap exactly is optimal, except that when
    (r+1) | n and d - 2 = r (mod r+1) no such code exists at all, which is
    reported as infeasible.  Falling short of the cap by exactly one is
    almost-optimal.
    """
    if d is None:
        raise ValueError("classification needs the minimum distance")
    _check_params(n, k, d, r)
    cap = singleton_like(n, k, r)
    if d == cap:
        if n % (r + 1) == 0 and (d - 2) % (r + 1) == r:
            return "infeasible"
        return "optimal"
    if d == cap - 1:
        return "almost-optimal"
    return "neither"


def dim_bound_eq3(n: int, r: int, q: int) -> int:
    """Dimension cap rn/(r+1) - ceil(log_q(q + (q-1)q(rn/2 - r))).

    Requires (r+1) | n; the inner count is evaluated exactly and the ceiling
    is the least integer u with q**u reaching it.
    """
    if n % (r + 1) != 0:
        raise ValueError(f"(r+1) = {r + 1} must divide n = {n}")
    inner = q + (q - 1) * q * (r * n // 2 - r)  # r*n is even: r is, or (r+1) | n makes n even
    return r * n // (r + 1) - ceil_log(q, inner)


def wang_bound(n: int, r: int, q: int) -> tuple[float, int]:
    """Real-valued dimension cap rn/(r+1) - log_q(S) with
    S = 1 + (q-1)rn/2 + (r-1)r(q-1)(q-2)n/6, plus its exact floor.
    """
    if n % (r + 1) != 0:
        raise ValueError(f"(r+1) = {r + 1} must divide n = {n}")
    s6 = 6 + 3 * (q - 1) * r * n + (r - 1) * r * (q - 1) * (q - 2) * n
    # 6 | s6: (r-1)r and rn are even, and r = 2 (mod 3) makes 3 | (r+1) | n
    s = s6 // 6
    m = r * n // (r + 1)
    real = m - math.log(s) / math.log(q)
    return real, m - ceil_log(q, s)


def length_bound_eq5(q: int) -> int:
    """Length cap q^2 + q + 3 for almost-optimal distance-7 locality-2 codes
    with disjoint repair groups."""
    return q * q + q + 3


def _a_of(d: int) -> int:
    return d - 4 * (-(-d // 4) - 1)


def prior_length_bounds(d: int, r: int, q: int) -> tuple[Real, Real]:
    """The two earlier length caps for comparison, as exact rationals when
    the exponents are integral (floats otherwise).

    At (d, r) = (7, 2) these are exactly 3q^4/(2(q-1)) and (q^4-1)/(q-1).
    """
    if d < 5:
        raise ValueError("these length caps assume d >= 5")
    a = _a_of(d)
    chen_exp = d - 2 - (d - 2) // (r + 1)
    chen = Fraction(2, r) * Fraction(q**chen_exp - 1, q - 1)
    if (d, r) == (7, 2):
        # the simplified form of the first cap at this parameter point
        return Fraction(3 * q**4, 2 * (q - 1)), chen
    scale = Fraction(r + 1, r)
    coef = Fraction(d - a, 4 * (q - 1))
    guru: Real
    if d % 4 in (1, 2):
        num = 4 * (d - 2)
        if num % (d - a) == 0:
            guru = scale * coef * q ** (num // (d - a))
        else:
            guru = float(scale * coef) * q ** (num / (d - a))
    else:
        num = 4 * (d - 3)
        if num % (d - a) == 0:
            guru = scale * (coef * q ** (num // (d - a)) + 1)
        else:
            guru = float(scale) * (float(coef) * q ** (num / (d - a)) + 1)
    return guru, chen


def cor1_distance_cap(n: int, k: int, q: int) -> Optional[int]:
    """Distance cap 7 for locality-2 codes with n=3L > q+4, k=2(L-2); None
    when n <= q+4 (no cap asserted)."""
    if n % 3 != 0:
        raise ValueError("the cap applies to codes with n = 3L")
    L = n // 3
    if k != 2 * (L - 2):
        raise ValueError(f"the cap applies when k = 2(L-2) = {2 * (L - 2)}, got k={k}")
    return 7 if n > q + 4 else None


def bounds_report(
    n: Optional[int] = None,
    k: Optional[int] = None,
    d: Optional[int] = None,
    r: Optional[int] = None,
    q: Optional[int] = None,
) -> dict:
    """Every bound computable from whatever parameters are supplied, keyed
    n, k, d, r, q, then one key per bound.

    A bound is None when its defining precondition (divisibility, the
    parameter pattern, or a missing input) does not hold.  Raises ValueError
    when the supplied parameters break 1 <= k <= n, 1 <= d <= n,
    1 <= r <= k or q >= 2.
    """
    _check_params(n, k, d, r, q)
    singleton = singleton_like(n, k, r) if None not in (n, k, r) else None
    eq2 = eq2_holds(n, k, d, r) if None not in (n, k, d, r) else None
    eq3 = None
    wang = wang_floor = None
    if None not in (n, r, q) and n % (r + 1) == 0:
        eq3 = dim_bound_eq3(n, r, q)
        wang, wang_floor = wang_bound(n, r, q)
    eq5 = length_bound_eq5(q) if q is not None else None
    guru = chen = None
    if None not in (d, r, q) and d >= 5:
        g, c = prior_length_bounds(d, r, q)
        guru, chen = float(g), float(c)
    cor1 = None
    if None not in (n, k, q) and r == 2 and n % 3 == 0 and k == 2 * (n // 3 - 2):
        cor1 = cor1_distance_cap(n, k, q)
    # the verdict does not read q, but a report names one only for a full point
    cls = classify(n, k, d, r) if None not in (n, k, d, r, q) else None
    return {
        "n": n,
        "k": k,
        "d": d,
        "r": r,
        "q": q,
        "singleton_d_max": singleton,
        "eq2_holds": eq2,
        "eq3_k_max": eq3,
        "eq5_n_max": eq5,
        "wang_k_max": wang,
        "wang_k_max_floor": wang_floor,
        "guruswami_n_max": guru,
        "chen_n_max": chen,
        "cor1_d_max": cor1,
        "classification": cls,
    }

"""Exact arithmetic in finite fields GF(p^e).

An element of GF(p^e) is stored as an integer code in [0, q): the element
with polynomial-basis coefficients (c0, c1, ..., c_{e-1}) has code
sum(c_i * p**i).  Codes are canonical, so two elements are equal exactly
when their codes are equal, and the code doubles as the serialization
format used by the JSON/CSV exports.

Every field gets dense q x q lookup tables for addition, subtraction and
multiplication, plus negation and inversion tables; both the scalar
operations and the numpy array operations read them, and `pow` squares
and multiplies through them.  The tables are built in one numpy pass from
the digits of the codes: addition and subtraction digit-wise modulo p,
multiplication from the products a * x^i (each a shift of the previous one,
reduced by the modulus), negation and inversion read off the others.
Everything is exact integer arithmetic -- there is no floating point
anywhere.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional, Sequence

import numpy as np

#: Hard cap on constructible field orders: the dense tables hold q^2
#: entries each, and past this size the spread (q^2 + 1 planes), its check
#: and the constructor's point index ((q^4 - 1)/(q - 1) points) are
#: impractical anyway.  The constructor keeps an int32 owner entry, an
#: int32 entry of the plane-point table and one mark byte per PG(3, q)
#: point: about 152 MB at q = 256 and 1.2 GB at q = 512, before its trace,
#: which holds 16 bytes (an int32 row) per removed point and 8 bytes (an
#: int32 (plane id, count) row) per plane a round cuts.
MAX_FIELD_ORDER = 512


def factor_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p**e and p prime; ValueError when q is no prime power."""
    if q < 2:
        raise ValueError(f"field order must be at least 2, got {q}")
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _digits(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def _poly_divmod(num: Sequence[int], den: Sequence[int], p: int):
    """Quotient and remainder of little-endian coefficient lists over GF(p)."""
    num = [c % p for c in num]
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        f = (c * inv_lead) % p
        quot[i - dd] = f
        for j in range(dd + 1):
            num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
    rem = num[:dd] if dd > 0 else [0]
    return quot, rem


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(modulus) - 1
    if deg == 1:
        return True
    if modulus[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for low in range(p**d):
            den = _digits(low, p, d) + [1]
            _, rem = _poly_divmod(modulus, den, p)
            if all(c == 0 for c in rem):
                return False
    return True


def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e, ordering lower coefficients
    by their integer encoding.  Deterministic, so unspecified moduli give
    bit-reproducible fields."""
    if e == 1:
        return (0, 1)
    for low in range(p**e):
        cand = tuple(_digits(low, p, e)) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise ArithmeticError(f"no irreducible polynomial of degree {e} over GF({p})")


class FieldSpec:
    """Immutable description of GF(p^e) together with its arithmetic tables.

    Scalar operations (``add``, ``mul``, ...) act on integer codes; the
    ``arr_*`` variants act element-wise on numpy integer arrays and
    broadcast like the underlying numpy operations.
    """

    def __init__(self, p: int, e: int = 1, modulus: Optional[Sequence[int]] = None):
        try:
            prime = isinstance(p, int) and not isinstance(p, bool) and factor_prime_power(p) == (p, 1)
        except ValueError:
            prime = False
        if not prime:
            raise ValueError(f"characteristic must be a prime integer, got {p!r}")
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise ValueError(f"extension degree must be an integer >= 1, got {e!r}")
        q = p**e
        if q > MAX_FIELD_ORDER:
            raise ValueError(f"field order {q} exceeds the configured cap {MAX_FIELD_ORDER}")
        if modulus is None:
            modulus = _default_modulus(p, e)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e, given as e+1 coefficients")
            if e == 1:
                modulus = (0, 1)  # prime field: the modulus is ignored
            elif not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = tuple(modulus)
        self._ppow = tuple(p**i for i in range(e + 1))
        self._build_tables()

    # -- construction of the tables -------------------------------------

    def _build_tables(self) -> None:
        """ADD/SUB digit-wise mod p; MUL from a*b = sum_i b_i * (a * x^i),
        row b being row b - p^i plus a * x^i (i the lowest nonzero digit of
        b); NEG and INV read off SUB and MUL."""
        p, e, q = self.p, self.e, self.q
        codes = np.arange(q, dtype=np.int32)
        add = np.zeros((q, q), dtype=np.int32)
        sub = np.zeros((q, q), dtype=np.int32)
        for pw in self._ppow[:e]:
            d = codes // pw % p
            add += (d[:, None] + d[None, :]) % p * pw
            sub += (d[:, None] - d[None, :]) % p * pw
        # t * x^e = -t * (m_0 + m_1 x + ... + m_{e-1} x^{e-1}) for t in GF(p)
        t = np.arange(p)
        top = sum(-c * t % p * pw for c, pw in zip(self.modulus, self._ppow[:e]))
        lead = self._ppow[e - 1]
        shifts = [codes]  # a * x^i for every code a: a shift, plus the reduced overflow
        for _ in range(1, e):
            a = shifts[-1]
            shifts.append(add[a % lead * p, top[a // lead]])
        mul = np.zeros((q, q), dtype=np.int32)
        for b in range(1, q):
            i = 0
            while b % self._ppow[i + 1] == 0:
                i += 1
            mul[b] = add[mul[b - self._ppow[i]], shifts[i]]  # MUL is symmetric
        neg = sub[0].copy()
        inv = np.argmax(mul == 1, axis=1).astype(np.int32)  # row 0 has no 1: INV[0] = 0
        self._ADD_NP, self._SUB_NP, self._MUL_NP, self._NEG_NP, self._INV_NP = add, sub, mul, neg, inv
        self._ADD, self._SUB, self._MUL = add.ravel().tolist(), sub.ravel().tolist(), mul.ravel().tolist()
        self._NEG, self._INV = neg.tolist(), inv.tolist()

    # -- scalar operations on codes --------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._ADD[a * self.q + b]

    def sub(self, a: int, b: int) -> int:
        return self._SUB[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._NEG[a]

    def mul(self, a: int, b: int) -> int:
        return self._MUL[a * self.q + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._INV[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    # -- vectorized operations on numpy arrays of codes ------------------

    def arr_add(self, a, b) -> np.ndarray:
        return self._ADD_NP[np.asarray(a, dtype=np.int32), np.asarray(b, dtype=np.int32)]

    def arr_neg(self, a) -> np.ndarray:
        return self._NEG_NP[np.asarray(a, dtype=np.int32)]

    def arr_sub(self, a, b) -> np.ndarray:
        return self._SUB_NP[np.asarray(a, dtype=np.int32), np.asarray(b, dtype=np.int32)]

    def arr_mul(self, a, b) -> np.ndarray:
        return self._MUL_NP[np.asarray(a, dtype=np.int32), np.asarray(b, dtype=np.int32)]

    def arr_inv(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int32)
        if (a == 0).any():
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._INV_NP[a]

    # -- polynomial-basis coefficients ----------------------------------------

    def from_coeffs(self, coeffs: Iterable[int]) -> int:
        """The code of the element with these little-endian coefficients."""
        coeffs = list(coeffs)
        if len(coeffs) > self.e:
            raise ValueError(f"at most {self.e} coefficients expected")
        return sum((c % self.p) * self._ppow[i] for i, c in enumerate(coeffs))

    def coeffs(self, code: int) -> tuple[int, ...]:
        return tuple(_digits(code, self.p, self.e))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.q})"
        mod = "+".join(
            ("x^%d" % i if i > 1 else "x") if c == 1 else f"{c}" + ("" if i == 0 else ("x" if i == 1 else f"x^{i}"))
            for i, c in reversed(list(enumerate(self.modulus)))
            if c
        )
        return f"GF({self.q}; {mod})"


def field_create(p: int, e: int = 1, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Create a validated GF(p^e).

    ``modulus`` is given as e+1 little-endian coefficients and must be monic
    and irreducible; when omitted, the deterministic default is used.
    """
    return FieldSpec(p, e, modulus)


# -- JSON ------------------------------------------------------------------


def field_header(field) -> dict:
    """The ``p``/``e``/``modulus`` header that every JSON format opens with.

    Takes a FieldSpec, or any record carrying the same three attributes.
    """
    return {"p": field.p, "e": field.e, "modulus": list(field.modulus)}


def field_from_header(d: dict) -> FieldSpec:
    """Rebuild the field named by a JSON header (see `field_header`)."""
    return FieldSpec(int(d["p"]), int(d["e"]), d["modulus"])


# byte -> 1 for an opening bracket, 2 for a closing one, 3 for a comma; and
# the step each kind takes the depth by
_JSON_KIND = np.zeros(256, dtype=np.uint8)
_JSON_KIND[[ord("["), ord("{")]] = 1
_JSON_KIND[[ord("]"), ord("}")]] = 2
_JSON_KIND[ord(",")] = 3
_JSON_STEP = np.array([0, 1, -1, 0], dtype=np.int32)


def _json_layout(obj) -> np.ndarray:
    """The ASCII bytes of ``json.dumps(obj, indent=2, sort_keys=True)``.

    The stdlib's indented encoder is pure Python; the compact one is in C.
    So the C encoder writes the compact text, whose only whitespace is the
    space after each key's colon, and one vectorised pass lays it out: every
    comma and bracket outside a string gets the encoder's newline and
    indent (after a comma or an opening bracket, before a closing one),
    except the pair of an empty ``[]`` or ``{}``.  A quote opens or closes
    a string unless an odd run of backslashes precedes it.
    """
    b = np.frombuffer(json.dumps(obj, sort_keys=True, separators=(",", ": ")).encode("ascii"), dtype=np.uint8)
    quote = (b == ord('"')).view(np.uint8)
    backslash = b == ord("\\")
    if backslash.any():
        # the run of backslashes before each quote starts after the last
        # other byte before it
        last = np.where(backslash, -1, np.arange(b.size))
        np.maximum.accumulate(last, out=last)
        at = np.flatnonzero(quote[1:]) + 1
        quote[at[(at - 1 - last[at - 1]) % 2 == 1]] = 0
    kind = _JSON_KIND[b]
    kind[np.bitwise_xor.accumulate(quote).view(bool)] = 0  # inside a string
    # an empty container, an opening bracket right before a closing one,
    # stays as it is and leaves every other depth as it is
    empty = np.flatnonzero((kind[:-1] == 1) & (kind[1:] == 2))
    kind[empty] = kind[empty + 1] = 0
    pos = np.flatnonzero(kind).astype(np.int32 if b.size < 1 << 31 else np.int64)
    kind = kind[pos]
    width = 1 + 2 * np.cumsum(_JSON_STEP[kind], dtype=np.int32)
    at = pos + (kind != 2)  # the inserted run goes before byte `at`
    total = b.size + int(width.sum(dtype=np.int64))
    index = np.int32 if total < 1 << 31 else np.int64
    # where each byte of the compact text lands: one step per byte plus the
    # width inserted before it
    dest = np.ones(b.size, dtype=index)
    dest[0] = 0
    dest[at] += width
    np.cumsum(dest, out=dest)
    out = np.full(total, ord(" "), dtype=np.uint8)
    out[dest] = b
    out[dest[at] - width] = ord("\n")
    return out


def json_text(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, through the C
    encoder (see `_json_layout`)."""
    return str(_json_layout(obj), "ascii")


def write_json(path, payload: dict) -> None:
    """Write payload as indented JSON with sorted keys and a final newline
    (the bytes of ``json_text(payload) + "\\n"``)."""
    with open(path, "wb") as fh:
        fh.write(_json_layout(payload))
        fh.write(b"\n")

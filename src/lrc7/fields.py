"""Exact arithmetic in finite fields GF(p^e).

An element of GF(p^e) is stored as an integer code in [0, q): the element
with polynomial-basis coefficients (c0, c1, ..., c_{e-1}) has code
sum(c_i * p**i).  Codes are canonical, so two elements are equal exactly
when their codes are equal, and the code doubles as the serialization
format used by the JSON exports.

Every field gets dense q x q lookup tables for addition, subtraction and
multiplication, plus negation and inversion tables; both the scalar
operations and the numpy array operations read them, and `pow` squares
and multiplies through them.  The tables are built in one numpy pass from
the digits of the codes: addition and subtraction digit-wise modulo p,
multiplication from the products a * x^i (each a shift of the previous one,
reduced by the modulus), negation and inversion read off the others.
Everything is exact integer arithmetic -- there is no floating point
anywhere.

The tables also decide whether a modulus of degree e > 1 gives a field.  A
root in GF(p) splits off a linear factor, so such a modulus is refused
before any table is built; otherwise the tables are built and the modulus
is kept exactly when every nonzero code has an inverse, which holds just
when the modulus is irreducible.  The default modulus is the first monic
candidate kept, lower coefficients by ascending code.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

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
            candidates = (tuple(_digits(low, p, e)) + (1,) for low in range(p**e))
        else:
            modulus = list(modulus)
            if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in modulus):
                raise ValueError(f"modulus coefficients must be integers, got {modulus!r}")
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e, given as e+1 coefficients")
            candidates = [(0, 1) if e == 1 else modulus]  # prime field: the modulus is ignored
        self.p = p
        self.e = e
        self.q = q
        self._ppow = tuple(p**i for i in range(e + 1))
        for modulus in candidates:
            self.modulus = modulus
            if e > 1 and any(sum(c * a**i for i, c in enumerate(modulus)) % p == 0 for a in range(p)):
                continue  # a root splits off a linear factor
            self._build_tables()
            if self._INV_NP[1:].all():  # a field: every nonzero code has an inverse
                break
        else:
            raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")

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
            ("" if c == 1 and i else str(c)) + ("" if i == 0 else "x" if i == 1 else f"x^{i}")
            for i, c in reversed(list(enumerate(self.modulus)))
            if c
        )
        return f"GF({self.q}; {mod})"


def field_create(p: int, e: int = 1, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Create a validated GF(p^e).

    ``modulus`` is given as e+1 little-endian coefficients and must be monic
    and irreducible (ValueError otherwise; it is ignored when e = 1).  When
    omitted, the default is the first monic irreducible with its lower
    coefficients by ascending code, (0, 1) when e = 1.
    """
    return FieldSpec(p, e, modulus)


# -- JSON ------------------------------------------------------------------


def field_header(field: FieldSpec) -> dict:
    """The ``p``/``e``/``modulus`` header that every JSON format opens with."""
    return {"p": field.p, "e": field.e, "modulus": list(field.modulus)}


def field_from_header(d, kind: str, *keys: str) -> tuple:
    """Read a JSON object of the format named `kind` (sequence, trace or
    matrix): returns the field its header names (see `field_header`) and
    then ``d[key]`` for each of `keys`.

    p, e and the modulus entries must be JSON integers as written: 2.7, "2"
    or true is refused, not coerced.  When "q" is among the keys, it must
    be the JSON integer p**e.  Any other check of the keys is the caller's.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{kind} JSON must be an object, got {type(d).__name__}")
    try:
        p, e, modulus = d["p"], d["e"], d["modulus"]
        if not (isinstance(modulus, list) and set(map(type, [p, e, *modulus])) <= {int}):
            raise ValueError("field header p, e and modulus must hold JSON integers")
        field = FieldSpec(p, e, modulus)
        values = [d[key] for key in keys]
    except KeyError as exc:
        raise ValueError(f"{kind} JSON is missing key {exc}") from exc
    if "q" in keys and (type(d["q"]) is not int or d["q"] != field.q):
        raise ValueError(f"{kind} q must be the JSON integer p**e = {field.q}, got {d['q']!r}")
    return (field, *values)


def json_text(obj) -> str:
    """The text of every JSON artifact and printed object:
    ``json.dumps(obj, indent=2, sort_keys=True)``."""
    return json.dumps(obj, indent=2, sort_keys=True)


def json_key_order(ids: np.ndarray) -> np.ndarray:
    """The stable order in which `json_text` sorts the texts of int32 keys
    ("-" first, "10" before "2"), from one int64 key: the sign bit, the
    digits left-aligned to 10 places, and the width, as a text sorts before
    the longer texts it begins."""
    # arithmetic only, no np.abs or bit operators: a first call of a ufunc
    # loop the rest of a run never uses maps more of numpy's code (peak RSS)
    tens = 10 ** np.arange(10, dtype=np.int64)
    x = ids.astype(np.int64)
    a = np.where(x < 0, 0 - x, x)
    width = (a[:, None] >= tens[1:]).sum(axis=1) + 1
    return np.argsort((x >= 0) * 2**38 + a * tens[10 - width] * 16 + width, kind="stable")


def write_json(path, payload: dict) -> None:
    """Write ``json_text(payload)`` and a final newline."""
    with open(path, "wb") as fh:
        fh.write(json_text(payload).encode() + b"\n")


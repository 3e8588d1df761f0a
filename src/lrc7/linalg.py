"""Dense matrices and code arrays over a FieldSpec.

Entries are integer codes in numpy arrays, checked once at the boundary
(`_codes`); all eliminations are exact field arithmetic.  Includes the JSON
and CSV matrix formats shared by the CLI tools and the bundled fixtures.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional

import numpy as np

from .fields import FieldSpec, field_from_header, field_header, write_json


class AmbiguousSystemError(ValueError):
    """Linear system has more than one solution."""


class InconsistentSystemError(ValueError):
    """Linear system has no solution."""


def _codes(field: FieldSpec, x) -> np.ndarray:
    """x as a new C-ordered int32 array of codes, of any shape.

    Accepts only integer entries (an integer numpy dtype, or Python or numpy
    integers in a regular nesting) in [0, q), and raises ValueError for any
    other dtype (float, string, bool, object), a ragged nesting or a code
    out of range.  numpy reads a bool nested among integers as 0 or 1;
    `codec._symbols` refuses those in messages and received words.  An
    empty input has no entry to check.
    """
    try:
        arr = np.asarray(x)
    except ValueError as exc:
        raise ValueError(f"codes must form a regular array: {exc}") from exc
    if arr.size:
        if arr.dtype.kind not in "iu":
            raise ValueError(f"codes must be integers, got {arr.dtype} entries")
        if arr.min() < 0 or arr.max() >= field.q:
            raise ValueError(f"code out of range for {field!r}")
    return arr.astype(np.int32, order="C")


class MatrixF:
    """Immutable dense matrix over a field (row-major integer codes)."""

    __slots__ = ("field", "array")

    def __init__(self, field: FieldSpec, entries):
        arr = _codes(field, entries)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("matrix must be two-dimensional and non-empty")
        arr.setflags(write=False)
        self.field = field
        self.array = arr

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def transpose(self) -> "MatrixF":
        return MatrixF(self.field, self.array.T)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatrixF":
        return cls(field, np.eye(n, dtype=np.int32))

    @classmethod
    def zeros(cls, field: FieldSpec, m: int, n: int) -> "MatrixF":
        return cls(field, np.zeros((m, n), dtype=np.int32))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixF):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"MatrixF({self.field!r}, shape={self.array.shape})"


def _rref(field: FieldSpec, arr: np.ndarray):
    """Reduced row echelon form; returns (R, pivot column list)."""
    R = arr.astype(np.int32).copy()
    m, n = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        v = int(R[r, c])
        if v != 1:
            R[r] = field.arr_mul(R[r], field.inv(v))
        f = R[:, c].copy()
        f[r] = 0
        other = np.nonzero(f)[0]
        if other.size:
            R[other] = field.arr_sub(R[other], field.arr_mul(f[other][:, None], R[r][None, :]))
        pivots.append(c)
        r += 1
    return R, pivots


def rank(M: MatrixF) -> int:
    """Rank via exact row reduction."""
    return len(_rref(M.field, M.array)[1])


def _kernel_codes(field: FieldSpec, arr: np.ndarray) -> np.ndarray:
    """Basis of the right null space of arr as a code array, one row per
    non-pivot column j (1 at j, minus column j of the reduced rows at the
    pivots); it has no rows when arr has full column rank."""
    R, pivots = _rref(field, arr)
    free = [j for j in range(arr.shape[1]) if j not in pivots]
    basis = np.zeros((len(free), arr.shape[1]), dtype=np.int32)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.arr_neg(R[: len(pivots)][:, free].T)
    return basis


def kernel_basis(M: MatrixF) -> np.ndarray:
    """Basis of the right null space as a (k, n) int32 code array, one row
    per basis vector; it has no rows when M has full column rank."""
    return _kernel_codes(M.field, M.array)


def solve_columns(field: FieldSpec, arr: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve arr @ X = rhs for the unique X (codes), one column of X per
    column of a 2-D rhs (a 1-D rhs gives a 1-D x).

    Raises InconsistentSystemError when some column has no solution and
    AmbiguousSystemError when the solutions are not unique.
    """
    arr = np.asarray(arr, dtype=np.int32)
    rhs = np.asarray(rhs, dtype=np.int32)
    ncols = arr.shape[1]
    R, pivots = _rref(field, np.concatenate([arr, rhs.reshape(arr.shape[0], -1)], axis=1))
    if pivots and pivots[-1] >= ncols:
        raise InconsistentSystemError("no solution")
    if len(pivots) < ncols:
        raise AmbiguousSystemError("solution is not unique")
    # full column rank: the pivots are columns 0..ncols-1, in order
    X = R[:ncols, ncols:]
    return X if rhs.ndim == 2 else X[:, 0]


def _solve_stack(field: FieldSpec, A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stack of systems A[t] @ x = b[t] (A of shape (T, m, f), b of
    shape (T, m)) by one Gauss-Jordan elimination of [A[t] | b[t]] for all t,
    each matrix taking its own pivot rows.

    Returns (x, unique): x[t] is the solution where unique[t], and zeros
    where some column of A[t] has no pivot (several solutions, as always
    when f > m).  Raises InconsistentSystemError when some system has no
    solution, as `solve_columns` does.  The working copy and temporaries are
    a few times the size of the stack, so callers bound T.
    """
    T, m, f = A.shape
    R = np.concatenate([A, b[:, :, None]], axis=2).astype(np.int32, copy=False)
    mul, sub, inv = field._MUL_NP, field._SUB_NP, field._INV_NP
    rows = np.arange(m)
    r = np.zeros(T, dtype=np.intp)  # pivots found so far, per matrix
    unique = np.ones(T, dtype=bool)
    for c in range(f):
        cand = (R[:, :, c] != 0) & (rows >= r[:, None])
        found = cand.any(axis=1)
        unique &= found
        s = np.flatnonzero(found)
        rs, ps = r[s], cand[s].argmax(axis=1)
        piv = R[s, ps]
        R[s, ps] = R[s, rs]
        piv = mul[inv[piv[:, c]][:, None], piv]
        R[s, rs] = piv
        fac = R[s, :, c]
        fac[np.arange(s.size), rs] = 0
        R[s] = sub[R[s], mul[fac[:, :, None], piv[:, None, :]]]
        r[s] += 1
    if ((R[:, :, f] != 0) & (rows >= r[:, None])).any():
        raise InconsistentSystemError("no solution")
    x = np.zeros((T, f), dtype=np.int32)
    if f <= m:  # a unique system has its pivots on rows 0..f-1, in order
        x[unique] = R[unique, :f, f]
    return x, unique


def _matmul_codes(field: FieldSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over the field on raw code arrays, one table lookup per inner index."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int32)
    for t in range(A.shape[1]):
        out = field.arr_add(out, field.arr_mul(A[:, t][:, None], B[t][None, :]))
    return out


def matmul(A: MatrixF, B: MatrixF) -> MatrixF:
    """Exact matrix product over the shared field."""
    if A.field != B.field:
        raise ValueError("operands belong to different fields")
    if A.cols != B.rows:
        raise ValueError("inner dimensions do not match")
    return MatrixF(A.field, _matmul_codes(A.field, A.array, B.array))


# -- small pure-Python eliminations (hot paths on short tuples) -----------


def _echelon_step(field: FieldSpec, vec, ech):
    """Reduce vec against echelon rows (pivot, inverse of the lead, row).

    Returns vec's own row (pivot, inverse of its lead, reduced vec), or None
    when vec lies in the span of ech.  Rows are never normalised; the step
    reads the tables behind FieldSpec.sub/mul/inv directly.
    """
    q, sub, mul = field.q, field._SUB, field._MUL
    for piv, ilead, row in ech:
        f = vec[piv]
        if f:
            f = mul[f * q + ilead] * q
            vec = [sub[x * q + mul[f + y]] for x, y in zip(vec, row)]
    for piv, x in enumerate(vec):
        if x:
            return piv, field._INV[x], vec
    return None


def small_rank(field: FieldSpec, rows) -> int:
    """Rank of a short list of code tuples (pure-Python elimination)."""
    ech = []
    for vec in rows:
        step = _echelon_step(field, vec, ech)
        if step is not None:
            ech.append(step)
    return len(ech)


# -- serialization ---------------------------------------------------------


def matrix_to_json_dict(M: MatrixF, extra: Optional[dict] = None) -> dict:
    d = {
        **field_header(M.field),
        "rows": M.rows,
        "cols": M.cols,
        "entries": [[int(x) for x in row] for row in M.array],
    }
    if extra:
        for key, val in extra.items():
            if key in d:
                raise ValueError(f"extra key {key!r} collides with the matrix format")
            d[key] = val
    return d


def matrix_from_json_dict(d: dict) -> tuple[MatrixF, dict]:
    """Parse the matrix format; returns the matrix and any extra keys."""
    try:
        field = field_from_header(d)
        entries = d["entries"]
        rows, cols = int(d["rows"]), int(d["cols"])
    except KeyError as exc:
        raise ValueError(f"matrix JSON is missing key {exc}") from exc
    M = MatrixF(field, entries)
    if (M.rows, M.cols) != (rows, cols):
        raise ValueError("declared rows/cols do not match the entries")
    extras = {k: v for k, v in d.items() if k not in ("p", "e", "modulus", "rows", "cols", "entries")}
    return M, extras


def save_matrix_json(path, M: MatrixF, extra: Optional[dict] = None) -> None:
    write_json(path, matrix_to_json_dict(M, extra))


def load_matrix_json(path) -> tuple[MatrixF, dict]:
    return matrix_from_json_dict(json.loads(Path(path).read_text()))


def save_matrix_csv(path, M: MatrixF) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in M.array:
            writer.writerow(int(x) for x in row)


def load_matrix_csv(path, field: FieldSpec) -> MatrixF:
    with open(path, newline="") as fh:
        rows = [[int(x) for x in row] for row in csv.reader(fh) if row]
    return MatrixF(field, rows)

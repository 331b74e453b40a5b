"""Interval matrices and the point linear algebra used around them.

Point matrices are ``numpy.complex128`` arrays or, in the kernels' form,
lists of rows of Python complex (``intervals.point_rows``); every function
here takes either, and returns point results as arrays.  An interval
matrix, like ``Box``, keeps rows of kernel rectangles
(``intervals.KernelRows``); ``data``, the same values as a float64 array
of shape (rows, cols, 4), is built from them when first asked for.  The
kernels are the scalar ones of ``_kernels``, except the residual I - Y*M
of a matrix with ``WIDE_N`` rows or more, which ``_batch`` forms as one
array computation with the same bits.
"""

import cmath
from itertools import chain

import numpy as np

from . import _batch
from . import _kernels as _k
from .errors import DimensionMismatch, NonFiniteEndpoint, SingularMatrix
from .intervals import Box, KernelRows, check_rects, point_list, point_rows

_chain = chain.from_iterable

# Smallest n for which the residual is the array computation.  With the
# operands as the tracker holds them (Y as rows, the Jacobian enclosure
# as kernel rows), one residual takes 73-81 us on the scalar kernel
# against 75-83 us on the array one at n = 4, 143-154 against 102-111 us
# at n = 5 and 539-593 against 183-208 us at n = 8 (BENCH_27.json): the
# array residual, which pays for reading its operands' rows and listing
# its result, first wins at n = 5.
WIDE_N = 5


class IntervalMatrix(KernelRows):
    """Rows of complex rectangles (``KernelRows``); ``IntervalMatrix(data)``
    checks an (r, c, 4) array of finite nonempty rectangles."""

    __slots__ = ()

    def __init__(self, data):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[2] != 4:
            raise DimensionMismatch(
                f"interval matrix data must be (r, c, 4), got {data.shape}")
        rows = data.tolist()
        check_rects(list(_chain(rows)), "interval matrix", "entry")
        self.rows = rows
        self._data = None

    @property
    def shape(self):
        return len(self.rows), len(self.rows[0]) if self.rows else 0

    def norm(self):
        return _k.inorm_k(self.rows)

    def __repr__(self):
        return f"IntervalMatrix(shape={self.shape})"


def _shape(a):
    return (len(a), len(a[0])) if a else (0,)


def _square(a, n=None):
    """a has n rows of n entries each (n = its row count by default)."""
    n = len(a) if n is None else n
    return len(a) == n and all(len(row) == n for row in a)


def mid_inverse(a, rhs=None):
    """Approximate inverse Y of a complex point matrix via LU.

    With a right-hand side rhs, returns (Y, x), where x solves A x = rhs
    with the same factorization.  Raises SingularMatrix when a pivot
    falls below 1e-300.
    """
    a = point_rows(a)
    if not a or not _square(a):
        raise DimensionMismatch(f"expected square matrix, got {_shape(a)}")
    if not all(cmath.isfinite(z) for row in a for z in row):
        raise NonFiniteEndpoint("matrix has non-finite entries")
    lu, piv, ok = _k.lu_factor_k(a)
    if not ok:
        raise SingularMatrix("pivot below threshold in LU inverse")
    y = np.array(_k.lu_inverse_k(lu, piv), dtype=np.complex128)
    if rhs is None:
        return y
    rhs = point_list(rhs)
    if len(rhs) != len(a):
        raise DimensionMismatch(f"right-hand side of length {len(rhs)} for "
                                f"a {_shape(a)} matrix")
    return y, np.array(_k.lu_apply_k(lu, piv, rhs), dtype=np.complex128)


def solve_point(a, b):
    """Solve A x = b for complex point data via the same pivoted LU."""
    a = point_rows(a)
    b = point_list(b)
    if not _square(a, len(b)):
        raise DimensionMismatch(f"bad solve shapes {_shape(a)}, ({len(b)},)")
    lu, piv, ok = _k.lu_factor_k(a)
    if not ok:
        raise SingularMatrix("pivot below threshold in LU solve")
    return np.array(_k.lu_apply_k(lu, piv, b), dtype=np.complex128)


def residual_matrix(y, m):
    """Interval matrix I - Y @ M for a point matrix Y and interval M."""
    y = point_rows(y)
    r, c = m.shape
    if r != c or not _square(y, r):
        raise DimensionMismatch(
            f"residual needs square shapes, got {_shape(y)} and {m.shape}")
    if r < WIDE_N:
        return IntervalMatrix.of_rows(_k.residual_k(y, m.rows))
    # read the operands' rows straight into flat arrays (np.array on
    # nested lists costs twice as much) and list the result's rows
    ya = np.fromiter(_chain(y), np.complex128, r * r).reshape(1, r, r)
    ma = np.fromiter(_chain(_chain(m.rows)), np.float64, 4 * r * r)
    with np.errstate(all="ignore"):
        out = _batch.residual(ya, ma.reshape(r * r, 4).T.reshape(4, 1, r, r))
    return IntervalMatrix.of_rows(out[:, 0].transpose(1, 2, 0).tolist())


def imatvec(m, v):
    """Interval matrix times interval vector (a Box), outward rounded."""
    r, c = m.shape
    if v.n != c:
        raise DimensionMismatch(f"matvec shapes {m.shape} and {v.n} differ")
    return Box.of_rows(_k.imatvec_k(m.rows, v.rows))


def point_matvec_box(y, v):
    """Point matrix times interval vector, outward rounded."""
    y = point_rows(y)
    if not y or any(len(row) != v.n for row in y):
        raise DimensionMismatch(
            f"matvec shapes {_shape(y)} and {v.n} differ")
    return Box.of_rows(_k.pmatvec_k(y, v.rows))

"""Interval matrices and the point linear algebra used around them.

Point matrices are plain ``numpy.complex128`` arrays.  Interval matrices
wrap a float64 array of shape (rows, cols, 4) with the same rectangle
layout as ``Box`` rows.  The kernels are the scalar ones of ``_kernels``,
except the residual I - Y*M of a matrix with ``WIDE_N`` rows or more,
which ``_batch`` forms as one array computation with the same bits.
"""

import numpy as np

from . import _batch
from . import _kernels as _k
from .errors import (
    DimensionMismatch,
    EmptyInterval,
    NonFiniteEndpoint,
    SingularMatrix,
)
from .intervals import Box, ComplexInterval

# Smallest n for which the residual is the array computation.  Per call
# at one matrix, the array residual takes 83 us against the scalar one's
# 100 us at n = 4, and 101 against 231 us at n = 5 (ROADMAP.md, residual
# branch), so it already wins at n = 4.  The switch stays at 5 because
# moving it gains less than the benchmark can resolve (a parked item).
WIDE_N = 5


class IntervalMatrix:
    """Matrix of complex rectangles, stored as float64 (rows, cols, 4)."""

    __slots__ = ("data",)

    def __init__(self, data, _validate=True):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[2] != 4:
            raise DimensionMismatch(
                f"interval matrix data must be (r, c, 4), got {data.shape}")
        if _validate:
            if not np.isfinite(data).all():
                raise NonFiniteEndpoint("interval matrix has non-finite endpoints")
            if (data[:, :, 0] > data[:, :, 1]).any() or \
                    (data[:, :, 2] > data[:, :, 3]).any():
                raise EmptyInterval("interval matrix has an empty entry")
        self.data = data

    @classmethod
    def from_point(cls, a):
        """Degenerate interval matrix at the complex point matrix a."""
        a = np.asarray(a, dtype=np.complex128)
        data = np.empty(a.shape + (4,), dtype=np.float64)
        data[..., 0] = a.real
        data[..., 1] = a.real
        data[..., 2] = a.imag
        data[..., 3] = a.imag
        return cls(data)

    @property
    def shape(self):
        return self.data.shape[:2]

    def entry(self, i, j):
        e = self.data[i, j]
        return ComplexInterval.from_endpoints(e[0], e[1], e[2], e[3])

    def norm(self):
        return _k.inorm_k(self.data)

    def contains_point(self, a):
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != self.shape:
            raise DimensionMismatch("matrix shapes differ")
        d = self.data
        return bool(
            (d[..., 0] <= a.real).all() and (a.real <= d[..., 1]).all()
            and (d[..., 2] <= a.imag).all() and (a.imag <= d[..., 3]).all())

    def __eq__(self, other):
        if not isinstance(other, IntervalMatrix):
            return NotImplemented
        return np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"IntervalMatrix(shape={self.shape})"


def mid_inverse(a):
    """Approximate inverse of a complex point matrix via LU.

    Raises SingularMatrix when a pivot falls below 1e-300.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected square matrix, got {a.shape}")
    if not np.isfinite(a.real).all() or not np.isfinite(a.imag).all():
        raise NonFiniteEndpoint("matrix has non-finite entries")
    y, ok = _k.lu_inverse_k(a)
    if not ok:
        raise SingularMatrix("pivot below threshold in LU inverse")
    return y


def solve_point(a, b):
    """Solve A x = b for complex point data via the same pivoted LU."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"bad solve shapes {a.shape}, {b.shape}")
    x, ok = _k.lu_solve_k(a, b)
    if not ok:
        raise SingularMatrix("pivot below threshold in LU solve")
    return x


def residual_matrix(y, m):
    """Interval matrix I - Y @ M for a point matrix Y and interval M."""
    y = np.ascontiguousarray(y, dtype=np.complex128)
    r, c = m.shape
    if y.ndim != 2 or y.shape[0] != y.shape[1] or y.shape[1] != r or r != c:
        raise DimensionMismatch(
            f"residual needs square shapes, got {y.shape} and {m.shape}")
    if r < WIDE_N:
        return IntervalMatrix(_k.residual_k(y, m.data), _validate=False)
    with np.errstate(all="ignore"):
        out = _batch.residual(y[None], np.moveaxis(m.data, -1, 0)[:, None])
    return IntervalMatrix(np.moveaxis(out[:, 0], 0, -1), _validate=False)


def imatvec(m, v):
    """Interval matrix times interval vector (a Box), outward rounded."""
    r, c = m.shape
    if v.n != c:
        raise DimensionMismatch(f"matvec shapes {m.shape} and {v.n} differ")
    return Box(_k.imatvec_k(m.data, v.data), _validate=False)


def point_matvec_box(y, v):
    """Point matrix times interval vector, outward rounded."""
    y = np.ascontiguousarray(y, dtype=np.complex128)
    if y.shape[1] != v.n:
        raise DimensionMismatch(f"matvec shapes {y.shape} and {v.n} differ")
    return Box(_k.pmatvec_k(y, v.data), _validate=False)

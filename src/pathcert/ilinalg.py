"""Interval matrices and the point linear algebra used around them.

Point matrices are ``numpy.complex128`` arrays or, in the kernels' form,
lists of rows of Python complex (``intervals.point_rows``); every function
here takes either, and returns point results as arrays.  An interval
matrix, like ``intervals.Ball``, keeps its entries in midpoint-radius
form (``intervals.MidRad``): rows of complex centers and rows of radius
pairs, from which ``rows`` (kernel rectangles rounded outward) and
``data`` are built when asked for.  The products are the tail of a
Krawczyk test, and each computes in one pass of the scalar kernels of
``_kernels`` at every n: ``residual_matrix`` and ``point_matvec_box`` in
``sub_pmul_k``, ``imatvec`` in ``contract_k``, which also forms the
matrix's norm.
"""

import cmath
import math
from itertools import chain

import numpy as np

from . import _kernels as _k
from .errors import DimensionMismatch, NonFiniteEndpoint, SingularMatrix
from .intervals import Ball, MidRad, check_rects, point_list, point_rows

_chain = chain.from_iterable


class IntervalMatrix(MidRad):
    """Rows of complex rectangles in midpoint-radius form (``MidRad``).
    ``IntervalMatrix(data)`` checks an (r, c, 4) array of finite nonempty
    rectangles and holds each by its center and radii, rounded up."""

    __slots__ = ("_norm",)

    def __init__(self, data):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[2] != 4:
            raise DimensionMismatch(
                f"interval matrix data must be (r, c, 4), got {data.shape}")
        rows = data.tolist()
        check_rects(list(_chain(rows)), "interval matrix", "entry")
        pairs = [_k.midrad_k(row) for row in rows]
        self.mid = [m for m, _ in pairs]
        self.rad = [r for _, r in pairs]
        self._data = None

    @property
    def shape(self):
        return len(self.mid), len(self.mid[0]) if self.mid else 0

    def norm(self):
        """Largest row sum of the entries' magnitude bounds, rounded up
        (``_kernels.contract_k``).  ``imatvec`` forms it in the pass that
        multiplies, and keeps it here."""
        try:
            return self._norm
        except AttributeError:
            _, self._norm = _k.contract_k(self.mid, self.rad,
                                          [(0.0, 0.0)] * self.shape[1])
            return self._norm

    def _rects(self):
        return [_k.rects_k(m, r) for m, r in zip(self.mid, self.rad)]

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
    return IntervalMatrix.of_midrad(
        *_k.sub_pmul_k(y, zip(*m.mid), zip(*m.rad), True))


def imatvec(m, v):
    """Interval matrix times interval vector (a Ball or a Box) as a Ball.

    M*v = M*c + M*(v - c) for the centers c of v: the first is the point
    product (``_kernels.sub_pmul_k``), and v - c is centered at 0, so the
    second is ``_kernels.contract_k``, whose pass also gives M's norm.  A
    vector centered at 0, such as the Krawczyk test's I - x, needs no
    point product.
    """
    v = v.ball()
    r, c = m.shape
    if v.n != c:
        raise DimensionMismatch(f"matvec shapes {m.shape} and {v.n} differ")
    rad, m._norm = _k.contract_k(m.mid, m.rad, v.rad)
    if not any(v.mid):
        return Ball.of_midrad([0j] * r, rad)
    mid, prad = _k.sub_pmul_k([v.mid], m.mid, m.rad, False)
    up = math.inf
    return Ball.of_midrad(
        [-z for z in mid[0]],
        [(math.nextafter(a + b, up), math.nextafter(p + q, up))
         for (a, p), (b, q) in zip(rad, prad[0])])


def point_matvec_box(y, v):
    """Point matrix times interval vector (a Ball or a Box) as a Ball."""
    y = point_rows(y)
    v = v.ball()
    if not y or any(len(row) != v.n for row in y):
        raise DimensionMismatch(
            f"matvec shapes {_shape(y)} and {v.n} differ")
    mid, rad = _k.sub_pmul_k(y, [v.mid], [v.rad], False)
    return Ball.of_midrad([-row[0] for row in mid], [row[0] for row in rad])

"""Time windows, and boxes of complex rectangles over C^n.

A time window is a ``RealInterval``, a closed segment [lo, hi] of finite
binary64 numbers; it carries no arithmetic.  A complex rectangle
[re_lo, re_hi] + i*[im_lo, im_hi] is the kernels' 4-tuple, and a box is a
vector of them, kept as the kernels' rows whoever made the box
(``KernelRows``); ``data``, the same values as a float64 array of shape
(n, 4), is built from the rows when first asked for.

The arithmetic on rectangles is the kernels' in ``_kernels``, which widen
every result outward by one ulp per endpoint, so the returned set always
encloses the exact image of the operands; a box adds and subtracts with
them.  ``point_list`` and ``point_rows`` give the kernels' form of a
complex vector and of a point matrix.
"""

import math

import numpy as np

from . import _kernels as _k
from .errors import (
    DimensionMismatch,
    EmptyInterval,
    NonFiniteEndpoint,
    NonPositiveRadius,
)

_INF = math.inf
_isfinite = math.isfinite


class RealInterval:
    """Closed real interval [lo, hi] of finite endpoints: a time window."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if not (_isfinite(lo) and _isfinite(hi)):
            raise NonFiniteEndpoint(f"non-finite endpoints [{lo}, {hi}]")
        if lo > hi:
            raise EmptyInterval(f"lower endpoint {lo} exceeds upper {hi}")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if not isinstance(other, RealInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __repr__(self):
        return f"RealInterval({self.lo!r}, {self.hi!r})"


def point_list(x):
    """A complex vector as a list of Python complex, the kernels' form.

    A list is taken to be in that form and passes as it is; anything else
    goes through a complex128 array, which must be one-dimensional.
    """
    if type(x) is list:
        return x
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {x.shape}")
    return x.tolist()


def point_rows(a):
    """A point matrix as a list of rows of Python complex, the kernels'
    form.  A list is taken to be in that form and passes as it is;
    anything else goes through a complex128 array, which must be
    two-dimensional."""
    if type(a) is list:
        return a
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    return a.tolist()


def check_rects(rects, what, part="component"):
    """Raise NonFiniteEndpoint, then EmptyInterval, unless every rectangle
    of the list ``rects`` is finite and nonempty; messages name ``what``."""
    for lo, hi, ilo, ihi in rects:
        if not (_isfinite(lo) and _isfinite(hi) and _isfinite(ilo)
                and _isfinite(ihi)):
            raise NonFiniteEndpoint(f"{what} has non-finite endpoints")
    for lo, hi, ilo, ihi in rects:
        if lo > hi or ilo > ihi:
            raise EmptyInterval(f"{what} has an empty {part}")


class KernelRows:
    """Storage of ``Box`` and ``ilinalg.IntervalMatrix``: ``rows``, the
    kernels' rectangles (a list of them for a box, a list of lists for a
    matrix), whoever made the object.  ``data`` is the same values as a
    float64 array, built on first use and kept; the rows must not change
    after that."""

    __slots__ = ("rows", "_data")

    @classmethod
    def of_rows(cls, rows):
        """The object over nonempty kernel rows, unchecked."""
        obj = cls.__new__(cls)
        obj.rows = rows
        obj._data = None
        return obj

    @property
    def data(self):
        if self._data is None:
            self._data = np.array(self.rows, dtype=np.float64)
        return self._data

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.data, other.data)


class Box(KernelRows):
    """Vector of complex rectangles; the basic enclosure over C^n, kept
    as a list of rectangles (``KernelRows``).  ``Box(data)`` checks that
    data is an (n, 4) array, n >= 1, of finite nonempty rectangles."""

    __slots__ = ()

    def __init__(self, data):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != 4 or data.shape[0] == 0:
            raise DimensionMismatch(f"box data must be (n, 4), got {data.shape}")
        rows = data.tolist()
        check_rects(rows, "box")
        self.rows = rows
        self._data = None

    @classmethod
    def degenerate(cls, x):
        """Zero-width box at the point vector x (no widening)."""
        rows = [(z.real, z.real, z.imag, z.imag) for z in point_list(x)]
        if not rows:
            raise DimensionMismatch("box data must be (n, 4), got (0, 4)")
        check_rects(rows, "box")
        return cls.of_rows(rows)

    def __repr__(self):
        return f"Box({self.data!r})"

    @property
    def n(self):
        return len(self.rows)

    def contains_point(self, x):
        x = point_list(x)
        if len(x) != self.n:
            raise DimensionMismatch("point dimension differs from box")
        for r, z in zip(self.rows, x):
            if not (r[0] <= z.real <= r[1] and r[2] <= z.imag <= r[3]):
                return False
        return True

    def encloses(self, other):
        if other.n != self.n:
            raise DimensionMismatch("box dimensions differ")
        for p, q in zip(self.rows, other.rows):
            if q[0] < p[0] or q[1] > p[1] or q[2] < p[2] or q[3] > p[3]:
                return False
        return True

    def __add__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("box dimensions differ")
        return Box.of_rows(_k.box_add(self.rows, other.rows))

    def __sub__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("box dimensions differ")
        return Box.of_rows(_k.box_sub(self.rows, other.rows))


def box_centered(x, r):
    """Square box of radius r around the point vector x.

    Every entry encloses x_i + [-r, r] + i[-r, r]; endpoints are widened
    outward so containment survives rounding.
    """
    if not (r > 0.0) or not math.isfinite(r):
        raise NonPositiveRadius(f"radius must be positive and finite, got {r}")
    x = point_list(x)
    if not x:
        raise DimensionMismatch("center must be a nonempty vector")
    r = float(r)
    nxt = math.nextafter
    return Box.of_rows([(nxt(z.real - r, -_INF), nxt(z.real + r, _INF),
                         nxt(z.imag - r, -_INF), nxt(z.imag + r, _INF))
                        for z in x])

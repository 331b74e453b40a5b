"""Time windows, boxes of complex rectangles over C^n, and balls.

A time window is a ``RealInterval``, a closed segment [lo, hi] of finite
binary64 numbers; it carries no arithmetic.  A complex rectangle
[re_lo, re_hi] + i*[im_lo, im_hi] is the kernels' 4-tuple, and a box is a
vector of them, kept as the kernels' rows whoever made the box; ``data``,
the same values as a float64 array of shape (n, 4), is built from the rows
when first asked for.  Boxes are what a test certifies and a certificate
stores, and a Krawczyk image is a box.

A ``Ball`` is a vector of the same rectangles held by their centers and
the radii of their parts (``MidRad``): the form in which the operator's
enclosures and mat-vecs compute (``_kernels.sub_pmul_k``), whose centers
are plain complex floats and whose radii carry one a priori rounding
bound per dot product.  ``Box.ball`` and ``ball_about`` make balls from
boxes.  ``point_list`` and ``point_rows`` give the kernels' form of a
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


class Box:
    """Vector of complex rectangles; the basic enclosure over C^n, kept
    as the kernels' list of rectangles, ``rows``, whoever made the box.
    ``data`` is the same values as a float64 array of shape (n, 4), built
    on first use and kept; the rows must not change after that.
    ``Box(data)`` checks that data is an (n, 4) array, n >= 1, of finite
    nonempty rectangles."""

    __slots__ = ("rows", "_data")

    def __init__(self, data):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != 4 or data.shape[0] == 0:
            raise DimensionMismatch(f"box data must be (n, 4), got {data.shape}")
        rows = data.tolist()
        check_rects(rows, "box")
        self.rows = rows
        self._data = None

    @classmethod
    def of_rows(cls, rows):
        """The box over nonempty kernel rows, unchecked."""
        obj = cls.__new__(cls)
        obj.rows = rows
        obj._data = None
        return obj

    @classmethod
    def degenerate(cls, x):
        """Zero-width box at the point vector x (no widening)."""
        rows = [(z.real, z.real, z.imag, z.imag) for z in point_list(x)]
        if not rows:
            raise DimensionMismatch("box data must be (n, 4), got (0, 4)")
        check_rects(rows, "box")
        return cls.of_rows(rows)

    @property
    def data(self):
        if self._data is None:
            self._data = np.array(self.rows, dtype=np.float64)
        return self._data

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"Box({self.data!r})"

    @property
    def n(self):
        return len(self.rows)

    def ball(self):
        """The same rectangles in midpoint-radius form, radii rounded up."""
        return Ball.of_midrad(*_k.midrad_k(self.rows))

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


class MidRad:
    """Storage of ``Ball`` and ``ilinalg.IntervalMatrix``: entries in
    the kernels' midpoint-radius form (``_kernels.midrad_k``), ``mid``
    the complex centers and ``rad`` the pairs (real radius, imaginary
    radius), a list of each for a vector and a list of rows for a matrix.
    ``rows`` gives the same entries as kernel rectangles rounded outward,
    and ``data`` those as a float64 array, built on first use."""

    __slots__ = ("mid", "rad", "_data")

    @classmethod
    def of_midrad(cls, mid, rad):
        """The object over centers and radius pairs, unchecked."""
        obj = cls.__new__(cls)
        obj.mid = mid
        obj.rad = rad
        obj._data = None
        return obj

    @property
    def rows(self):
        return self._rects()

    @property
    def data(self):
        if self._data is None:
            self._data = np.array(self.rows, dtype=np.float64)
        return self._data


class Ball(MidRad):
    """Vector of complex rectangles in midpoint-radius form (``MidRad``):
    what the enclosures of H and the operator's mat-vecs return."""

    __slots__ = ()

    @property
    def n(self):
        return len(self.mid)

    def ball(self):
        return self

    def _rects(self):
        return _k.rects_k(self.mid, self.rad)


def ball_about(box, x):
    """The ball centered at 0 that holds box - x: its radii are the
    distances from the point x to the box's far sides, rounded up
    (``_kernels.box_radii``)."""
    return Ball.of_midrad([0j] * box.n, _k.box_radii(box.rows, x))


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

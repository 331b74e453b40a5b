"""Rectangular interval arithmetic over R and C, and boxes over C^n.

A real interval is a closed segment [lo, hi] of binary64 numbers.  A
complex interval is an axis-aligned rectangle re + i*im with real-interval
sides.  A box is a vector of complex intervals.  It holds the kernels'
rows (re_lo, re_hi, im_lo, im_hi) or the same values as a float64 array
of shape (n, 4), ``data``, and makes the other form on use
(``KernelRows``).

All arithmetic routes through the kernels in ``_kernels``, which widen
every result outward by one ulp per endpoint, so the returned set always
encloses the exact image of the operands.  ``point_list`` and
``point_rows`` give the kernels' form of a complex vector and of a point
matrix.
"""

import cmath
import math

import numpy as np

from . import _kernels as _k
from .errors import (
    DimensionMismatch,
    DivisionByIntervalContainingZero,
    EmptyInterval,
    NonFiniteEndpoint,
    NonPositiveRadius,
)

_INF = math.inf
_isfinite = math.isfinite


def _check_pair(lo, hi):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteEndpoint(f"non-finite endpoints [{lo}, {hi}]")
    if lo > hi:
        raise EmptyInterval(f"lower endpoint {lo} exceeds upper {hi}")


class RealInterval:
    """Closed real interval [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        _check_pair(lo, hi)
        self.lo = lo
        self.hi = hi

    @property
    def width(self):
        return math.nextafter(self.hi - self.lo, _INF)

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, x):
        return self.lo <= x <= self.hi

    def encloses(self, other):
        return self.lo <= other.lo and other.hi <= self.hi

    def __eq__(self, other):
        if not isinstance(other, RealInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"RealInterval({self.lo!r}, {self.hi!r})"

    def _coerce(self, other):
        if isinstance(other, RealInterval):
            return other
        if isinstance(other, (int, float)):
            return RealInterval(float(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealInterval(*_k.r_add(self.lo, self.hi, o.lo, o.hi))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealInterval(*_k.r_sub(self.lo, self.hi, o.lo, o.hi))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealInterval(*_k.r_sub(o.lo, o.hi, self.lo, self.hi))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealInterval(*_k.r_mul(self.lo, self.hi, o.lo, o.hi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.lo <= 0.0 <= o.hi:
            raise DivisionByIntervalContainingZero(
                f"denominator [{o.lo}, {o.hi}] contains 0")
        return RealInterval(*_k.r_div(self.lo, self.hi, o.lo, o.hi))

    def __neg__(self):
        return RealInterval(-self.hi, -self.lo)


class ComplexInterval:
    """Axis-aligned rectangle re + i*im in the complex plane."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        if not isinstance(re, RealInterval):
            re = RealInterval(re)
        if im is None:
            im = RealInterval(0.0)
        elif not isinstance(im, RealInterval):
            im = RealInterval(im)
        self.re = re
        self.im = im

    @classmethod
    def from_point(cls, z):
        z = complex(z)
        return cls(RealInterval(z.real), RealInterval(z.imag))

    @classmethod
    def from_endpoints(cls, re_lo, re_hi, im_lo, im_hi):
        return cls(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))

    def endpoints(self):
        return (self.re.lo, self.re.hi, self.im.lo, self.im.hi)

    @property
    def mag(self):
        """Upper bound on |z| over the rectangle."""
        return _k.c_mag(self.endpoints())

    @property
    def mid(self):
        return complex(self.re.mid, self.im.mid)

    @property
    def width(self):
        return max(self.re.width, self.im.width)

    def contains(self, z):
        z = complex(z)
        return self.re.contains(z.real) and self.im.contains(z.imag)

    def encloses(self, other):
        return self.re.encloses(other.re) and self.im.encloses(other.im)

    def __eq__(self, other):
        if not isinstance(other, ComplexInterval):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return (f"ComplexInterval([{self.re.lo!r}, {self.re.hi!r}], "
                f"[{self.im.lo!r}, {self.im.hi!r}])")

    def _coerce(self, other):
        if isinstance(other, ComplexInterval):
            return other
        if isinstance(other, (int, float, complex)):
            return ComplexInterval.from_point(other)
        if isinstance(other, RealInterval):
            return ComplexInterval(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexInterval.from_endpoints(
            *_k.c_add(self.endpoints(), o.endpoints()))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexInterval.from_endpoints(
            *_k.c_sub(self.endpoints(), o.endpoints()))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexInterval.from_endpoints(
            *_k.c_sub(o.endpoints(), self.endpoints()))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexInterval.from_endpoints(
            *_k.c_mul(self.endpoints(), o.endpoints()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        dl, dh = _k.c_den(o.endpoints())
        if dl <= 0.0 <= dh:
            raise DivisionByIntervalContainingZero(
                f"denominator rectangle {o!r} may contain 0")
        return ComplexInterval.from_endpoints(
            *_k.c_div(self.endpoints(), o.endpoints()))

    def __neg__(self):
        return ComplexInterval(-self.re, -self.im)


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


def all_finite(rows):
    """Every endpoint of a list of rectangles is finite."""
    for lo, hi, ilo, ihi in rows:
        if not (_isfinite(lo) and _isfinite(hi) and _isfinite(ilo)
                and _isfinite(ihi)):
            return False
    return True


class KernelRows:
    """Storage of ``Box`` and ``ilinalg.IntervalMatrix``: ``rows``, the
    kernels' rectangles, or ``data``, the same values as a float64 array.
    One made from rows builds its array on first use and keeps it; one
    made from an array lists its rows on each use and keeps only the
    array, as a certificate's segments and the verifier's boxes do."""

    __slots__ = ("_rows", "_data")

    @classmethod
    def of_rows(cls, rows):
        """The object over nonempty kernel rows, unchecked."""
        obj = cls.__new__(cls)
        obj._rows = rows
        obj._data = None
        return obj

    @property
    def rows(self):
        return self._data.tolist() if self._rows is None else self._rows

    def __len__(self):
        return len(self._data if self._rows is None else self._rows)

    @property
    def data(self):
        if self._data is None:
            self._data = np.array(self.rows, dtype=np.float64)
        return self._data


class Box(KernelRows):
    """Vector of complex intervals; the basic enclosure over C^n, as a
    list of rectangles (``KernelRows``) or an (n, 4) array."""

    __slots__ = ()

    def __init__(self, data, _validate=True):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != 4 or data.shape[0] == 0:
            raise DimensionMismatch(f"box data must be (n, 4), got {data.shape}")
        if _validate:
            if not np.isfinite(data).all():
                raise NonFiniteEndpoint("box has non-finite endpoints")
            if (data[:, 0] > data[:, 1]).any() or (data[:, 2] > data[:, 3]).any():
                raise EmptyInterval("box has an empty component")
        self._data = data
        self._rows = None

    @classmethod
    def from_entries(cls, entries):
        rows = [e.endpoints() for e in entries]
        return cls(np.array(rows, dtype=np.float64))

    @classmethod
    def degenerate(cls, x):
        """Zero-width box at the point vector x (no widening)."""
        x = point_list(x)
        if not x:
            raise DimensionMismatch("box data must be (n, 4), got (0, 4)")
        if not all(cmath.isfinite(z) for z in x):
            raise NonFiniteEndpoint("box has non-finite endpoints")
        return cls.of_rows([(z.real, z.real, z.imag, z.imag) for z in x])

    def __getitem__(self, i):
        r = self.rows[i]
        return ComplexInterval.from_endpoints(r[0], r[1], r[2], r[3])

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        return np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"Box({self.data!r})"

    def copy(self):
        return Box(self.data.copy(), _validate=False)

    @property
    def n(self):
        return len(self)

    def norm(self):
        """Max-norm upper bound: largest entry magnitude bound."""
        return _k.box_norm_k(self.rows)

    def widths(self):
        """(n, 2) array of re/im widths, rounded up."""
        return np.array([(math.nextafter(r[1] - r[0], _INF),
                          math.nextafter(r[3] - r[2], _INF))
                         for r in self.rows], dtype=np.float64)

    def radius(self):
        """Half the largest side width."""
        return 0.5 * float(self.widths().max())

    def midpoint(self):
        d = self.data
        return (0.5 * (d[:, 0] + d[:, 1]) + 1j * (0.5 * (d[:, 2] + d[:, 3])))

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

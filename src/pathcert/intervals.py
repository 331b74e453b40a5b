"""Rectangular interval arithmetic over R and C, and boxes over C^n.

A real interval is a closed segment [lo, hi] of binary64 numbers.  A
complex interval is an axis-aligned rectangle re + i*im with real-interval
sides.  A box is a vector of complex intervals, stored as a float64 array
of shape (n, 4) with rows (re_lo, re_hi, im_lo, im_hi).

All arithmetic routes through the kernels in ``_kernels``, which widen
every result outward by one ulp per endpoint, so the returned set always
encloses the exact image of the operands.
"""

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


class Box:
    """Vector of complex intervals; the basic enclosure over C^n."""

    __slots__ = ("data",)

    def __init__(self, data, _validate=True):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != 4 or data.shape[0] == 0:
            raise DimensionMismatch(f"box data must be (n, 4), got {data.shape}")
        if _validate:
            if not np.isfinite(data).all():
                raise NonFiniteEndpoint("box has non-finite endpoints")
            if (data[:, 0] > data[:, 1]).any() or (data[:, 2] > data[:, 3]).any():
                raise EmptyInterval("box has an empty component")
        self.data = data

    @classmethod
    def from_entries(cls, entries):
        rows = [e.endpoints() for e in entries]
        return cls(np.array(rows, dtype=np.float64))

    @classmethod
    def degenerate(cls, x):
        """Zero-width box at the point vector x (no widening)."""
        x = np.asarray(x, dtype=np.complex128)
        data = np.empty((x.shape[0], 4), dtype=np.float64)
        data[:, 0] = x.real
        data[:, 1] = x.real
        data[:, 2] = x.imag
        data[:, 3] = x.imag
        return cls(data)

    def __len__(self):
        return self.data.shape[0]

    def __getitem__(self, i):
        r = self.data[i]
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
        return self.data.shape[0]

    def norm(self):
        """Max-norm upper bound: largest entry magnitude bound."""
        return _k.box_norm_k(self.data)

    def widths(self):
        """(n, 2) array of re/im widths, rounded up."""
        w = np.empty((self.n, 2))
        for i in range(self.n):
            w[i, 0] = math.nextafter(self.data[i, 1] - self.data[i, 0], _INF)
            w[i, 1] = math.nextafter(self.data[i, 3] - self.data[i, 2], _INF)
        return w

    def radius(self):
        """Half the largest side width."""
        return 0.5 * float(self.widths().max())

    def midpoint(self):
        d = self.data
        return (0.5 * (d[:, 0] + d[:, 1]) + 1j * (0.5 * (d[:, 2] + d[:, 3])))

    def contains_point(self, x):
        x = np.asarray(x, dtype=np.complex128)
        if x.shape[0] != self.n:
            raise DimensionMismatch("point dimension differs from box")
        d = self.data
        return bool(
            (d[:, 0] <= x.real).all() and (x.real <= d[:, 1]).all()
            and (d[:, 2] <= x.imag).all() and (x.imag <= d[:, 3]).all())

    def encloses(self, other):
        if other.n != self.n:
            raise DimensionMismatch("box dimensions differ")
        a, b = self.data, other.data
        return not ((b[:, 0] < a[:, 0]) | (b[:, 1] > a[:, 1])
                    | (b[:, 2] < a[:, 2]) | (b[:, 3] > a[:, 3])).any()

    def __add__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("box dimensions differ")
        return Box(_k.box_add(self.data, other.data), _validate=False)

    def __sub__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("box dimensions differ")
        return Box(_k.box_sub(self.data, other.data), _validate=False)


def box_centered(x, r):
    """Square box of radius r around the point vector x.

    Every entry encloses x_i + [-r, r] + i[-r, r]; endpoints are widened
    outward so containment survives rounding.
    """
    if not (r > 0.0) or not math.isfinite(r):
        raise NonPositiveRadius(f"radius must be positive and finite, got {r}")
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.shape[0] == 0:
        raise DimensionMismatch("center must be a nonempty vector")
    r = float(r)
    data = np.empty((x.shape[0], 4), dtype=np.float64)
    data[:, 0] = np.nextafter(x.real - r, -_INF)
    data[:, 1] = np.nextafter(x.real + r, _INF)
    data[:, 2] = np.nextafter(x.imag - r, -_INF)
    data[:, 3] = np.nextafter(x.imag + r, _INF)
    return Box(data, _validate=False)

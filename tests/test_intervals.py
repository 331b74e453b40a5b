"""Interval kernels and boxes: examples, rounding contract, soundness samples.

The scalar interval arithmetic is the kernels' (``_kernels``) on tuples:
(lo, hi) for a real interval and (re_lo, re_hi, im_lo, im_hi) for a
complex rectangle.  Endpoint arithmetic widens every result outward by one
ulp, so the named examples are checked as enclosures of the ideal result
together with a tightness bound of a couple of ulps, not as float
equality.
"""

import math

import numpy as np
import pytest

import tutil
from pathcert import _kernels as _k
from pathcert.errors import (
    DimensionMismatch,
    EmptyInterval,
    NonFiniteEndpoint,
    NonPositiveRadius,
)
from pathcert.intervals import Box, RealInterval, box_centered

INF = math.inf
OPS = {"+": _k.r_add, "-": _k.r_sub, "*": _k.r_mul}
COPS = {"+": _k.c_add, "-": _k.c_sub, "*": _k.c_mul}


def ulps_apart(a, b):
    """Number of representable doubles strictly between a and b."""
    count = 0
    x = min(a, b)
    hi = max(a, b)
    while x < hi and count < 64:
        x = math.nextafter(x, INF)
        count += 1
    return count


def assert_tight(iv, lo, hi, ulps=2):
    """iv = (lo, hi) encloses [lo, hi] with at most `ulps` of outward
    slack per side."""
    assert iv[0] <= lo and hi <= iv[1]
    assert ulps_apart(iv[0], lo) <= ulps
    assert ulps_apart(iv[1], hi) <= ulps


def width(iv):
    """hi - lo of an interval (lo, hi), rounded up."""
    return math.nextafter(iv[1] - iv[0], INF)


def encloses(outer, inner):
    """Every side of the interval or rectangle outer holds inner's."""
    return all(outer[k] <= inner[k] and inner[k + 1] <= outer[k + 1]
               for k in range(0, len(outer), 2))


class TestRealOps:
    def test_add_example(self):
        assert_tight(_k.r_add(1.0, 2.0, 3.0, 4.0), 4.0, 6.0)

    def test_sub_example(self):
        assert_tight(_k.r_sub(1.0, 2.0, 3.0, 4.0), -3.0, -1.0)

    def test_degenerate_times_one(self):
        for a in (0.1, -3.7, math.pi, 1e-12, 7.0):
            r = _k.r_mul(a, a, 1.0, 1.0)
            assert r[0] <= a <= r[1]
            assert width(r) <= 4 * math.ulp(abs(a) + 1e-300)

    def test_mul_example_brute_force(self):
        assert_tight(_k.r_mul(1.0, 2.0, -3.0, 4.0), -6.0, 8.0)

    def test_mul_matches_endpoint_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = tutil.random_real_interval(rng, 3.0)
            b = tutil.random_real_interval(rng, 3.0)
            prods = [tutil.fr(x) * tutil.fr(y) for x in a for y in b]
            r = _k.r_mul(*a, *b)
            assert tutil.fr(r[0]) <= min(prods)
            assert max(prods) <= tutil.fr(r[1])

    def test_div_endpoint_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a = tutil.random_real_interval(rng, 3.0)
            lo = rng.uniform(0.1, 2.0)
            b = (lo, lo + rng.uniform(0.0, 2.0))
            if rng.random() < 0.5:
                b = (-b[1], -b[0])
            quots = [tutil.fr(x) / tutil.fr(y) for x in a for y in b]
            r = _k.r_div(*a, *b)
            assert tutil.fr(r[0]) <= min(quots)
            assert max(quots) <= tutil.fr(r[1])

    def test_empty_interval_rejected(self):
        with pytest.raises(EmptyInterval):
            RealInterval(2.0, 1.0)
        with pytest.raises(NonFiniteEndpoint):
            RealInterval(math.nan, 1.0)

    def test_isotonicity(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            a = tutil.random_real_interval(rng, 2.0)
            b = tutil.random_real_interval(rng, 2.0)
            grow = float(rng.uniform(0, 1))
            a2 = (a[0] - grow, a[1] + grow)
            b2 = (b[0] - grow, b[1] + grow)
            for f in OPS.values():
                assert encloses(f(*a2, *b2), f(*a, *b))

    def test_degenerate_width_small(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            x = float(rng.standard_normal())
            y = float(rng.standard_normal())
            for f in OPS.values():
                r = f(x, x, y, y)
                scale = abs(x) + abs(y) + abs(r[0]) + 1e-300
                assert width(r) <= 4 * math.ulp(scale)


def corner_range(x, y):
    """Exact [min, max] of u*v over u in the real interval x and v in y,
    as Fractions: a product of independent operands is extreme at a
    corner."""
    prods = [tutil.fr(u) * tutil.fr(v) for u in x for v in y]
    return min(prods), max(prods)


def exact_c_mul(a, b):
    """Exact rectangle hull of the product of rectangles a and b, as
    Fractions.  Re = ar*br - ai*bi and Im = ar*bi + ai*br each combine
    two products over disjoint pairs of the four independent real
    operands, so each part ranges exactly over its corner extremes."""
    rr = corner_range(a[:2], b[:2])
    ii = corner_range(a[2:], b[2:])
    ri = corner_range(a[:2], b[2:])
    ir = corner_range(a[2:], b[:2])
    return rr[0] - ii[1], rr[1] - ii[0], ri[0] + ir[0], ri[1] + ir[1]


def exact_c_add(a, b):
    return tuple(tutil.fr(u) + tutil.fr(v) for u, v in zip(a, b))


def exact_c_sub(a, b):
    return tuple(tutil.fr(u) - tutil.fr(v)
                 for u, v in zip(a, (b[1], b[0], b[3], b[2])))


# kernel and its exact oracle on (rectangle, rectangle); "point *" is
# cp_mul, whose second operand is the point (b[0], b[2])
EXACT = {
    "+": (_k.c_add, exact_c_add),
    "-": (_k.c_sub, exact_c_sub),
    "*": (_k.c_mul, exact_c_mul),
    "point *": (lambda a, b: _k.cp_mul(a, complex(b[0], b[2])),
                lambda a, b: exact_c_mul(a, (b[0], b[0], b[2], b[2]))),
}


def cancelling_operands(rng, k):
    """k pairs of rectangles (a, b) whose two real products in Re(a*b)
    or in Im(a*b) nearly cancel: one lies just above a power of two and
    the other just below it.  Their difference is then exact and tiny, so
    the outward rounding of the sum moves it by an ulp of the tiny
    result, far less than the rounding of the product above the power of
    two, whose ulp is twice the other's.  Each side is a point or a few
    ulps wide."""
    for _ in range(k):
        e = 2.0 ** int(rng.integers(-6, 7))
        above = 1.0 + 10.0 ** rng.uniform(-13, -6)
        below = 1.0 - 10.0 ** rng.uniform(-13, -6)
        if rng.random() < 0.5:
            above, below = below, above
        u, v = (float(x) for x in rng.uniform(1.0, 2.0, 2))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        p, q = sign * e * above / u, sign * e * below / v
        if rng.random() < 0.5:
            # Re = ar*br - ai*bi with ar*br ~ ai*bi
            ar, ai, br, bi = u, v, p, q
        else:
            # Im = ar*bi + ai*br with ar*bi ~ -ai*br
            ar, ai, br, bi = u, v, -q, p
        sides = []
        for x in (ar, ai, br, bi):
            hi = x
            for _ in range(int(rng.integers(0, 3))):
                hi = math.nextafter(hi, INF)
            sides += [x, hi]
        yield tuple(sides[:4]), tuple(sides[4:])


class TestComplexOps:
    @pytest.mark.parametrize("op", list(EXACT))
    def test_matches_exact_endpoint_oracle(self, op):
        """Each endpoint lies on the outer side of the exact one.  A
        kernel that drops the outward rounding of a result endpoint
        leaves it rounded to nearest, inside the exact range for some of
        the draws.  In ``c_mul`` and ``cp_mul`` the rounding of the sum
        covers a dropped rounding of a product inside it for random
        operands, so operands whose two products nearly cancel follow
        (``cancelling_operands``)."""
        kernel, exact = EXACT[op]
        rng = np.random.default_rng(16)
        draws = [(tutil.random_complex_interval(rng, 3.0),
                  tutil.random_complex_interval(rng, 3.0))
                 for _ in range(1000)]
        draws += cancelling_operands(np.random.default_rng(17), 1000)
        for a, b in draws:
            got = [tutil.fr(v) for v in kernel(a, b)]
            want = exact(a, b)
            assert got[0] <= want[0] and want[1] <= got[1], (a, b)
            assert got[2] <= want[2] and want[3] <= got[3], (a, b)

    def test_i_times_one(self):
        r = _k.c_mul((1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0))
        assert r[0] <= 0.0 <= r[1] and r[2] <= 1.0 <= r[3]
        assert width(r[:2]) <= 1e-300
        assert_tight(r[2:], 1.0, 1.0)

    def test_division_by_exact_one(self):
        a = (1.0, 2.0, 1.0, 2.0)
        r = _k.c_div(a, (1.0, 1.0, 0.0, 0.0))
        assert encloses(r, a)
        assert_tight(r[:2], 1.0, 2.0, ulps=8)
        assert_tight(r[2:], 1.0, 2.0, ulps=8)

    def test_unit_square_product(self):
        u = (0.0, 1.0, 0.0, 1.0)
        r = _k.c_mul(u, u)
        assert r[0] <= -1.0 and r[1] >= 1.0
        assert r[2] <= 0.0 and r[3] >= 2.0
        rng = np.random.default_rng(11)
        z = rng.random(10_000) + 1j * rng.random(10_000)
        w = rng.random(10_000) + 1j * rng.random(10_000)
        p = z * w
        slack = 4e-16
        assert (p.real >= r[0] - slack).all()
        assert (p.real <= r[1] + slack).all()
        assert (p.imag >= r[2] - slack).all()
        assert (p.imag <= r[3] + slack).all()

    def test_isotonicity(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a = tutil.random_complex_interval(rng)
            b = tutil.random_complex_interval(rng)
            g = float(rng.uniform(0, 0.5))
            a2 = (a[0] - g, a[1] + g, a[2] - g, a[3] + g)
            b2 = (b[0] - g, b[1] + g, b[2] - g, b[3] + g)
            for f in COPS.values():
                assert encloses(f(a2, b2), f(a, b))

    def test_sampled_soundness_quick(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = tutil.random_complex_interval(rng)
            b = tutil.random_complex_interval(rng)
            za = tutil.sample_ci(rng, a, 5)
            zb = tutil.sample_ci(rng, b, 5)
            for op, f in COPS.items():
                r = f(a, b)
                for x, y in zip(za, zb):
                    assert tutil.cplx_op_contained(r, complex(x), complex(y), op)


class TestSizes:
    def test_mag_3_4_5(self):
        m = _k.c_mag((3.0, 3.0, 4.0, 4.0))
        assert 5.0 <= m <= 5.0 + 8 * math.ulp(5.0)

    def test_mag_upper_bound_sampled(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            c = tutil.random_complex_interval(rng)
            m = tutil.fr(_k.c_mag(c)) ** 2
            for z in tutil.sample_ci(rng, c, 5):
                zz = complex(z)
                assert tutil.fr(zz.real) ** 2 + tutil.fr(zz.imag) ** 2 <= m

    def test_box_norm_example(self):
        b = Box(np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]]))
        n = tutil.box_norm(b)
        assert 2.0 <= n <= 2.0 + 8 * math.ulp(2.0)


class TestBoxes:
    def test_box_centered_origin(self):
        r = box_centered(np.array([0.0 + 0.0j]), 1.0).rows[0]
        assert r[0] <= -1.0 <= 1.0 <= r[1]
        assert r[2] <= -1.0 <= 1.0 <= r[3]
        assert ulps_apart(r[0], -1.0) <= 2

    def test_box_centered_offset(self):
        r = box_centered(np.array([1.0 + 2.0j]), 0.5).rows[0]
        assert_tight(r[:2], 0.5, 1.5)
        assert_tight(r[2:], 1.5, 2.5)

    def test_box_centered_radius_property(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            r = float(rng.uniform(1e-6, 1.0))
            b = box_centered(x, r)
            assert r <= tutil.box_radius(b) <= r * (1 + 1e-12) + 1e-300
            assert np.abs(tutil.box_midpoint(b) - x).max() <= 4 * math.ulp(
                float(np.abs(x).max()) + r)

    def test_box_centered_rejects_bad_radius(self):
        x = np.array([0.0 + 0.0j])
        with pytest.raises(NonPositiveRadius):
            box_centered(x, 0.0)
        with pytest.raises(NonPositiveRadius):
            box_centered(x, -1.0)
        with pytest.raises(NonPositiveRadius):
            box_centered(x, math.inf)

    def test_contains_reflexive(self):
        b = box_centered(np.array([1.0 + 1.0j, -2.0j]), 0.25)
        assert b.encloses(b)

    def test_contains_strictly_larger_fails(self):
        z = np.array([0.0 + 0.0j])
        assert not box_centered(z, 1.0).encloses(box_centered(z, 1.01))
        assert box_centered(z, 1.01).encloses(box_centered(z, 1.0))

    def test_midpoint(self):
        x = np.array([3.0 + 4.0j, -1.0 - 2.0j])
        assert np.allclose(tutil.box_midpoint(box_centered(x, 0.125)), x,
                           atol=1e-15)

    def test_dimension_mismatch(self):
        a = box_centered(np.zeros(2, complex), 1.0)
        b = box_centered(np.zeros(3, complex), 1.0)
        with pytest.raises(DimensionMismatch):
            a.encloses(b)

    def test_degenerate_box_roundtrip(self):
        x = np.array([1.5 - 0.25j, 3.0 + 1.0j])
        b = Box.degenerate(x)
        assert b.contains_point(x)
        assert tutil.box_radius(b) <= 1e-300

"""Interval arithmetic: examples, rounding contract, and soundness samples.

Endpoint arithmetic widens every result outward by one ulp, so the named
examples are checked as enclosures of the ideal result together with a
tightness bound of a couple of ulps, not as float equality.
"""

import math

import numpy as np
import pytest

import tutil
from pathcert.errors import (
    DimensionMismatch,
    DivisionByIntervalContainingZero,
    EmptyInterval,
    NonFiniteEndpoint,
    NonPositiveRadius,
)
from pathcert.intervals import (
    Box,
    ComplexInterval,
    RealInterval,
    box_centered,
)

INF = math.inf


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
    """iv encloses [lo, hi] with at most `ulps` of outward slack per side."""
    assert iv.lo <= lo and hi <= iv.hi
    assert ulps_apart(iv.lo, lo) <= ulps
    assert ulps_apart(iv.hi, hi) <= ulps


class TestRealOps:
    def test_add_example(self):
        assert_tight(RealInterval(1, 2) + RealInterval(3, 4), 4.0, 6.0)

    def test_sub_example(self):
        assert_tight(RealInterval(1, 2) - RealInterval(3, 4), -3.0, -1.0)

    def test_degenerate_times_one(self):
        for a in (0.1, -3.7, math.pi, 1e-12, 7.0):
            r = RealInterval(a) * RealInterval(1.0)
            assert r.contains(a)
            assert r.width <= 4 * math.ulp(abs(a) + 1e-300)

    def test_mul_example_brute_force(self):
        r = RealInterval(1, 2) * RealInterval(-3, 4)
        assert_tight(r, -6.0, 8.0)

    def test_mul_matches_endpoint_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = tutil.random_real_interval(rng, 3.0)
            b = tutil.random_real_interval(rng, 3.0)
            prods = [tutil.fr(x) * tutil.fr(y)
                     for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
            r = a * b
            assert tutil.fr(r.lo) <= min(prods)
            assert max(prods) <= tutil.fr(r.hi)

    def test_div_excludes_zero(self):
        with pytest.raises(DivisionByIntervalContainingZero):
            RealInterval(1, 2) / RealInterval(-1, 1)
        with pytest.raises(DivisionByIntervalContainingZero):
            RealInterval(1, 2) / RealInterval(0, 2)

    def test_div_endpoint_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a = tutil.random_real_interval(rng, 3.0)
            lo = rng.uniform(0.1, 2.0)
            b = RealInterval(lo, lo + rng.uniform(0.0, 2.0))
            if rng.random() < 0.5:
                b = -b
            quots = [tutil.fr(x) / tutil.fr(y)
                     for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
            r = a / b
            assert tutil.fr(r.lo) <= min(quots)
            assert max(quots) <= tutil.fr(r.hi)

    def test_overflow_is_an_error(self):
        with pytest.raises(NonFiniteEndpoint):
            RealInterval(1e308) * RealInterval(1e308)

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
            a2 = RealInterval(a.lo - grow, a.hi + grow)
            b2 = RealInterval(b.lo - grow, b.hi + grow)
            for op in ("+", "-", "*"):
                f = {"+": lambda u, v: u + v,
                     "-": lambda u, v: u - v,
                     "*": lambda u, v: u * v}[op]
                assert f(a2, b2).encloses(f(a, b))

    def test_degenerate_width_small(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            x = float(rng.standard_normal())
            y = float(rng.standard_normal())
            for r in (RealInterval(x) + RealInterval(y),
                      RealInterval(x) - RealInterval(y),
                      RealInterval(x) * RealInterval(y)):
                scale = abs(x) + abs(y) + abs(r.lo) + 1e-300
                assert r.width <= 4 * math.ulp(scale)


class TestComplexOps:
    def test_i_times_one(self):
        one = ComplexInterval(RealInterval(1.0), RealInterval(0.0))
        i = ComplexInterval(RealInterval(0.0), RealInterval(1.0))
        r = one * i
        assert r.contains(1j)
        assert r.re.width <= 1e-300
        assert_tight(r.im, 1.0, 1.0)

    def test_division_by_exact_one(self):
        a = ComplexInterval(RealInterval(1, 2), RealInterval(1, 2))
        one = ComplexInterval(RealInterval(1.0), RealInterval(0.0))
        r = a / one
        assert r.encloses(a)
        assert_tight(r.re, 1.0, 2.0, ulps=8)
        assert_tight(r.im, 1.0, 2.0, ulps=8)

    def test_unit_square_product(self):
        u = ComplexInterval(RealInterval(0, 1), RealInterval(0, 1))
        r = u * u
        assert r.re.lo <= -1.0 and r.re.hi >= 1.0
        assert r.im.lo <= 0.0 and r.im.hi >= 2.0
        rng = np.random.default_rng(11)
        z = rng.random(10_000) + 1j * rng.random(10_000)
        w = rng.random(10_000) + 1j * rng.random(10_000)
        p = z * w
        slack = 4e-16
        assert (p.real >= r.re.lo - slack).all()
        assert (p.real <= r.re.hi + slack).all()
        assert (p.imag >= r.im.lo - slack).all()
        assert (p.imag <= r.im.hi + slack).all()

    def test_complex_div_guard(self):
        a = ComplexInterval(RealInterval(1, 2), RealInterval(1, 2))
        zero_stride = ComplexInterval(RealInterval(-1, 1), RealInterval(-1, 1))
        with pytest.raises(DivisionByIntervalContainingZero):
            a / zero_stride

    def test_isotonicity(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a = tutil.random_complex_interval(rng)
            b = tutil.random_complex_interval(rng)
            g = float(rng.uniform(0, 0.5))
            a2 = ComplexInterval(RealInterval(a.re.lo - g, a.re.hi + g),
                                 RealInterval(a.im.lo - g, a.im.hi + g))
            b2 = ComplexInterval(RealInterval(b.re.lo - g, b.re.hi + g),
                                 RealInterval(b.im.lo - g, b.im.hi + g))
            assert (a2 + b2).encloses(a + b)
            assert (a2 - b2).encloses(a - b)
            assert (a2 * b2).encloses(a * b)

    def test_sampled_soundness_quick(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = tutil.random_complex_interval(rng)
            b = tutil.random_complex_interval(rng)
            za = tutil.sample_ci(rng, a, 5)
            zb = tutil.sample_ci(rng, b, 5)
            for op in ("+", "-", "*"):
                r = {"+": a + b, "-": a - b, "*": a * b}[op]
                for x, y in zip(za, zb):
                    assert tutil.cplx_op_contained(r, complex(x), complex(y), op)


class TestSizes:
    def test_width_example(self):
        w = RealInterval(1, 3).width
        assert 2.0 <= w <= math.nextafter(2.0, INF)

    def test_mag_3_4_5(self):
        c = ComplexInterval(RealInterval(3, 3), RealInterval(4, 4))
        m = c.mag
        assert 5.0 <= m <= 5.0 + 8 * math.ulp(5.0)

    def test_mag_upper_bound_sampled(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            c = tutil.random_complex_interval(rng)
            m = tutil.fr(c.mag) ** 2
            for z in tutil.sample_ci(rng, c, 5):
                zz = complex(z)
                assert tutil.fr(zz.real) ** 2 + tutil.fr(zz.imag) ** 2 <= m

    def test_box_norm_example(self):
        b = Box.from_entries([
            ComplexInterval(RealInterval(0, 1), RealInterval(0, 0)),
            ComplexInterval(RealInterval(0, 0), RealInterval(0, 2)),
        ])
        n = b.norm()
        assert 2.0 <= n <= 2.0 + 8 * math.ulp(2.0)


class TestBoxes:
    def test_box_centered_origin(self):
        b = box_centered(np.array([0.0 + 0.0j]), 1.0)
        assert b[0].re.lo <= -1.0 <= 1.0 <= b[0].re.hi
        assert b[0].im.lo <= -1.0 <= 1.0 <= b[0].im.hi
        assert ulps_apart(b[0].re.lo, -1.0) <= 2

    def test_box_centered_offset(self):
        b = box_centered(np.array([1.0 + 2.0j]), 0.5)
        assert_tight(b[0].re, 0.5, 1.5)
        assert_tight(b[0].im, 1.5, 2.5)

    def test_box_centered_radius_property(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            r = float(rng.uniform(1e-6, 1.0))
            b = box_centered(x, r)
            assert r <= b.radius() <= r * (1 + 1e-12) + 1e-300
            assert np.abs(b.midpoint() - x).max() <= 4 * math.ulp(
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
        assert np.allclose(box_centered(x, 0.125).midpoint(), x, atol=1e-15)

    def test_dimension_mismatch(self):
        a = box_centered(np.zeros(2, complex), 1.0)
        b = box_centered(np.zeros(3, complex), 1.0)
        with pytest.raises(DimensionMismatch):
            a.encloses(b)

    def test_degenerate_box_roundtrip(self):
        x = np.array([1.5 - 0.25j, 3.0 + 1.0j])
        b = Box.degenerate(x)
        assert b.contains_point(x)
        assert b.radius() <= 1e-300

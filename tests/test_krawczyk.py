"""Krawczyk operator and the combined existence/uniqueness test."""

import math

import numpy as np
import pytest

import tutil
from pathcert import _kernels as _k
from pathcert.bench import gen_newton_homotopy
from pathcert.errors import DimensionMismatch, NonFiniteEndpoint, PathcertError
from pathcert.intervals import Box, RealInterval, box_centered
from pathcert.ilinalg import mid_inverse
from pathcert.krawczyk import parametric_krawczyk_test
from pathcert.tracker import newton_refine

SQRT2 = math.sqrt(2.0)


def sqrt2_fixture(radius, center=1.414):
    h = tutil.sqrt2_homotopy()
    x = np.array([center + 0.0j])
    y = np.array([[1.0 / (2.0 * center) + 0.0j]])
    box = box_centered(x, radius)
    return h, x, y, box


class TestOperator:
    def test_affine_collapses_to_root(self):
        from pathcert.systems import Term
        c = 0.7
        h = tutil.static_homotopy(
            [[Term(1.0, None, (1,)), Term(-c, 0, (0,))]], 1)
        x = np.array([0.6 + 0.0j])
        y = np.array([[1.0 + 0.0j]])
        box = box_centered(x, 0.3)
        img = parametric_krawczyk_test(
            h, x, y, box, RealInterval(0.0, 0.0)).operator_image
        assert img.contains_point(np.array([c + 0.0j]))
        assert tutil.box_radius(img) <= 0.5e-12
        assert abs(tutil.box_midpoint(img)[0] - c) <= 1e-13
        assert box.encloses(img)

    def test_sqrt2_small_box_certifies(self):
        h, x, y, box = sqrt2_fixture(0.01)
        v = parametric_krawczyk_test(h, x, y, box, RealInterval(0.0, 0.0))
        assert v.existence and v.uniqueness and v.passed
        assert SQRT2 * v.residual_norm < 1.0
        assert box.encloses(v.operator_image)
        assert v.operator_image.contains_point(np.array([SQRT2 + 0.0j]))

    def test_sqrt2_tiny_box_misses_root(self):
        # the box around 1.414 with radius 1e-8 excludes sqrt(2) itself
        h, x, y, box = sqrt2_fixture(1e-8)
        v = parametric_krawczyk_test(h, x, y, box, RealInterval(0.0, 0.0))
        assert not v.existence
        assert not v.passed

    def test_sqrt2_huge_box_loses_uniqueness(self):
        h, x, y, box = sqrt2_fixture(1e3)
        v = parametric_krawczyk_test(h, x, y, box, RealInterval(0.0, 0.0))
        assert not v.uniqueness
        assert v.residual_norm >= 1.0 / SQRT2

    def test_dimension_checks(self):
        h, x, y, box = sqrt2_fixture(0.01)
        T = RealInterval(0.0, 0.0)
        with pytest.raises(DimensionMismatch):
            parametric_krawczyk_test(h, x, np.eye(2, dtype=complex), box, T)
        with pytest.raises(DimensionMismatch):
            parametric_krawczyk_test(h, np.zeros(2, complex), y, box, T)
        with pytest.raises(PathcertError):
            parametric_krawczyk_test(h, x + 1.0, y, box, T)


class TestParametric:
    def test_newton_first_step(self):
        h, starts = gen_newton_homotopy(10.0)
        x, _ = newton_refine(h, starts[0], 0.0)
        y = mid_inverse(h.jac_x_point(x, 0.0))
        box = box_centered(x, 0.1)
        v = parametric_krawczyk_test(h, x, y, box, RealInterval(0.0, 0.02))
        assert v.existence and v.uniqueness

    def test_degenerate_time_at_root(self):
        h, starts = gen_newton_homotopy(10.0)
        x, _ = newton_refine(h, starts[0], 0.0)
        y = mid_inverse(h.jac_x_point(x, 0.0))
        box = box_centered(x, 1e-6)
        v = parametric_krawczyk_test(h, x, y, box, RealInterval(0.0, 0.0))
        assert v.passed

    def test_soundness_against_independent_newton(self):
        h, starts = gen_newton_homotopy(10.0)
        x, _ = newton_refine(h, starts[0], 0.0)
        y = mid_inverse(h.jac_x_point(x, 0.0))
        box = box_centered(x, 0.1)
        T = RealInterval(0.0, 0.02)
        v = parametric_krawczyk_test(h, x, y, box, T)
        assert v.passed
        mid = tutil.box_midpoint(box)
        for t in np.linspace(T.lo, T.hi, 1000):
            root = tutil.plain_newton_solve(h, mid, float(t))
            assert box.contains_point(root)
            # the only other solution of the univariate quadratic is -x(t)
            assert not box.contains_point(-root)

    def test_existence_monotone_in_dt(self):
        h, starts = gen_newton_homotopy(10.0)
        x, _ = newton_refine(h, starts[0], 0.0)
        y = mid_inverse(h.jac_x_point(x, 0.0))
        box = box_centered(x, 0.1)
        flags = []
        for dt in np.geomspace(0.002, 1.0, 24):
            v = parametric_krawczyk_test(h, x, y, box,
                                         RealInterval(0.0, float(dt)))
            flags.append(v.existence)
        assert flags[0] is True
        assert flags[-1] is False
        # once failed, stays failed as T grows
        assert sorted(flags, reverse=True) == flags

    def test_uniqueness_monotone_in_radius(self):
        h = tutil.sqrt2_homotopy()
        x = np.array([SQRT2 + 0.0j])
        y = np.array([[1.0 / (2.0 * SQRT2) + 0.0j]])
        flags = []
        for r in np.geomspace(1e-6, 1e3, 30):
            box = box_centered(x, float(r))
            v = parametric_krawczyk_test(h, x, y, box,
                                         RealInterval(0.0, 0.0))
            flags.append(v.uniqueness)
        assert flags[0] is True
        assert flags[-1] is False
        assert sorted(flags, reverse=True) == flags

    def test_real_case_cross_check(self):
        """Complex-test pass implies the plain real Krawczyk test passes.

        The complex criterion carries the extra sqrt(2) factor, so it is
        the stricter of the two on real data; wherever it passes, an
        independently evaluated real-interval Krawczyk with factor 1 must
        pass as well.

        The imaginary slab is tiny but nonzero: outward rounding gives the
        operator image a nonzero imaginary width, which a width-zero box
        could never enclose.
        """
        h = tutil.sqrt2_homotopy()
        x = 1.414
        yv = 1.0 / (2.0 * x)
        passed_any = 0
        for r in np.geomspace(1e-3, 10.0, 20):
            r = float(r)
            s = 1e-9 * r
            box = Box(np.array([[x - r, x + r, -s, s]]))
            v = parametric_krawczyk_test(
                h, np.array([x + 0.0j]), np.array([[yv + 0.0j]]), box,
                RealInterval(0.0, 0.0))
            # independent real-interval replay with factor 1, on the
            # real kernels: I = [x - r, x + r] and Y, x, f(x) as points
            il, ih = x - r, x + r
            fj = _k.r_mul(2.0, 2.0, il, ih)     # d/dx of x^2 - 2 over I
            resid = _k.r_sub(1.0, 1.0, *_k.r_mul(yv, yv, *fj))
            rn_real = max(abs(resid[0]), abs(resid[1]))
            fx = x * x - 2.0
            kr = _k.r_add(*_k.r_sub(x, x, *_k.r_mul(yv, yv, fx, fx)),
                          *_k.r_mul(*resid, *_k.r_sub(il, ih, x, x)))
            real_pass = (il <= kr[0] and kr[1] <= ih and rn_real < 1.0)
            if v.passed:
                passed_any += 1
                assert real_pass
        assert passed_any > 0


class TestFailedContraction:
    """A test that fails the contraction bound still computes its image
    and reports both flags."""

    def test_rejected_with_image(self):
        h, starts = gen_newton_homotopy(10.0)
        x, _ = newton_refine(h, starts[0], 0.0)
        y = mid_inverse(h.jac_x_point(x, 0.0))
        cases = [
            # criterion 2's huge box, and Y doubled on the newton family
            sqrt2_fixture(1e3) + (RealInterval(0.0, 0.0),),
            (h, x, 2.0 * y, box_centered(x, 0.1), RealInterval(0.0, 0.02)),
        ]
        for h, x, y, box, T in cases:
            v = parametric_krawczyk_test(h, x, y, box, T)
            assert not v.uniqueness and not v.passed
            assert isinstance(v.existence, bool)
            assert math.isfinite(v.residual_norm)
            assert np.isfinite(v.operator_image.data).all()

    def test_overflowing_image_raises(self):
        # H(x) = x^2 - 2 overflows at x = 1.5e154, and Y = 1/x, twice the
        # Newton inverse, makes |I - YJ| about 1
        h, x, y, box = sqrt2_fixture(1.0, center=1.5e154)
        with pytest.raises(NonFiniteEndpoint):
            parametric_krawczyk_test(h, x, 2.0 * y, box,
                                     RealInterval(0.0, 0.0))

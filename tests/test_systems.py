"""Parametric systems and homotopies: point/interval evaluation, shears."""

import json
import math
import re

import numpy as np
import pytest

import tutil
from pathcert.bench import (
    gen_katsura,
    gen_lowrank,
    gen_newton_homotopy,
    gen_random_quadratic,
)
from pathcert.errors import (
    DimensionMismatch,
    MalformedCertificate,
    ParseError,
    UnsupportedDegree,
)
from pathcert.certificate import MODE_RECT, MODE_TILTED
from pathcert.intervals import Box, RealInterval, box_centered
from pathcert.systems import (
    MAX_DEGREE,
    Homotopy,
    ParametricSystem,
    Term,
    dump_system,
    load_system,
)
from pathcert.tracker import TrackerConfig, track


def own_eval(system, x, p):
    """Independent term-by-term evaluation in plain complex arithmetic."""
    out = np.zeros(system.n, dtype=np.complex128)
    for i, eq in enumerate(system.equations):
        for term in eq:
            v = term.coeff
            if term.param is not None:
                v = v * p[term.param]
            for xi, e in zip(x, term.expo):
                v = v * xi ** e
            out[i] += v
    return out


class TestPointEval:
    def test_newton_family_at_end(self):
        h, _ = gen_newton_homotopy(10.0)
        v = h.eval_point(np.array([1.0 + 0.0j]), 1.0)
        assert abs(v[0]) == 0.0

    def test_matches_independent_evaluator(self):
        rng = np.random.default_rng(40)
        h, _ = gen_random_quadratic(2, seed=5)
        for _ in range(200):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t = float(rng.random())
            mine = own_eval(h.system, x, (1 - t) * h.p0 + t * h.p1)
            theirs = h.eval_point(x, t)
            scale = float(np.abs(mine).max()) + 1.0
            assert float(np.abs(mine - theirs).max()) <= 1e-12 * scale

    def test_jacobian_newton(self):
        h, _ = gen_newton_homotopy(10.0)
        for x in (1.5, 3.0 + 1.0j, -2.0):
            j = h.jac_x_point(np.array([x]), 0.3)
            assert abs(j[0, 0] - 2 * x) <= 1e-13 * (1 + abs(x))

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        h, _ = gen_random_quadratic(3, seed=6)
        step = 1e-6
        for _ in range(20):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            t = float(rng.random())
            j = h.jac_x_point(x, t)
            for k in range(3):
                e = np.zeros(3, dtype=np.complex128)
                e[k] = step
                fd = (h.eval_point(x + e, t) - h.eval_point(x - e, t)) / (2 * step)
                scale = float(np.abs(j[:, k]).max()) + 1.0
                assert float(np.abs(fd - j[:, k]).max()) <= 1e-7 * scale

    def test_jacobian_affine_in_parameters(self):
        h, _ = gen_random_quadratic(2, seed=7)
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            j0 = h.jac_x_point(x, 0.0)
            j1 = h.jac_x_point(x, 1.0)
            jm = h.jac_x_point(x, 0.5)
            scale = float(np.abs(j0).max() + np.abs(j1).max()) + 1.0
            assert float(np.abs(jm - 0.5 * (j0 + j1)).max()) <= 1e-12 * scale


def f1_at(h, x, dp):
    """The parameter part of h's system at x and the displacement dp: the
    t-derivative of the homotopy from parameters 0 to dp."""
    return Homotopy(h.system, np.zeros(h.m, complex), dp).f1_eval(x)


class TestParameterDerivative:
    def test_newton_constant(self):
        h, _ = gen_newton_homotopy(10.0)
        for x in (0.5, 2.0 + 1.0j):
            v = h.f1_eval(np.array([x]))
            assert abs(v[0] - 10.0) <= 1e-13

    def test_zero_displacement(self):
        h, _ = gen_random_quadratic(2, seed=8)
        x = np.array([0.3 + 0.1j, -0.2j])
        v = f1_at(h, x, np.zeros(h.m, dtype=np.complex128))
        assert float(np.abs(v).max()) == 0.0

    def test_linearity(self):
        h, _ = gen_random_quadratic(2, seed=9)
        rng = np.random.default_rng(43)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        dp = rng.standard_normal(h.m) + 1j * rng.standard_normal(h.m)
        dq = rng.standard_normal(h.m) + 1j * rng.standard_normal(h.m)
        a, b = 0.7 - 0.2j, 1.3 + 0.5j
        lhs = f1_at(h, x, a * dp + b * dq)
        rhs = a * f1_at(h, x, dp) + b * f1_at(h, x, dq)
        scale = float(np.abs(rhs).max()) + 1.0
        assert float(np.abs(lhs - rhs).max()) <= 1e-12 * scale

    def test_segment_identity(self):
        # H(x, t0 + d) - H(x, t0) equals the parameter part at d*(p1 - p0)
        h, _ = gen_random_quadratic(2, seed=10)
        rng = np.random.default_rng(44)
        for _ in range(50):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t0 = float(rng.uniform(0, 0.9))
            d = float(rng.uniform(0, 0.1))
            lhs = h.eval_point(x, t0 + d) - h.eval_point(x, t0)
            rhs = f1_at(h, x, d * (h.p1 - h.p0))
            scale = float(np.abs(h.eval_point(x, t0)).max()) + 1.0
            assert float(np.abs(lhs - rhs).max()) <= 1e-10 * scale


class TestIntervalEval:
    def test_drift_bound_at_root(self):
        m, dt = 10.0, 0.02
        h, starts = gen_newton_homotopy(m)
        x = tutil.plain_newton_solve(h, starts[0], 0.0, tol=1e-14)
        box = Box.degenerate(x)
        r = h.eval_interval(box, RealInterval(0.0, dt))
        assert tutil.box_norm(r) <= m * dt * (1 + 1e-9) + 1e-9
        assert r.contains_point(h.eval_point(x, 0.0))
        assert r.contains_point(h.eval_point(x, dt))

    def test_containment_sampled(self):
        rng = np.random.default_rng(45)
        h, _ = gen_random_quadratic(2, seed=11)
        for _ in range(20):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            box = box_centered(c, float(rng.uniform(0.01, 0.3)))
            t0 = float(rng.uniform(0, 0.8))
            T = RealInterval(t0, t0 + float(rng.uniform(0.01, 0.2)))
            enc = h.eval_interval(box, T)
            xs = tutil.sample_box(rng, box, 25)
            ts = tutil.sample_interval(rng, T.lo, T.hi, 25)
            for x, t in zip(xs, ts):
                assert tutil.eval_contained(h, enc, x, float(t))

    def test_over_time_containment(self):
        rng = np.random.default_rng(46)
        h, _ = gen_random_quadratic(2, seed=12)
        for _ in range(20):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t0 = float(rng.uniform(0, 0.8))
            T = RealInterval(t0, t0 + float(rng.uniform(0.01, 0.2)))
            enc = h.eval_over_time(x, T)
            for t in tutil.sample_interval(rng, T.lo, T.hi, 50):
                assert tutil.eval_contained(h, enc, x, float(t))

    def test_over_time_cancels_secant_drift(self):
        # along a shear through two path points the time enclosure at the
        # origin collapses to the secant sag, far below the raw drift m*dt
        m, dt = 10.0, 0.02
        h, starts = gen_newton_homotopy(m)
        x0 = tutil.plain_newton_solve(h, starts[0], 0.0, tol=1e-14)
        x1 = tutil.plain_newton_solve(h, starts[0], dt, tol=1e-14)
        sh = h.sheared(x0, x1, 0.0, dt)
        T = RealInterval(0.0, dt)
        zeros = np.zeros(1, dtype=np.complex128)
        tight = tutil.box_norm(sh.eval_over_time(zeros, T))
        assert tight <= 0.01 * m * dt
        # the sag enclosure still contains the values along the secant
        enc = sh.eval_over_time(zeros, T)
        for t in np.linspace(0.0, dt, 100):
            v = sh.eval_point(zeros, float(t))
            assert enc.data[0, 0] - 1e-13 <= v[0].real <= enc.data[0, 1] + 1e-13
            assert enc.data[0, 2] - 1e-13 <= v[0].imag <= enc.data[0, 3] + 1e-13

    def test_jacobian_interval_contains_point_jacobians(self):
        rng = np.random.default_rng(47)
        h, _ = gen_random_quadratic(2, seed=13)
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        box = box_centered(c, 0.2)
        T = RealInterval(0.2, 0.4)
        jm = h.jac_x_interval(box, T)
        xs = tutil.sample_box(rng, box, 30)
        ts = tutil.sample_interval(rng, T.lo, T.hi, 30)
        for x, t in zip(xs, ts):
            j = h.jac_x_point(x, float(t))
            for i in range(2):
                for k in range(2):
                    scale = float(np.abs(x).sum() + np.abs(j).max() + 1.0)
                    assert tutil.row_contains_complex(
                        jm.data[i, k], complex(j[i, k]), scale)


class TestShear:
    def test_zero_shear_is_identity(self):
        h, _ = gen_newton_homotopy(10.0)
        z = np.zeros(1, dtype=np.complex128)
        sh = h.sheared(z, z, 0.0, 0.5)
        rng = np.random.default_rng(48)
        for _ in range(20):
            x = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            t = float(rng.random())
            assert np.allclose(sh.eval_point(x, t), h.eval_point(x, t),
                               rtol=0, atol=1e-13)

    def test_origin_tracks_endpoints(self):
        m, dt = 10.0, 0.02
        h, starts = gen_newton_homotopy(m)
        x0 = tutil.plain_newton_solve(h, starts[0], 0.0, tol=1e-13)
        x1 = tutil.plain_newton_solve(h, starts[0], dt, tol=1e-13)
        sh = h.sheared(x0, x1, 0.0, dt)
        z = np.zeros(1, dtype=np.complex128)
        assert float(np.abs(sh.eval_point(z, 0.0)).max()) <= 1e-9
        assert float(np.abs(sh.eval_point(z, dt)).max()) <= 1e-9

    def test_substitution_identity(self):
        h, _ = gen_random_quadratic(2, seed=14)
        rng = np.random.default_rng(49)
        x0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x1 = x0 + 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        t0, t1 = 0.2, 0.35
        sh = h.sheared(x0, x1, t0, t1)
        for _ in range(200):
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t = float(rng.uniform(0, 1))
            s = x0 + (x1 - x0) * ((t - t0) / (t1 - t0))
            direct = h.eval_point(y + s, t)
            via = sh.eval_point(y, t)
            scale = float(np.abs(direct).max()) + 1.0
            assert float(np.abs(direct - via).max()) <= 1e-9 * scale

    def test_sheared_interval_eval_still_sound(self):
        h, _ = gen_random_quadratic(2, seed=15)
        rng = np.random.default_rng(50)
        x0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x1 = x0 + 0.05 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        t0, t1 = 0.3, 0.4
        sh = h.sheared(x0, x1, t0, t1)
        box = box_centered(np.zeros(2, dtype=np.complex128), 0.1)
        T = RealInterval(t0, t1)
        enc = sh.eval_interval(box, T)
        ys = tutil.sample_box(rng, box, 40)
        ts = tutil.sample_interval(rng, t0, t1, 40)
        for y, t in zip(ys, ts):
            # exact H(y + s(t), t) on the stored float line s
            for i, v in enumerate(tutil.exact_homotopy_eval(sh, y, float(t))):
                assert tutil.row_in(enc.data[i], v), (i, t)


# ---------------------------------------------------------------------------
# the time enclosure at a point against exact rational values
# ---------------------------------------------------------------------------

def assert_exactly_enclosed(h, x, T, rng, k=6):
    """H(x + s(t), t), computed exactly with fractions, lies inside
    ``eval_over_time(x, T)`` at both ends of T, its midpoint and k random
    times in between."""
    enc = h.eval_over_time(x, T).data
    ts = ([T.lo, T.hi, 0.5 * (T.lo + T.hi)]
          + [float(t) for t in rng.uniform(T.lo, T.hi, k)])
    for t in ts:
        for i, v in enumerate(tutil.exact_homotopy_eval(h, x, t)):
            assert tutil.row_in(enc[i], v), (i, t)


def windows(rng, count):
    """Time windows: two points, windows ending at 0 and 1, random ones."""
    out = [RealInterval(0.0), RealInterval(0.25), RealInterval(0.0, 1e-3),
           RealInterval(1.0 - 2.0 ** -20, 1.0)]
    for _ in range(count):
        lo = float(rng.uniform(0.0, 0.95))
        out.append(RealInterval(lo, lo + float(10.0 ** rng.uniform(-8, -1))))
    return out


def cnoise(rng, n, scale):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def check_windows(h, x0, rng, count=4):
    """Exact containment at x0 unsheared, and at a point near the origin
    of a shear through x0 and a nearby x1 over each window."""
    for T in windows(rng, count):
        x = x0 + cnoise(rng, h.n, 0.01)
        assert_exactly_enclosed(h, x, T, rng)
        sh = h.sheared(x, x + cnoise(rng, h.n, 0.05), T.lo, T.lo + 0.01)
        assert_exactly_enclosed(sh, cnoise(rng, h.n, 1e-3), T, rng)


FAMILIES = {
    "random2": lambda: gen_random_quadratic(2, seed=7),
    "katsura3": lambda: gen_katsura(3),
    "lowrank2": lambda: gen_lowrank(2),
    "newton10": lambda: gen_newton_homotopy(10.0),
    "newton1e4": lambda: gen_newton_homotopy(1e4),
}


class TestTimeEnclosureExact:
    """``eval_over_time`` widens float coefficients by an a priori
    rounding bound; every exact value must still lie inside."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_families(self, name):
        h, starts = FAMILIES[name]()
        rng = np.random.default_rng(sorted(FAMILIES).index(name) + 60)
        check_windows(h, starts[-1], rng)

    def test_subnormal_coefficients(self):
        # products of subnormal coefficients underflow, which only the
        # bound's absolute term covers
        eqs = [[Term(5e-324, None, (1, 1)), Term(3e-310, 0, (1, 0)),
                Term(-1e-320, 0, (0, 0))],
               [Term(2.5e-323, 0, (0, 2)), Term(-7e-315j, None, (1, 0))]]
        h = Homotopy(ParametricSystem(2, 1, eqs), np.array([0.3 + 0.1j]),
                     np.array([-0.7 + 0.2j]))
        check_windows(h, np.array([0.6 - 0.2j, -1.3 + 0.4j]),
                      np.random.default_rng(70))

    def test_underflow_scaled_up_by_later_factors(self):
        # coef * p(t) ~ 1e-330 underflows to zero, and x^2 ~ 1e40 makes
        # the lost product ~ 1e-290, far above the relative bound of a
        # magnitude that underflows too
        eqs = [[Term(1e-300, 0, (2,))]]
        h = Homotopy(ParametricSystem(1, 1, eqs), np.array([1e-30]),
                     np.array([3e-30 - 1e-30j]))
        rng = np.random.default_rng(71)
        x = np.array([1e20 + 3e19j])
        for T in windows(rng, 3):
            assert_exactly_enclosed(h, x, T, rng)
            sh = h.sheared(x, x * (1 + 1e-3j), T.lo, T.lo + 0.01)
            assert_exactly_enclosed(sh, np.zeros(1, complex), T, rng)

    @pytest.mark.parametrize("scale", [1.0, 1e50])
    def test_large_coefficients_that_cancel(self, scale):
        # 1e150-scale terms that nearly cancel at x1 ~ x2 (and with
        # x ~ 1e50, terms near 1e250)
        eqs = [[Term(1e150, None, (2, 0)), Term(-1e150, None, (0, 2)),
                Term(3e149, 0, (1, 0))],
               [Term(-2e150, 0, (1, 1)), Term(1e150 + 1e135j, None, (0, 2)),
                Term(1e150, None, (2, 0))]]
        h = Homotopy(ParametricSystem(2, 1, eqs), np.array([1e-9 + 0j]),
                     np.array([-2e-9 + 1e-9j]))
        x0 = scale * np.array([1.0 + 1e-9j, 1.0 + 2e-16 + 1e-9j])
        check_windows(h, x0, np.random.default_rng(72))

    def test_steep_shear(self):
        # a shear of slope ~1e6 makes sa and tc*sb large and nearly
        # opposite: forming x + sa + tc*sb rounds far above the size of
        # the result
        h, starts = gen_katsura(3)
        rng = np.random.default_rng(74)
        for t0 in (0.3, 0.7):
            sh = h.sheared(starts[0], starts[0] + cnoise(rng, h.n, 1.0),
                           t0, t0 + 1e-6)
            for T in (RealInterval(t0), RealInterval(t0 + 5e-7),
                      RealInterval(t0, t0 + 1e-6)):
                assert_exactly_enclosed(sh, cnoise(rng, h.n, 1e-3), T, rng)

    @pytest.mark.parametrize("m", [10.0, 1e4])
    def test_secant_cancellation(self, m):
        # along the secant through two path points the enclosure at the
        # origin is the tiny sag, far below the raw drift m*dt; the exact
        # values stay inside it
        h, starts = gen_newton_homotopy(m)
        t0, dt = 0.3, 0.02 / m ** 0.5
        x0 = tutil.plain_newton_solve(h, starts[0], t0, tol=1e-14)
        x1 = tutil.plain_newton_solve(h, starts[0], t0 + dt, tol=1e-14)
        sh = h.sheared(x0, x1, t0, t0 + dt)
        zeros = np.zeros(1, dtype=np.complex128)
        T = RealInterval(t0, t0 + dt)
        rng = np.random.default_rng(73)
        assert_exactly_enclosed(sh, zeros, T, rng, k=30)
        assert tutil.box_norm(sh.eval_over_time(zeros, T)) <= 0.01 * m * dt


# ---------------------------------------------------------------------------
# the Jacobian enclosure over box x window against exact rational values
# ---------------------------------------------------------------------------

def box_samples(rng, box, k):
    """k points of the box.  Each real and imaginary part sits at its low
    end, its high end, its midpoint or uniformly in between, each with
    probability 1/4, so corners and edge midpoints come up far more often
    than uniform draws would make them."""
    out = []
    for _ in range(k):
        z = []
        for rl, rh, il, ih in box.rows:
            parts = []
            for lo, hi in ((rl, rh), (il, ih)):
                pick = int(rng.integers(4))
                parts.append((lo, hi, 0.5 * (lo + hi),
                              float(rng.uniform(lo, hi)))[pick])
            z.append(complex(*parts))
        out.append(z)
    return out


def assert_box_enclosed(h, box, T, rng, x=None, k=6, jac=True):
    """J(z + s(t), p(t)), computed exactly with fractions, lies inside
    ``jac_x_interval(box, T, x)`` for t at both ends of T and two random
    times in between, and k points z of the box at each.  With
    ``jac=False`` the same holds for H(z + s(t), t) and
    ``eval_interval(box, T)``, which expands at the box's midpoint."""
    if jac:
        enc = h.jac_x_interval(box, T, x).rows
        exact = tutil.exact_homotopy_jac
    else:
        enc = [h.eval_interval(box, T).rows]
        exact = lambda g, z, t: [tutil.exact_homotopy_eval(g, z, t)]
    for t in [T.lo, T.hi] + [float(t) for t in rng.uniform(T.lo, T.hi, 2)]:
        for z in box_samples(rng, box, k):
            for i, row in enumerate(exact(h, z, t)):
                for j, v in enumerate(row):
                    assert tutil.row_in(enc[i][j], v), (i, j, t, z)


def tracked_tests(gen, cfg, mode, count=5):
    """(homotopy, expansion point, box, window) of ``count`` segments
    spread over a tracked path, as the tracker tested them: the sheared
    homotopy at 0 in tilted mode, the homotopy at the center in rect
    mode."""
    h, starts = gen()
    segs = track(h, starts[0], cfg, mode=mode).certificate.segments
    for k in np.linspace(0, len(segs) - 1, count).round().astype(int):
        s = segs[k]
        T = RealInterval(s.t_lo, s.t_hi)
        if mode == MODE_TILTED:
            g = h.sheared(s.shear_x0, s.shear_x1, s.t_lo, s.t_hi)
            yield g, np.zeros(h.n, dtype=np.complex128), s.box, T
        else:
            yield h, s.center, s.box, T


JAC_RUNS = {
    "katsura3": (lambda: gen_katsura(3), TrackerConfig(), MODE_TILTED),
    "random2": (lambda: gen_random_quadratic(2), TrackerConfig(),
                MODE_TILTED),
    "lowrank2": (lambda: gen_lowrank(2), TrackerConfig(dt0=0.2, r0=0.1),
                 MODE_TILTED),
    "newton10_tilted": (lambda: gen_newton_homotopy(10.0),
                        TrackerConfig(dt0=0.02, r0=0.1), MODE_TILTED),
    "newton10_rect": (lambda: gen_newton_homotopy(10.0),
                      TrackerConfig(dt0=0.02, r0=0.1), MODE_RECT),
}


class TestJacobianEnclosureExact:
    """``jac_x_interval`` widens the Jacobian's time enclosure at the
    expansion point by a deviation bound over the box; every exact
    Jacobian over box x window must still lie inside, without tolerance.
    ``eval_interval`` encloses H over box x window the same way, and the
    tracked and wide boxes check it too.
    """

    @pytest.mark.parametrize("name", sorted(JAC_RUNS))
    def test_tracked_segments(self, name):
        rng = np.random.default_rng(sorted(JAC_RUNS).index(name) + 80)
        for h, x, box, T in tracked_tests(*JAC_RUNS[name]):
            assert_box_enclosed(h, box, T, rng, x)
            # the box's midpoint as the expansion point
            assert_box_enclosed(h, box, T, rng)
            assert_box_enclosed(h, box, T, rng, jac=False)

    @pytest.mark.parametrize("name", ["random2", "katsura3", "lowrank2"])
    def test_wide_boxes_off_center(self, name):
        # boxes far wider than the tracker's, expanded at a point away
        # from their middle, over windows of every length
        h, starts = FAMILIES[name]()
        rng = np.random.default_rng(90 + len(name))
        for T in windows(rng, 3):
            c = starts[-1] + cnoise(rng, h.n, 0.05)
            box = box_centered(c, 0.3)
            x = c + 0.25 * (rng.uniform(-1, 1, h.n)
                            + 1j * rng.uniform(-1, 1, h.n))
            assert_box_enclosed(h, box, T, rng, x)
            assert_box_enclosed(h, box, T, rng, jac=False)
            sh = h.sheared(c, c + cnoise(rng, h.n, 0.2), T.lo, T.lo + 0.05)
            sbox = box_centered(np.zeros(h.n), 0.2)
            assert_box_enclosed(sh, sbox, T, rng)
            assert_box_enclosed(sh, sbox, T, rng, jac=False)

    def test_window_variation(self):
        # J = 2 p(t) x vanishes at the expansion point 0: over the box it
        # is 2 p(t) delta, so the first order at the window's midpoint
        # alone misses the corners at the window's far end
        eqs = [[Term(1.0, 0, (2,))]]
        h = Homotopy(ParametricSystem(1, 1, eqs), np.array([0.0j]),
                     np.array([1.0 + 0.5j]))
        rng = np.random.default_rng(93)
        for T in (RealInterval(0.0, 1.0), RealInterval(0.5, 0.75)):
            assert_box_enclosed(h, box_centered(np.zeros(1), 0.5), T, rng,
                                np.zeros(1), k=12)

    def test_higher_order(self):
        # J = 3 x^2 + 2 x y has no first order at the expansion point 0:
        # over the box it is all second order
        eqs = [[Term(1.0, None, (3, 0)), Term(1.0, None, (2, 1))],
               [Term(1.0, None, (1, 2)), Term(-1.0 + 2.0j, None, (0, 3))]]
        h = Homotopy(ParametricSystem(2, 1, eqs), np.array([0.0j]),
                     np.array([1.0 + 0.0j]))
        rng = np.random.default_rng(94)
        for r in (0.5, 3.0):
            assert_box_enclosed(h, box_centered(np.zeros(2), r),
                                RealInterval(0.2, 0.3), rng, np.zeros(2),
                                k=12)

    def test_cancelling_coefficients_at_a_point(self):
        # on a box of one point the enclosure is the time enclosure alone:
        # 1e150-scale terms that cancel leave a value far below their
        # rounding, which only rho covers
        eqs = [[Term(1e150 / 3, None, (2, 1)), Term(-1e150 / 7, 0, (1, 2)),
                Term(3e149, 0, (1, 0))],
               [Term(-2e150, 0, (1, 1)), Term(1e150 + 1e135j, None, (0, 2)),
                Term(1e150 / 3, None, (2, 0))]]
        h = Homotopy(ParametricSystem(2, 1, eqs), np.array([7.0 / 3 + 0j]),
                     np.array([1.0 / 3 + 1e-9j]))
        rng = np.random.default_rng(95)
        x = np.array([0.1 + 0.3j, 0.7 / 3 + 0.7j])
        for T in windows(rng, 3):
            assert_box_enclosed(h, Box.degenerate(x), T, rng, x)
            sh = h.sheared(x, x * (1 + 1e-3j), T.lo, T.lo + 0.01)
            z = np.zeros(2, dtype=np.complex128)
            assert_box_enclosed(sh, Box.degenerate(z), T, rng, z)

    def test_subnormal_and_near_overflow_coefficients(self):
        subnormal = [[Term(5e-324, None, (1, 1)), Term(3e-310, 0, (2, 0)),
                      Term(-1e-320, 0, (0, 1))],
                     [Term(2.5e-323, 0, (0, 2)),
                      Term(-7e-315j, None, (1, 1))]]
        huge = [[Term(1e300, None, (2, 1)), Term(-3e299, 0, (1, 2))],
                [Term(-2e300 + 1e299j, 0, (1, 1)),
                 Term(1e300, None, (0, 2))]]
        rng = np.random.default_rng(96)
        for eqs in (subnormal, huge):
            h = Homotopy(ParametricSystem(2, 1, eqs),
                         np.array([0.3 + 0.1j]), np.array([-0.7 + 0.2j]))
            x0 = np.array([0.6 - 0.2j, -1.3 + 0.4j])
            for T in windows(rng, 2):
                assert_box_enclosed(h, box_centered(x0, 0.05), T, rng, x0)
                sh = h.sheared(x0, x0 + cnoise(rng, 2, 0.05), T.lo,
                               T.lo + 0.01)
                assert_box_enclosed(
                    sh, box_centered(np.zeros(2), 1e-3), T, rng)

    def test_steep_shear(self):
        # a shear of slope ~1e6 makes sa and tc*sb large and nearly
        # opposite, so the factors' midpoint values round far above
        # their size
        h, starts = gen_katsura(3)
        rng = np.random.default_rng(97)
        for t0 in (0.3, 0.7):
            sh = h.sheared(starts[0], starts[0] + cnoise(rng, h.n, 1.0),
                           t0, t0 + 1e-6)
            for T in (RealInterval(t0), RealInterval(t0, t0 + 1e-6)):
                assert_box_enclosed(
                    sh, box_centered(cnoise(rng, h.n, 1e-3), 1e-3), T, rng)


class TestSerialization:
    def test_system_json_roundtrip(self):
        h, _ = gen_random_quadratic(2, seed=16)
        obj = h.system.to_json()
        back = ParametricSystem.from_json(obj)
        assert back.n == h.system.n and back.m == h.system.m
        assert back.equations == h.system.equations

    def test_homotopy_json_roundtrip(self):
        h, _ = gen_newton_homotopy(3.0)
        back = Homotopy.from_json(h.to_json())
        assert np.array_equal(back.p0, h.p0)
        assert np.array_equal(back.p1, h.p1)
        x = np.array([1.2 - 0.3j])
        assert np.array_equal(back.eval_point(x, 0.37), h.eval_point(x, 0.37))

    def test_file_roundtrip(self, tmp_path):
        h, _ = gen_random_quadratic(2, seed=17)
        path = tmp_path / "sys.json"
        dump_system(h.system, path)
        back = load_system(path)
        assert back.equations == h.system.equations

    def test_parse_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{ this is not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_system(path)
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"n": 1, "name": "\xe9"}')
        for bad in (tmp_path / "missing.json", tmp_path, latin1):
            with pytest.raises(ParseError, match=re.escape(str(bad))):
                load_system(bad)

    def test_bad_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            ParametricSystem(2, 0, [[Term(1.0, None, (1, 0))]])
        with pytest.raises(DimensionMismatch):
            ParametricSystem(1, 1, [[Term(1.0, 3, (1,))]])
        with pytest.raises(DimensionMismatch):
            ParametricSystem(1, 0, [[Term(1.0, None, (1, 2))]])

    def test_non_integer_exponent_rejected(self):
        # an exponent must be an integer: 2.5 is refused, not read as 2
        for e in (2.5, 2.0, True):
            with pytest.raises(DimensionMismatch, match="bad exponents"):
                ParametricSystem(1, 0, [[Term(1.0, None, (e,))]])
        s = ParametricSystem(1, 0, [[Term(1.0, None, (np.int64(2),))]])
        assert s.equations[0][0].expo == (2,)

    def test_non_integer_parameter_index_rejected(self):
        # a parameter index must be an integer: 0.5 is refused here, not
        # left to fail as a list index inside the kernels
        for par in (0.5, 0.0, True):
            with pytest.raises(DimensionMismatch, match="parameter index"):
                ParametricSystem(1, 1, [[Term(1.0, par, (1,))]])
        s = ParametricSystem(1, 1, [[Term(1.0, np.int64(0), (1,))]])
        assert type(s.equations[0][0].param) is int

    def test_degree_cap(self):
        ParametricSystem(2, 0, [[Term(1.0, None, (MAX_DEGREE - 1, 1))]] * 2)
        with pytest.raises(UnsupportedDegree):
            ParametricSystem(2, 0, [[Term(1.0, None, (MAX_DEGREE, 1))]] * 2)
        obj = ParametricSystem(1, 0, [[Term(1.0, None, (2,))]]).to_json()
        obj["equations"][0][0]["exponents"] = [2**63]
        with pytest.raises(MalformedCertificate):
            ParametricSystem.from_json(obj)

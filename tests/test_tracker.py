"""Trackers: refinement, prediction, preconditioning, stepping, end to end."""

import dataclasses
import math
import multiprocessing

import numpy as np
import pytest

import pathcert.tracker as tracker_mod
import tutil
from pathcert import _pool
from pathcert.bench import (
    gen_katsura,
    gen_newton_homotopy,
    gen_random_quadratic,
    newton_path_point,
)
from pathcert.certificate import MODE_RECT, MODE_TILTED, serialize, verify
from pathcert.errors import (
    MaxStepsExceeded,
    NoConvergence,
    NonFiniteEndpoint,
    PathcertError,
    StepUnderflow,
)
from pathcert.tracker import (
    TrackerConfig,
    make_state,
    newton_refine,
    precondition,
    step_update,
    track,
)

SQRT2 = math.sqrt(2.0)


def direction(h, x, t0):
    """The Euler direction J(x, t0)^{-1} dH/dt as ``track`` takes it, from
    the LU it shares with Y."""
    x = np.asarray(x, dtype=np.complex128).tolist()
    return np.array(tracker_mod._mid_inverse_or_raise(h, x, t0, True)[1])


def euler_predict(h, x, t0, dt):
    """The Euler step that precondition takes before its Newton
    refinement: x - dt * J(x, t0)^{-1} dH/dt."""
    return x - dt * direction(h, x, t0)


class TestNewtonRefine:
    def test_exact_root_returned_unchanged(self):
        h = tutil.linear_path_homotopy()          # H = x - t
        x = np.array([0.25 + 0.0j])
        out, res = newton_refine(h, x, 0.25)
        assert np.array_equal(out, x)
        assert res == 0.0

    def test_sqrt2_from_three_halves(self, monkeypatch):
        h = tutil.sqrt2_homotopy()
        monkeypatch.setattr(tracker_mod, "NEWTON_MAX_ITER", 4)
        out, res = newton_refine(h, np.array([1.5 + 0.0j]), 0.0)
        assert abs(out[0] - SQRT2) <= 1e-12
        assert res <= 1e-12

    def test_newton_family_endpoint(self):
        h, starts = gen_newton_homotopy(10.0)
        res = track(h, starts[0], TrackerConfig(dt0=0.02, r0=0.1),
                    mode=MODE_TILTED)
        last = res.certificate.segments[-1]
        out, _ = newton_refine(h, last.shear_x1, 1.0)
        assert abs(out[0] - 1.0) <= 1e-10
        assert abs(res.final_point[0] - 1.0) <= 1e-10

    def test_no_convergence_reported(self, monkeypatch):
        h = tutil.sqrt2_homotopy()
        monkeypatch.setattr(tracker_mod, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NoConvergence, match="after 1 iterations"):
            newton_refine(h, np.array([1.5 + 0.0j]), 0.0)

    @pytest.mark.parametrize("x0", [(1.0, 1e200), (1.0, math.nan)],
                             ids=["overflow", "nan_entry"])
    def test_nan_residual_diverges(self, x0):
        # x1 - 1 and x2^2 - 4 do not share a variable.  From x2 = 1e200
        # the square overflows and the first iterate is NaN; from x2 = NaN
        # the residual is (0, NaN), and its maximum must be NaN, as numpy's
        # is, not the 0 that Python's max keeps
        h = tutil.static_homotopy(
            [[tutil.Term(1.0, None, (1, 0)), tutil.Term(-1.0, None, (0, 0))],
             [tutil.Term(1.0, None, (0, 2)), tutil.Term(-4.0, None, (0, 0))]],
            2)
        with pytest.raises(NoConvergence, match="Newton diverged at t=0.0"):
            newton_refine(h, np.array(x0, dtype=np.complex128), 0.0)


class TestEulerPredict:
    def test_constant_path_is_fixed_point(self):
        h = tutil.sqrt2_homotopy()                # no t dependence: f1 = 0
        x = np.array([1.5 + 0.0j])
        out = euler_predict(h, x, 0.3, 0.1)
        assert np.array_equal(out, x)

    def test_newton_family_step(self):
        h, starts = gen_newton_homotopy(10.0)
        x = starts[0]
        out = euler_predict(h, x, 0.0, 0.02)
        expected = math.sqrt(11.0) - 0.1 / math.sqrt(11.0)
        assert abs(out[0] - expected) <= 1e-12
        # prediction error against the closed form stays first-order small
        assert abs(out[0] - math.sqrt(10.8)) <= 2e-4

    def test_linear_path_exact(self):
        a, b = 0.25, 0.5
        h = tutil.linear_path_homotopy(a, b)
        for t0, dt in ((0.0, 0.1), (0.3, 0.25), (0.5, 0.5)):
            x = np.array([a + b * t0 + 0.0j])
            out = euler_predict(h, x, t0, dt)
            assert abs(out[0] - (a + b * (t0 + dt))) <= 1e-14

    @pytest.mark.parametrize("family", ["newton", "katsura3"])
    def test_direction_is_the_jacobian_solve(self, family):
        # the direction track shares with Y solves J(x, t0) d = dH/dt
        h, starts = (gen_newton_homotopy(10.0) if family == "newton"
                     else gen_katsura(3))
        for x in starts:
            for t0 in (0.0, 0.5):
                want = np.linalg.solve(h.jac_x_point(x, t0), h.f1_eval(x))
                got = direction(h, x, t0)
                assert (float(np.abs(got - want).max())
                        <= 1e-12 * float(np.abs(want).max()))


class TestPrecondition:
    def test_constant_path_shear_is_constant(self):
        h = tutil.sqrt2_homotopy()
        x0 = np.array([SQRT2 + 0.0j])
        sheared, x1 = precondition(h, x0, 0.2, 0.4, direction(h, x0, 0.2))
        assert np.allclose(x1, x0, rtol=0, atol=1e-12)
        z = np.zeros(1, dtype=np.complex128)
        for t in (0.2, 0.3, 0.4, 0.9):
            assert abs(sheared.eval_point(z, t)[0]) <= 1e-10

    def test_newton_step_endpoints_near_zero(self):
        h, starts = gen_newton_homotopy(10.0)
        x0, _ = newton_refine(h, starts[0], 0.0)
        sheared, x1 = precondition(h, x0, 0.0, 0.02, direction(h, x0, 0.0))
        z = np.zeros(1, dtype=np.complex128)
        assert abs(sheared.eval_point(z, 0.0)[0]) <= 1e-9
        assert abs(sheared.eval_point(z, 0.02)[0]) <= 1e-9
        assert abs(x1[0] - newton_path_point(10.0, 0.02)) <= 1e-9


class TestStepUpdate:
    def test_accept_scales_up(self):
        cfg = TrackerConfig(dt0=0.1, r0=0.1, lam=3.0)
        s = make_state(cfg)
        step_update(s, cfg, True)
        assert s.t0 == 0.1
        assert abs(s.dt - 0.3) <= 1e-16
        assert abs(s.t1 - 0.4) <= 1e-16

    def test_reject_restores_bit_identical(self):
        cfg = TrackerConfig(dt0=0.1, r0=0.1, lam=3.0)
        s = make_state(cfg)
        step_update(s, cfg, True)
        assert s.dt != cfg.dt0
        step_update(s, cfg, False)
        assert s.dt == cfg.dt0          # exact restore via shared exponent
        assert s.r == cfg.r0

    def test_ratio_invariance(self):
        rng = np.random.default_rng(60)
        for dt0, r0 in ((0.1, 0.1), (0.02, 0.1), (0.4, 0.2)):
            cfg = TrackerConfig(dt0=dt0, r0=r0, lam=3.0)
            s = make_state(cfg)
            for _ in range(60):
                accept = bool(rng.random() < 0.6)
                try:
                    step_update(s, cfg, accept)
                except StepUnderflow:
                    break
                if s.t0 >= 1.0:
                    break
                assert math.isclose(s.dt / s.r, dt0 / r0, rel_tol=1e-14)
                if dt0 == r0:
                    assert s.dt == s.r

    def test_underflow_on_rejection_pileup(self):
        cfg = TrackerConfig(dt0=1e-3, r0=1e-3, lam=3.0)
        s = make_state(cfg)
        with pytest.raises(StepUnderflow):
            for _ in range(100):
                step_update(s, cfg, False)

    @pytest.mark.parametrize("rn", [0.0, 0.2, 0.3, 1.0, math.inf])
    def test_accept_grows_only_with_margin(self, rn):
        # sqrt(2) * 3 * rn is 0.85 at rn = 0.2 and 1.27 at rn = 0.3
        cfg = TrackerConfig(dt0=0.1, r0=0.1, lam=3.0)
        s = make_state(cfg)
        step_update(s, cfg, True, rn)
        assert s.t0 == 0.1
        if rn <= 0.2:
            assert (s.scale_exp, s.dt, s.r) == (1, 0.1 * 3.0, 0.1 * 3.0)
        else:
            assert (s.scale_exp, s.dt, s.r) == (0, cfg.dt0, cfg.r0)
            assert s.t1 == s.t0 + cfg.dt0

    def test_reject_after_kept_scale_shrinks_one_power(self):
        cfg = TrackerConfig(dt0=0.1, r0=0.2, lam=3.0)
        s = make_state(cfg)
        step_update(s, cfg, True, 0.5)
        step_update(s, cfg, False)
        assert s.scale_exp == -1 and s.t0 == 0.1
        assert s.dt == cfg.dt0 * cfg.lam ** -1
        assert s.r == cfg.r0 * cfg.lam ** -1

    def test_t1_clamped_at_one(self):
        cfg = TrackerConfig(dt0=0.9, r0=0.9, lam=3.0)
        s = make_state(cfg)
        step_update(s, cfg, True)
        assert s.t1 == 1.0


class TestTrackEndToEnd:
    @pytest.mark.parametrize("mode, r0", [(MODE_RECT, 0.2),
                                          (MODE_TILTED, 0.1)],
                             ids=[MODE_RECT, MODE_TILTED])
    def test_linear_path(self, mode, r0):
        # path x(t) = t; a rect box must hold the drift dt * |x'|, so it
        # needs r > dt, while the tilted box rides on the exact secant
        h = tutil.linear_path_homotopy()
        res = track(h, np.zeros(1, complex), TrackerConfig(dt0=0.1, r0=r0),
                    mode=mode)
        assert abs(res.final_point[0] - 1.0) <= 1e-12
        assert 1 <= res.iterations <= 20
        assert res.rejected == 0
        # the Jacobian is the constant 1, so contraction is trivial
        assert max(s.residual_norm for s in res.certificate.segments) <= 1e-9
        assert verify(res.certificate).ok

    @pytest.mark.parametrize("mode", [MODE_RECT, MODE_TILTED])
    def test_newton_family_both_modes(self, mode):
        h, starts = gen_newton_homotopy(10.0)
        res = track(h, starts[0], TrackerConfig(dt0=0.02, r0=0.1), mode=mode)
        assert abs(res.final_point[0] - 1.0) <= 1e-10
        assert res.final_residual <= 1e-10
        assert verify(res.certificate).ok

    def test_chain_tiles_unit_interval(self):
        h, starts = gen_newton_homotopy(10.0)
        res = track(h, starts[0], TrackerConfig(dt0=0.02, r0=0.1),
                    mode=MODE_TILTED)
        segs = res.certificate.segments
        assert segs[0].t_lo == 0.0
        for a, b in zip(segs, segs[1:]):
            assert a.t_hi == b.t_lo
        assert segs[-1].t_hi == 1.0

    def test_true_path_inside_certified_regions(self):
        m = 10.0
        h, starts = gen_newton_homotopy(m)
        cfg = TrackerConfig(dt0=0.02, r0=0.1)
        for res in (track(h, starts[0], cfg, mode=MODE_RECT),
                    track(h, starts[0], cfg, mode=MODE_TILTED)):
            for seg in res.certificate.segments:
                for t in np.linspace(seg.t_lo, seg.t_hi, 100):
                    xt = newton_path_point(m, float(t))
                    if res.mode == MODE_TILTED:
                        frac = (t - seg.t_lo) / (seg.t_hi - seg.t_lo)
                        s = seg.shear_x0 + frac * (seg.shear_x1 - seg.shear_x0)
                        xt = xt - s[0]
                    assert seg.box.contains_point(np.array([xt]))

    def test_iterations_equal_segments_and_tests_split(self):
        h, starts = gen_newton_homotopy(40.0)
        res = track(h, starts[0], TrackerConfig(dt0=0.02, r0=0.1),
                    mode=MODE_TILTED)
        assert res.iterations == len(res.certificate.segments)
        assert res.tests == len(res.step_log)
        assert res.tests == res.iterations + res.rejected
        assert sum(1 for r in res.step_log if r.accepted) == res.iterations

    def test_determinism_bit_identical(self):
        h, starts = gen_newton_homotopy(10.0)
        cfg = TrackerConfig(dt0=0.02, r0=0.1)
        a = track(h, starts[0], cfg, mode=MODE_TILTED)
        b = track(h, starts[0], cfg, mode=MODE_TILTED)
        assert serialize(a.certificate) == serialize(b.certificate)
        assert [(r.t0, r.dt, r.r, r.accepted) for r in a.step_log] == \
               [(r.t0, r.dt, r.r, r.accepted) for r in b.step_log]

    def test_step_underflow_at_singular_endpoint(self, monkeypatch):
        # x^2 - (1 - t): the two roots collide at t = 1, so certifiable
        # windows shrink with the distance to the branch point and dt
        # ratchets below the floor before reaching 1
        sysm = tutil.ParametricSystem(1, 1, [[
            tutil.Term(1.0, None, (2,)),
            tutil.Term(-1.0, 0, (0,)),
        ]])
        h = tutil.Homotopy(sysm, np.array([1.0 + 0.0j]),
                           np.array([0.0 + 0.0j]))
        monkeypatch.setattr(tracker_mod, "MIN_DT", 1e-8)
        with pytest.raises(StepUnderflow, match="below 1e-08"):
            track(h, np.array([1.0 + 0.0j]), TrackerConfig(),
                  mode=MODE_TILTED)

    def test_max_steps_cap(self, monkeypatch):
        h, starts = gen_newton_homotopy(10.0)
        monkeypatch.setattr(tracker_mod, "MAX_STEPS", 2)
        with pytest.raises(MaxStepsExceeded, match="2 steps"):
            track(h, starts[0], TrackerConfig(dt0=0.02, r0=0.1),
                  mode=MODE_TILTED)

    def test_dispatcher(self):
        # rect mode needs dt/r comfortably below 1/max|x'| (drift must fit
        # the radius); R = 0.2 clears the family's peak slope of 5
        h, starts = gen_newton_homotopy(10.0)
        cfg = TrackerConfig(dt0=0.02, r0=0.1)
        rect = track(h, starts[0], cfg, mode=MODE_RECT)
        tilt = track(h, starts[0], cfg, mode=MODE_TILTED)
        assert rect.mode == rect.certificate.mode == MODE_RECT
        assert tilt.mode == tilt.certificate.mode == MODE_TILTED
        # the preconditioned mode is not slower in advancing steps
        assert tilt.iterations <= rect.iterations * 1.2 + 2
        with pytest.raises(ValueError):
            track(h, starts[0], cfg, mode="diagonal")

    def test_sheared_input_rejected(self):
        h, starts = gen_newton_homotopy(10.0)
        z = np.zeros(1, dtype=np.complex128)
        sh = h.sheared(z, z + 1.0, 0.0, 1.0)
        with pytest.raises(PathcertError):
            track(sh, starts[0], mode=MODE_TILTED)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(dt0=0.0)
        with pytest.raises(ValueError):
            TrackerConfig(r0=-1.0)
        with pytest.raises(ValueError):
            TrackerConfig(lam=1.0)
        assert [f.name for f in dataclasses.fields(TrackerConfig)] == \
               ["dt0", "r0", "lam"]
        assert (tracker_mod.MAX_STEPS, tracker_mod.NEWTON_TOL,
                tracker_mod.NEWTON_MAX_ITER, tracker_mod.MIN_DT,
                tracker_mod.MAX_CONSECUTIVE_REJECTIONS) \
            == (1_000_000, 1e-12, 50, 1e-14, 60)


class TestStepWork:
    """Each piece of a tilted step runs at most once: Newton once per
    attempt (in the prediction) plus once at the start, and the enclosure
    of H over T once per test."""

    def test_newton_family_call_counts(self, monkeypatch):
        from pathcert.systems import Homotopy
        counts = {"eval_over_time": 0, "newton_refine": 0}
        verdicts = []
        real_eval = Homotopy.eval_over_time
        real_newton = tracker_mod.newton_refine
        real_test = tracker_mod.parametric_krawczyk_test

        def eval_over_time(self, x, T):
            counts["eval_over_time"] += 1
            return real_eval(self, x, T)

        def newton(*args, **kwargs):
            counts["newton_refine"] += 1
            return real_newton(*args, **kwargs)

        def test(*args):
            verdicts.append(real_test(*args))
            return verdicts[-1]

        monkeypatch.setattr(Homotopy, "eval_over_time", eval_over_time)
        monkeypatch.setattr(tracker_mod, "newton_refine", newton)
        monkeypatch.setattr(tracker_mod, "parametric_krawczyk_test", test)
        h, starts = gen_newton_homotopy(10.0)
        res = track(h, starts[0], TrackerConfig(dt0=0.02, r0=0.1),
                    mode=MODE_TILTED)
        contracting = sum(SQRT2 * v.residual_norm < 1.0 for v in verdicts)
        assert len(verdicts) == res.tests
        assert 0 < contracting < res.tests
        assert counts["eval_over_time"] == res.tests
        assert counts["newton_refine"] == len(res.step_log) + 1

    def test_failed_prediction_is_rejected_without_a_test(self, monkeypatch):
        real_precondition = tracker_mod.precondition
        calls = []

        def precondition(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise NoConvergence("injected prediction failure")
            return real_precondition(*args, **kwargs)

        monkeypatch.setattr(tracker_mod, "precondition", precondition)
        h, starts = gen_newton_homotopy(10.0)
        res = track(h, starts[0], TrackerConfig(dt0=0.02, r0=0.1),
                    mode=MODE_TILTED)
        first, second = res.step_log[:2]
        assert not first.accepted and math.isnan(first.residual_norm)
        assert second.t0 == first.t0 == 0.0 and second.dt < first.dt
        assert res.tests == len(res.step_log) - 1
        assert res.rejected == len(res.step_log) - res.iterations
        assert abs(res.final_point[0] - 1.0) <= 1e-10
        assert verify(res.certificate).ok

    def test_overflowing_test_is_rejected(self, monkeypatch):
        real_test = tracker_mod.parametric_krawczyk_test
        calls = []

        def test(*args):
            calls.append(args)
            if len(calls) == 1:
                raise NonFiniteEndpoint("Krawczyk image has non-finite "
                                        "endpoints")
            return real_test(*args)

        monkeypatch.setattr(tracker_mod, "parametric_krawczyk_test", test)
        h, starts = gen_newton_homotopy(10.0)
        res = track(h, starts[0], TrackerConfig(dt0=0.02, r0=0.1),
                    mode=MODE_TILTED)
        first, second = res.step_log[:2]
        assert not first.accepted and math.isnan(first.residual_norm)
        assert second.t0 == first.t0 == 0.0 and second.dt < first.dt
        assert res.tests == len(res.step_log)
        assert verify(res.certificate).ok


def singular_end2():
    """x^2 - (1 - t), y - x: both unknowns run into the double root 0 at
    t = 1, so certifiable steps shrink toward the end."""
    sysm = tutil.ParametricSystem(2, 1, [
        [tutil.Term(1.0, None, (2, 0)), tutil.Term(-1.0, 0, (0, 0))],
        [tutil.Term(1.0, None, (0, 1)), tutil.Term(-1.0, None, (1, 0))],
    ])
    h = tutil.Homotopy(sysm, np.array([1.0 + 0.0j]), np.array([0.0 + 0.0j]))
    return h, np.array([1.0 + 0.0j, 1.0 + 0.0j])


def random2(mode=MODE_TILTED):
    h, starts = gen_random_quadratic(2)
    cfg = TrackerConfig() if mode == MODE_TILTED else \
        TrackerConfig(dt0=0.001, r0=0.1)
    return track(h, starts[0], cfg, mode=mode)


def outcome(monkeypatch, run):
    """What run() gives: the certificate's text or the error's type and
    message, and the step log up to then, as reprs (exact for floats, and
    NaN equals NaN)."""
    states = []
    real_make_state = tracker_mod.make_state

    def make_state(cfg):
        states.append(real_make_state(cfg))
        return states[-1]

    monkeypatch.setattr(tracker_mod, "make_state", make_state)
    try:
        got = serialize(run().certificate)
    except PathcertError as e:
        got = (type(e), str(e))
    return got, [repr(r) for r in states[-1].step_log]


def fail_precondition_at(monkeypatch, hit, error):
    """Make precondition raise error for every (t0, t1) with hit(t0, t1)."""
    real = tracker_mod.precondition

    def precondition(h, x0, t0, t1, direction):
        if hit(t0, t1):
            raise error
        return real(h, x0, t0, t1, direction)

    monkeypatch.setattr(tracker_mod, "precondition", precondition)


class TestSiblingAttempts:
    """Each round runs one attempt in this process; after a rejection the
    next round runs its sibling, the attempt one step size down from the
    same t0.  Each case checks what a path gives: its certificate, its step
    log, or the error it ends with and the steps logged before it.
    Tracking starts no process."""

    @pytest.mark.parametrize("mode", [MODE_TILTED, MODE_RECT])
    def test_success_identical(self, monkeypatch, mode):
        cert, log = outcome(monkeypatch, lambda: random2(mode))
        assert isinstance(cert, str) and len(log) > 100

    def test_step_underflow_at_singular_endpoint(self, monkeypatch):
        monkeypatch.setattr(tracker_mod, "MIN_DT", 1e-8)
        h, x0 = singular_end2()
        (kind, msg), log = outcome(
            monkeypatch, lambda: track(h, x0, TrackerConfig()))
        assert kind is StepUnderflow and "below 1e-08" in msg
        assert "t0=0.9" in log[-1]

    def test_rejection_limit(self, monkeypatch):
        monkeypatch.setattr(tracker_mod, "MAX_CONSECUTIVE_REJECTIONS", 3)
        h, x0 = singular_end2()
        (kind, msg), log = outcome(
            monkeypatch, lambda: track(h, x0, TrackerConfig()))
        assert kind is StepUnderflow and "4 consecutive rejections" in msg
        assert all("accepted=False" in r for r in log[-4:])

    @pytest.mark.parametrize("max_steps", [2, 3])
    def test_max_steps(self, monkeypatch, max_steps):
        monkeypatch.setattr(tracker_mod, "MAX_STEPS", max_steps)
        (kind, msg), log = outcome(monkeypatch, random2)
        assert kind is MaxStepsExceeded and f"{max_steps} steps" in msg
        assert len(log) == max_steps

    @pytest.mark.parametrize("which", ["first", "sibling"])
    def test_prediction_error_raises_in_serial_order(self, monkeypatch,
                                                     which):
        # an error that is no tracking failure ends the path at the
        # attempt that raised it: a rejected first attempt at some t0, or
        # its accepted sibling
        log = random2().step_log
        i = next(i for i in range(1, len(log) - 1)
                 if log[i - 1].accepted and not log[i].accepted
                 and log[i + 1].accepted)
        target = log[i] if which == "first" else log[i + 1]
        fail_precondition_at(
            monkeypatch,
            lambda t0, t1: (t0, t1 - t0) == (target.t0, target.dt),
            PathcertError("injected prediction failure"))
        (kind, msg), got = outcome(monkeypatch, random2)
        assert (kind, msg) == (PathcertError, "injected prediction failure")
        assert got == [repr(r) for r in log[:i if which == "first" else i + 1]]

    def test_prediction_failure_rejects_identically(self, monkeypatch):
        # steps above 0.02, and above 0.002 for t0 in [0.3, 0.4), fail
        # their prediction and are rejected without a test
        fail_precondition_at(
            monkeypatch,
            lambda t0, t1: t1 - t0 > (0.002 if 0.3 <= t0 < 0.4 else 0.02),
            NoConvergence("injected prediction failure"))
        cert, log = outcome(monkeypatch, random2)
        assert isinstance(cert, str)
        assert sum("residual_norm=nan" in r for r in log) > 10

    def test_error_in_discarded_sibling_is_dropped(self, monkeypatch):
        # the sibling of an attempt that passes at once never runs, so an
        # error it would raise must not surface
        want = random2()
        log = want.step_log
        i = next(i for i in range(1, len(log))
                 if log[i - 1].accepted and log[i].accepted)
        target = log[i]
        fail_precondition_at(
            monkeypatch,
            lambda t0, t1: t0 == target.t0 and t1 - t0 < target.dt,
            PathcertError("injected prediction failure"))
        cert, got = outcome(monkeypatch, random2)
        assert cert == serialize(want.certificate)
        assert got == [repr(r) for r in log]

    def test_prefetch_only_for_the_same_point(self, monkeypatch):
        # the midpoint inverse and the Euler direction come from one LU,
        # computed once per start point, and serve its attempts only
        calls = []
        real = tracker_mod._mid_inverse_or_raise

        def record(h, x, t0, tilted):
            y, direction = real(h, x, t0, tilted)
            calls.append((t0, direction is not None))
            return y, direction

        monkeypatch.setattr(tracker_mod, "_mid_inverse_or_raise", record)
        log = random2().step_log
        points = list(dict.fromkeys(r.t0 for r in log))
        assert len(points) < len(log)
        assert calls == [(t0, True) for t0 in points]

    def test_track_starts_no_process(self, monkeypatch):
        # even where the pool would use two cores
        monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
        res, started = tutil.starts_while(random2)
        assert started == 0 and multiprocessing.active_children() == []
        assert verify(res.certificate).ok

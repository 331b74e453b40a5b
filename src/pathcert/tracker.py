"""Certified path tracking.

One step-size loop over the parameter segment t in [0, 1].  Each attempt
tests a box of radius r over T = [t0, t1] with the parametric Krawczyk
test.  On success t0 advances to t1 and dt and r scale up by lambda when
the test left room for it; on failure both scale down and the attempt is
retried from the same x and Y, the midpoint inverse of the Jacobian at
(x, t0).  The mode decides only the frame an attempt is tested in and the
point the next step starts from:

rect:   test H in a box centered at the current refined point x.  On
        success refine x with Newton at the new t0.

tilted: once per t0, compute the Euler direction J(x, t0)^{-1} dH/dt.
        For each attempt, predict x1 at t1 along it, refine x1 with
        Newton, shear the homotopy along the line through (t0, x) and
        (t1, x1), and test a box centered at 0 for the sheared map.  The
        box then rides along the secant of the path, which keeps it small
        even when the path moves fast.  An attempt whose prediction fails
        is rejected without a test.  On success x1, already refined at
        the new t0, becomes x.

In both modes x meets the Newton tolerance NEWTON_TOL at t0 whenever a
test runs, so a failure leaves x as it is.  Every Newton refinement stops
at that absolute residual or fails after NEWTON_MAX_ITER iterations.  At
each new t0 one point Jacobian and one LU factorization give both Y and,
in tilted mode, the Euler direction.

A step is accepted only when the Krawczyk test proves existence and
uniqueness over the whole time slice, so the accepted segments assemble
into a machine-checkable certificate chain tiling [0, 1].

Step scheduling keeps dt and r locked to a common power of lambda:
dt = dt0 * lambda^k and r = r0 * lambda^k with one shared integer k, so a
success followed by a failure restores bit-identical values and the ratio
dt/r never drifts by more than rounding.  A failure lowers k by one.  A
success raises it only when the accepted test's contraction norm leaves
room for the larger box, sqrt(2) * lambda * ||I - YJ|| < 1; otherwise k
stays.  The norm scales about linearly with the box and the step, so a
grown attempt past that margin would almost always fail uniqueness
(Kearfott & Xing 1994 drive the step from the same margin).  The rule
only picks which attempts run; every accepted step still passes the full
test.  At lambda = 3 most accepted steps stopped one power below the
uniqueness limit.  Of the finer lattices {1.25, 1.5, sqrt(3), 2},
lambda = 1.25 runs the fewest tests on the benchmark families and is the
only one with which every path certifies and every acceptance criterion
passes; it takes katsura3 from 851 segments to 524 and lowrank_n4 from
474 to 323.

The step loop computes in the kernels' Python lists (``_kernels``) from
Newton to the verdict: x, the rows of Y, the Euler direction and the
boxes stay lists across attempts.  An accepted Segment keeps the tested
box as it is; numpy arrays are made for its Y and anchors, for the
certificate and for the return values of the public functions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as _k
from .certificate import MODE_RECT, MODE_TILTED, PathCertificate, Segment
from .errors import (
    DegenerateTimeInterval,
    MaxStepsExceeded,
    NoConvergence,
    PathcertError,
    SingularJacobian,
    SingularMatrix,
    StepUnderflow,
    TrackingError,
)
from .ilinalg import mid_inverse
from .intervals import RealInterval, box_centered, point_list
from .krawczyk import parametric_krawczyk_test


# Limits no caller tunes.  track, step_update and newton_refine read them
# when called.
MAX_STEPS = 1_000_000              # step attempts per path
NEWTON_TOL = 1e-12                 # absolute residual a refinement stops at
NEWTON_MAX_ITER = 50               # Newton iterations per refinement
MIN_DT = 1e-14                     # smallest step size tried
MAX_CONSECUTIVE_REJECTIONS = 60    # rejections in a row at one t0


@dataclass(frozen=True)
class TrackerConfig:
    dt0: float = 0.1
    r0: float = 0.1
    lam: float = 1.25

    def __post_init__(self):
        if not (self.dt0 > 0 and math.isfinite(self.dt0)):
            raise ValueError(f"dt0 must be positive, got {self.dt0}")
        if not (self.r0 > 0 and math.isfinite(self.r0)):
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if not (self.lam > 1 and math.isfinite(self.lam)):
            raise ValueError(f"lambda must exceed 1, got {self.lam}")


@dataclass
class StepRecord:
    index: int
    t0: float
    dt: float
    r: float
    accepted: bool
    residual_norm: float


@dataclass
class TrackState:
    """Mutable bookkeeping of one tracked path."""
    t0: float
    t1: float
    dt: float
    r: float
    scale_exp: int = 0
    consecutive_rejections: int = 0
    tests: int = 0
    step_log: "list[StepRecord]" = field(default_factory=list)


def make_state(cfg):
    return TrackState(t0=0.0, t1=min(cfg.dt0, 1.0), dt=cfg.dt0, r=cfg.r0)


def step_update(state, cfg, accepted, residual_norm=math.nan):
    """Log the step just tested and move the (t0, t1, dt, r) frame.

    Accepted: advance t0 to t1, and scale dt and r up by lambda unless
    the test's contraction norm says the larger step would fail,
    sqrt(2) * lambda * residual_norm >= 1 (a NaN norm grows).  Rejected:
    scale both down, keep t0.  Either way t1 = min(t0 + dt, 1).  Raises
    StepUnderflow when dt collapses or rejections pile up.
    """
    state.step_log.append(StepRecord(
        index=len(state.step_log), t0=state.t0, dt=state.t1 - state.t0,
        r=state.r, accepted=bool(accepted), residual_norm=residual_norm))
    if accepted:
        state.consecutive_rejections = 0
        if not math.sqrt(2.0) * cfg.lam * residual_norm >= 1.0:
            state.scale_exp += 1
        state.t0 = state.t1
    else:
        state.consecutive_rejections += 1
        if state.consecutive_rejections > MAX_CONSECUTIVE_REJECTIONS:
            raise StepUnderflow(
                f"{state.consecutive_rejections} consecutive rejections "
                f"at t={state.t0}")
        state.scale_exp -= 1
    scale = cfg.lam ** state.scale_exp
    state.dt = cfg.dt0 * scale
    state.r = cfg.r0 * scale
    if not accepted and state.dt < MIN_DT:
        raise StepUnderflow(f"dt={state.dt} below {MIN_DT} at t={state.t0}")
    state.t1 = min(state.t0 + state.dt, 1.0)
    return state


def _max_abs(v):
    """max |v_i| of a list of complex as numpy computes it: NaN when any
    entry is NaN, inf where abs overflows."""
    best = 0.0
    for z in v:
        a = _k._cabs(z)
        if a != a:
            return a
        if a > best:
            best = a
    return best


def newton_refine(h, x, t):
    """Newton-iterate x toward a root of H(., t); returns (point, residual).

    Returns immediately when the residual is already at NEWTON_TOL.
    Raises SingularJacobian or NoConvergence; never returns a point whose
    residual exceeds NEWTON_TOL.
    """
    x = h._point(x)
    at = h._at(t)
    fx = h._eval(x, at)
    res = _max_abs(fx)
    if res <= NEWTON_TOL:
        return np.array(x, dtype=np.complex128), res
    for _ in range(NEWTON_MAX_ITER):
        lu, piv, ok = _k.lu_factor_k(h._jac(x, at))
        if not ok:
            raise SingularJacobian(f"Jacobian singular at t={t}")
        x = [a - d for a, d in zip(x, _k.lu_apply_k(lu, piv, fx))]
        fx = h._eval(x, at)
        res = _max_abs(fx)
        if not math.isfinite(res):
            raise NoConvergence(f"Newton diverged at t={t}")
        if res <= NEWTON_TOL:
            return np.array(x, dtype=np.complex128), res
    raise NoConvergence(
        f"Newton residual {res:.3e} above {NEWTON_TOL:.1e} after "
        f"{NEWTON_MAX_ITER} iterations at t={t}")


def precondition(h, x0, t0, t1, direction):
    """Predict x1 at t1, then shear the homotopy through (t0, x0) and
    (t1, x1).  Returns (sheared homotopy, x1).

    The prediction is an Euler step along ``direction``, the solve
    J(x0, t0)^{-1} dH/dt that ``track`` takes from the LU it shares with Y
    (``_mid_inverse_or_raise``), refined at t1 with Newton.
    """
    if not (t1 > t0):
        raise DegenerateTimeInterval(f"need t1 > t0, got [{t0}, {t1}]")
    x0 = point_list(x0)
    dt = complex(t1 - t0)
    x1, _ = newton_refine(
        h, [a - dt * d for a, d in zip(x0, point_list(direction))], t1)
    return h.sheared(x0, x1, t0, t1), x1


@dataclass
class TrackResult:
    """Outcome of tracking one path.

    iterations counts the accepted, time-advancing steps; it equals the
    number of segments in the certificate.  tests counts every Krawczyk
    test run, accepted and rejected alike, so tests - iterations is the
    number of rejections paid to the step-size search.
    """
    path_id: int
    mode: str
    certificate: PathCertificate
    iterations: int
    tests: int
    rejected: int
    step_log: "list[StepRecord]"
    final_point: np.ndarray
    final_residual: float


def _mid_inverse_or_raise(h, x, t, tilted):
    """Y = J(x, t)^{-1} and, in tilted mode, the Euler direction
    J(x, t)^{-1} dH/dt as a list (else None), from one point Jacobian and
    one LU factorization.  dH/dt is the parameter part of H at the
    displacement p1 - p0, constant in t; the direction is the negated
    velocity of the path.  The inverse's checks run first."""
    try:
        jac = h._jac(x, h._at(t))
        if not tilted:
            return mid_inverse(jac), None
        y, direction = mid_inverse(jac, h._f1(x))
    except SingularMatrix as e:
        raise SingularJacobian(f"Jacobian not invertible at t={t}") from e
    return y, direction.tolist()


def _tilted_frame(h, x, direction, t0, t1):
    """The sheared map and its box center 0 for one tilted attempt, and
    the refined prediction x1 at t1; None when the prediction fails."""
    try:
        sheared, x1 = precondition(h, x, t0, t1, direction)
    except (TrackingError, SingularMatrix):
        return None
    return sheared, [0j] * h.n, x1


def track(h, x0, cfg=None, mode=MODE_TILTED, path_id=0):
    """Track the path of the unsheared homotopy h from x0 at t = 0 to t = 1.

    The mode picks the frame each attempt is tested in and the point the
    next step starts from; the step-size loop, its accounting and the
    certificate are shared.
    """
    if mode not in (MODE_RECT, MODE_TILTED):
        raise ValueError(f"unknown mode {mode!r}")
    tilted = mode == MODE_TILTED
    cfg = cfg or TrackerConfig()
    if h.shear is not None:
        raise PathcertError("tracking expects an unsheared homotopy")
    x = newton_refine(h, x0, 0.0)[0].tolist()
    state = make_state(cfg)
    segments = []
    y = None
    while state.t0 < 1.0:
        if y is None:
            # first attempt at this t0: Y as an array for its segment and
            # as rows for the tests
            y, direction = _mid_inverse_or_raise(h, x, state.t0, tilted)
            y_rows = y.tolist()
        if len(state.step_log) >= MAX_STEPS:
            raise MaxStepsExceeded(f"{MAX_STEPS} steps at t={state.t0}")
        if tilted:
            frame = _tilted_frame(h, x, direction, state.t0, state.t1)
        else:
            frame = h, x, None
        ok = False
        rn = math.nan
        if frame is not None:
            g, center, x1 = frame
            box = box_centered(center, state.r)
            T = RealInterval(state.t0, state.t1)
            try:
                verdict = parametric_krawczyk_test(g, center, y_rows, box, T)
                ok = verdict.passed
                rn = verdict.residual_norm
            except PathcertError:
                pass            # a test that raises rejects the step
            state.tests += 1
        if ok:
            here = np.array(x, dtype=np.complex128)
            anchors = ({"shear_x0": here, "shear_x1": x1} if tilted
                       else {"center": here})
            segments.append(Segment(state.t0, state.t1, box, y, rn,
                                    **anchors))
        step_update(state, cfg, ok, rn)
        if ok:
            if tilted:
                x = x1.tolist()
            else:
                x = newton_refine(h, x, state.t0)[0].tolist()
            y = None
    x = np.array(x, dtype=np.complex128)
    final_res = float(np.abs(h.eval_point(x, 1.0)).max())
    cert = PathCertificate(mode, h, segments, x, final_res, path_id=path_id)
    return TrackResult(path_id, mode, cert, len(segments), state.tests,
                       len(state.step_log) - len(segments),
                       state.step_log, x, final_res)

"""Shared test helpers: exact-arithmetic oracles, tiny system builders
and a count of the processes a call starts.

The containment oracles decide membership of an EXACT real/complex result
in a computed interval.  A cheap float screen with a deliberately huge
relative margin (1e-12, about four orders of magnitude above any actual
binary64 rounding error in the screened expressions) settles the easy
cases; anything near a boundary falls through to fractions.Fraction
arithmetic, which is exact for binary64 inputs.  The screen can only send
more cases to the exact path, never mislabel one, so the verdict is
always the exact one.
"""

import math
import multiprocessing
from fractions import Fraction
from unittest import mock

import numpy as np

from pathcert import _kernels
from pathcert.systems import Homotopy, ParametricSystem, Term

SCREEN_REL = 1e-12
SCREEN_ABS = 1e-300


def fr(x):
    return Fraction(x)


# --- exact complex arithmetic on (Fraction re, Fraction im) pairs -----------

def c_pair(z):
    return (Fraction(z.real), Fraction(z.imag))


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_div(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    if den == 0:
        raise ZeroDivisionError("exact complex division by zero")
    return ((a[0] * b[0] + a[1] * b[1]) / den,
            (a[1] * b[0] - a[0] * b[1]) / den)


def c_scale(a, s):
    return (a[0] * s, a[1] * s)


# --- exact membership --------------------------------------------------------

def real_in(iv, v):
    """Exact Fraction v inside the interval iv = (lo, hi) (closed)."""
    return fr(iv[0]) <= v <= fr(iv[1])


def cplx_in(ci, v):
    """Exact (re, im) Fraction pair v inside the rectangle ci =
    (re_lo, re_hi, im_lo, im_hi) (closed)."""
    return real_in(ci[:2], v[0]) and real_in(ci[2:], v[1])


def row_in(row, v):
    """(re, im) Fraction pair inside a box data row (re_lo, re_hi, im_lo, im_hi)."""
    return (fr(row[0]) <= v[0] <= fr(row[1])
            and fr(row[2]) <= v[1] <= fr(row[3]))


def _screen(lo, hi, z, scale):
    m = SCREEN_REL * (scale + abs(z)) + SCREEN_ABS
    return (z - lo) >= m and (hi - z) >= m


def real_op_contained(iv, x, y, op):
    """Exact containment of x op y in iv = (lo, hi), for float x, y."""
    if op == "+":
        z, exact = x + y, lambda: fr(x) + fr(y)
    elif op == "-":
        z, exact = x - y, lambda: fr(x) - fr(y)
    elif op == "*":
        z, exact = x * y, lambda: fr(x) * fr(y)
    elif op == "/":
        z, exact = x / y, lambda: fr(x) / fr(y)
    else:
        raise ValueError(op)
    if _screen(iv[0], iv[1], z, abs(x) + abs(y)):
        return True
    return real_in(iv, exact())


def cplx_op_contained(ci, x, y, op):
    """Exact containment of complex x op y in the rectangle ci =
    (re_lo, re_hi, im_lo, im_hi)."""
    z = {"+": x + y, "-": x - y, "*": x * y, "/": x / y}[op]
    scale = abs(x.real) + abs(x.imag) + abs(y.real) + abs(y.imag)
    if op == "/":
        scale = scale / (y.real * y.real + y.imag * y.imag) + scale
    if (_screen(ci[0], ci[1], z.real, scale)
            and _screen(ci[2], ci[3], z.imag, scale)):
        return True
    f = {"+": c_add, "-": c_sub, "*": c_mul, "/": c_div}[op]
    return cplx_in(ci, f(c_pair(x), c_pair(y)))


def row_contains_complex(row, z, scale):
    """Containment of a float complex z whose exact value is z itself."""
    if (_screen(row[0], row[1], z.real, scale)
            and _screen(row[2], row[3], z.imag, scale)):
        return True
    return row_in(row, c_pair(z))


# --- exact polynomial evaluation ---------------------------------------------

def exact_params_at(h, t):
    """Exact p(t) = (1-t) p0 + t p1 as Fraction pairs, t a float."""
    ft = fr(t)
    one_minus = 1 - ft
    out = []
    for a, b in zip(h.p0, h.p1):
        out.append(c_add(c_scale(c_pair(a), one_minus), c_scale(c_pair(b), ft)))
    return out


def exact_eval(system, xq, pq):
    """Exact system value at Fraction-pair points xq (vars) and pq (params)."""
    out = []
    for eq in system.equations:
        acc = (Fraction(0), Fraction(0))
        for term in eq:
            v = c_pair(term.coeff)
            if term.param is not None:
                v = c_mul(v, pq[term.param])
            for xi, e in zip(xq, term.expo):
                for _ in range(e):
                    v = c_mul(v, xi)
            acc = c_add(acc, v)
        out.append(acc)
    return out


def exact_homotopy_eval(h, x, t):
    """Exact H(x + s(t), t), floats in, Fraction pairs out, where
    s(t) = sa + t*sb is the homotopy's shear (zero when unsheared)."""
    xq = [c_pair(xi) for xi in np.asarray(x, dtype=np.complex128)]
    if h.shear is not None:
        ft = fr(t)
        xq = [c_add(v, c_add(c_pair(a), c_scale(c_pair(b), ft)))
              for v, a, b in zip(xq, h._sa, h._sb)]
    return exact_eval(h.system, xq, exact_params_at(h, t))


def exact_jacobian(system, xq, pq):
    """Exact dF/dx at Fraction-pair points xq (vars) and pq (params), as
    rows of Fraction pairs."""
    n = system.n
    out = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    for i, eq in enumerate(system.equations):
        for term in eq:
            base = c_pair(term.coeff)
            if term.param is not None:
                base = c_mul(base, pq[term.param])
            for k, ek in enumerate(term.expo):
                if ek == 0:
                    continue
                v = c_scale(base, ek)
                for j, (xj, e) in enumerate(zip(xq, term.expo)):
                    for _ in range(e - (j == k)):
                        v = c_mul(v, xj)
                out[i][k] = c_add(out[i][k], v)
    return out


def exact_homotopy_jac(h, x, t):
    """Exact dH/dx at (x + s(t), t), floats in, rows of Fraction pairs
    out, where s(t) = sa + t*sb is the homotopy's shear (zero when
    unsheared)."""
    xq = [c_pair(xi) for xi in np.asarray(x, dtype=np.complex128)]
    if h.shear is not None:
        ft = fr(t)
        xq = [c_add(v, c_add(c_pair(a), c_scale(c_pair(b), ft)))
              for v, a, b in zip(xq, h._sa, h._sb)]
    return exact_jacobian(h.system, xq, exact_params_at(h, t))


def eval_contained(h, box, x, t, scale_hint=None):
    """Exact containment of H(x, t) in an eval enclosure box (unsheared)."""
    z = h.eval_point(x, t)
    exact = None
    for i in range(box.n):
        row = box.data[i]
        scale = scale_hint if scale_hint is not None else (
            float(np.abs(np.asarray(x)).sum()) + abs(z[i]) + 1.0)
        if (_screen(row[0], row[1], z[i].real, scale)
                and _screen(row[2], row[3], z[i].imag, scale)):
            continue
        if exact is None:
            exact = exact_homotopy_eval(h, x, t)
        if not row_in(row, exact[i]):
            return False
    return True


# --- tiny homotopy builders ---------------------------------------------------

def static_homotopy(eqs, n, m=1):
    """Homotopy constant in t: p0 = p1 = ones, so f1 vanishes."""
    sysm = ParametricSystem(n, m, eqs)
    ones = np.ones(m, dtype=np.complex128)
    return Homotopy(sysm, ones.copy(), ones.copy())


def univariate_static(coeffs):
    """H(x, t) = sum_d coeffs[d] x^d, constant in t.

    The constant term rides on a parameter frozen at 1 so the system has
    a parameter slot without any t dependence.
    """
    terms = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        terms.append(Term(c, 0 if d == 0 else None, (d,)))
    if not terms:
        terms = [Term(0.0, None, (0,))]
    return static_homotopy([terms], 1)


def sqrt2_homotopy():
    """x^2 - 2 with no time dependence."""
    return univariate_static([-2.0, 0.0, 1.0])


def linear_path_homotopy(a=0.0, b=1.0):
    """H(x, t) = x - a - b t, exact path x(t) = a + b t."""
    sysm = ParametricSystem(1, 1, [[
        Term(1.0, None, (1,)),
        Term(-a, None, (0,)),
        Term(-b, 0, (0,)),
    ]])
    return Homotopy(sysm, np.array([0.0 + 0.0j]), np.array([1.0 + 0.0j]))


# --- samplers -----------------------------------------------------------------

def sample_interval(rng, lo, hi, k):
    u = rng.random(k)
    return np.clip(lo + u * (hi - lo), lo, hi)


def sample_ci(rng, ci, k):
    """k complex samples inside the rectangle ci."""
    re = sample_interval(rng, ci[0], ci[1], k)
    im = sample_interval(rng, ci[2], ci[3], k)
    return re + 1j * im


def sample_box(rng, box, k):
    """(k, n) complex samples inside a Box."""
    d = box.data
    n = box.n
    out = np.empty((k, n), dtype=np.complex128)
    for i in range(n):
        out[:, i] = (sample_interval(rng, d[i, 0], d[i, 1], k)
                     + 1j * sample_interval(rng, d[i, 2], d[i, 3], k))
    return out


def random_real_interval(rng, scale=1.0):
    """A random interval (lo, hi) of Python floats."""
    a, b = sorted(rng.standard_normal(2) * scale)
    return float(a), float(b)


def random_complex_interval(rng, scale=1.0):
    """A random rectangle (re_lo, re_hi, im_lo, im_hi) of Python floats."""
    a, b = sorted(rng.standard_normal(2) * scale)
    c, d = sorted(rng.standard_normal(2) * scale)
    return float(a), float(b), float(c), float(d)


def box_norm(box):
    """Largest magnitude bound of a box's entries (``_kernels.c_mag``)."""
    return max(_kernels.c_mag(r) for r in box.rows)


def box_midpoint(box):
    """The complex midpoints of a box's entries."""
    d = box.data
    return 0.5 * (d[:, 0] + d[:, 1]) + 1j * (0.5 * (d[:, 2] + d[:, 3]))


def box_radius(box):
    """Half the largest side of a box's entries."""
    d = box.data
    return 0.5 * float(max((d[:, 1] - d[:, 0]).max(),
                           (d[:, 3] - d[:, 2]).max()))


def newton_true_path(m, t):
    """Closed-form newton-family path, valid for m > -1 and t in [0, 1]."""
    return math.sqrt(1.0 + m - m * t)


def plain_newton_solve(h, x, t, tol=1e-14, max_iter=100):
    """Independent uncertified Newton corrector used as a test oracle."""
    x = np.array(x, dtype=np.complex128)
    for _ in range(max_iter):
        fx = h.eval_point(x, t)
        if float(np.abs(fx).max()) <= tol:
            return x
        x = x - np.linalg.solve(h.jac_x_point(x, t), fx)
    return x


# --- processes ----------------------------------------------------------------

def starts_while(run):
    """run()'s result and the number of processes started meanwhile."""
    started = []
    real_start = multiprocessing.process.BaseProcess.start

    def start(self):
        started.append(self)
        real_start(self)

    with mock.patch.object(multiprocessing.process.BaseProcess, "start",
                           start):
        got = run()
    return got, len(started)

"""Scalar kernels against their ``_batch`` twins, bit for bit.

``verify`` replays certificates with the array kernels of ``_batch`` and
relies on them computing exactly what the tracker's scalar kernels
compute.  Random endpoints are mixed with signed zeros, infinities, NaN,
subnormals and values near overflow, which pins the min/max NaN semantics
(keep the first operand unless the second compares below/above it) and
the sign of zero through every ``nextafter``.  ``cp_mul``, the scalar
shortcut for a rectangle times a complex point, must equal ``c_mul`` with
the point as a degenerate rectangle on either side.  The residual
I - Y*M has two twins, ``residual_k`` and ``_batch.residual``, and
``ilinalg.residual_matrix`` serves it from either side of ``WIDE_N``.  Both polynomial kernels have
twins that loop over the same ``systems._Flat`` term lists with a segment
axis, each on its ``tpoly_table``: the time enclosure at a point,
``eval_terms_tpoly``, which computes in plain complex floats and widens by
an a priori bound, and ``_batch.eval_tpoly``, which writes CPython's
complex products out as real operations; and the bound on how far a term
list moves over a box about that point, ``eval_terms_deviation`` and
``_batch.eval_deviation``, with their box radii ``box_radii``.  Each pair
must agree, segment by segment, on random term lists whose coefficients
and inputs hold special values, empty equations among them.
"""

import math

import numpy as np
import pytest

from pathcert import _batch, ilinalg
from pathcert import _kernels as _k
from pathcert.systems import _Flat

SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                    -5e-324, 2.2e-308, 1e308, -1e308, 1.0, -1.0])
N = 20000


def endpoints(rng, shape, rate=0.35):
    """Uniform endpoints with a share ``rate`` (about a third) replaced by
    special values (unordered: the kernels must agree on any operands)."""
    x = rng.uniform(-4.0, 4.0, shape) * 10.0 ** rng.integers(-3, 4, shape)
    pick = rng.random(shape) < rate
    x[pick] = rng.choice(SPECIAL, int(pick.sum()))
    return x


def same_bits(got, want):
    """Equal bit patterns, counting any two NaNs as equal."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    both_nan = np.isnan(got) & np.isnan(want)
    return bool(((got.view(np.uint64) == want.view(np.uint64))
                 | both_nan).all())


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(2024)
    return endpoints(rng, (4, N)), endpoints(rng, (4, N))


def scalar_rows(fn, a, b):
    return np.array([fn(p, q) for p, q in zip(a.T.tolist(), b.T.tolist())]).T


@pytest.mark.parametrize("name", ["c_add", "c_sub", "c_mul"])
def test_complex_ops_match_batch(operands, name):
    a, b = operands
    with np.errstate(all="ignore"):
        want = getattr(_batch, name)(a, b)
    assert same_bits(scalar_rows(getattr(_k, name), a, b), want)


def test_c_mag_matches_batch(operands):
    a, _ = operands
    with np.errstate(all="ignore"):
        want = _batch.c_mag(a)
    assert same_bits([_k.c_mag(p) for p in a.T.tolist()], want)


def test_r_mul_matches_batch(operands):
    a, b = operands
    with np.errstate(all="ignore"):
        want = np.array(_batch.r_mul(a[0], a[1], b[0], b[1]))
    got = np.array([_k.r_mul(*p) for p in
                    zip(*(v.tolist() for v in (a[0], a[1], b[0], b[1])))]).T
    assert same_bits(got, want)


def test_point_product_matches_c_mul_on_both_sides(operands):
    a, b = operands
    got, left, right = [], [], []
    for p, (zr, _, zi, _) in zip(a.T.tolist(), b.T.tolist()):
        point = (zr, zr, zi, zi)
        got.append(_k.cp_mul(p, complex(zr, zi)))
        left.append(_k.c_mul(point, p))
        right.append(_k.c_mul(p, point))
    assert same_bits(got, left) and same_bits(got, right)


# ---------------------------------------------------------------------------
# the residual I - Y*M
# ---------------------------------------------------------------------------

def residual_operands(rng, count, n):
    """Complex point matrices (count, n, n) and interval matrices
    (4, count, n, n), both with special values."""
    y = complex_operands(rng, count * n * n).reshape(count, n, n)
    return y, endpoints(rng, (4, count, n, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
def test_residual_matches_batch(n):
    y, mat = residual_operands(np.random.default_rng(300 + n), 60, n)
    with np.errstate(all="ignore"):
        want = _batch.residual(y, mat)
    got = [_k.residual_k(ys.tolist(), np.moveaxis(ms, 0, -1).tolist())
           for ys, ms in zip(y, np.moveaxis(mat, 1, 0))]
    assert same_bits(np.moveaxis(np.array(got), -1, 0), want)


@pytest.mark.parametrize("side", [-1, 0], ids=["scalar", "array"])
def test_residual_matrix_on_both_sides_of_wide_n(side):
    n = ilinalg.WIDE_N + side
    y, mat = residual_operands(np.random.default_rng(400 + n), 60, n)
    for ys, ms in zip(y, np.moveaxis(mat, 1, 0)):
        rows = np.moveaxis(ms, 0, -1).tolist()
        got = ilinalg.residual_matrix(ys, ilinalg.IntervalMatrix.of_rows(rows))
        assert same_bits(got.data, _k.residual_k(ys.tolist(), rows))


# ---------------------------------------------------------------------------
# polynomial evaluation: the time enclosure at a point and its deviation
# ---------------------------------------------------------------------------

def random_flat(rng, n, m, rate):
    """n equations of 0..4 terms over n variables and m parameters, each
    of total degree <= 3 with multiplicity 1..3; a share ``rate`` of the
    coefficient parts are special values."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(int(rng.integers(0, 5))):
            expo = [0] * n
            for j in rng.integers(0, n, int(rng.integers(0, 4))):
                expo[j] += 1
            par = int(rng.integers(m)) if m and rng.random() < 0.6 else None
            row.append((complex(complex_operands(rng, 1, rate)[0]),
                        int(rng.integers(1, 4)), par, tuple(expo)))
        rows.append(row)
    return _Flat(rows, n)


@pytest.mark.parametrize("rate", [0.0, 0.05, 0.35])
@pytest.mark.parametrize("sheared", [False, True],
                         ids=["unsheared", "sheared"])
def test_tpoly_matches_batch(sheared, rate):
    rng = np.random.default_rng(500 + 10 * sheared + int(100 * rate))
    S = 16
    for _ in range(25):
        n, m = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        flat = random_flat(rng, n, m, rate)
        x, sa, sb = (complex_operands(rng, S * n, rate).reshape(S, n)
                     for _ in range(3))
        if not sheared:
            sa = sb = None
        p0 = complex_operands(rng, m, rate)
        p1 = complex_operands(rng, m, rate)
        t_lo = rng.uniform(0.0, 1.0, S)
        t_hi = t_lo + np.where(rng.random(S) < 0.25, 0.0,
                               10.0 ** rng.uniform(-12, 0, S))
        with np.errstate(all="ignore"):
            want = _batch.eval_tpoly(
                flat, _batch.tpoly_table(x, sa, sb, p0, p1, t_lo, t_hi))
        got = [_k.eval_terms_tpoly(flat, _k.tpoly_table(
            x[s].tolist(), None if sa is None else sa[s].tolist(),
            None if sb is None else sb[s].tolist(), p0.tolist(), p1.tolist(),
            float(t_lo[s]), float(t_hi[s]))) for s in range(S)]
        assert same_bits(np.moveaxis(np.array(got), -1, 0), want)


@pytest.mark.parametrize("rate", [0.0, 0.05, 0.35])
@pytest.mark.parametrize("sheared", [False, True],
                         ids=["unsheared", "sheared"])
def test_deviation_matches_batch(sheared, rate):
    # boxes about x with special endpoints, 1e300 among them, and whole
    # segments of non-finite boxes or points
    rng = np.random.default_rng(700 + 10 * sheared + int(100 * rate))
    S = 16
    for _ in range(25):
        n, m = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        flat = random_flat(rng, n, m, rate)
        x, sa, sb = (complex_operands(rng, S * n, rate).reshape(S, n)
                     for _ in range(3))
        if not sheared:
            sa = sb = None
        p0 = complex_operands(rng, m, rate)
        p1 = complex_operands(rng, m, rate)
        t_lo = rng.uniform(0.0, 1.0, S)
        t_hi = t_lo + np.where(rng.random(S) < 0.25, 0.0,
                               10.0 ** rng.uniform(-12, 0, S))
        box = endpoints(rng, (4, S, n), rate)
        big = rng.random((4, S, n)) < rate / 4
        box[big] = rng.choice([1e300, -1e300], int(big.sum()))
        bad = rng.random(S) < 0.1
        box[:, bad] = rng.choice([math.nan, math.inf, -math.inf])
        x[rng.random(S) < 0.05] = complex(math.inf, math.nan)
        with np.errstate(all="ignore"):
            want = _batch.eval_deviation(
                flat, _batch.tpoly_table(x, sa, sb, p0, p1, t_lo, t_hi),
                _batch.box_radii(box, x))
        got = []
        for s in range(S):
            xs = x[s].tolist()
            table = _k.tpoly_table(
                xs, None if sa is None else sa[s].tolist(),
                None if sb is None else sb[s].tolist(), p0.tolist(),
                p1.tolist(), float(t_lo[s]), float(t_hi[s]))
            rad = _k.box_radii(np.moveaxis(box[:, s], 0, -1).tolist(), xs)
            got.append(_k.eval_terms_deviation(flat, table, rad))
        assert same_bits(np.moveaxis(np.array(got), -1, 0), np.stack(want))


# ---------------------------------------------------------------------------
# point LU on Python complex against the same LU on numpy complex128 scalars
# ---------------------------------------------------------------------------

def numpy_lu_solve(a, b):
    """Pivoted LU solve with every operation on numpy complex128 scalars,
    in the order of ``lu_factor_k``/``lu_apply_k``; None when a pivot falls
    below 1e-300."""
    n = a.shape[0]
    lu = a.copy()
    piv = np.empty(n, np.int64)
    for k in range(n):
        pk = k
        pmax = abs(lu[k, k])
        for i in range(k + 1, n):
            v = abs(lu[i, k])
            if v > pmax:
                pmax = v
                pk = i
        if pmax < 1e-300:
            return None
        piv[k] = pk
        lu[[k, pk]] = lu[[pk, k]]
        for i in range(k + 1, n):
            lu[i, k] = lu[i, k] / lu[k, k]
            for j in range(k + 1, n):
                lu[i, j] = lu[i, j] - lu[i, k] * lu[k, j]
    x = b.copy()
    for k in range(n):
        x[[k, piv[k]]] = x[[piv[k], k]]
    for i in range(n):
        for j in range(i):
            x[i] = x[i] - lu[i, j] * x[j]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            x[i] = x[i] - lu[i, j] * x[j]
        x[i] = x[i] / lu[i, i]
    return x


def complex_operands(rng, size, rate=0.35):
    z = np.empty(size, dtype=np.complex128)
    z.real, z.imag = endpoints(rng, (2, size), rate)
    return z


def same_complex_bits(got, want):
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    return same_bits(got.real, want.real) and same_bits(got.imag, want.imag)


def test_cdiv_matches_numpy_division():
    rng = np.random.default_rng(7)
    a = complex_operands(rng, N)
    b = complex_operands(rng, N)
    special = np.array([complex(p, q) for p in SPECIAL for q in SPECIAL])
    a = np.concatenate([a, np.repeat(special, len(special))])
    b = np.concatenate([b, np.tile(special, len(special))])
    with np.errstate(all="ignore"):
        want = [p / q for p, q in zip(a, b)]
    got = [_k._cdiv(p, q) for p, q in zip(a.tolist(), b.tolist())]
    assert same_complex_bits(got, want)


def lu_matrices(rng):
    for n in (1, 2, 3, 4, 6):
        for _ in range(40):
            yield complex_operands(rng, n * n).reshape(n, n)
            yield (rng.standard_normal((n, n))
                   + 1j * rng.standard_normal((n, n)))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a[-1] = 2.0 * a[0]
        yield a                                       # singular
        for bad in (math.nan, math.inf, 1e308, -1e308,
                    complex(math.nan, 0.0), complex(1.5e308, -1.5e308)):
            for k in range(n):
                b = a.copy()
                b[-1] = rng.standard_normal(n)
                b[k, (k + 1) % n] = bad
                yield b


def test_lu_solve_and_inverse_match_numpy_scalars():
    rng = np.random.default_rng(11)
    checked = 0
    for a in lu_matrices(rng):
        n = a.shape[0]
        b = complex_operands(rng, n)
        with np.errstate(all="ignore"):
            want = numpy_lu_solve(a, b)
            want_inv = [numpy_lu_solve(a, e) for e in np.eye(n, dtype=complex)]
        lu, piv, ok = _k.lu_factor_k(a.tolist())
        assert ok is (want is not None)
        if ok:
            checked += 1
            assert same_complex_bits(_k.lu_apply_k(lu, piv, b.tolist()), want)
            assert same_complex_bits(_k.lu_inverse_k(lu, piv),
                                     np.array(want_inv).T)
    assert checked > 400

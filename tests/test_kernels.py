"""Scalar kernels against their ``_batch`` twins, bit for bit.

``verify`` replays certificates with the array kernels of ``_batch`` and
relies on them computing exactly what the tracker's scalar kernels
compute.  Random endpoints are mixed with signed zeros, infinities, NaN,
subnormals and values near overflow, which pins the min/max NaN semantics
(keep the first operand unless the second compares below/above it) and
the sign of zero through every ``nextafter``.  ``cp_mul``, the scalar
shortcut for a rectangle times a complex point, must equal ``c_mul`` with
the point as a degenerate rectangle on either side.
"""

import math

import numpy as np
import pytest

from pathcert import _batch
from pathcert import _kernels as _k

SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                    -5e-324, 2.2e-308, 1e308, -1e308, 1.0, -1.0])
N = 20000


def endpoints(rng, shape):
    """Uniform endpoints with about a third replaced by special values
    (unordered: the kernels must agree on any operands)."""
    x = rng.uniform(-4.0, 4.0, shape) * 10.0 ** rng.integers(-3, 4, shape)
    pick = rng.random(shape) < 0.35
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

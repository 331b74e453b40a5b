"""Interval matrices: norm, approximate inverse, residual enclosure, matvec."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import tutil
from pathcert.errors import DimensionMismatch, SingularMatrix
from pathcert.ilinalg import (
    IntervalMatrix,
    imatvec,
    mid_inverse,
    point_matvec_box,
    residual_matrix,
    solve_point,
)
from pathcert.intervals import Ball, Box, box_centered


def point_matrix(a):
    """Degenerate IntervalMatrix at the complex point matrix a."""
    mid = np.asarray(a, complex).tolist()
    return IntervalMatrix.of_midrad(mid, [[(0.0, 0.0)] * len(row)
                                          for row in mid])


def holds(rect, z):
    """The rectangle rect contains the complex point z."""
    return rect[0] <= z.real <= rect[1] and rect[2] <= z.imag <= rect[3]


def interval_matrix_around(rng, a, spread):
    """IntervalMatrix whose (i, j) entry is a_ij widened by up to spread."""
    n, m = a.shape
    data = np.empty((n, m, 4))
    rr = rng.uniform(0, spread, size=(n, m))
    ri = rng.uniform(0, spread, size=(n, m))
    data[:, :, 0] = a.real - rr
    data[:, :, 1] = a.real + rr
    data[:, :, 2] = a.imag - ri
    data[:, :, 3] = a.imag + ri
    return IntervalMatrix(data)


def sample_in_matrix(rng, m, k):
    """(k, rows, cols) complex point matrices inside an IntervalMatrix."""
    d = m.data
    u = rng.random((k,) + d.shape[:2])
    v = rng.random((k,) + d.shape[:2])
    re = d[:, :, 0] + u * (d[:, :, 1] - d[:, :, 0])
    im = d[:, :, 2] + v * (d[:, :, 3] - d[:, :, 2])
    return re + 1j * im


class TestNorm:
    def test_identity(self):
        n = point_matrix(np.eye(3, dtype=complex)).norm()
        assert 1.0 <= n <= 1.0 + 1e-14

    def test_1x1_three_four(self):
        m = point_matrix(np.array([[3.0 + 4.0j]]))
        assert 5.0 <= m.norm() <= 5.0 + 1e-13

    def test_row_sum_hand_computed(self):
        # rows: |1| + |2i| = 3 and |3| + |4i|... the second row wins with 7
        m = point_matrix(np.array([[1.0, 2.0j],
                                                [3.0, 4.0j]]))
        assert 7.0 <= m.norm() <= 7.0 + 1e-13

    def test_upper_bounds_sampled_operator_action(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m = interval_matrix_around(rng, a, 0.1)
            bound = m.norm()
            for s in sample_in_matrix(rng, m, 8):
                assert float(np.abs(s).sum(axis=1).max()) <= bound + 1e-12


def inverse_residual(a, y):
    """Row-sum norm of A @ Y - I."""
    return float(np.abs(a @ y - np.eye(a.shape[0])).sum(axis=1).max())


class TestMidInverse:
    def test_identity(self):
        a = np.eye(4, dtype=complex)
        y = mid_inverse(a)
        assert np.allclose(y, np.eye(4), atol=1e-14)
        assert inverse_residual(a, y) <= 1e-14

    def test_diagonal(self):
        y = mid_inverse(np.diag([2.0 + 0j, 4.0j]))
        assert abs(y[0, 0] - 0.5) <= 1e-15
        assert abs(y[1, 1] - (-0.25j)) <= 1e-15
        assert abs(y[0, 1]) + abs(y[1, 0]) <= 1e-15

    def test_random_5x5_residual(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            y = mid_inverse(a)
            assert inverse_residual(a, y) <= 1e-12
            assert float(np.abs(a @ y - np.eye(5)).max()) <= 1e-12

    def test_singular_rejected(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrix):
            mid_inverse(a)

    def test_solve_point(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = solve_point(a, b)
        assert float(np.abs(a @ x - b).max()) <= 1e-12

    def test_inverse_with_rhs_shares_one_factorization(self):
        # Y and the solve for a right-hand side come from one LU, with the
        # bits of the inverse and of solve_point on their own
        rng = np.random.default_rng(32)
        for n in (1, 2, 5):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y, x = mid_inverse(a, b)
            assert np.array_equal(y, mid_inverse(a))
            assert np.array_equal(x, solve_point(a, b))
        with pytest.raises(SingularMatrix):
            mid_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


class TestResidualMatrix:
    def test_exact_inverse_is_small(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = mid_inverse(a)
        r = residual_matrix(y, point_matrix(a))
        assert r.norm() <= 1e-10

    def test_zero_y_gives_identity(self):
        m = point_matrix(np.eye(2, dtype=complex))
        r = residual_matrix(np.zeros((2, 2), dtype=complex), m)
        assert holds(r.rows[0][0], 1.0)
        assert holds(r.rows[1][1], 1.0)
        assert holds(r.rows[0][1], 0.0)
        assert 1.0 <= r.norm() <= 1.0 + 1e-13

    def test_sampled_containment(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            y = np.linalg.inv(a) + 0.05 * (rng.standard_normal((3, 3))
                                           + 1j * rng.standard_normal((3, 3)))
            m = interval_matrix_around(rng, a, 0.05)
            r = residual_matrix(y, m)
            eye = np.eye(3)
            for s in sample_in_matrix(rng, m, 6):
                w = eye - y @ s
                for i in range(3):
                    for j in range(3):
                        scale = float(np.abs(y[i]).sum()
                                      * np.abs(s[:, j]).sum() + 1.0)
                        assert tutil.row_contains_complex(
                            r.data[i, j], complex(w[i, j]), scale)

    def test_perturbed_y_still_sound(self):
        # soundness holds for ANY Y, sharp or not
        rng = np.random.default_rng(26)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = np.linalg.inv(a) * 1.1
        m = interval_matrix_around(rng, a, 0.02)
        r = residual_matrix(y, m)
        eye = np.eye(3)
        for s in sample_in_matrix(rng, m, 20):
            w = eye - y @ s
            for i in range(3):
                for j in range(3):
                    scale = float(np.abs(y[i]).sum()
                                  * np.abs(s[:, j]).sum() + 1.0)
                    assert tutil.row_contains_complex(
                        r.data[i, j], complex(w[i, j]), scale)


class TestMatvec:
    def test_identity(self):
        b = box_centered(np.array([1.0 + 1.0j, 2.0 - 1.0j]), 0.25)
        m = point_matrix(np.eye(2, dtype=complex))
        r = Box(imatvec(m, b).data)
        assert r.encloses(b)
        assert tutil.box_radius(r) <= 0.2501

    def test_zero_matrix(self):
        b = box_centered(np.array([1.0 + 1.0j, 2.0 - 1.0j]), 0.25)
        m = point_matrix(np.zeros((2, 2), dtype=complex))
        r = Box(imatvec(m, b).data)
        assert r.contains_point(np.zeros(2, dtype=complex))
        assert tutil.box_norm(r) <= 1e-12

    def test_sampled_containment(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m = interval_matrix_around(rng, a, 0.1)
            box = box_centered(rng.standard_normal(3)
                               + 1j * rng.standard_normal(3), 0.3)
            r = imatvec(m, box)
            mats = sample_in_matrix(rng, m, 5)
            vecs = tutil.sample_box(rng, box, 5)
            for s, v in zip(mats, vecs):
                w = s @ v
                for i in range(3):
                    scale = float(np.abs(s[i]).sum() * np.abs(v).sum() + 1.0)
                    assert tutil.row_contains_complex(
                        r.data[i], complex(w[i]), scale)

    def test_point_matvec_box_containment(self):
        rng = np.random.default_rng(28)
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        box = box_centered(rng.standard_normal(3)
                           + 1j * rng.standard_normal(3), 0.2)
        r = point_matvec_box(y, box)
        for v in tutil.sample_box(rng, box, 50):
            w = y @ v
            for i in range(3):
                scale = float(np.abs(y[i]).sum() * np.abs(v).sum() + 1.0)
                assert tutil.row_contains_complex(r.data[i], complex(w[i]),
                                                  scale)

    def test_submultiplicative(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m = interval_matrix_around(rng, a, 0.1)
            box = box_centered(rng.standard_normal(3)
                               + 1j * rng.standard_normal(3), 0.3)
            lhs = tutil.box_norm(imatvec(m, box))
            rhs = m.norm() * tutil.box_norm(box)
            assert lhs <= rhs * (1 + 1e-12) + 1e-12

    def test_isotonicity(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m_small = interval_matrix_around(rng, a, 0.01)
        m_big = interval_matrix_around(np.random.default_rng(31), a, 0.2)
        # force nesting entrywise
        data = np.empty_like(m_small.data)
        data[:, :, 0] = np.minimum(m_small.data[:, :, 0], m_big.data[:, :, 0])
        data[:, :, 1] = np.maximum(m_small.data[:, :, 1], m_big.data[:, :, 1])
        data[:, :, 2] = np.minimum(m_small.data[:, :, 2], m_big.data[:, :, 2])
        data[:, :, 3] = np.maximum(m_small.data[:, :, 3], m_big.data[:, :, 3])
        m_outer = IntervalMatrix(data)
        center = np.array([1.0 + 0.5j, -0.5j, 0.25 + 0j])
        inner_box = box_centered(center, 0.1)
        outer_box = box_centered(center, 0.25)
        inner = Box(imatvec(m_small, inner_box).data)
        outer = Box(imatvec(m_outer, outer_box).data)
        assert outer.encloses(inner)

    def test_dimension_checks(self):
        m = point_matrix(np.eye(2, dtype=complex))
        with pytest.raises(DimensionMismatch):
            imatvec(m, box_centered(np.zeros(3, complex), 1.0))
        with pytest.raises(DimensionMismatch):
            residual_matrix(np.eye(3, dtype=complex), m)


def in_ball(c, r, v):
    """The exact (re, im) Fraction pair v lies within the radii r = (re,
    im) of the center c, decided exactly: the midpoint-radius enclosure
    itself, before any rounding out to rectangles."""
    return (abs(v[0] - Fraction(c.real)) <= Fraction(r[0])
            and abs(v[1] - Fraction(c.imag)) <= Fraction(r[1]))


def exact_eye_minus(y, m):
    """I - Y*M exactly for point matrices given as lists of complex."""
    n = len(y)
    return [[tutil.c_sub((Fraction(int(i == j)), Fraction(0)),
                         _exact_dot(y[i], [row[j] for row in m]))
             for j in range(n)] for i in range(n)]


def _exact_dot(a, b):
    acc = (Fraction(0), Fraction(0))
    for p, q in zip(a, b):
        acc = tutil.c_add(acc, tutil.c_mul(tutil.c_pair(p), tutil.c_pair(q)))
    return acc


# each column's products are 1, 2^53 and -2^53 times a power of two and a
# unit: summed in floats, the 2^53 swallows the 1 and the pair cancels
CANCEL_Y = [[1.0, 1.0, 1.0], [2.0, 0.5j, -2.0], [1j, -1.0, 1.0 + 0j]]
CANCEL_M = [[1.0, 2.0 ** -30, 3.0j],
            [2.0 ** 53, 2.0 ** 23, 2.0 ** 54 * 1j],
            [-(2.0 ** 53), -(2.0 ** 23), -(2.0 ** 54) * 1j]]
# products of two of these lie below the smallest subnormal: they round
# to 0, and only the underflow terms of the bounds hold their exact values
TINY = 2.0 ** -600


class TestCancellation:
    """Operands whose dot products cancel across powers of two, so that
    the float centers lose whole terms and only the a priori bound of
    ``_kernels.sub_pmul_k`` covers the loss, and operands whose products
    underflow.  Each enclosure is checked exactly on its centers and
    radii, before ``rows`` rounds them out to rectangles."""

    def test_residual_covers_cancelled_terms(self):
        m = point_matrix(CANCEL_M)
        r = residual_matrix(CANCEL_Y, m)
        exact = exact_eye_minus(CANCEL_Y, CANCEL_M)
        lost = 0
        for i in range(3):
            for j in range(3):
                assert in_ball(r.mid[i][j], r.rad[i][j], exact[i][j]), (i, j)
                lost += tutil.c_pair(r.mid[i][j]) != exact[i][j]
        assert lost >= 3      # the floats really lost terms

    def test_point_matvec_covers_cancelled_terms(self):
        for j in range(3):
            v = [row[j] for row in CANCEL_M]
            a = point_matvec_box(CANCEL_Y, Ball.of_midrad(v, [(0.0, 0.0)] * 3))
            for i in range(3):
                assert in_ball(a.mid[i], a.rad[i],
                               _exact_dot(CANCEL_Y[i], v)), (i, j)

    def test_underflowing_products_enclosed(self):
        y = [[TINY, TINY * 1j], [-TINY, TINY]]
        v = [TINY * (1 + 1j), -TINY]
        a = point_matvec_box(y, Ball.of_midrad(v, [(0.0, 0.0)] * 2))
        r = residual_matrix(y, point_matrix([v, v]))
        exact = exact_eye_minus(y, [v, v])
        for i in range(2):
            assert a.mid[i] == 0j
            assert in_ball(a.mid[i], a.rad[i], _exact_dot(y[i], v))
            for j in range(2):
                assert in_ball(r.mid[i][j], r.rad[i][j], exact[i][j])

    def test_subnormal_operands_under_huge_rows(self):
        # Y near 2^1023 times subnormal v: the products are normal and
        # round, while g |v|_1 underflows to 0, so only the 2^-1074 the
        # kernel adds to it, times |Y|, bounds their rounding
        big = math.ldexp(1 + 2.0 ** -52, 1023)
        c1 = (2 ** 49 + 2 ** 23 + 1) * 5e-324
        c2 = (2 ** 48 + 3) * 5e-324
        y = [[big + 0j, -0.75 * big + 0j], [big * 1j, big + 0j]]
        v = [complex(c1, c2), complex(-c2, c1)]
        a = point_matvec_box(y, Ball.of_midrad(v, [(0.0, 0.0)] * 2))
        for i in range(2):
            exact = _exact_dot(y[i], v)
            assert tutil.c_pair(a.mid[i]) != exact      # the center rounded
            assert in_ball(a.mid[i], a.rad[i], exact), i

    def test_underflowing_contraction_and_norm(self):
        # M*v for v centered at 0 with radii TINY, at every corner of v
        m = point_matrix([[TINY * (1 + 1j), -TINY], [TINY, TINY * 1j]])
        b = imatvec(m, Ball.of_midrad([0j, 0j], [(TINY, TINY)] * 2))
        corners = [complex(p, q) for p in (-TINY, TINY) for q in (-TINY, TINY)]
        for i, row in enumerate(m.mid):
            for v in itertools.product(corners, repeat=2):
                assert in_ball(b.mid[i], b.rad[i], _exact_dot(row, v)), i
        # row 0 sums to (sqrt(2) + 1) TINY > 2.41 TINY
        assert Fraction(m.norm()) >= Fraction(241, 100) * Fraction(TINY)


def test_norm_of_a_matrix_with_a_nan_entry_is_nan():
    # a NaN row sum never compares above the largest so far, so a norm
    # that kept only rows comparing above would read as if it were absent
    for row in (0, 1):
        mid = [[1.0 + 0j, 0.5j], [0.25 + 0j, 2.0 + 0j]]
        mid[row][1] = complex(math.nan, 0.0)
        m = IntervalMatrix.of_midrad(mid, [[(0.0, 0.0)] * 2] * 2)
        assert math.isnan(m.norm())

"""Interval matrices: norm, approximate inverse, residual enclosure, matvec."""

import math

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
from pathcert.intervals import box_centered


def point_matrix(a):
    """Degenerate IntervalMatrix at the complex point matrix a."""
    return IntervalMatrix.of_rows([[(z.real, z.real, z.imag, z.imag)
                                    for z in row]
                                   for row in np.asarray(a, complex).tolist()])


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
        r = imatvec(m, b)
        assert r.encloses(b)
        assert tutil.box_radius(r) <= 0.2501

    def test_zero_matrix(self):
        b = box_centered(np.array([1.0 + 1.0j, 2.0 - 1.0j]), 0.25)
        m = point_matrix(np.zeros((2, 2), dtype=complex))
        r = imatvec(m, b)
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
        inner = imatvec(m_small, inner_box)
        outer = imatvec(m_outer, outer_box)
        assert outer.encloses(inner)

    def test_dimension_checks(self):
        m = point_matrix(np.eye(2, dtype=complex))
        with pytest.raises(DimensionMismatch):
            imatvec(m, box_centered(np.zeros(3, complex), 1.0))
        with pytest.raises(DimensionMismatch):
            residual_matrix(np.eye(3, dtype=complex), m)

"""Tests for the finite-dimensional Hilbert space helpers."""

import numpy as np
import pytest

from ifsmeasure import adjoint, matrix_exp, operator_norm, scalar_product


def test_scalar_product_examples():
    assert scalar_product(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert scalar_product(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 2.0
    # conjugation acts on the second slot
    v = scalar_product(np.array([1j, 0.0]), np.array([1.0, 0.0]))
    assert v == 1j


def test_scalar_product_is_sesquilinear():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = complex(rng.standard_normal(), rng.standard_normal())
        assert abs(scalar_product(a * x, y) - a * scalar_product(x, y)) < 1e-12
        assert abs(scalar_product(x, a * y)
                   - np.conj(a) * scalar_product(x, y)) < 1e-12
        assert abs(scalar_product(x, y)
                   - np.conj(scalar_product(y, x))) < 1e-12


def test_operator_norm_triangular_example():
    p1 = np.array([[1.0, 0.0], [2.0, 1.0]])
    assert abs(operator_norm(p1) - (1 + np.sqrt(2))) < 1e-12
    p2 = np.array([[1.0, 0.0], [2.0, -1.0]])
    assert abs(operator_norm(p2) - (1 + np.sqrt(2))) < 1e-12
    assert operator_norm(np.eye(4)) == 1.0


def _power_iteration_norm(r, iters=2000):
    """Independent largest-singular-value estimate via iteration on R*R."""
    rng = np.random.default_rng(11)
    g = adjoint(r) @ r
    x = rng.standard_normal(g.shape[0])
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = g @ x
        lam = float(np.linalg.norm(y))
        if lam == 0.0:
            return 0.0
        x = y / lam
    return np.sqrt(lam)


def test_operator_norm_against_power_iteration():
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = rng.standard_normal((3, 3))
        assert abs(operator_norm(r) - _power_iteration_norm(r)) < 1e-10


def test_adjoint_defining_identity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        r = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = scalar_product(r @ x, y)
        rhs = scalar_product(x, adjoint(r) @ y)
        assert abs(lhs - rhs) < 1e-12


def test_adjoint_of_real_symmetric_is_itself():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(adjoint(a), a)
    p1 = np.array([[1.0, 0.0], [2.0, 1.0]])
    assert np.array_equal(adjoint(p1), np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_adjoint_preserves_operator_norm():
    rng = np.random.default_rng(13)
    for _ in range(10):
        r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert abs(operator_norm(r) - operator_norm(adjoint(r))) < 1e-12


def test_operator_norm_is_submultiplicative():
    rng = np.random.default_rng(17)
    for _ in range(10):
        r = rng.standard_normal((3, 3))
        s = rng.standard_normal((3, 3))
        assert operator_norm(r @ s) <= operator_norm(r) * operator_norm(s) + 1e-12


def test_matrix_exp_at_zero_is_identity():
    a = np.array([[0.3, -1.2], [0.7, 0.1]])
    assert np.allclose(matrix_exp(a, 0.0), np.eye(2), atol=1e-15)


def test_matrix_exp_scalar_decay():
    for t in (0.0, 1.0, 3.0):
        e = matrix_exp(-np.eye(2), t)
        assert np.abs(e - np.exp(-t) * np.eye(2)).max() < 1e-12
        assert abs(operator_norm(e) - np.exp(-t)) < 1e-12


def test_matrix_exp_nilpotent_series_terminates():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.abs(matrix_exp(a, 1.0) - np.array([[1.0, 1.0], [0.0, 1.0]])).max() < 1e-15


def test_matrix_exp_semigroup_law():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        a *= 2.0 / max(operator_norm(a), 1e-12)
        s, t = rng.uniform(0, 2, 2)
        lhs = matrix_exp(a, s) @ matrix_exp(a, t)
        rhs = matrix_exp(a, s + t)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_matrix_exp_matches_eigen_route():
    # independent check through numpy's eigendecomposition on a
    # diagonalizable matrix
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    w, v = np.linalg.eig(a)
    ref = (v @ np.diag(np.exp(w * 1.3)) @ np.linalg.inv(v)).real
    assert np.abs(matrix_exp(a, 1.3) - ref).max() < 1e-12

"""Tests of the test suite's own oracles (tests/oracles.py)."""

import numpy as np

from l1pcp.matcore import frobenius_norm, svd
from oracles import pseudo_inverse_apply


def test_pseudo_inverse_apply_identity():
    f = svd(np.eye(4))
    rhs = np.arange(8.0).reshape(4, 2)
    np.testing.assert_allclose(pseudo_inverse_apply(f, rhs), rhs, atol=1e-12)


def test_pseudo_inverse_apply_diagonal():
    f = svd(np.diag([2.0, 4.0]))
    out = pseudo_inverse_apply(f, np.array([[2.0], [4.0]]))
    np.testing.assert_allclose(out, [[1.0], [1.0]], atol=1e-12)


def test_pseudo_inverse_apply_consistency():
    rng = np.random.default_rng(7)
    g1 = rng.standard_normal((20, 3))
    g2 = rng.standard_normal((15, 3))
    l = g1 @ g2.T  # rank 3
    x = rng.standard_normal((15, 4))
    rhs = l @ x
    y = pseudo_inverse_apply(svd(l), rhs)
    assert frobenius_norm(l @ y - rhs) / frobenius_norm(rhs) <= 1e-8

"""Unit tests for the dense matrix core: norms, shrinkage, SVD wrappers."""

import tracemalloc

import numpy as np
import pytest

from l1pcp import matcore, pcp_adm, synth
from l1pcp.l1filter import PIPELINE_TOL, recover_seed, sample_submatrix
from l1pcp.matcore import (
    as_dense,
    frobenius_norm,
    l0_count,
    l1_norm,
    linf_norm,
    svd,
    svt_with_rank,
)
from oracles import nuclear_norm, soft_threshold, svt


def test_frobenius_norm_simple():
    assert frobenius_norm([[3, 0], [0, 4]]) == pytest.approx(5.0)
    assert frobenius_norm(np.zeros((4, 7))) == 0.0
    assert frobenius_norm([[1, 2, 2]]) == pytest.approx(3.0)


def test_entrywise_norms():
    m = [[1, -2], [0, 3]]
    assert l1_norm(m) == 6.0
    assert l0_count(m, 0.0) == 3
    assert linf_norm(m) == 3.0


def test_l0_count_default_threshold_scales_with_matrix():
    m = np.array([[100.0, 1e-5], [0.0, 0.0]])
    # default threshold is 1e-6 * linf = 1e-4, so the 1e-5 entry is noise
    assert l0_count(m) == 1


def test_soft_threshold_scalars():
    assert soft_threshold(np.array([[3.0]]), 1.0)[0, 0] == 2.0
    assert soft_threshold(np.array([[-0.5]]), 1.0)[0, 0] == 0.0


def test_soft_threshold_eta_zero_is_identity():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 5))
    np.testing.assert_array_equal(soft_threshold(m, 0.0), m)


def test_soft_threshold_is_contraction():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal((8, 8))
        y = rng.standard_normal((8, 8))
        eta = rng.uniform(0, 2)
        lhs = frobenius_norm(soft_threshold(x, eta) - soft_threshold(y, eta))
        assert lhs <= frobenius_norm(x - y) + 1e-12


def test_svd_diagonal():
    f = svd(np.diag([3.0, 1.0]), rank_tol=0.0)
    np.testing.assert_allclose(f.sigma, [3.0, 1.0])


def test_svd_rank_one_outer_product():
    a = np.array([1.0, 2.0, 2.0])
    b = np.array([0.0, 3.0, 4.0])
    f = svd(np.outer(a, b))
    assert f.rank == 1
    assert f.sigma[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b))


def test_svd_reconstruction_random():
    rng = np.random.default_rng(2)
    for shape in [(20, 10), (50, 50), (200, 120), (200, 200)]:
        m = rng.standard_normal(shape)
        f = svd(m, rank_tol=0.0)
        err = frobenius_norm(f.reconstruct() - m) / frobenius_norm(m)
        assert err <= 1e-8


def test_svd_rank_tol_drops_small_singular_values():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((30, 4))
    m = g @ g.T  # exact rank 4
    f = svd(m, rank_tol=1e-10)
    assert f.rank == 4


def test_svd_atol_is_an_absolute_cutoff():
    m = np.diag([4.0, 2.0, 1.0])
    np.testing.assert_array_equal(svd(m, rank_tol=0.0, atol=2.0).sigma, [4.0])
    np.testing.assert_array_equal(svd(m, rank_tol=0.4, atol=0.5).sigma, [4.0, 2.0])
    f = svd(m, rank_tol=0.0, atol=1.5)
    assert f.u.shape == (3, 2) and f.v.shape == (3, 2)
    assert f.u.flags.c_contiguous and f.v.flags.c_contiguous
    with pytest.raises(ValueError):
        svd(m, atol=-1.0)


def test_svt_diagonal():
    out = svt(np.diag([3.0, 1.0]), 2.0)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_svt_eta_zero_is_identity():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((7, 5))
    np.testing.assert_allclose(svt(w, 0.0), w, atol=1e-12)


def test_thresholds_leave_their_argument_intact():
    rng = np.random.default_rng(10)
    w = rng.standard_normal((9, 7))
    before = w.copy()
    soft_threshold(w, 0.5)
    svt_with_rank(w, 0.5)
    svt(w, 0.5)
    np.testing.assert_array_equal(w, before)


def _svt_objective(a, w, eta):
    return eta * nuclear_norm(a) + 0.5 * frobenius_norm(a - w) ** 2


def test_svt_random_probe_optimality():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((8, 6))
    eta = 0.5
    a_star = svt(w, eta)
    best = _svt_objective(a_star, w, eta)
    assert best <= _svt_objective(w, w, eta) + 1e-9
    assert best <= _svt_objective(np.zeros_like(w), w, eta) + 1e-9
    for _ in range(200):
        probe = a_star + rng.standard_normal(w.shape) * rng.uniform(1e-4, 1.0)
        assert best <= _svt_objective(probe, w, eta) + 1e-9


def test_svt_nuclear_norm_matches_shrunk_spectrum():
    rng = np.random.default_rng(6)
    for _ in range(10):
        w = rng.standard_normal((12, 9))
        eta = rng.uniform(0.1, 2.0)
        sig = np.linalg.svd(w, compute_uv=False)
        expected = np.maximum(sig - eta, 0.0).sum()
        assert nuclear_norm(svt(w, eta)) == pytest.approx(expected, abs=1e-9)


def test_as_dense_rejects_bad_input():
    with pytest.raises(ValueError):
        as_dense(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(ValueError):
        as_dense(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        as_dense(np.array([[np.inf], [1.0]]))


def test_as_dense_holds_one_row_block_mask():
    # the finiteness check of a 2000x2000 matrix holds one row block's mask,
    # not the 4 MB mask of the whole matrix
    m = np.random.default_rng(0).standard_normal((2000, 2000))
    tracemalloc.start()
    try:
        out = as_dense(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out is m
    assert peak <= 2 * matcore.FINITE_CHECK_VALUES


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape, where", [
    ((7, 4), (0, 0)),    # first of the row blocks 0-1, 2-3, 4-5 and 6
    ((7, 4), (3, 2)),    # a middle one
    ((7, 4), (6, 3)),    # the last, short one
    ((1, 25), (0, 24)),  # one row wider than a block
], ids=["first", "middle", "last", "wide"])
def test_as_dense_rejects_non_finite_in_any_row_block(monkeypatch, bad, shape, where):
    monkeypatch.setattr(matcore, "FINITE_CHECK_VALUES", 10)
    m = np.ones(shape)
    assert as_dense(m) is m
    m[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        as_dense(m)


def test_svt_property_suite_many_instances():
    rng = np.random.default_rng(8)
    for _ in range(50):
        shape = (rng.integers(3, 15), rng.integers(3, 15))
        w = rng.standard_normal(shape) * rng.uniform(0.5, 5.0)
        eta = rng.uniform(0.05, 3.0)
        a_star = svt(w, eta)
        best = _svt_objective(a_star, w, eta)
        probes = a_star[None] + rng.standard_normal((20,) + w.shape) * 0.3
        for p in probes:
            assert best <= _svt_objective(p, w, eta) + 1e-9
        f = svd(w, rank_tol=0.0)
        rec = frobenius_norm(f.reconstruct() - w) / frobenius_norm(w)
        assert rec <= 1e-8


def _seed_solve_svt_calls(monkeypatch):
    """(W, eta, V_prev) of every SVT in the rank-adaptive PCP of a 320x320
    seed sampled from a 1000x1000 rank-20 instance with 1% corruption."""
    gt = synth.generate(synth.SynthSpec(m=1000, n=1000, rho_r=0.02, rho_s=0.01,
                                        rng_seed=1))
    _, _, block = sample_submatrix(gt.m_obs, 320, 320, 1)
    calls = []

    def record(w, eta, v_prev=None):
        # a copy: solve_pcp reuses W's buffer for the residual after the SVT
        calls.append((w.copy(), eta, v_prev))
        return svt_with_rank(w, eta, v_prev)

    monkeypatch.setattr(pcp_adm, "svt_with_rank", record)
    recover_seed(block, pcp_adm.AdmConfig(tol=PIPELINE_TOL))
    return calls


def test_partial_svt_matches_full_svt_on_seed_iterates(monkeypatch):
    partial = 0
    for w, eta, v_prev in _seed_solve_svt_calls(monkeypatch):
        if v_prev is None or matcore._svt_partial_factors(w, eta, v_prev) is None:
            continue
        partial += 1
        got, f = svt_with_rank(w, eta, v_prev)
        want, full = svt_with_rank(w, eta)
        assert f.rank == full.rank
        sigma_1 = np.linalg.svd(w, compute_uv=False)[0]
        assert np.abs(got - want).max() <= 1e-12 * sigma_1
    assert partial >= 15


def _with_spectrum(rng, sigma):
    n = sigma.size
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (u * sigma) @ v.T, v


def _fallback_cases():
    rng = np.random.default_rng(9)
    w, _ = _with_spectrum(rng, np.linspace(10, 1, 40))
    yield "no rank guess", w, 2.0, None
    yield "previous rank 0", w, 2.0, np.zeros((40, 0))
    # p = 5 + 10 = 15 columns exceed a quarter of 40
    yield "too wide", w, 2.0, np.linalg.qr(rng.standard_normal((40, 5)))[0]
    # 50 values above eta fill the p = 11 columns sketched for rank 1
    w, v = _with_spectrum(rng, np.r_[np.linspace(10, 5, 50), np.zeros(50)])
    yield "k == p", w, 1.0, v[:, :1]
    # about (9/10)^2 per power step cannot reach the certificate in 8 steps
    w, _ = _with_spectrum(rng, np.r_[10.0, 10.0, 10.0, np.linspace(9, 8, 197)])
    yield "no certificate", w, 9.5, np.linalg.qr(rng.standard_normal((200, 3)))[0]


@pytest.mark.parametrize("case", list(_fallback_cases()), ids=lambda c: c[0])
def test_partial_svt_fallbacks_return_full_svt(case):
    _, w, eta, v_prev = case
    if v_prev is not None:
        assert matcore._svt_partial_factors(w, eta, v_prev) is None
    got, f = svt_with_rank(w, eta, v_prev)
    want, full = svt_with_rank(w, eta)
    np.testing.assert_array_equal(got, want)
    assert f.rank == full.rank == f.v.shape[1]
    np.testing.assert_array_equal(f.reconstruct(), got)

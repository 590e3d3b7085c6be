"""Unit tests for the dense matrix core: norms, shrinkage, SVD wrappers."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from l1pcp import matcore, pcp_adm, synth
from l1pcp.l1filter import PIPELINE_TOL, recover_seed, sample_submatrix
from l1pcp.matcore import (
    SkinnySvd,
    SvdConvergenceError,
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


@pytest.mark.parametrize("m, expected", [
    ([], 0.0), (np.zeros((0, 3)), 0.0), ([[True, False]], 1.0), ([[-0.0], [-0.0]], 0.0),
    (np.float32([1.5, -2.5]), 2.5), ([[1, -3]], 3.0), ([1.0, np.nan, -2.0], np.nan),
], ids=["empty", "no-rows", "bool", "negative-zero", "float32", "int", "nan"])
def test_linf_norm_of_any_array_like(m, expected):
    value = linf_norm(m)
    assert type(value) is float
    if math.isnan(expected):
        assert math.isnan(value)
    else:
        assert value == expected and math.copysign(1.0, value) == 1.0


def test_linf_norm_forms_no_absolute_copy():
    m = np.random.default_rng(0).standard_normal((400, 300))
    tracemalloc.start()
    try:
        value = linf_norm(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == np.abs(m).max()
    assert peak <= 0.01 * m.nbytes


def test_l0_count_default_threshold_scales_with_matrix():
    m = np.array([[100.0, 1e-5], [0.0, 0.0]])
    # default threshold is 1e-6 * linf = 1e-4, so the 1e-5 entry is noise
    assert l0_count(m) == 1


@pytest.mark.parametrize("threshold", [-1.0, np.nan])
def test_l0_count_rejects_a_negative_or_nan_threshold(threshold):
    # unchecked, a NaN threshold counted no entry
    with pytest.raises(ValueError, match="nonnegative"):
        l0_count(np.ones((3, 3)), threshold)


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


def test_soft_threshold_rounds_as_sign_times_shrunk_magnitude():
    # bit for bit sgn(x) max(|x| - eta, 0) where that is nonzero; every
    # zeroed entry is +0.0
    rng = np.random.default_rng(15)
    x = rng.standard_normal((50, 40)) * 10.0 ** rng.integers(-5, 5, (50, 40))
    x[0, :3] = [0.0, -0.0, 0.3]
    for eta in [0.0, 0.3, 1.7]:
        got = soft_threshold(x, eta)
        want = np.sign(x) * np.maximum(np.abs(x) - eta, 0.0)
        np.testing.assert_array_equal(got, want)
        assert not np.signbit(got[got == 0]).any()


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


@pytest.mark.parametrize("kwargs", [{"atol": np.nan}, {"rank_tol": np.nan}])
def test_svd_rejects_a_nan_cutoff(kwargs):
    # unchecked, atol=nan kept every value and rank_tol=nan none
    with pytest.raises(ValueError, match="nonnegative"):
        svd(np.diag([4.0, 2.0, 1.0]), **kwargs)


def test_svd_wraps_a_lapack_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(SvdConvergenceError, match="SVD failed on") as info:
        svd(np.diag([4.0, 2.0, 1.0]))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_svt_rejects_a_nan_threshold():
    # unchecked, it returned a full-rank, all-NaN matrix
    with pytest.raises(ValueError, match="eta must be nonnegative"):
        svt_with_rank(np.random.default_rng(0).standard_normal((60, 60)), np.nan)


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
    assert peak <= 2 * matcore.BLOCK_BYTES // 8  # a bool per float64


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape, where", [
    ((7, 4), (0, 0)),    # first of the row blocks 0-1, 2-3, 4-5 and 6
    ((7, 4), (3, 2)),    # a middle one
    ((7, 4), (6, 3)),    # the last, short one
    ((1, 25), (0, 24)),  # one row wider than a block
], ids=["first", "middle", "last", "wide"])
def test_as_dense_rejects_non_finite_in_any_row_block(monkeypatch, bad, shape, where):
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 10 * 8)
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
    """(W, eta, V_prev) of every SVT in the PCP of a 320x320 seed sampled from a 1000x1000 rank-20 instance with 1% corruption."""
    gt = synth.generate(synth.SynthSpec(m=1000, n=1000, rho_r=0.02, rho_s=0.01,
                                        rng_seed=1))
    _, _, block = sample_submatrix(gt.m_obs, 320, 320, 1)
    calls = []

    def record(w, eta, v_prev=None, **kwargs):
        # a copy: solve_pcp reuses W's buffer for the residual after the SVT
        calls.append((w.copy(), eta, v_prev))
        return svt_with_rank(w, eta, v_prev, **kwargs)

    monkeypatch.setattr(pcp_adm, "svt_with_rank", record)
    recover_seed(block, pcp_adm.AdmConfig(tol=PIPELINE_TOL))
    return calls


def _full_svd_svt(w, eta):
    """svt_with_rank's (matrix, factors) from LAPACK's full SVD alone."""
    f = svd(w, rank_tol=0.0, atol=eta)
    factors = SkinnySvd(f.u, f.sigma - eta, f.v)
    return (factors.reconstruct() if factors.rank else np.zeros_like(w)), factors


def _assert_matches_full_svt(factors, w, eta):
    want, full = _full_svd_svt(w, eta)
    got = factors.reconstruct() if factors.rank else np.zeros_like(w)
    assert factors.rank == full.rank
    sigma_1 = np.linalg.svd(w, compute_uv=False)[0]
    assert np.abs(got - want).max() <= 1e-12 * sigma_1


def _warm_start(w, eta, v_prev):
    """_svt_partial_factors handed the Gaussian draw that svt_with_rank
    makes for v_prev's rank, which must be at least 1."""
    shape = (w.shape[1], matcore._sketch_width(v_prev.shape[1]))
    omega = np.random.default_rng(matcore.PARTIAL_SKETCH_SEED).standard_normal(shape)
    return matcore._svt_partial_factors(w, eta, v_prev, omega)


def test_partial_svt_matches_full_svt_on_seed_iterates(monkeypatch):
    partial = 0
    for w, eta, v_prev in _seed_solve_svt_calls(monkeypatch):
        if v_prev is None or not v_prev.shape[1] or _warm_start(w, eta, v_prev) is None:
            continue
        partial += 1
        _assert_matches_full_svt(svt_with_rank(w, eta, v_prev)[1], w, eta)
    assert partial >= 15


def _adm_300():
    """A 300x300 rank-10 instance with 1% corruption, the size of the
    adm-300 benchmark."""
    return synth.generate(synth.SynthSpec(m=300, n=300, rho_r=10 / 300, rho_s=0.01,
                                          rng_seed=0))


def _adm_300_svt_calls(monkeypatch):
    """(W, eta, V_prev) of every SVT of solve_pcp on _adm_300()."""
    gt = _adm_300()
    calls = []

    def record(w, eta, v_prev=None, **kwargs):
        calls.append((w.copy(), eta, v_prev))
        return svt_with_rank(w, eta, v_prev, **kwargs)

    monkeypatch.setattr(pcp_adm, "svt_with_rank", record)
    assert pcp_adm.solve_pcp(gt.m_obs).converged
    return calls


def test_gram_start_matches_full_svt_on_adm_and_seed_iterates(monkeypatch):
    calls = [(w, eta) for w, eta, _ in _seed_solve_svt_calls(monkeypatch)]
    seed_calls = len(calls)
    calls += [(w, eta) for w, eta, _ in _adm_300_svt_calls(monkeypatch)]
    started = [0, 0]
    for i, (w, eta) in enumerate(calls):
        factors = matcore._svt_gram_factors(w, eta)
        if factors is not None:
            started[i >= seed_calls] += 1
            _assert_matches_full_svt(factors, w, eta)
    # every adm-300 SVT, and most of the seed's, are certified from the Gram
    assert started[1] == len(calls) - seed_calls
    assert started[0] >= seed_calls // 2


def _low_rank_plus_noise(shape, rank, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    return w + 1e-3 * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(200, 80), (80, 200)], ids=["tall", "wide"])
@pytest.mark.parametrize("eta", [0.5, 1e3], ids=["rank 5", "rank 0"])
def test_gram_start_matches_full_svt(shape, eta):
    w = _low_rank_plus_noise(shape, 5, 11)
    paths = {}
    got, f = svt_with_rank(w, eta, paths=paths)
    assert paths == {"gram" if eta < 1 else "zero": 1}
    assert f.rank == (5 if eta < 1 else 0)
    assert f.u.shape == (shape[0], f.rank) and f.v.shape == (shape[1], f.rank)
    assert f.u.flags.c_contiguous and f.v.flags.c_contiguous
    _assert_matches_full_svt(f, w, eta)
    np.testing.assert_array_equal(got, f.reconstruct() if f.rank else np.zeros(shape))


@pytest.mark.parametrize("eta", [1e300, np.inf])
def test_gram_start_keeps_nothing_under_a_huge_threshold(eta):
    # the scaled eta's square overflows: no value passes, and nothing warns
    w = _low_rank_plus_noise((100, 100), 5, 11) * 1e-3
    paths = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, f = svt_with_rank(w, eta, paths=paths)
    assert paths == {"zero": 1} and f.rank == 0 and not got.any()


# 2^-458 max|W| is about 1e-138, near the 6.7e-139 below which solve_pcp
# rejects an M, and 2^448 max|W| about 2.6e135, near its 3.0e138 / sqrt(mn)
@pytest.mark.parametrize("exponent", [-458, 448])
@pytest.mark.parametrize("shape", [(200, 80), (80, 200)], ids=["tall", "wide"])
def test_gram_start_at_the_ends_of_the_pcp_scale_range(shape, exponent):
    w = _low_rank_plus_noise(shape, 5, 12)
    paths = {}
    got, f = svt_with_rank(np.ldexp(w, exponent), np.ldexp(0.5, exponent), paths=paths)
    assert paths == {"gram": 1} and f.rank == 5
    want, _ = svt_with_rank(w, 0.5)
    np.testing.assert_array_equal(got, np.ldexp(want, exponent))


def _eigh_fails(g):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh_nan(g):
    lam, vecs = np.linalg.eigvalsh(g), np.eye(g.shape[0])
    lam[0] = np.nan
    return lam, vecs


@pytest.mark.parametrize("eigh", [_eigh_fails, _eigh_nan], ids=["raises", "NaN eigenvalue"])
def test_a_failed_gram_eigh_takes_the_full_svd(monkeypatch, eigh):
    w = _low_rank_plus_noise((200, 80), 5, 11)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert matcore._svt_gram_factors(w, 0.5) is None
    paths = {}
    got, f = svt_with_rank(w, 0.5, paths=paths)
    assert paths == {"svd": 1}
    want, full = _full_svd_svt(w, 0.5)
    assert f.rank == full.rank == 5
    np.testing.assert_array_equal(got, want)


def _eigh_count(w, eta):
    """The rank the Gram start's eigendecomposition counts, written out: the
    eigenvalues of the Gram matrix of 2^-e W above (2^-e eta)^2 less
    max(m, n) eps lambda_max."""
    e = math.frexp(np.abs(w).max())[1] - 1
    ws = np.ldexp(w, -e)
    lam = np.linalg.eigh(ws.T @ ws if w.shape[0] >= w.shape[1] else ws @ ws.T)[0]
    cut = np.ldexp(eta, -e) ** 2 - max(w.shape) * np.finfo(float).eps * abs(lam[-1])
    return int((lam > cut).sum())


# sigma_1^2 / eta^2 of W; "margin" multiplies 8 max(m, n) eps, the margin of
# the rank-0 certificate below eta^2
_TOP_VALUES = {"-1e-3": (1 - 1e-3) ** 2, "-1e-12": (1 - 1e-12) ** 2,
               "+1e-12": (1 + 1e-12) ** 2, "+1e-3": (1 + 1e-3) ** 2,
               "margin 1.5": 1.5, "margin 1": 1.0, "margin 0.5": 0.5}


@pytest.mark.parametrize("top", list(_TOP_VALUES), ids=list(_TOP_VALUES))
@pytest.mark.parametrize("shape", [(120, 60), (60, 120)], ids=["tall", "wide"])
def test_rank_0_certificate_agrees_with_the_eigh_count(monkeypatch, shape, top):
    eta = 0.75
    ratio = _TOP_VALUES[top]
    if top.startswith("margin"):
        ratio = 1 - ratio * 8 * max(shape) * np.finfo(float).eps
    sigma = np.r_[eta * np.sqrt(ratio), np.linspace(0.5, 0.1, min(shape) - 1) * eta]
    rng = np.random.default_rng(14)
    u = np.linalg.qr(rng.standard_normal((shape[0], sigma.size)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], sigma.size)))[0]
    w = (u * sigma) @ v.T
    want = _eigh_count(w, eta)
    eighs = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda g: eighs.append(1) or real_eigh(g))
    f = matcore._svt_gram_factors(w, eta)
    assert f is not None and f.rank == want == (1 if top.startswith("+") else 0)
    if top.startswith("-"):
        assert not eighs  # certified by the Cholesky factor alone
    if f.rank:
        _assert_matches_full_svt(f, w, eta)


@pytest.mark.parametrize("shape", [(200, 80), (80, 200)], ids=["tall", "wide"])
def test_a_declined_rank_0_certificate_restores_the_gram_matrix(monkeypatch, shape):
    # G, with a -0.0 and a +0.0 off its diagonal: c I - G is not positive
    # definite, and G comes back bit for bit
    g = np.array([[2.0, -0.0, 1.0], [-0.0, 3.0, 0.0], [1.0, 0.0, 1e-300]])
    before = g.copy()
    assert not matcore._dominates(g, 2.5)
    np.testing.assert_array_equal(g.view(np.int64), before.view(np.int64))
    # so a Gram start whose certificate is declined is the eigh path alone
    w = _low_rank_plus_noise(shape, 5, 11)
    got = matcore._svt_gram_factors(w, 0.5)
    monkeypatch.setattr(matcore, "_dominates", lambda g, c: False)
    want = matcore._svt_gram_factors(w, 0.5)
    assert got.rank == want.rank == 5
    for a, b in [(got.u, want.u), (got.sigma, want.sigma), (got.v, want.v)]:
        np.testing.assert_array_equal(a, b)


def _rayleigh_ritz_work(monkeypatch):
    """A list that gets, for each _rayleigh_ritz call, its events in order:
    "cholesky-qr" for a plain step's Cholesky-QR, "cholesky failed" when
    its factor failed, "householder" for a Householder QR and "svd" for a
    Rayleigh-Ritz step's SVD."""
    calls = []
    real_rr, real_cholesky_qr = matcore._rayleigh_ritz, matcore._cholesky_qr
    real_qr, real_svd = np.linalg.qr, matcore.svd

    def rayleigh_ritz(*args, **kwargs):
        calls.append([])
        return real_rr(*args, **kwargs)

    def cholesky_qr(y):
        q = real_cholesky_qr(y)
        calls[-1].append("cholesky failed" if q is None else "cholesky-qr")
        return q

    def qr(a):
        calls[-1].append("householder")
        return real_qr(a)

    def svd(*args, **kwargs):
        calls[-1].append("svd")
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(matcore, "_rayleigh_ritz", rayleigh_ritz)
    monkeypatch.setattr(matcore, "_cholesky_qr", cholesky_qr)
    monkeypatch.setattr(np.linalg, "qr", qr)
    monkeypatch.setattr(matcore, "svd", svd)
    return calls


def _steps(events):
    """Power steps among a _rayleigh_ritz call's events: each orthonormalises
    its basis once, by Cholesky-QR or by Householder QR (after a failed
    Cholesky factor, too)."""
    return events.count("cholesky-qr") + events.count("householder")


def test_plain_power_steps_take_no_svd(monkeypatch):
    calls = _rayleigh_ritz_work(monkeypatch)
    assert pcp_adm.solve_pcp(_adm_300().m_obs).converged
    steps = sum(_steps(c) for c in calls)
    svds = sum(c.count("svd") for c in calls)
    # each step orthonormalises its basis, but only the Rayleigh-Ritz steps
    # take an SVD
    assert svds < steps
    assert max(_steps(c) for c in calls) <= matcore.PARTIAL_MAX_POWER_STEPS + 1


def test_a_warm_start_takes_a_plain_step_before_its_first_svd(monkeypatch):
    calls = _adm_300_svt_calls(monkeypatch)
    work = _rayleigh_ritz_work(monkeypatch)
    starts = {"warm": 0, "gram": 0}
    for w, eta, v_prev in calls:
        if v_prev is not None and v_prev.shape[1]:
            _warm_start(w, eta, v_prev)
            assert work[-1][:3] == ["cholesky-qr", "householder", "svd"]
            starts["warm"] += 1
        before = len(work)
        matcore._svt_gram_factors(w, eta)
        if len(work) > before:  # not certified 0 before any power step
            # the eigenvectors already approximate the singular vectors:
            # the Rayleigh-Ritz step comes first
            assert work[-1][:2] == ["householder", "svd"]
            starts["gram"] += 1
    assert starts["warm"] >= len(calls) // 2 and starts["gram"] >= 1


def test_power_steps_left_at_the_ends_of_its_rate():
    # sigma_p = 0: the next step leaves nothing to shrink, so one is enough
    assert matcore._power_steps_left(1e-10, 1e-14, 2.0, 0.0) == 1
    # sigma_p = sigma_k: no step shrinks the miss, so the whole budget
    assert matcore._power_steps_left(1e-10, 1e-14, 2.0, 2.0) == matcore.PARTIAL_MAX_POWER_STEPS
    # (1/2)^2 a step: 1e-10 down to 1e-14 takes ceil(log_4 1e4) = 7
    assert matcore._power_steps_left(1e-10, 1e-14, 2.0, 1.0) == 7


def _repeated_column_sketch(seed):
    """A 13-column Gaussian sketch Y = W Omega of a 120x100 Gaussian W whose
    column 1 repeats column 0: Y^T Y is singular."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((120, 100))
    omega = rng.standard_normal((100, 13))
    omega[:, 1] = omega[:, 0]
    return w @ omega


def test_cholesky_qr_declines_a_singular_sketch():
    # rounding leaves every pivot of the singular Y^T Y positive in 73 of
    # these 200 sketches, and the smallest one 8e-9 to 2e-8 of the largest;
    # unchecked, those returned a Q with max|Q^T Q - I| up to 1.0
    for seed in range(200):
        q = matcore._cholesky_qr(_repeated_column_sketch(seed))
        assert q is None or np.abs(q.T @ q - np.eye(13)).max() <= 1e-6, seed
    # without the repeat the sketch is well conditioned and Q orthonormal
    rng = np.random.default_rng(0)
    y = rng.standard_normal((120, 100)) @ rng.standard_normal((100, 13))
    q = matcore._cholesky_qr(y)
    assert q is not None and np.abs(q.T @ q - np.eye(13)).max() <= 1e-12


def _rank_3_warm_start(rng):
    """(W, eta, V_prev): a 120x100 W of rank 3 below the 13 sketched
    columns, with V_prev its right singular vectors and eta below them."""
    w = rng.standard_normal((120, 3)) @ rng.standard_normal((3, 100))
    _, sigma, vt = np.linalg.svd(w)
    return w, 0.5 * sigma[2], vt[:3].T.copy()


def _zero_column_warm_start(rng):
    """(W, eta, V_prev): V_prev's last column is 0, and so is that sketch
    column W V_prev."""
    w, v = _with_spectrum(rng, np.r_[10.0, 8.0, 6.0, np.linspace(1, 0.1, 97)])
    v_prev = v[:, :3].copy()
    v_prev[:, 2] = 0.0
    return w, 3.0, v_prev


@pytest.mark.parametrize("start", [_rank_3_warm_start, _zero_column_warm_start],
                         ids=["W of rank 3", "zero sketch column"])
def test_a_singular_plain_step_falls_back_to_householder(monkeypatch, start):
    # Y^T Y is singular, and the Cholesky factor of these two fails on the
    # plain step: a rank-3 Y's rounding leaves negative pivots, a zero
    # column's pivot is exactly 0
    w, eta, v_prev = start(np.random.default_rng(15))
    work = _rayleigh_ritz_work(monkeypatch)
    f = _warm_start(w, eta, v_prev)
    assert work[0][:2] == ["cholesky failed", "householder"]
    assert _steps(work[0]) <= matcore.PARTIAL_MAX_POWER_STEPS + 1
    # and the Householder basis still reaches the certificate
    assert f is not None and f.rank == 3
    sigma = f.sigma + eta
    assert np.abs(w @ f.v - f.u * sigma).max() <= 2 * matcore.PARTIAL_CERT_TOL * sigma[0]
    _assert_matches_full_svt(f, w, eta)


@pytest.mark.parametrize("steps", [1, 2, 100], ids=["short", "one plain step", "past the budget"])
def test_any_power_step_prediction_ends_certified_or_declined(monkeypatch, steps):
    calls = _adm_300_svt_calls(monkeypatch)
    monkeypatch.setattr(matcore, "_power_steps_left", lambda *args: steps)
    work = _rayleigh_ritz_work(monkeypatch)
    accepted = 0
    for w, eta, v_prev in calls:
        starts = [matcore._svt_gram_factors(w, eta)]
        if v_prev is not None and v_prev.shape[1]:
            starts.append(_warm_start(w, eta, v_prev))
        for f in starts:
            if f is None or not f.rank:
                continue
            accepted += 1
            # the certificate, recomputed from the thin factors (within the
            # rounding of W V_k)
            sigma = f.sigma + eta
            assert np.abs(w @ f.v - f.u * sigma).max() <= 2 * matcore.PARTIAL_CERT_TOL * sigma[0]
            _assert_matches_full_svt(f, w, eta)
    assert accepted >= len(calls)
    assert max(_steps(c) for c in work) <= matcore.PARTIAL_MAX_POWER_STEPS + 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(100, 100), (8, 8)], ids=["gram", "svd"])
def test_svt_of_a_non_finite_matrix_raises(shape, bad):
    w = _low_rank_plus_noise(shape, 2, 13)
    w[3, 5] = bad
    with pytest.raises(SvdConvergenceError):
        svt_with_rank(w, 0.5)
    with pytest.raises(SvdConvergenceError):
        svd(w)


def _with_spectrum(rng, sigma):
    n = sigma.size
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (u * sigma) @ v.T, v


def _fallback_cases():
    """(name, the path svt_with_rank takes, W, eta, V_prev) for a warm or
    Gram start that the SVT cannot use. svt_with_rank takes no warm start
    without a previous rank, or at one whose sketch is too wide."""
    rng = np.random.default_rng(9)
    w, _ = _with_spectrum(rng, np.linspace(10, 1, 40))
    # the Gram start counts 36 values above eta: its sketch would be too wide
    yield "no rank guess", "svd", w, 2.0, None
    yield "previous rank 0", "svd", w, 2.0, np.zeros((40, 0))
    # p = 5 + 10 = 15 columns exceed a quarter of 40
    yield "too wide", "svd", w, 2.0, np.linalg.qr(rng.standard_normal((40, 5)))[0]
    # 50 values above eta fill the p = 11 columns sketched for rank 1
    w, v = _with_spectrum(rng, np.r_[np.linspace(10, 5, 50), np.zeros(50)])
    yield "k == p", "svd", w, 1.0, v[:, :1]
    # about (9/10)^2 per power step cannot reach the certificate in 8 steps
    # from the warm sketch; the Gram start's eigenvectors hold the top three
    w, _ = _with_spectrum(rng, np.r_[10.0, 10.0, 10.0, np.linspace(9, 8, 197)])
    yield "no certificate", "gram", w, 9.5, np.linalg.qr(rng.standard_normal((200, 3)))[0]
    # the Gram matrix resolves the two values at 1.2e-6 sigma_1 only to an
    # angle of about eps / (1.2e-6^2 - 0.9e-6^2) = 3.5e-4 from the rest
    w, _ = _with_spectrum(rng, np.r_[1.0, 1.2e-6, 1.2e-6, np.linspace(0.9e-6, 0.8e-6, 197)])
    yield "no certificate from the Gram start", "svd", w, 1e-6, None


@pytest.mark.parametrize("case", list(_fallback_cases()), ids=lambda c: c[0])
def test_partial_svt_fallbacks_return_full_svt(case):
    name, path, w, eta, v_prev = case
    if name in ("k == p", "no certificate"):
        assert _warm_start(w, eta, v_prev) is None
    paths = {}
    got, f = svt_with_rank(w, eta, v_prev, paths=paths)
    assert paths == {path: 1}
    want, full = _full_svd_svt(w, eta)
    if path == "svd":
        np.testing.assert_array_equal(got, want)
    else:
        _assert_matches_full_svt(f, w, eta)
    assert f.rank == full.rank == f.v.shape[1]
    np.testing.assert_array_equal(f.reconstruct(), got)

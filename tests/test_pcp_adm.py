"""Tests for the reference ADM principal component pursuit solver."""

import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l1pcp import matcore, pcp_adm, synth
from l1pcp.l1filter import sample_submatrix
from l1pcp.matcore import frobenius_norm, l1_norm
from l1pcp.pcp_adm import AdmConfig, default_lambda, solve_pcp, spectral_norm_estimate
from oracles import lapack_svt, nuclear_norm, reference_adm


def test_default_lambda_values():
    assert default_lambda(2000, 2000) == pytest.approx(1 / math.sqrt(2000))
    assert default_lambda(1, 1) == 1.0
    assert default_lambda(100, 400) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        default_lambda(0, 5)


def test_spectral_norm_estimate():
    m = np.diag([5.0, 2.0, 1.0])
    assert spectral_norm_estimate(m) == pytest.approx(5.0, rel=1e-6)
    assert spectral_norm_estimate(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("value", [1e200, 1e-162])
def test_spectral_norm_estimate_at_extreme_scales(value):
    # unscaled, the squares overflow (1e200) or underflow (1e-162), and the
    # estimate read 0
    assert spectral_norm_estimate(np.full((3, 3), value)) == pytest.approx(3 * value,
                                                                          rel=1e-12)


@pytest.mark.parametrize("k", [-1000, -300, -1, 1, 300, 900])
def test_spectral_norm_estimate_scales_exactly_by_powers_of_two(k):
    m = np.random.default_rng(3).standard_normal((30, 20))
    assert spectral_norm_estimate(np.ldexp(m, k)) == np.ldexp(spectral_norm_estimate(m), k)


def _alternating_rank_one(size):
    """u v^T with u = linspace(1, 2) and v alternating +-1: every row sums
    to zero, so the all-ones start of the power iteration vanishes."""
    return np.outer(np.linspace(1.0, 2.0, size), np.resize([1.0, -1.0], size))


def test_spectral_norm_estimate_restarts_when_the_ones_start_vanishes():
    m = _alternating_rank_one(60)
    assert spectral_norm_estimate(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6),
       zero_sums=st.sampled_from(["rows", "cols", "neither"]),
       entries=st.lists(st.integers(-4, 4), min_size=36, max_size=36),
       scale=st.floats(1e-3, 1e3), sign=st.booleans(), block_rows=st.integers(2, 3))
def test_spectral_norm_estimate_is_positive_and_below_the_norm(rows, cols, zero_sums,
                                                               entries, scale, sign,
                                                               block_rows):
    m = scale * np.array(entries[:rows * cols], dtype=float).reshape(rows, cols)
    # +-pairs of columns (rows): M 1 = 0 (1^T M = 0) exactly, and the rest 0
    if zero_sums == "rows":
        m[:, cols // 2:cols // 2 * 2] = -m[:, :cols // 2]
        m[:, cols // 2 * 2:] = 0.0
    elif zero_sums == "cols":
        m[rows // 2:rows // 2 * 2] = -m[:rows // 2]
        m[rows // 2 * 2:] = 0.0
    assume(m.any())
    norm = np.linalg.norm(np.sign(m) if sign else m, 2)
    whole = spectral_norm_estimate(m, sign=sign)  # in one row block
    # row blocks of block_rows rows, the last one short when they do not
    # divide: only the sums over the blocks round differently
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matcore, "BLOCK_BYTES", block_rows * cols * 8)
        blocked = spectral_norm_estimate(m, sign=sign)
    assert 0.0 < whole <= (1 + 1e-12) * norm
    assert blocked == pytest.approx(whole, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("sign", [False, True], ids=["dense", "sign"])
def test_spectral_norm_estimate_holds_one_row_block(sign):
    # 8 row blocks of a 1000x1000 M: the sign walk holds one block's buffer,
    # not the 8 MB sign(M), and the dense walk reads every block of M in
    # place and holds only vectors (about 5.4 n-vectors), not a 1 MB block
    # of 2^-e M
    m = np.random.default_rng(0).standard_normal((1000, 1000))
    assert len(matcore.row_blocks(m.shape)) == 8
    tracemalloc.start()
    try:
        spectral_norm_estimate(m, sign=sign)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 * matcore.BLOCK_BYTES if sign else 8 * m[0].nbytes)


def test_spectral_norm_estimate_of_a_gaussian_2000_is_the_recorded_value():
    # 31 row blocks: taking 2^-e into the vectors, not into each block of M,
    # keeps the estimate bit for bit (the value the block-scaling walk gave)
    m = np.random.default_rng(0).standard_normal((2000, 2000))
    assert len(matcore.row_blocks(m.shape)) == 31
    assert spectral_norm_estimate(m) == 88.08592028671575


def test_rows_that_sum_to_zero_are_solved_without_a_warning():
    # the penalty starts at 1.25 / ||M||_2: from a vanished estimate it
    # overflowed, and one step returned L = 0, S = M as converged
    m = _alternating_rank_one(60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_pcp(m)
    assert sol.converged and sol.rank_of_l == 1
    assert frobenius_norm(sol.l - m) <= 1e-6 * frobenius_norm(m)


def test_zero_matrix_one_iteration():
    sol = solve_pcp(np.zeros((10, 10)))
    assert sol.converged
    assert sol.iterations == 1
    assert not sol.l.any() and not sol.s.any()
    assert sol.rank_of_l == 0
    # it takes no SVT, and says so in the counts every solve reports
    assert sol.stats == {f"svt_{path}": 0 for path in _SVT_PATHS}


def test_a_non_finite_residual_raises(monkeypatch):
    # the scale check keeps real inputs finite, so the SVT is made to overflow
    real = pcp_adm.svt_with_rank

    def overflow(w, eta, v_prev=None, **kwargs):
        l, factors = real(w, eta, v_prev, **kwargs)
        return np.full_like(l, np.inf), factors

    monkeypatch.setattr(pcp_adm, "svt_with_rank", overflow)
    with pytest.raises(pcp_adm.PcpDivergenceError, match="non-finite residual at iteration 1"):
        solve_pcp(np.diag([3.0, 2.0, 1.0]))


def test_uncorrupted_rank_one_gives_zero_sparse():
    rng = np.random.default_rng(0)
    m = np.outer(rng.standard_normal(40), rng.standard_normal(30))
    sol = solve_pcp(m)
    assert sol.converged
    assert frobenius_norm(m - sol.l) / frobenius_norm(m) <= 1e-6
    assert l1_norm(sol.s) / l1_norm(m) <= 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        AdmConfig(rho=1.0)
    with pytest.raises(ValueError):
        AdmConfig(tol=0.0)
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="rho must be finite"):
            AdmConfig(rho=value)
    with pytest.raises(ValueError, match="tol must be positive"):
        AdmConfig(tol=np.nan)
    with pytest.raises(ValueError, match="tol must be finite"):
        AdmConfig(tol=np.inf)


@pytest.mark.parametrize("seed", range(5))
def test_exact_recovery_small(seed):
    spec = synth.SynthSpec(m=200, n=200, rho_r=0.025, rho_s=0.05, rng_seed=seed)
    gt = synth.generate(spec)
    cfg = AdmConfig(tol=1e-7)
    sol = solve_pcp(gt.m_obs, cfg)
    assert sol.converged
    assert sol.final_residual <= cfg.tol
    assert synth.rel_err(sol.l, gt.l0) <= 100 * cfg.tol


def test_objective_not_worse_than_truth():
    spec = synth.SynthSpec(m=150, n=150, rho_r=0.02, rho_s=0.05, rng_seed=3)
    gt = synth.generate(spec)
    sol = solve_pcp(gt.m_obs)
    lam = default_lambda(150, 150)
    obj_star = nuclear_norm(sol.l) + lam * l1_norm(sol.s)
    obj_truth = nuclear_norm(gt.l0) + lam * l1_norm(gt.s0)
    assert obj_star <= obj_truth * (1 + 1e-3)


def test_feasibility_at_exit():
    spec = synth.SynthSpec(m=120, n=80, rho_r=0.02, rho_s=0.03, rng_seed=1)
    gt = synth.generate(spec)
    cfg = AdmConfig(tol=1e-6)
    sol = solve_pcp(gt.m_obs, cfg)
    res = frobenius_norm(gt.m_obs - sol.l - sol.s) / frobenius_norm(gt.m_obs)
    assert sol.converged
    assert res == pytest.approx(sol.final_residual)
    assert res <= cfg.tol


def test_max_iter_exhaustion_is_flagged():
    spec = synth.SynthSpec(m=100, n=100, rho_r=0.03, rho_s=0.05, rng_seed=0)
    gt = synth.generate(spec)
    sol = solve_pcp(gt.m_obs, AdmConfig(tol=1e-12, max_iter=3))
    assert not sol.converged
    assert sol.final_residual > 1e-12
    assert sol.iterations == 3


_SVT_PATHS = ("warm", "zero", "gram", "svd")


def test_stats_count_the_svt_paths():
    spec = synth.SynthSpec(m=300, n=300, rho_r=0.03, rho_s=0.01, rng_seed=0)
    m = synth.generate(spec).m_obs
    sol = solve_pcp(m)
    paths = {p: sol.stats[f"svt_{p}"] for p in _SVT_PATHS}
    assert sum(paths.values()) == sol.iterations
    # the warm start serves most steps; the first steps find no value
    # above the threshold, and the Gram start seeds the first of rank > 0
    assert paths["warm"] >= sol.iterations // 2
    assert paths["zero"] > 0 and paths["gram"] > 0
    first = solve_pcp(m, AdmConfig(tol=1e-5))
    resumed = solve_pcp(m, AdmConfig(tol=1e-9), resume=first)
    # a resumed solve counts its own steps only
    assert sum(resumed.stats[f"svt_{p}"] for p in _SVT_PATHS) == resumed.iterations


@pytest.mark.parametrize("rank", [60, 90])
def test_an_iterate_too_wide_for_a_sketch_goes_straight_to_the_full_svd(monkeypatch, rank):
    # a Gram start whose sketch would be too wide costs an eigh for
    # nothing; the previous rank skips it, so at most the step on which the
    # rank first outgrows the sketch pays one (without the guard, every
    # full-SVD step of these solves would pay one)
    declined = []
    real = matcore._svt_gram_factors

    def count(w, eta):
        factors = real(w, eta)
        declined.append(factors is None)
        return factors

    monkeypatch.setattr(matcore, "_svt_gram_factors", count)
    spec = synth.SynthSpec(m=300, n=300, rho_r=rank / 300, rho_s=0.01, rng_seed=0)
    sol = solve_pcp(synth.generate(spec).m_obs)
    assert sol.converged and sol.stats["svt_svd"] > sol.iterations // 2
    assert sum(declined) <= 1


def _tall_or_wide(m, wide):
    """The tall matrix m, or its transpose when wide: the Gram start forms
    W^T W on a tall iterate and W W^T on a wide one. The transpose is
    copied to C order, as solve_pcp would otherwise copy it."""
    assert m.shape[0] > m.shape[1]
    return np.ascontiguousarray(m.T) if wide else m


@pytest.mark.parametrize("wide", [False, True])
def test_one_svt_call_per_iteration(monkeypatch, wide):
    calls = []

    def count(w, eta, v_prev=None, **kwargs):
        calls.append(v_prev is not None)
        return matcore.svt_with_rank(w, eta, v_prev, **kwargs)

    monkeypatch.setattr(pcp_adm, "svt_with_rank", count)
    spec = synth.SynthSpec(m=100, n=80, rho_r=0.05, rho_s=0.05, rng_seed=0)
    sol = solve_pcp(_tall_or_wide(synth.generate(spec).m_obs, wide))
    assert sol.converged and len(calls) == sol.iterations
    # every SVT after the first is handed the previous factors
    assert calls == [False] + [True] * (sol.iterations - 1)


def _resume_matches_tighter_solve(m, tol, max_iter):
    """Solve at tol, resume at tol/100, and check that against one solve at
    tol/100: the iterates never read tol, only the stopping test does."""
    tight = AdmConfig(tol=tol * 1e-2, max_iter=max_iter)
    first = solve_pcp(m, AdmConfig(tol=tol, max_iter=max_iter))
    before = [a.copy() for a in (first.l, first.s, first.state.y)]
    resumed = solve_pcp(m, tight, resume=first)
    once = solve_pcp(m, tight)
    # the resume works in copies: the earlier solution stays as it was
    for was, now in zip(before, (first.l, first.s, first.state.y)):
        np.testing.assert_array_equal(now, was)
    np.testing.assert_array_equal(resumed.l, once.l)
    np.testing.assert_array_equal(resumed.s, once.s)
    assert first.iterations + resumed.iterations == once.iterations
    assert resumed.state.iterations == once.state.iterations == once.iterations
    assert resumed.final_residual == once.final_residual
    assert resumed.converged == once.converged
    assert resumed.rank_of_l == once.rank_of_l
    return first, resumed


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rows=st.integers(2, 40), cols=st.integers(2, 40), rank=st.integers(1, 3),
       spikes=st.floats(0.0, 0.1), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([1e-5, 1e-7, 1e-9]), max_iter=st.integers(1, 300))
def test_resumed_solve_equals_one_tighter_solve(rows, cols, rank, spikes, seed, tol, max_iter):
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    m = rng.standard_normal((rows, rank)) @ rng.standard_normal((cols, rank)).T
    hit = rng.random(m.shape) < spikes
    m[hit] += rng.uniform(-10, 10, hit.sum())
    _resume_matches_tighter_solve(m, tol, max_iter)


def test_resumed_seed_solve_equals_one_tighter_solve():
    # a 100x100 seed of a rank-10 matrix: the partial SVT warm-starts from
    # the carried factors across the resume
    gt = synth.generate(synth.SynthSpec(m=1000, n=1000, rho_r=0.01, rho_s=0.01,
                                        rng_seed=0))
    _, _, block = sample_submatrix(gt.m_obs, 100, 100, 0)
    first, resumed = _resume_matches_tighter_solve(block, 1e-9, 1000)
    assert first.converged and resumed.converged and resumed.iterations > 0
    assert first.rank_of_l == first.state.svt.rank == 10
    np.testing.assert_array_equal(first.state.svt.reconstruct(), first.l)
    assert resumed.stats["svt_warm"] == resumed.iterations
    again = solve_pcp(block, AdmConfig(tol=1e-11), resume=first)
    np.testing.assert_array_equal(again.l, resumed.l)  # resuming leaves first intact


def _matcore_svt(w, eta, v_prev):
    """svt_with_rank as solve_pcp calls it, and its V_k."""
    l, factors = matcore.svt_with_rank(w, eta, v_prev)
    return l, factors.v


# (m, n, rho_r, rho_s, rng_seed): three small instances, and a 300x300
# rank-10 one on which the warm start serves most steps
_CROSS_CHECK_SPECS = {
    "0": (60, 50, 0.05, 0.05, 0),
    "1": (80, 50, 0.05, 0.05, 1),
    "2": (100, 50, 0.05, 0.05, 2),
    "300x300 rank 10": (300, 300, 10 / 300, 0.01, 0),
}


@pytest.mark.parametrize("case", list(_CROSS_CHECK_SPECS))
def test_solve_equals_out_of_place_reference_bit_for_bit(case):
    # the in-place solve equals the out-of-place ADM with the same SVT bit
    # for bit, and the ADM with LAPACK's full SVD to rounding: L and S
    # within 1e-12 relative, and Y as it enters W, Y/beta, within 1e-12
    # ||M||. Y itself adds beta R at every step, so one ulp of a single
    # LAPACK SVT moves it by 1.5e-11 relative on case 2 (beta ends at 141)
    rows, cols, rho_r, rho_s, seed = _CROSS_CHECK_SPECS[case]
    spec = synth.SynthSpec(m=rows, n=cols, rho_r=rho_r, rho_s=rho_s, rng_seed=seed)
    m = synth.generate(spec).m_obs
    sol = solve_pcp(m, AdmConfig(tol=1e-7))
    assert sol.converged and sol.rank_of_l == spec.rank
    if rows == 300:
        assert sol.stats["svt_warm"] >= sol.iterations // 2
    l, s, y, iters = reference_adm(m, 1e-7, _matcore_svt)
    assert sol.iterations == iters
    assert np.array_equal(sol.l, l) and np.array_equal(sol.s, s)
    assert np.array_equal(sol.state.y, y)
    ref_l, ref_s, ref_y, ref_iters = reference_adm(m, 1e-7, lapack_svt)
    assert ref_iters == iters
    assert frobenius_norm(l - ref_l) <= 1e-12 * frobenius_norm(ref_l)
    assert frobenius_norm(s - ref_s) <= 1e-12 * frobenius_norm(ref_s)
    assert frobenius_norm(y - ref_y) / sol.state.beta <= 1e-12 * frobenius_norm(m)


def _traced_peak(solve):
    """solve() and the tracemalloc peak of the call in bytes."""
    tracemalloc.start()
    try:
        sol = solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sol, peak


def _peak_memory_instance(n=200):
    spec = synth.SynthSpec(m=200, n=n, rho_r=0.025, rho_s=0.05, rng_seed=0)
    return synth.generate(spec).m_obs


@pytest.mark.parametrize("wide", [False, True])
def test_solve_peak_memory_is_three_buffers_and_one_svd(wide):
    # W (in the buffer of the L it replaces), S and Y, plus LAPACK's U and
    # V^T during a full SVD, or the Gram matrix and its eigenvectors during
    # a Gram start: about 5x M.nbytes on top of the input
    m = _tall_or_wide(_peak_memory_instance(n=150), wide)
    sol, peak = _traced_peak(lambda: solve_pcp(m))
    assert sol.converged
    assert peak <= 5.5 * m.nbytes, f"peak {peak / m.nbytes:.2f}x M.nbytes"


def _draw_traces(snapshot):
    """The traces in snapshot allocated by the warm start's Gaussian draw."""
    lines, first = inspect.getsourcelines(matcore.svt_with_rank)
    lineno = first + next(i for i, line in enumerate(lines) if "standard_normal" in line)
    return snapshot.filter_traces([tracemalloc.Filter(True, matcore.__file__, lineno)]).traces


def test_the_sketch_draw_lives_only_within_one_solve(monkeypatch):
    m = _peak_memory_instance()
    first = solve_pcp(m)
    assert first.stats["svt_warm"] > 0
    # a solve of another shape between two of m draws its own sketches
    solve_pcp(_peak_memory_instance(n=150))
    # draws held when each Gram start begins: none, so they never add to
    # its peak
    held = []
    real_gram = matcore._svt_gram_factors

    def gram(w, eta):
        held.append(len(_draw_traces(tracemalloc.take_snapshot())))
        return real_gram(w, eta)

    monkeypatch.setattr(matcore, "_svt_gram_factors", gram)
    tracemalloc.start()
    try:
        again = solve_pcp(m)
        assert not _draw_traces(tracemalloc.take_snapshot())
        # the filter finds a draw that is still held, and a sketch of
        # another width replaces it, both warm starts on M - S + Y/beta
        beta, draws, paths = again.stats["beta_final"], {}, {}
        w, v_prev = m - again.s + again.state.y / beta, again.state.svt.v
        matcore.svt_with_rank(w, 1 / beta, v_prev, paths=paths, draws=draws)
        assert draws and _draw_traces(tracemalloc.take_snapshot())
        matcore.svt_with_rank(w, 1 / beta, v_prev[:, :1], paths=paths, draws=draws)
        assert list(draws) == [(m.shape[1], matcore._sketch_width(1))]
        assert paths == {"warm": 2}
    finally:
        tracemalloc.stop()
    assert again.iterations == first.iterations
    assert len(held) == sum(again.stats[f"svt_{path}"] for path in ("zero", "gram"))
    assert not any(held)
    for a, b in [(again.l, first.l), (again.s, first.s), (again.state.y, first.state.y)]:
        np.testing.assert_array_equal(a, b)


def test_resumed_partial_svd_solve_peaks_at_four_buffers():
    # resumed with the last SVT's factors, every step takes the partial
    # SVD: the copied L, S and Y, and W or the new L beside them, about 4x
    # M.nbytes; a held work buffer would make it 5x
    m = _peak_memory_instance()
    first = solve_pcp(m)
    sol, peak = _traced_peak(lambda: solve_pcp(m, AdmConfig(tol=1e-9), resume=first))
    assert first.converged and sol.converged and sol.iterations > 0
    assert peak <= 4.5 * m.nbytes, f"peak {peak / m.nbytes:.2f}x M.nbytes"


def _rank_one_20():
    rng = np.random.default_rng(0)
    return np.outer(rng.standard_normal(20), rng.standard_normal(20))


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160])
def test_scale_the_stopping_test_cannot_resolve_is_rejected(scale):
    # ||M||_F or ||M - L - S||_F would underflow or overflow: unchecked,
    # each of these solves reported converged=True with a wrong L
    with pytest.raises(ValueError, match="rescale the matrix"):
        solve_pcp(scale * _rank_one_20())


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("exponent", [-440, 440])
def test_power_of_two_scale_in_range_scales_the_solution_exactly(exponent, wide):
    m = _tall_or_wide(_rank_one_20()[:, :12], wide)
    ref = solve_pcp(m)
    sol = solve_pcp(2.0**exponent * m)
    assert sol.converged and sol.iterations == ref.iterations
    assert sol.final_residual == ref.final_residual
    np.testing.assert_array_equal(sol.l, 2.0**exponent * ref.l)
    np.testing.assert_array_equal(sol.s, 2.0**exponent * ref.s)


def test_resume_needs_a_state():
    with pytest.raises(ValueError, match="resume"):
        solve_pcp(np.zeros((5, 5)), resume=solve_pcp(np.zeros((5, 5))))

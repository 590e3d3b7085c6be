"""Tests for the l1-filtering pipeline: seed sampling and recovery, column
and row filtering, Nystrom completion, assembly, and rank estimation."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from l1pcp import bench, l1filter, matcore, matio, synth
from l1pcp.l1filter import (
    PIPELINE_TOL,
    SEED_RANK_TOL,
    SEED_TOL_RATIO,
    FilterConfig,
    LowRank,
    Remainder,
    SeedRecovery,
    assemble,
    estimate_rank_and_factor,
    estimate_rank_and_solve,
    filter_columns,
    filter_rows,
    nystrom_complete,
    recover_seed,
    sample_submatrix,
)
from l1pcp.l1reg import CHUNK_COLS, _exact_fit_presolve, solve_l1reg, solve_l1reg_columnwise
from l1pcp.matcore import SkinnySvd, frobenius_norm, l1_norm, linf_norm, svd
from l1pcp.pcp_adm import AdmConfig, default_lambda, solve_pcp, spectral_norm_estimate
from oracles import lapack_svt, nystrom_complete_via_pinv, reference_adm


def _low_rank(rng, m, n, r):
    return rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T


def test_sample_submatrix_determinism_and_sizing():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((1000, 1000))
    ri1, ci1, blk1 = sample_submatrix(m, 100, 100, 42)
    ri2, ci2, blk2 = sample_submatrix(m, 100, 100, 42)
    np.testing.assert_array_equal(ri1, ri2)
    np.testing.assert_array_equal(ci1, ci2)
    assert blk1.shape == (100, 100)  # r=10 at 10x oversampling
    np.testing.assert_array_equal(blk1, m[np.ix_(ri1, ci1)])
    assert np.all(np.diff(ri1) > 0) and np.all(np.diff(ci1) > 0)


def test_sample_submatrix_full_size_is_whole_matrix():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((12, 9))
    ri, ci, blk = sample_submatrix(m, 12, 9, 0)
    np.testing.assert_array_equal(ri, np.arange(12))
    np.testing.assert_array_equal(ci, np.arange(9))
    np.testing.assert_array_equal(blk, m)


def test_sample_submatrix_oversized_request_rejected():
    # by numpy's choice without replacement, on either side
    with pytest.raises(ValueError):
        sample_submatrix(np.zeros((5, 5)), 6, 3, 0)
    with pytest.raises(ValueError):
        sample_submatrix(np.zeros((5, 5)), 3, 6, 0)


def test_recover_seed_uncorrupted_rank_two():
    rng = np.random.default_rng(2)
    block = _low_rank(rng, 60, 60, 2)
    seed = recover_seed(block, AdmConfig(tol=1e-9))
    assert seed.r_prime == seed.seed_svd.rank == 2
    seed_s = block - seed.seed_svd.reconstruct()
    assert frobenius_norm(seed_s) / frobenius_norm(block) <= 1e-6


def test_recover_seed_zero_block_is_rank_zero():
    seed = recover_seed(np.zeros((20, 15)), max_rank=2)
    assert seed.r_prime == seed.seed_svd.rank == 0
    assert seed.seed_svd.u.shape == (20, 0) and seed.seed_svd.v.shape == (15, 0)
    assert seed.polish_iterations == 0  # a zero seed is never polished


@pytest.mark.parametrize("rows, data_seed", [(1, 0), (10, 3)])
def test_recover_seed_of_one_signed_row_is_rank_zero(rows, data_seed):
    # one +-u row, alone or among zero rows: PCP puts it all in S, and the
    # last SVT's sigma, 4.4e-16 and 2.2e-16, is rounding noise that the
    # stopping test cannot resolve; kept, it made r' = 1
    rng = np.random.default_rng(data_seed)
    block = np.zeros((rows, 10))
    block[0] = rng.uniform(1, 2) * np.sign(rng.standard_normal(10))
    seed = recover_seed(block, AdmConfig(tol=PIPELINE_TOL))
    assert seed.pcp_converged
    assert seed.r_prime == seed.seed_svd.rank == 0


def _row_sparse(rng):
    """A zero 400x400 M with 3-29 rows of u_i times random signs, u_i in [1, 2]."""
    m = np.zeros((400, 400))
    rows = rng.choice(400, int(rng.integers(3, 30)), replace=False)
    m[rows] = rng.uniform(1, 2, (rows.size, 1)) * np.sign(rng.standard_normal((rows.size, 400)))
    return m


@pytest.mark.parametrize("rng_seed", [1, 8])
def test_seed_of_rounding_noise_is_a_zero_seed(rng_seed):
    # 25 of 400 rows: at these draws the 10x10 seed holds one of them, and
    # its rounding-noise L was a rank-1 seed whose completion divided by
    # sigma = 4.4e-16, returned as a converged L with ||L||_F = 1.3e18
    m = _row_sparse(np.random.default_rng(0))
    sol = estimate_rank_and_factor(m, FilterConfig(rng_seed=rng_seed))
    l_norm = frobenius_norm(sol.l.a @ sol.l.b.T)
    # any PCP optimum has ||L||_F <= ||L||_* <= lam ||M||_1 = 780, as (0, M)
    # is feasible
    assert not (sol.converged and l_norm > default_lambda(*m.shape) * l1_norm(m))
    assert sol.method == "degenerate-zero-seed" and not sol.converged


def _seed_block():
    """A 100x100 seed of a 1000x1000 rank-10 instance with 1% corruption."""
    gt = synth.generate(synth.SynthSpec(m=1000, n=1000, rho_r=0.01, rho_s=0.01,
                                        rng_seed=0))
    return sample_submatrix(gt.m_obs, 100, 100, 0)[2]


def test_seed_factors_come_from_the_last_svt(monkeypatch):
    block = _seed_block()
    cfg = AdmConfig(tol=PIPELINE_TOL)
    sol = solve_pcp(block, cfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("recover_seed took a fresh SVD")

    monkeypatch.setattr(l1filter, "svd", forbidden)
    seed = recover_seed(block, cfg)
    monkeypatch.undo()
    assert seed.r_prime == svd(sol.l, rank_tol=SEED_RANK_TOL).rank == 10
    assert seed.polish_iterations == 0 and seed.pcp_iterations == sol.iterations
    err = frobenius_norm(seed.seed_svd.reconstruct() - sol.l)
    assert err <= 1e-12 * frobenius_norm(sol.l)


def test_polish_shares_the_iteration_budget():
    block = _seed_block()
    base = solve_pcp(block, AdmConfig(tol=PIPELINE_TOL)).iterations
    seed = recover_seed(block, AdmConfig(tol=PIPELINE_TOL, max_iter=base + 2), max_rank=10)
    assert seed.polish_iterations == 2 and seed.pcp_iterations == base + 2
    assert seed.pcp_converged and seed.pcp_residual <= PIPELINE_TOL
    full = recover_seed(block, AdmConfig(tol=PIPELINE_TOL), max_rank=10)
    assert full.polish_iterations > 2
    assert full.pcp_residual <= PIPELINE_TOL * SEED_TOL_RATIO
    assert recover_seed(block, AdmConfig(tol=PIPELINE_TOL), max_rank=9).polish_iterations == 0


def test_polish_that_overshoots_keeps_the_converged_iterate():
    # at data seed 6 the step after convergence at 1e-7 reads 1.4e-7
    rng = np.random.default_rng(6)
    m = _low_rank(rng, 30, 30, 2)
    hit = rng.random(m.shape) < 0.05
    m[hit] += rng.uniform(-10, 10, hit.sum())
    cfg = AdmConfig(tol=1e-7)
    plain = recover_seed(m, cfg)
    seed = recover_seed(m, AdmConfig(tol=1e-7, max_iter=plain.pcp_iterations + 1), max_rank=3)
    assert seed.polish_iterations == 1 and seed.pcp_iterations == plain.pcp_iterations + 1
    assert seed.pcp_converged and seed.pcp_residual == plain.pcp_residual <= 1e-7
    np.testing.assert_array_equal(seed.seed_svd.reconstruct(), plain.seed_svd.reconstruct())


def _filter_whole(x, basis, cfg, rows=False):
    """filter_columns over every column of X, or with rows filter_rows over
    every row, through a seed that holds all of X's rows (columns) and none
    of its columns (rows), with basis as its U (V)."""
    k, every, none = basis.shape[1], np.arange(basis.shape[0]), np.arange(0)
    if rows:
        f = SkinnySvd(u=np.zeros((0, k)), sigma=np.ones(k), v=basis)
        return filter_rows(x, SeedRecovery(none, every, f, k), cfg)
    f = SkinnySvd(u=basis, sigma=np.ones(k), v=np.zeros((0, k)))
    return filter_columns(x, SeedRecovery(every, none, f, k), cfg)


def _record_chunks(monkeypatch):
    """The list that collects, in order, the L1RegSolution of every chunk
    the filters hand to solve_l1reg_columnwise; the filters drop its E."""
    sols = []

    def record(x, a, cfg):
        sols.append(solve_l1reg_columnwise(x, a, cfg))
        return sols[-1]

    monkeypatch.setattr(l1filter, "solve_l1reg_columnwise", record)
    return sols


def test_filter_columns_exact_subspace(monkeypatch):
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((40, 3)))
    q0 = rng.standard_normal((3, 15))
    chunks = _record_chunks(monkeypatch)
    q, _, _, _ = _filter_whole(u @ q0, u, AdmConfig(tol=1e-10))
    (sol,) = chunks
    assert np.abs(sol.e).max() <= 1e-8
    assert np.abs(q - q0).max() <= 1e-6


def test_filter_rows_transposed_form(monkeypatch):
    rng = np.random.default_rng(4)
    v, _ = np.linalg.qr(rng.standard_normal((30, 3)))
    p0 = rng.standard_normal((3, 12))
    m_r = p0.T @ v.T
    chunks = _record_chunks(monkeypatch)
    p, _, _, _ = _filter_whole(m_r, v, AdmConfig(tol=1e-10), rows=True)
    (sol,) = chunks
    # the rows are filtered in column form: E is that of M_r^T
    assert sol.e.shape == m_r.T.shape and p.shape == p0.shape
    assert np.abs(sol.e).max() <= 1e-8
    assert np.abs(p - p0).max() <= 1e-6


def test_filter_empty_complement_is_noop():
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((10, 2)))
    whole = np.arange(10)
    seed = SeedRecovery(whole, whole, SkinnySvd(u=u, sigma=np.ones(2), v=u), 2)
    m = rng.standard_normal((10, 10))
    for filt in (filter_columns, filter_rows):
        coef, iters, failed, residual = filt(m, seed, AdmConfig())
        assert coef.shape == (2, 0) and iters == 0 and failed == 0
        assert residual == 0.0


def test_presolve_solves_spiked_columns_the_adm_agrees_with(monkeypatch):
    # 1% spikes on a 100-row block in span(U): the presolve certifies every
    # column, so the ADM takes no step, and the ADM alone reaches the same
    # Z and E
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(rng.standard_normal((100, 5)))
    x = u @ rng.standard_normal((5, 300))
    hit = rng.random(x.shape) < 0.01
    x[hit] += rng.uniform(-50, 50, hit.sum())
    cfg = AdmConfig(tol=PIPELINE_TOL)
    chunks = _record_chunks(monkeypatch)
    q, iterations, failed, residual = _filter_whole(x, u, cfg)
    (sol,) = chunks
    e, misfit = sol.e, sol.misfit
    ref = solve_l1reg(x, u, cfg)
    assert iterations == 0 and failed == 0 and ref.converged
    scale = np.abs(x).max()
    assert np.abs(q - ref.z).max() <= 1e-8 * scale
    assert np.abs(e - ref.e).max() <= 1e-8 * scale
    assert misfit == np.abs(x - u @ q - e).max() <= PIPELINE_TOL * scale
    assert residual == misfit / scale


def test_declined_blocks_reach_the_adm_unchanged(monkeypatch):
    # The presolve declines every column of both blocks: seven spikes per
    # column against a 5-column basis, and columns of a basis rotated by
    # 1e-6. The filters then return the ADM's own solution, chunk by chunk,
    # bit for bit.
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((120, 5)))
    spiky = u @ rng.standard_normal((5, 40))
    for col in spiky.T:
        col[rng.choice(120, 7, replace=False)] += rng.uniform(20, 40, 7)
    rotated = np.linalg.qr(u + 1e-6 * rng.standard_normal(u.shape))[0]
    rotated = rotated @ rng.standard_normal((5, 600))
    cfg = AdmConfig(tol=PIPELINE_TOL)
    chunks = _record_chunks(monkeypatch)
    for x in (spiky, rotated):
        starts = range(0, x.shape[1], CHUNK_COLS)
        ref = [solve_l1reg(x[:, lo:lo + CHUNK_COLS], u, cfg) for lo in starts]
        chunks.clear()
        q, it_c, failed_c, _ = _filter_whole(x, u, cfg)
        p, it_r, failed_r, _ = _filter_whole(x.T, u, cfg, rows=True)
        ref_failed = [lo + c for lo, sol in zip(starts, ref) for c in sol.failed_columns]
        for z, sols in ((q, chunks[:len(starts)]), (p, chunks[len(starts):])):
            np.testing.assert_array_equal(z, np.concatenate([sol.z for sol in ref], axis=1))
            np.testing.assert_array_equal(np.concatenate([sol.e for sol in sols], axis=1),
                                          np.concatenate([sol.e for sol in ref], axis=1))
            assert [lo + c for lo, sol in zip(starts, sols)
                    for c in sol.failed_columns] == ref_failed
        assert it_c == it_r == max(sol.iterations for sol in ref)
        assert failed_c == failed_r == len(ref_failed)


def _exact_seed(block, ri, ci):
    """Seed built from the exact SVD of an uncorrupted block (PCP-free, so
    Nystrom exactness holds to machine precision)."""
    f = svd(block)
    return SeedRecovery(row_idx=ri, col_idx=ci, seed_svd=f, r_prime=f.rank)


def _pipeline_pieces(rng, m_rows, m_cols, r, seed_rows, seed_cols):
    """Uncorrupted exact-rank instance split into seed/filter blocks:
    (L0, seed, Q, P, other rows, other columns)."""
    l0 = _low_rank(rng, m_rows, m_cols, r)
    ri, ci, block = sample_submatrix(l0, seed_rows, seed_cols, rng)
    seed = _exact_seed(block, ri, ci)
    comp_r = np.setdiff1d(np.arange(m_rows), ri)
    comp_c = np.setdiff1d(np.arange(m_cols), ci)
    q = filter_columns(l0, seed, AdmConfig(tol=1e-10))[0]
    p = filter_rows(l0, seed, AdmConfig(tol=1e-10))[0]
    return l0, seed, q, p, comp_r, comp_c


def test_nystrom_exactness_and_assembly():
    rng = np.random.default_rng(6)
    l0, seed, q, p, _, _ = _pipeline_pieces(rng, 80, 70, 3, 30, 30)
    l_hat, s_hat = assemble(l0, *nystrom_complete(seed, q, p))
    assert frobenius_norm(l_hat - l0) / frobenius_norm(l0) <= 1e-8
    np.testing.assert_array_equal(s_hat, l0 - l_hat)
    # assembled matrix is built from rank-r' factors
    sig = np.linalg.svd(l_hat, compute_uv=False)
    assert (sig > 1e-8 * sig[0]).sum() == seed.r_prime


def test_nystrom_dual_formulas_agree():
    rng = np.random.default_rng(7)
    for _ in range(10):
        l0, seed, q, p, comp_r, comp_c = _pipeline_pieces(rng, 60, 55, 5, 25, 25)
        a, b = nystrom_complete(seed, q, p)
        direct = a[comp_r] @ b[comp_c].T
        l_row = l0[np.ix_(comp_r, seed.col_idx)]
        l_col = l0[np.ix_(seed.row_idx, comp_c)]
        via_pinv = nystrom_complete_via_pinv(l_row, seed.seed_svd.reconstruct(), l_col)
        err = frobenius_norm(direct - via_pinv) / frobenius_norm(direct)
        assert err <= 1e-8


def test_nystrom_of_a_zero_seed_is_zero():
    # a seed of rank 0 gives factors with no columns, and L = 0, S = M
    rng = np.random.default_rng(9)
    ri, ci, block = sample_submatrix(np.zeros((30, 25)), 10, 8, rng)
    seed = recover_seed(block, AdmConfig(tol=1e-10), ri, ci)
    assert seed.r_prime == 0
    a, b = nystrom_complete(seed, np.zeros((0, 25 - 8)), np.zeros((0, 30 - 10)))
    assert a.shape == (30, 0) and b.shape == (25, 0)
    m = rng.standard_normal((30, 25))
    l_hat, s_hat = assemble(m, a, b)
    assert not l_hat.any()
    np.testing.assert_array_equal(s_hat, m)


def test_nystrom_rank_one_completion_is_outer_product():
    rng = np.random.default_rng(8)
    l0, seed, q, p, comp_r, comp_c = _pipeline_pieces(rng, 30, 30, 1, 10, 10)
    a, b = nystrom_complete(seed, q, p)
    assert a.shape == (30, 1) and b.shape == (30, 1)
    sig = np.linalg.svd(a[comp_r] @ b[comp_c].T, compute_uv=False)
    assert (sig > 1e-10 * sig[0]).sum() == 1


def test_assemble_whole_matrix_seed():
    rng = np.random.default_rng(9)
    l0, seed, q, p, _, _ = _pipeline_pieces(rng, 20, 20, 2, 20, 20)
    assert q.shape == p.shape == (2, 0)
    l_hat, _ = assemble(l0, *nystrom_complete(seed, q, p))
    np.testing.assert_allclose(l_hat, seed.seed_svd.reconstruct())


def test_assemble_roundtrip_reextraction():
    # each block of L = A B^T against its Nystrom formula
    rng = np.random.default_rng(10)
    l0, seed, q, p, comp_r, comp_c = _pipeline_pieces(rng, 40, 35, 2, 15, 15)
    f, ri, ci = seed.seed_svd, seed.row_idx, seed.col_idx
    l_hat, _ = assemble(l0, *nystrom_complete(seed, q, p))
    tol = 1e-13 * matcore.linf_norm(l_hat)
    for rows, cols, block in [
        (ri, ci, f.reconstruct()),
        (comp_r, comp_c, p.T @ (q / f.sigma[:, None])),
        (ri, comp_c, f.u @ q),
        (comp_r, ci, p.T @ f.v.T),
    ]:
        assert np.abs(l_hat[np.ix_(rows, cols)] - block).max() <= tol


def test_assemble_rejects_mismatched_factors():
    rng = np.random.default_rng(11)
    l0, seed, q, p, _, _ = _pipeline_pieces(rng, 30, 30, 2, 12, 12)
    a, b = nystrom_complete(seed, q, p)
    # a single row of A would broadcast silently against M
    for m, a_bad, b_bad in [(l0, a[:1], b), (l0, a, b[:29]), (l0[:, :29], a, b),
                            (l0, a[:, :1], b)]:
        with pytest.raises(ValueError):
            assemble(m, a_bad, b_bad)


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(s_r=1.0)
    for rate in (np.inf, np.nan):
        for bad in ({"s_r": rate}, {"s_c": rate}):
            with pytest.raises(ValueError, match="oversampling rates must be finite"):
                FilterConfig(**bad)
    for rank_hint in (0, -3):
        with pytest.raises(ValueError, match="rank_hint must be >= 1"):
            FilterConfig(rank_hint=rank_hint)
    assert FilterConfig(rank_hint=1).rank_hint == 1
    for seed in (-1, np.int64(-2)):
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            FilterConfig(rng_seed=seed)


def test_lambda_is_rejected():
    # the seed PCP uses the seed block's own default lambda
    with pytest.raises(ValueError, match="lambda"):
        FilterConfig(adm=AdmConfig(lam=0.1))


def test_parallelism_only_accepts_one():
    assert FilterConfig(parallelism=1).parallelism == 1
    with pytest.raises(ValueError, match="parallelism"):
        FilterConfig(parallelism=2)


def test_end_to_end_recovery_with_hint():
    spec = synth.SynthSpec(m=300, n=300, rho_r=0.01, rho_s=0.01, rng_seed=0)
    gt = synth.generate(spec)
    cfg = FilterConfig(rank_hint=spec.rank, rng_seed=0)
    sol = estimate_rank_and_solve(gt.m_obs, cfg)
    assert sol.method == "l1-filter"
    assert sol.rank_of_l == spec.rank
    assert synth.rel_err(sol.l, gt.l0) <= 1e-5
    np.testing.assert_allclose(sol.l + sol.s, gt.m_obs, atol=1e-10)


def test_solve_peak_memory_is_l_and_s():
    # L and S are the only dense outputs; the filter blocks and their sparse
    # parts are freed before L = A B^T is formed, and no completion block is
    spec = synth.SynthSpec(m=1000, n=1000, rho_r=0.01, rho_s=0.01, rng_seed=0)
    m = synth.generate(spec).m_obs
    tracemalloc.start()
    try:
        sol = estimate_rank_and_solve(m, FilterConfig(rank_hint=spec.rank, rng_seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.method == "l1-filter" and sol.converged
    assert peak <= 2.2 * m.nbytes, f"peak {peak / m.nbytes:.2f}x M.nbytes"


def test_filter_working_set_does_not_grow_with_n():
    # the filters gather CHUNK_COLS-wide chunks of their blocks from M, so
    # besides Q and P (r' x n) they hold O(s CHUNK_COLS), not O(s n)
    rng = np.random.default_rng(0)
    big = rng.standard_normal((4000, 5)) @ rng.standard_normal((4000, 5)).T
    spikes = rng.integers(0, 4000, (2, 160_000))
    big[spikes[0], spikes[1]] += rng.uniform(-50, 50, spikes.shape[1])
    cfg = FilterConfig(rank_hint=5)
    s = int(cfg.s_r * 5)
    peaks = []
    for n in (1000, 4000):
        m = np.ascontiguousarray(big[:n, :n])
        ri, ci, block = sample_submatrix(m, s, s, 0)
        seed = recover_seed(block, cfg.adm, ri, ci, max_rank=5)
        assert seed.r_prime == 5
        tracemalloc.start()
        try:
            q, _, failed_c, _ = filter_columns(m, seed, cfg.adm)
            p, _, failed_r, _ = filter_rows(m, seed, cfg.adm)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert failed_c + failed_r == 0
    chunk_bytes = s * CHUNK_COLS * 8
    assert max(peaks) <= 16 * chunk_bytes, [p / chunk_bytes for p in peaks]
    assert peaks[1] <= 2 * peaks[0], peaks


def _chunk_instance(width, declined):
    """A rank-3 M of (50 + width) x (40 + width), its seed (the first 50
    rows and 40 columns, an exact SVD of the uncorrupted seed block) and the
    complements. Each filtered column and row carries one spike off the seed
    block, which the presolve certifies; with declined, every third one
    carries seven instead, more than the rank, which it leaves to the ADM."""
    rng = np.random.default_rng(width + declined)
    m = _low_rank(rng, 50 + width, 40 + width, 3)
    ri, ci = np.arange(50), np.arange(40)
    for j in range(40, m.shape[1]):
        hits = 7 if declined and j % 3 == 0 else 1
        m[rng.choice(50, hits, replace=False), j] += rng.uniform(20, 40, hits)
    for i in range(50, m.shape[0]):
        hits = 7 if declined and i % 3 == 0 else 1
        m[i, rng.choice(40, hits, replace=False)] += rng.uniform(20, 40, hits)
    seed = _exact_seed(m[:50, :40], ri, ci)
    return m, seed, np.arange(50, m.shape[0]), np.arange(40, m.shape[1])


@pytest.mark.parametrize("declined", [False, True])
@pytest.mark.parametrize("width", [CHUNK_COLS - 1, CHUNK_COLS, CHUNK_COLS + 1])
def test_filter_stage_chunks_match_whole_blocks(width, declined):
    m, seed, comp_r, comp_c = _chunk_instance(width, declined)
    f, cfg = seed.seed_svd, AdmConfig(tol=PIPELINE_TOL)
    x_c = m[np.ix_(seed.row_idx, comp_c)]
    x_r = m[np.ix_(comp_r, seed.col_idx)]
    for x, basis in ((x_c, f.u), (x_r.T, f.v)):
        rest, _ = _exact_fit_presolve(x, basis, cfg.tol, np.zeros((basis.shape[1], x.shape[1])))
        assert (rest.size > 0) == declined
    q, _, failed_c, residual_c = filter_columns(m, seed, cfg)
    p, _, failed_r, residual_r = filter_rows(m, seed, cfg)
    residual = max(residual_c, residual_r)
    ref_c = solve_l1reg_columnwise(x_c, f.u, cfg)
    ref_r = solve_l1reg_columnwise(x_r.T, f.v, cfg)
    q_ref, p_ref = ref_c.z, ref_r.z
    assert failed_c + failed_r == len(ref_c.failed_columns) + len(ref_r.failed_columns) == 0
    if not declined:
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(p, p_ref)
        assert residual == max(linf_norm(x - b @ sol.z - sol.e) / linf_norm(x) for x, b, sol in
                               ((x_c, f.u, ref_c), (x_r.T, f.v, ref_r)))
        assert residual == max(ref_c.misfit / linf_norm(x_c), ref_r.misfit / linf_norm(x_r))
    # solve_l1reg_columnwise splits the whole blocks into the same chunks,
    # so a declined column reaches the same ADM block either way; the bound
    # leaves room for rounding only
    assert np.abs(q - q_ref).max() <= 1e-12 * linf_norm(x_c)
    assert np.abs(p - p_ref).max() <= 1e-12 * linf_norm(x_r)
    assert residual <= PIPELINE_TOL


def test_filter_iterations_stay_short_on_clean_columns():
    # Columns whose only misfit is the seed's subspace error stop once the
    # penalty reaches its cap beta0_j / tol; a cap below that leaves them
    # creeping to the pipeline tolerance for 150 iterations.
    for seed in range(2):
        spec = synth.SynthSpec(m=500, n=500, rho_r=0.01, rho_s=0.01, rng_seed=seed)
        gt = synth.generate(spec)
        sol = estimate_rank_and_solve(gt.m_obs,
                                      FilterConfig(rank_hint=5, rng_seed=seed))
        assert sol.stats["filter_iterations"] <= 80
        assert synth.rel_err(sol.l, gt.l0) <= 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_polished_seed_keeps_filters_short(seed):
    # a seed solved only to the filters' tolerance leaves L's columns off
    # span(U_s) by more than their stopping threshold, and they run to the
    # penalty cap at 50-51 iterations
    spec = synth.SynthSpec(m=1000, n=1000, rho_r=0.01, rho_s=0.01, rng_seed=seed)
    gt = synth.generate(spec)
    sol = estimate_rank_and_solve(gt.m_obs, FilterConfig(rank_hint=10, rng_seed=seed))
    assert sol.method == "l1-filter" and sol.converged
    assert sol.stats["filter_iterations"] <= 35
    assert 0 < sol.stats["seed_residual"] <= PIPELINE_TOL * SEED_TOL_RATIO
    assert sol.stats["seed_polish_iterations"] > 0
    assert synth.rel_err(sol.l, gt.l0) <= 1e-8


def test_only_the_accepted_seed_is_polished(monkeypatch):
    calls = []

    def record(m, cfg=None, resume=None):
        sol = solve_pcp(m, cfg, resume)
        calls.append((m.shape, cfg.tol, resume is not None, sol.iterations))
        return sol

    monkeypatch.setattr(l1filter, "solve_pcp", record)
    spec = synth.SynthSpec(m=500, n=500, rho_r=0.02, rho_s=0.01, rng_seed=4)
    sol = estimate_rank_and_solve(synth.generate(spec).m_obs, FilterConfig(rng_seed=4))
    assert sol.method == "l1-filter" and sol.stats["attempts"] > 1
    assert [c[2] for c in calls] == [False] * sol.stats["attempts"] + [True]
    shape, tol, _, iterations = calls[-1]
    assert shape == calls[-2][0] == (sol.stats["seed_rows"], sol.stats["seed_cols"])
    assert tol == PIPELINE_TOL * SEED_TOL_RATIO
    assert sol.stats["seed_polish_iterations"] == iterations > 0


def test_filter_failed_columns_reported():
    spec = synth.SynthSpec(m=300, n=300, rho_r=0.01, rho_s=0.01, rng_seed=0)
    gt = synth.generate(spec)
    ok = estimate_rank_and_solve(gt.m_obs, FilterConfig(rank_hint=spec.rank))
    assert ok.stats["filter_failed_columns"] == 0
    assert ok.converged
    starved = estimate_rank_and_solve(
        gt.m_obs, FilterConfig(rank_hint=spec.rank, adm=AdmConfig(tol=1e-9, max_iter=8)))
    assert starved.method == "l1-filter"
    assert 0 < starved.stats["filter_failed_columns"] <= 2 * (300 - starved.stats["seed_cols"])
    assert not starved.converged


def test_final_residual_certifies_the_solve():
    # S = M - L holds by construction, so the residual must come from the
    # stages: the seed PCP and the two filters' constraint residuals
    spec = synth.SynthSpec(m=500, n=500, rho_r=0.01, rho_s=0.01, rng_seed=0)
    gt = synth.generate(spec)
    sol = estimate_rank_and_solve(gt.m_obs, FilterConfig(rank_hint=spec.rank))
    assert 0.0 < sol.final_residual <= 1.01 * PIPELINE_TOL
    starved = estimate_rank_and_solve(
        gt.m_obs, FilterConfig(rank_hint=spec.rank, adm=AdmConfig(tol=1e-9, max_iter=8)))
    assert starved.method == "l1-filter"
    assert starved.final_residual > 1e-6


def test_rank_estimation_without_hint():
    spec = synth.SynthSpec(m=400, n=400, rho_r=0.005, rho_s=0.01, rng_seed=1)
    gt = synth.generate(spec)  # true rank 2
    sol = estimate_rank_and_solve(gt.m_obs, FilterConfig(rng_seed=3))
    assert sol.method == "l1-filter"
    assert sol.rank_of_l == 2
    assert sol.stats["seed_rows"] >= 10 * 2
    assert synth.rel_err(sol.l, gt.l0) <= 1e-5


def test_every_seed_is_sampled_by_sample_submatrix(monkeypatch):
    # the rank-growing instance above: one sample_submatrix call per attempt
    calls = []
    sample = l1filter.sample_submatrix

    def count(*args):
        calls.append(args[1:3])
        return sample(*args)

    monkeypatch.setattr(l1filter, "sample_submatrix", count)
    spec = synth.SynthSpec(m=400, n=400, rho_r=0.005, rho_s=0.01, rng_seed=1)
    sol = estimate_rank_and_solve(synth.generate(spec).m_obs, FilterConfig(rng_seed=3))
    assert sol.stats["attempts"] == len(calls) > 1
    assert calls[-1] == (sol.stats["seed_rows"], sol.stats["seed_cols"])


def test_fallback_to_full_pcp_for_high_rank():
    spec = synth.SynthSpec(m=100, n=100, rho_r=0.4, rho_s=0.01, rng_seed=0)
    gt = synth.generate(spec)
    sol = estimate_rank_and_solve(gt.m_obs, FilterConfig(rng_seed=0))
    assert sol.method == "full-pcp-fallback"
    res = frobenius_norm(gt.m_obs - sol.l - sol.s) / frobenius_norm(gt.m_obs)
    assert res <= 1e-7
    assert sol.stats["filter_failed_columns"] == 0
    assert sol.stats["seed_polish_iterations"] == 0 and sol.stats["seed_residual"] == 0.0


def test_fallback_matches_full_svd_adm(monkeypatch):
    # the fallback warm-starts its SVTs; the ADM with LAPACK's full SVD at
    # every step is its reference
    spec = synth.SynthSpec(m=300, n=300, rho_r=0.1, rho_s=0.01, rng_seed=0)
    gt = synth.generate(spec)
    cfg = FilterConfig(rng_seed=0)
    ref_l, _, _, ref_iterations = reference_adm(gt.m_obs, cfg.adm.tol, lapack_svt)
    partial = []
    real = matcore._svt_partial_factors

    def count(w, eta, v_prev, omega):
        factors = real(w, eta, v_prev, omega)
        if w.shape == gt.m_obs.shape:
            partial.append(factors)
        return factors

    monkeypatch.setattr(matcore, "_svt_partial_factors", count)
    sol = estimate_rank_and_solve(gt.m_obs, cfg)
    assert sol.method == "full-pcp-fallback"
    assert sum(f is not None for f in partial) >= ref_iterations // 2
    assert sol.converged and sol.iterations == ref_iterations
    assert frobenius_norm(sol.l - ref_l) <= 1e-12 * frobenius_norm(ref_l)


# the stats keys every exit of the seed-attempt loop reports
_LOOP_STATS = {"t1", "attempts", "filter_failed_columns", "seed_polish_iterations",
               "seed_residual"}


@pytest.mark.parametrize("method, spec, attempts, keys", [
    # rank 3 at m=300: the rank-1 seed recovers 3 and grows once
    ("l1-filter", synth.SynthSpec(m=300, n=300, rho_r=0.01, rho_s=0.01, rng_seed=0), 2,
     {"t2", "t_assemble", "seed_rows", "seed_cols", "r_prime", "seed_iterations",
      "filter_iterations"}),
    # rank 40 at m=100: the seed grows twice, then would pass MAX_SEED_FRACTION
    ("full-pcp-fallback", synth.SynthSpec(m=100, n=100, rho_r=0.4, rho_s=0.01, rng_seed=0), 3,
     {"beta_final", "lambda", "svt_warm", "svt_zero", "svt_gram", "svt_svd",
      "proposed_seed"}),
    ("degenerate-zero-seed", None, 1, set()),
], ids=["l1-filter", "full-pcp-fallback", "degenerate-zero-seed"])
def test_each_loop_exit_reports_its_method_and_stats(method, spec, attempts, keys):
    m = np.zeros((50, 50)) if spec is None else synth.generate(spec).m_obs
    sol = estimate_rank_and_factor(m, FilterConfig(rng_seed=0))
    assert sol.method == method
    assert set(sol.stats) == _LOOP_STATS | keys
    assert sol.stats["attempts"] == attempts and sol.stats["t1"] > 0


def _dense(x):
    """x itself if an array, else its row blocks (a LowRank or Remainder) stacked."""
    if isinstance(x, np.ndarray):
        return x
    return np.concatenate([block.copy() for _, block in matio.blocks(x)])


@pytest.mark.parametrize("solve, method, spec", [
    (estimate_rank_and_factor, "l1-filter",
     synth.SynthSpec(m=300, n=300, rho_r=0.01, rho_s=0.01, rng_seed=0)),
    (estimate_rank_and_factor, "degenerate-zero-seed", None),
    (estimate_rank_and_factor, "full-pcp-fallback",
     synth.SynthSpec(m=100, n=100, rho_r=0.4, rho_s=0.01, rng_seed=0)),
    (solve_pcp, None, synth.SynthSpec(m=100, n=100, rho_r=0.05, rho_s=0.01, rng_seed=0)),
], ids=["l1-filter", "degenerate-zero-seed", "full-pcp-fallback", "adm"])
def test_no_path_writes_into_m(tmp_path, solve, method, spec):
    # decompose solves read_dmat's read-only map of its input; a solve on a
    # writable copy gives the same solution bit for bit
    m = _sparse_only(300) if spec is None else synth.generate(spec).m_obs
    path = tmp_path / "m.dmat"
    matio.write_matrix(path, m)
    mapped = matio.read_dmat(path)
    assert not mapped.flags.writeable
    a, b = solve(mapped), solve(np.array(mapped))
    assert a.method == b.method and (method is None or a.method == method)
    for x, y in ((a.l, b.l), (a.s, b.s)):
        np.testing.assert_array_equal(_dense(x), _dense(y))
    assert a.iterations == b.iterations and a.converged == b.converged
    assert a.final_residual == pytest.approx(b.final_residual, rel=1e-15)
    np.testing.assert_array_equal(mapped, m)


@pytest.mark.parametrize("case", ["sparse", "rows-sum-to-zero", "zero", "one-row"])
def test_sign_norm_estimate_matches_the_dense_estimate(monkeypatch, case):
    # sign(M) taken in blocks of 7 rows, the last one short, against the
    # formed sign(M) in one block: the block sums differ in their last bits
    # only; the rows that sum to zero take the Gaussian restart
    m = {"sparse": _sparse_only(60)[:45],
         "rows-sum-to-zero": np.outer(np.linspace(1.0, 2.0, 45), np.resize([1.0, -1.0], 60)),
         "zero": np.zeros((45, 60)),
         "one-row": np.arange(-30.0, 30.0)[None, :]}[case]
    want = spectral_norm_estimate(np.sign(m))
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 7 * 60 * 8)
    assert spectral_norm_estimate(m, sign=True) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_rank_growing_solve_is_deterministic():
    spec = synth.SynthSpec(m=500, n=500, rho_r=0.02, rho_s=0.01, rng_seed=4)
    gt = synth.generate(spec)
    a = estimate_rank_and_solve(gt.m_obs, FilterConfig(rng_seed=4))
    b = estimate_rank_and_solve(gt.m_obs, FilterConfig(rng_seed=4))
    assert a.method == "l1-filter" and a.stats["attempts"] > 1
    np.testing.assert_array_equal(a.l, b.l)
    np.testing.assert_array_equal(a.s, b.s)
    assert a.final_residual == b.final_residual
    assert a.stats["seed_iterations"] == b.stats["seed_iterations"]


def test_degenerate_zero_matrix():
    sol = estimate_rank_and_solve(np.zeros((50, 50)), FilterConfig(rng_seed=0))
    assert sol.method == "degenerate-zero-seed"
    assert sol.rank_of_l == 0
    assert not sol.l.any()
    assert sol.stats["filter_failed_columns"] == 0
    assert sol.final_residual == 0.0  # lambda * ||sign(0)||_2
    assert sol.converged
    assert sol.stats["seed_polish_iterations"] == 0 and sol.stats["seed_residual"] == 0.0


def _rank_three_300():
    spec = synth.SynthSpec(m=300, n=300, rho_r=0.01, rho_s=0.01, rng_seed=0)
    return synth.generate(spec)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160])
def test_scale_the_seed_pcp_cannot_resolve_is_rejected(scale):
    # unchecked, 1e-160 gave an l1-filter solve with converged=True and
    # RelErr 3.8e-5 (1e-9 at scale 1), and the others an unconverged L = 0
    with pytest.raises(ValueError, match="rescale the matrix"):
        estimate_rank_and_solve(scale * _rank_three_300().m_obs)


@pytest.mark.parametrize("exponent", [-440, 440])
def test_power_of_two_scale_in_range_scales_the_pipeline_exactly(exponent):
    m = _rank_three_300().m_obs
    ref = estimate_rank_and_solve(m)
    sol = estimate_rank_and_solve(2.0**exponent * m)
    assert ref.method == sol.method == "l1-filter" and sol.converged
    assert sol.final_residual == ref.final_residual and sol.rank_of_l == ref.rank_of_l
    np.testing.assert_array_equal(sol.l, 2.0**exponent * ref.l)
    np.testing.assert_array_equal(sol.s, 2.0**exponent * ref.s)


def _sparse_only(size):
    """A size x size M of 1% uniform spikes in [-500, 500] and nothing else."""
    rng = np.random.default_rng(5)
    m = np.zeros((size, size))
    idx = rng.choice(m.size, m.size // 100, replace=False)
    m.flat[idx] = rng.uniform(-500, 500, idx.size)
    return m


def _zero_seed_solve(m):
    sol = estimate_rank_and_solve(m, FilterConfig(rng_seed=0))
    assert sol.method == "degenerate-zero-seed"
    assert not sol.l.any()
    # lambda * ||sign(M)||_2, estimated from below by power iteration
    exact = np.linalg.norm(np.sign(m), 2) / np.sqrt(max(m.shape))
    assert 0.95 * exact <= sol.final_residual <= exact * (1 + 1e-12)
    return sol


@pytest.mark.parametrize("rows", [5, 30])
def test_zero_seed_missing_low_rank_part_is_rejected(rows):
    # rank-2 L on a few of 300 rows, no corruption; at data seed 1 the first
    # 10x10 seed misses every one of them
    rng = np.random.default_rng(1)
    m = np.zeros((300, 300))
    m[rng.choice(300, rows, replace=False)] = _low_rank(rng, rows, 300, 2)
    sol = _zero_seed_solve(m)
    assert sol.final_residual > 1.0
    assert not sol.converged


def test_zero_seed_certifies_sparse_only_matrix():
    sol = _zero_seed_solve(_sparse_only(300))
    assert sol.final_residual <= 0.9
    assert sol.converged


@pytest.mark.parametrize("rng_seed", range(4))
def test_zero_seed_rejects_rows_that_sum_to_zero(rng_seed):
    # rows 0, 33, ..., 957 of a zero 1000x1000 M hold u_i v, v alternating
    # +-1: the seed misses them, and sign(M) 1 = 0 vanishes the all-ones
    # power iteration, which then certified L = 0 with a residual of 0
    m = np.zeros((1000, 1000))
    rows = np.arange(0, 958, 33)
    m[rows] = np.outer(np.linspace(1.0, 2.0, rows.size), np.resize([1.0, -1.0], 1000))
    sol = estimate_rank_and_factor(m, FilterConfig(rng_seed=rng_seed))
    assert sol.method == "degenerate-zero-seed"
    # L = 0 and S = M stay factored, as on the l1-filter path
    assert isinstance(sol.l, LowRank) and sol.l.a.shape == (1000, 0)
    assert isinstance(sol.s, Remainder) and sol.s.m is m
    # lambda ||sign(M)||_2 = sqrt(30 * 1000) / sqrt(1000)
    assert sol.final_residual == pytest.approx(math.sqrt(rows.size), rel=1e-12)
    assert not sol.converged


def test_cross_validation_agrees_on_clean_rank():
    spec = synth.SynthSpec(m=300, n=300, rho_r=0.01, rho_s=0.01, rng_seed=2)
    gt = synth.generate(spec)
    sol = estimate_rank_and_solve(gt.m_obs, FilterConfig(rng_seed=0))
    assert sol.method == "l1-filter"
    assert sol.rank_of_l == spec.rank
    assert synth.rel_err(sol.l, gt.l0) <= 1e-5


@pytest.mark.xfail(strict=True, reason="rank_hint=2 solves the 512/64 checkerboard "
                   "from a 20x20 seed to MaxDif 0.42 and reports converged=True")
def test_checkerboard_rank_hint_two_is_exact_or_unconverged():
    # With rank_hint=3 (a 30x30 seed) or no hint the solve is exact; with
    # rank_hint=2 it returns MaxDif 0.42 and converged=True
    img = synth.checkerboard(512, 64)
    gt = synth.corrupt_impulsive(img, 0.1, 0)
    sol = estimate_rank_and_solve(gt.m_obs, FilterConfig(rank_hint=2, rng_seed=0))
    assert synth.max_dif(sol.l, img) <= 1e-3 or not sol.converged


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the 110x110 seed at r' = 11 of this 10%-corruption instance "
                   "returns RelErr 0.61 and MaxDif 499 with converged=True")
def test_high_corruption_synth_seed_2_is_exact_or_unconverged():
    gt = synth.generate(synth.SynthSpec(m=2000, n=2000, rho_r=0.005, rho_s=0.1, rng_seed=2))
    sol = estimate_rank_and_solve(gt.m_obs, FilterConfig(rank_hint=10, rng_seed=2))
    assert synth.rel_err(sol.l, gt.l0) <= bench.CONVERGED_WRONG_REL_ERR or not sol.converged


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a rank-2 L on 30 of the 300 rows of a zero matrix returns "
                   "r' = 1 with RelErr 3.80 and converged=True")
def test_low_rank_on_few_rows_is_exact_or_unconverged():
    # M = L0 with no corruption, so L0 is M itself
    rng = np.random.default_rng(2)
    m = np.zeros((300, 300))
    rows = rng.choice(300, 30, replace=False)
    m[rows] = rng.standard_normal((30, 2)) @ rng.standard_normal((300, 2)).T
    sol = estimate_rank_and_solve(m, FilterConfig(rng_seed=0))
    assert synth.rel_err(sol.l, m) <= bench.CONVERGED_WRONG_REL_ERR or not sol.converged


@functools.cache
def _moving_object_pcp_l():
    """solve_pcp's L on synth.moving_object(): rank 64 and RelErr 0.14
    against L0, so L0 alone is not the reference on this instance."""
    return solve_pcp(synth.moving_object().m_obs).l


def _moving_object_exact_or_unconverged(rng_seed):
    """Whether the l1-filter solve of synth.moving_object() at rng_seed is
    within 1e-6 of L0, within 1e-5 of solve_pcp's L, or reports
    converged=False."""
    gt = synth.moving_object()
    sol = estimate_rank_and_solve(gt.m_obs, FilterConfig(rng_seed=rng_seed))
    return (not sol.converged or synth.rel_err(sol.l, gt.l0) <= 1e-6
            or synth.rel_err(sol.l, _moving_object_pcp_l()) <= 1e-5)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="rng_seeds 1, 3, 4 and 6 return r' = 3-5 with "
                   "RelErr 3.41, 39.3, 0.579 and 0.411 and converged=True")
def test_moving_object_is_exact_or_unconverged():
    # a 12x12 square moving over a 40x50 rank-2 background for 400 frames:
    # 7.2% corruption on a few rows per column; rng_seeds 0, 2 and 5 are exact
    wrong = [k for k in range(7) if not _moving_object_exact_or_unconverged(k)]
    assert not wrong, f"converged to a wrong L at rng_seeds {wrong}"


@pytest.mark.slow
def test_moving_object_seed_7_is_exact_or_unconverged():
    # the seed grows to full-pcp-fallback, which reports converged=False
    assert _moving_object_exact_or_unconverged(7)

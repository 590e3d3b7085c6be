"""Tests for the column-separable l1 regression ADM solver."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1pcp import l1reg
from l1pcp.l1reg import (
    CHUNK_COLS, STAGNATION_EPS, STAGNATION_ITERS, _exact_fit_presolve, _solve_block,
    solve_l1reg, solve_l1reg_columnwise,
)
from l1pcp.matcore import linf_norm
from l1pcp.pcp_adm import AdmConfig


# three chunks, the last one ragged, so the pool really splits the work
N_COLS_CHUNKED = 2 * CHUNK_COLS + 37


def _orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q


def _reference_solve_block(x, a, cfg, cap_ratio=None):
    """The kernel in its plain unscaled-multiplier form: Y is carried as is
    and every step builds fresh arrays. Same thresholds, penalty cap and
    compaction as the solver; its stagnation rule also counts iterations
    below the penalty cap. cap_ratio sets the cap as a multiple of each
    column's starting penalty instead of the solver's 1 / cfg.tol."""
    n_rows, n_cols = x.shape
    k = a.shape[1]
    col_scale = np.abs(x).max(axis=0)
    thresh = cfg.tol * col_scale

    z_out = np.zeros((k, n_cols))
    e_out = np.zeros((n_rows, n_cols))
    iters_out = np.zeros(n_cols, dtype=int)
    failed = []

    active = np.flatnonzero(col_scale > 0.0)
    beta = 1.0 / col_scale[active]
    beta_max = np.maximum(beta * (1.0 / cfg.tol if cap_ratio is None else cap_ratio), beta)

    xa = x[:, active].copy()
    z = np.zeros((k, active.size))
    e = np.zeros_like(xa)
    y = np.zeros_like(xa)
    prev_res = np.full(n_cols, np.inf)
    stalled = np.zeros(n_cols, dtype=int)

    for it in range(1, cfg.max_iter + 1):
        if active.size == 0:
            break
        w = xa - a @ z + y / beta
        e = np.sign(w) * np.maximum(np.abs(w) - 1.0 / beta, 0.0)
        z = a.T @ (xa - e + y / beta)
        r = xa - a @ z - e
        res = np.abs(r).max(axis=0)

        rel_change = np.abs(res - prev_res[active]) / np.maximum(res, np.finfo(float).tiny)
        stalled[active] = np.where(rel_change < STAGNATION_EPS, stalled[active] + 1, 0)
        prev_res[active] = res

        ok = res <= thresh[active]
        finished = ok | (stalled[active] >= STAGNATION_ITERS)
        if finished.any():
            cols = active[finished]
            z_out[:, cols] = z[:, finished]
            e_out[:, cols] = e[:, finished]
            iters_out[cols] = it
            failed.extend(int(c) for c, good in zip(cols, ok[finished]) if not good)
            keep = ~finished
            active, xa, z, e, y, r = (active[keep], xa[:, keep], z[:, keep],
                                      e[:, keep], y[:, keep], r[:, keep])
            beta, beta_max = beta[keep], beta_max[keep]
            if active.size == 0:
                break
        y = y + beta * r
        beta = np.minimum(cfg.rho * beta, beta_max)

    if active.size:  # max_iter exhausted
        z_out[:, active] = z
        e_out[:, active] = e
        iters_out[active] = cfg.max_iter
        failed.extend(int(c) for c in active)
    return z_out, e_out, iters_out, sorted(failed)


def _spiked_instance():
    rng = np.random.default_rng(1)
    a = _orthonormal(rng, 200, 5)
    z0 = rng.standard_normal((5, 30))
    e0 = np.zeros((200, 30))
    idx = rng.choice(200 * 30, size=300, replace=False)  # 5% spikes
    e0.flat[idx] = rng.uniform(-100, 100, size=300)
    return a @ z0 + e0, a, e0


def _chunked_instance():
    rng = np.random.default_rng(2)
    a = _orthonormal(rng, 120, 6)
    x = a @ rng.standard_normal((6, N_COLS_CHUNKED))
    n_spikes = x.size // 54  # about 1.9% of entries
    x.flat[rng.choice(x.size, n_spikes, replace=False)] += rng.uniform(-50, 50, n_spikes)
    return x, a


@pytest.mark.parametrize("cfg", [AdmConfig(), AdmConfig(tol=1e-9), AdmConfig(max_iter=5)],
                         ids=["default", "tol1e-9", "max_iter5"])
@pytest.mark.parametrize("instance", [_spiked_instance, _chunked_instance],
                         ids=["spiked", "chunked"])
def test_kernel_matches_unscaled_reference(instance, cfg):
    x, a = instance()[:2]
    z_ref, e_ref, iters_ref, failed_ref = _reference_solve_block(x, a, cfg)
    z, e, iters, _, failed = _solve_block(x, a, cfg)
    np.testing.assert_array_equal(iters, iters_ref)
    assert failed == failed_ref
    assert bool(failed) == (cfg.max_iter == 5)
    bound = 1e-12 * np.abs(x).max()
    assert np.abs(z - z_ref).max() <= bound
    assert np.abs(e - e_ref).max() <= bound
    sol = solve_l1reg(x, a, cfg)
    assert sol.failed_columns == failed_ref
    assert sol.iterations == iters_ref.max()


def test_columns_that_converge_on_the_last_step_are_not_failed():
    # max_iter is the first step on which any column meets its threshold:
    # those columns converge on the last allowed step and the rest run out
    # of steps, and all leave the kernel by the same exit
    x, a = _spiked_instance()[:2]
    iters_full = _reference_solve_block(x, a, AdmConfig())[2]
    last = int(iters_full.min())
    cfg = AdmConfig(max_iter=last)
    z_ref, e_ref, iters_ref, failed_ref = _reference_solve_block(x, a, cfg)
    z, e, iters, misfit, failed = _solve_block(x, a, cfg)
    assert (iters == last).all()
    np.testing.assert_array_equal(iters, iters_ref)
    assert failed == failed_ref
    assert failed == np.flatnonzero(iters_full > last).tolist()
    assert 0 < len(failed) < x.shape[1]
    bound = 1e-12 * np.abs(x).max()
    assert np.abs(z - z_ref).max() <= bound
    assert np.abs(e - e_ref).max() <= bound
    assert abs(misfit - np.abs(x - a @ z - e).max()) <= bound


def test_flat_residual_below_penalty_cap_is_not_a_stall():
    # With slow penalty growth one column's residual sits still for 20
    # iterations long before the penalty reaches its cap; the shrink
    # threshold is still falling, and the column converges later.
    x, a = _chunked_instance()
    cfg = AdmConfig(tol=1e-9, rho=1.1)
    *_, failed_ref = _reference_solve_block(x, a, cfg)
    assert failed_ref  # the rule without the cap condition gives up on it
    sol = solve_l1reg(x, a, cfg)
    assert sol.converged
    res = np.abs(x - a @ sol.z - sol.e).max(axis=0)
    assert (res[failed_ref] <= cfg.tol * np.abs(x[:, failed_ref]).max(axis=0)).all()


def test_exact_fit_no_noise():
    rng = np.random.default_rng(0)
    a = _orthonormal(rng, 50, 4)
    z0 = rng.standard_normal((4, 7))
    sol = solve_l1reg(a @ z0, a)
    assert sol.converged
    assert np.abs(sol.z - z0).max() <= 1e-6
    assert np.abs(sol.e).max() <= 1e-6


def test_spiked_recovery():
    x, a, e0 = _spiked_instance()
    sol = solve_l1reg(x, a, AdmConfig(tol=1e-9))
    assert sol.converged
    assert np.abs(sol.e - e0).max() <= 1e-4


def test_single_column_hand_solvable():
    # X = [10, 3, 0, ...]^T against A = e1: |10 - z| + 3 is minimized at
    # z = 10, leaving E = [0, 3, 0, ...]^T
    a = np.zeros((8, 1))
    a[0, 0] = 1.0
    x = np.zeros((8, 1))
    x[0, 0] = 10.0
    x[1, 0] = 3.0
    sol = solve_l1reg(x, a, AdmConfig(tol=1e-10))
    assert sol.z[0, 0] == pytest.approx(10.0, abs=1e-6)
    expected_e = x.copy()
    expected_e[0, 0] = 0.0
    np.testing.assert_allclose(sol.e, expected_e, atol=1e-6)


def test_columnwise_matches_joint():
    # where the presolve declines every column, the columnwise solve is the
    # ADM's, and chunking moves it at rounding level only
    x_rot, a = _rotated_instance()
    assert _presolve(x_rot, a, AdmConfig().tol)[2].size == x_rot.shape[1]
    joint = solve_l1reg(x_rot, a)
    colwise = solve_l1reg_columnwise(x_rot, a)
    assert np.abs(joint.e - colwise.e).max() <= 1e-8
    assert np.abs(joint.z - colwise.z).max() <= 1e-8
    # where it certifies columns, it returns their exact l1 minimizers, which
    # meet the ADM's stopping rule and are no worse than where the ADM stops
    x, a = _chunked_instance()
    cfg = AdmConfig()
    joint = solve_l1reg(x, a, cfg)
    colwise = solve_l1reg_columnwise(x, a, cfg)
    scale = np.abs(x).max(axis=0)
    assert (np.abs(x - a @ colwise.z - colwise.e).max(axis=0) <= cfg.tol * scale).all()
    objective = [np.abs(x - a @ sol.z).sum(axis=0) for sol in (colwise, joint)]
    assert (objective[0] <= objective[1] + 1e-9 * scale).all()


def test_default_penalty_cap_unchanged_at_default_tol():
    # With unit column norms beta0_j = 1, and the default cap beta0_j / tol
    # must be exactly the 1e7 * beta0 cap used before it followed tol. The
    # dense noise keeps every column iterating until its penalty nears the
    # cap, so a cap of half that moves Z and E by about 1e-8.
    rng = np.random.default_rng(9)
    a = _orthonormal(rng, 100, 4)
    x = a @ rng.standard_normal((4, 40))
    x.flat[rng.choice(x.size, 80, replace=False)] += rng.uniform(-20, 20, 80)
    x += 1e-5 * rng.standard_normal(x.shape)
    x /= np.abs(x).max(axis=0)
    z, e, iters, _, failed = _solve_block(x, a, AdmConfig())

    def gap(cap_ratio):
        z_ref, e_ref, iters_ref, failed_ref = _reference_solve_block(x, a, AdmConfig(),
                                                                     cap_ratio)
        np.testing.assert_array_equal(iters, iters_ref)
        assert failed == failed_ref == []
        return max(np.abs(z - z_ref).max(), np.abs(e - e_ref).max())

    assert gap(1e7) <= 1e-12
    assert gap(5e6) > 1e-9


def test_non_orthonormal_dictionary_rejected():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((30, 3))
    with pytest.raises(ValueError, match="orthonormal"):
        solve_l1reg_columnwise(rng.standard_normal((30, 2)), a)


def test_row_count_mismatch_rejected():
    rng = np.random.default_rng(5)
    a = _orthonormal(rng, 20, 3)
    with pytest.raises(ValueError, match="row mismatch"):
        solve_l1reg_columnwise(rng.standard_normal((19, 2)), a)


def test_zero_and_empty_inputs():
    rng = np.random.default_rng(6)
    a = _orthonormal(rng, 10, 2)
    sol = solve_l1reg(np.zeros((10, 4)), a)
    assert sol.converged
    assert not sol.z.any() and not sol.e.any()
    empty = solve_l1reg_columnwise(np.zeros((10, 0)), a)
    assert empty.z.shape == (2, 0)


def test_columnwise_below_2k_rows_is_the_adm_alone():
    # with fewer than 2k rows no support leaves the presolve enough clean
    # rows, so it hands every column to the ADM, whose Z and E are returned
    rng = np.random.default_rng(8)
    a = _orthonormal(rng, 7, 4)
    x = a @ rng.standard_normal((4, 9))
    x[2, 3] += 5.0
    assert _presolve(x, a, AdmConfig().tol)[2].size == x.shape[1]
    colwise, adm = solve_l1reg_columnwise(x, a), solve_l1reg(x, a)
    np.testing.assert_array_equal(colwise.z, adm.z)
    np.testing.assert_array_equal(colwise.e, adm.e)


def test_feasibility_guard_at_exit():
    rng = np.random.default_rng(7)
    a = _orthonormal(rng, 80, 4)
    x = a @ rng.standard_normal((4, 20)) * 10
    x.flat[rng.choice(x.size, 40, replace=False)] += rng.uniform(-30, 30, 40)
    cfg = AdmConfig(tol=1e-8)
    sol = solve_l1reg(x, a, cfg)
    assert sol.converged
    res = np.abs(x - a @ sol.z - sol.e).max()
    assert res <= cfg.tol * np.abs(x).max()


def test_failed_columns_reported_with_indices():
    rng = np.random.default_rng(8)
    a = _orthonormal(rng, 40, 3)
    x = a @ rng.standard_normal((3, 6))
    x.flat[rng.choice(x.size, 20, replace=False)] += rng.uniform(-5, 5, 20)
    sol = solve_l1reg(x, a, AdmConfig(tol=1e-12, max_iter=2))
    assert not sol.converged
    assert sol.failed_columns
    assert all(0 <= c < 6 for c in sol.failed_columns)


# ---------------------------------------------------------------- presolve

ORACLE_CFG = AdmConfig(tol=1e-10, rho=1.05, max_iter=5000)


def _spiked_block(rng, rows, k, cols, density):
    a = _orthonormal(rng, rows, k)
    x = a @ (3.0 * rng.standard_normal((k, cols)))
    hit = rng.random(x.shape) < density
    x[hit] += rng.uniform(-10, 10, hit.sum())
    return x, a


def _presolve(x, a, tol):
    """(Z, E, rest) of the presolve: Z written into a zeroed Z, and E of the
    certified columns scattered from their support values into a zeroed E."""
    z, e = np.zeros((a.shape[1], x.shape[1])), np.zeros(x.shape)
    rest, (rows, cols, values) = _exact_fit_presolve(x, a, tol, z)
    e[rows, cols] = values
    return z, e, rest


def _certified(x, a, tol):
    z, e, rest = _presolve(x, a, tol)
    done = np.setdiff1d(np.arange(x.shape[1]), rest)
    return z, e, done


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(12, 120), k=st.integers(1, 5), cols=st.integers(1, 6),
       density=st.floats(0.0, 0.1), data_seed=st.integers(0, 2**16))
def test_presolve_certified_columns_are_l1_minimizers(rows, k, cols, density, data_seed):
    x, a = _spiked_block(np.random.default_rng(data_seed), rows, k, cols, density)
    tol = ORACLE_CFG.tol
    z, e, done = _certified(x, a, tol)
    if done.size == 0:
        return
    ref = solve_l1reg(x[:, done], a, ORACLE_CFG)
    scale = np.abs(x[:, done]).max(axis=0)
    assert ((e[:, done] != 0).sum(axis=0) <= k).all()
    residual = np.abs(x[:, done] - a @ z[:, done] - e[:, done]).max(axis=0)
    assert (residual <= tol * scale).all()
    assert (np.abs(e[:, done]).sum(axis=0) <= np.abs(ref.e).sum(axis=0) + 1e-9 * scale).all()


def _oracle_block(rng, n_spikes):
    """A 10x2 block as in the grid-oracle acceptance gate: one column in
    span(A) plus n_spikes spikes; returns (x, A, planted sparse part)."""
    a = _orthonormal(rng, 10, 2)
    x = a @ (3.0 * rng.standard_normal(2))
    rows = rng.choice(10, size=n_spikes, replace=False)
    e0 = np.zeros(10)
    e0[rows] = rng.uniform(-10, 10, size=n_spikes)
    return (x + e0)[:, None], a, e0


def test_presolve_matches_adm_objective_on_oracle_blocks():
    # no certified column may have a larger l1 objective than the slow ADM
    certified, worst_gap = 0, -np.inf
    for i in range(200):
        x, a, _ = _oracle_block(np.random.default_rng(i), 1 + i % 3)
        z, e, done = _certified(x, a, ORACLE_CFG.tol)
        if done.size == 0:
            continue
        certified += 1
        ref = solve_l1reg(x, a, ORACLE_CFG)
        gap = np.abs(x - a @ z).sum() - np.abs(x - a @ ref.z).sum()
        worst_gap = max(worst_gap, gap / np.abs(x).max())
    assert certified >= 50
    assert worst_gap <= 1e-9


@pytest.mark.parametrize("density", [0.01, 0.1])
def test_presolve_allocates_a_few_chunks(density):
    # a filter chunk: a 100-row seed, k = 10, CHUNK_COLS columns. Handing
    # back only the certified columns' support values, and holding the live
    # columns of X and one residual, the presolve peaks at 1.8x (1%) and
    # 3.4x (10%) the chunk's bytes, against 3.3x and 5.0x writing a dense E
    # and holding |res| beside the residual and the fitted columns' E
    bound = {0.01: 2.2, 0.1: 4.0}[density]
    x, a = _spiked_block(np.random.default_rng(0), 100, 10, CHUNK_COLS, density)
    z = np.empty((10, CHUNK_COLS))
    tracemalloc.start()
    try:
        rest, _ = _exact_fit_presolve(x, a, 1e-9, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rest.size < CHUNK_COLS
    assert peak <= bound * x.nbytes, f"peak {peak / x.nbytes:.2f}x the chunk"


@pytest.mark.parametrize("data_seed", [0, 1, 2])
def test_columnwise_allocates_a_few_chunks_at_high_corruption(data_seed):
    # one filter chunk at 10% corruption, E and Z included: the presolve
    # declines about half the columns and the ADM takes them. Gathering its
    # work arrays one at a time as columns finish, and forming W in R's
    # buffer, the call peaks at 4.0-4.2x the chunk's bytes, against 6.2-6.6x
    # with every array gathered at once and a separate W
    x, a = _spiked_block(np.random.default_rng(data_seed), 100, 10, CHUNK_COLS, 0.1)
    tracemalloc.start()
    try:
        sol = solve_l1reg_columnwise(x, a, AdmConfig(tol=1e-9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak <= 4.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the chunk"


def test_columnwise_allocates_e_after_the_presolve():
    # one filter chunk, E included: E is allocated once the presolve, the
    # ADM and the misfit have freed their arrays, so the call peaks at 2.1x
    # the chunk's bytes, against 4.4x with E allocated on entry
    x, a = _spiked_block(np.random.default_rng(0), 100, 10, CHUNK_COLS, 0.01)
    tracemalloc.start()
    try:
        sol = solve_l1reg_columnwise(x, a, AdmConfig(tol=1e-9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged and sol.misfit == linf_norm(x - a @ sol.z - sol.e)
    assert peak <= 2.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the chunk"


def test_presolve_declines_a_fit_that_is_not_l1_optimal():
    # one spike on row 0, of leverage 0.81, whose basis direction leans on
    # row 1 (leverage 0.19): the support read off the projection is rows 0
    # and 1, and the exact fit on the other eight rows recovers the planted
    # spike, but moving z costs less, so only the dual certificate tells
    # this fit from a minimizer
    lean = np.array([0.9, 0.43] + [0.03] * 8)
    other = np.random.default_rng(0).standard_normal(10)
    a = np.linalg.qr(np.column_stack([lean, other]))[0]
    x = a @ np.array([3.0, -2.0])
    x[0] += 10.0
    _, _, rest = _presolve(x[:, None], a, ORACLE_CFG.tol)
    assert rest.tolist() == [0]
    ref = solve_l1reg(x[:, None], a, ORACLE_CFG)
    assert np.abs(x - a @ ref.z[:, 0]).sum() < 10.0 - 1.0


def test_presolve_declines_more_spikes_than_k():
    # seven spikes on 120 rows are an easy l1 decoding problem, but a
    # certified support has at most k = 5 rows
    rng = np.random.default_rng(3)
    a = _orthonormal(rng, 120, 5)
    x = a @ rng.standard_normal((5, 1))
    x[rng.choice(120, 7, replace=False), 0] += rng.uniform(20, 40, 7)
    _, _, rest = _presolve(x, a, 1e-9)
    assert rest.tolist() == [0]


def _rotated_instance():
    """_chunked_instance with its columns' span(A) part rotated by 1e-6:
    they miss every exact fit by about 1e-6 * ||x||_inf, far above a 1e-9
    stopping threshold."""
    x, a = _chunked_instance()
    rot = np.linalg.qr(a + 1e-6 * np.random.default_rng(4).standard_normal(a.shape))[0]
    return rot @ (a.T @ x) + (x - a @ (a.T @ x)), a


def test_presolve_declines_a_rotated_basis():
    x_rot, a = _rotated_instance()
    _, _, rest = _presolve(x_rot, a, 1e-9)
    np.testing.assert_array_equal(rest, np.arange(x_rot.shape[1]))


def test_presolve_stops_a_slice_at_a_fit_that_certifies_nothing(monkeypatch):
    # every fit on the rotated basis fails, so each of the three chunks of
    # solve_l1reg_columnwise takes one fit instead of PRESOLVE_ROUNDS
    x_rot, a = _rotated_instance()
    fits = []
    support_system = l1reg._support_system

    def counted(a_pad, p_pad, support):
        fits.append(support.shape[0])
        return support_system(a_pad, p_pad, support)

    monkeypatch.setattr(l1reg, "_support_system", counted)
    sol = solve_l1reg_columnwise(x_rot, a, AdmConfig(tol=1e-9, max_iter=1))
    assert sol.failed_columns == list(range(x_rot.shape[1]))
    assert 0 < len(fits) <= -(-x_rot.shape[1] // CHUNK_COLS)


def test_presolve_leaves_the_chunk_to_the_adm_at_a_singular_support_system(monkeypatch):
    # no real chunk was found to reach a singular I - A_S A_S^T, so the
    # solve fails as numpy's would
    def singular(a_pad, system, g):
        raise np.linalg.LinAlgError("Singular matrix")

    x, a = _spiked_block(np.random.default_rng(10), 100, 5, 300, 0.01)
    tol = 1e-9
    certified = _presolve(x, a, tol)[2]
    monkeypatch.setattr(l1reg, "_clean_rows_apply", singular)
    _, e, rest = _presolve(x, a, tol)
    # only the columns the projection solves stay solved
    projected = np.abs(x - a @ (a.T @ x)).max(axis=0) <= tol * np.abs(x).max(axis=0)
    np.testing.assert_array_equal(rest, np.flatnonzero(~projected))
    assert certified.size < rest.size and not e.any()
    sol = solve_l1reg_columnwise(x, a, AdmConfig(tol=tol))
    assert sol.converged and sol.misfit == linf_norm(x - a @ sol.z - sol.e)


def test_columnwise_calls_the_adm_once_per_chunk(monkeypatch):
    # perfbench counts l1reg.chunks as solve_l1reg calls: one per chunk,
    # made even when the presolve leaves the ADM no column
    calls = []
    adm = l1reg.solve_l1reg

    def counted(x, a, cfg=None):
        calls.append(x.shape[1])
        return adm(x, a, cfg)

    monkeypatch.setattr(l1reg, "solve_l1reg", counted)
    x, a = _spiked_block(np.random.default_rng(10), 100, 5, 300, 0.01)
    cfg = AdmConfig(tol=1e-9)
    sol = solve_l1reg_columnwise(x, a, cfg)
    assert calls == [0] and sol.iterations == 0 and sol.converged
    assert sol.misfit == linf_norm(x - a @ sol.z - sol.e)
    assert sol.final_residual == sol.misfit / linf_norm(x) <= cfg.tol

    calls.clear()
    x_rot, a = _rotated_instance()
    sol = solve_l1reg_columnwise(x_rot, a, AdmConfig(tol=1e-9, max_iter=1))
    assert calls == [CHUNK_COLS, CHUNK_COLS, N_COLS_CHUNKED - 2 * CHUNK_COLS]
    assert sol.iterations == 1

    calls.clear()
    sol = solve_l1reg_columnwise(np.zeros((a.shape[0], 0)), a)
    assert calls == [] and sol.converged and sol.final_residual == sol.misfit == 0.0
    assert sol.z.shape == (a.shape[1], 0) and sol.e.shape == (a.shape[0], 0)

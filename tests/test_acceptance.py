"""Acceptance gate: end-to-end recovery, solver agreement, scaling law,
image denoising, robustness, and the oracle cross-checks.

Each test prints one PASS/FAIL line with its measured numbers so the gate
can be audited from the pytest -s output.
"""

import time

import numpy as np
import pytest

from l1pcp import bench, synth
from l1pcp.l1filter import (
    FilterConfig,
    estimate_rank_and_solve,
    filter_columns,
    filter_rows,
    nystrom_complete,
    sample_submatrix,
)
from l1pcp.l1filter import SeedRecovery
from l1pcp.matcore import frobenius_norm, l1_norm, svd
from l1pcp.pcp_adm import AdmConfig, solve_pcp
from l1pcp.l1reg import solve_l1reg, solve_l1reg_columnwise
from oracles import nuclear_norm, nystrom_complete_via_pinv, svt


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name}: {detail}")
    return ok


def _instance(m, rho_r, rho_s, seed, sigma_scale=1.0):
    spec = synth.SynthSpec(m=m, n=m, rho_r=rho_r, rho_s=rho_s,
                           sigma_scale=sigma_scale, rng_seed=seed)
    return synth.generate(spec), spec


def test_exact_recovery_m500():
    """500x500 rank-5 instances with 1% corruption: exact recovery on all
    five seeds within 10 s per instance."""
    worst_err = 0.0
    worst_l1 = 0.0
    worst_time = 0.0
    ranks = []
    for seed in range(5):
        gt, spec = _instance(500, 0.01, 0.01, seed)
        t0 = time.perf_counter()
        sol = estimate_rank_and_solve(gt.m_obs,
                                      FilterConfig(rank_hint=5, rng_seed=seed))
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        worst_err = max(worst_err, synth.rel_err(sol.l, gt.l0))
        ranks.append(sol.rank_of_l)
        l1_dev = abs(l1_norm(sol.s) - l1_norm(gt.s0)) / l1_norm(gt.s0)
        worst_l1 = max(worst_l1, l1_dev)
    ok = (worst_err <= 1e-5 and all(r == 5 for r in ranks)
          and worst_l1 <= 1e-3 and worst_time < 10.0)
    assert _report(
        "exact recovery m=500 r=5 (5 seeds)", ok,
        f"worst RelErr {worst_err:.3g} (<=1e-5), ranks {ranks} (==5), "
        f"worst |S|_l1 dev {worst_l1:.3g} (<=1e-3), "
        f"worst time {worst_time:.2f}s (<10s)",
    )


def test_solver_agreement():
    """l1-filtering and full ADM agree on the recovered low-rank part."""
    worst = 0.0
    for seed in range(3):
        gt, _ = _instance(500, 0.01, 0.01, seed)
        filt = estimate_rank_and_solve(gt.m_obs,
                                       FilterConfig(rank_hint=5, rng_seed=seed))
        adm = solve_pcp(gt.m_obs)
        dev = frobenius_norm(filt.l - adm.l) / frobenius_norm(adm.l)
        worst = max(worst, dev)
    ok = worst <= 1e-4
    assert _report("solver agreement (3 seeds)", ok,
                   f"worst relative deviation {worst:.3g} (<=1e-4)")


def test_scaling_law():
    """l1 filtering scales near-linearly in matrix size while full ADM
    scales super-linearly; at n=2000 the speed ratio is at least 5x."""
    # one untimed solve first, so the n=1000 point pays no start-up cost
    gt, _ = _instance(1000, 0.01, 0.01, 99)
    estimate_rank_and_solve(gt.m_obs, FilterConfig(rank_hint=10, rng_seed=99))
    t_suite = time.perf_counter()
    rec_f, sum_f = bench.suite_size_sweep(scale=1.0, seeds=(0, 1, 2),
                                          methods=("l1filter",))
    rec_a, sum_a = bench.suite_size_sweep(scale=1.0, seeds=(0,),
                                          methods=("adm",), adm_max_size=2000)
    suite_seconds = time.perf_counter() - t_suite

    exp_f = sum_f["exponents"]["l1filter"]
    exp_a = sum_a["exponents"]["adm"]
    t_f_2000 = np.mean([r["seconds"] for r in rec_f if r["m"] == 2000])
    t_a_2000 = np.mean([r["seconds"] for r in rec_a if r["m"] == 2000])
    ratio = t_a_2000 / t_f_2000
    errors = [r["error"] for r in rec_f + rec_a if r["error"]]

    ok = (not errors and exp_f <= 1.3 and exp_a >= 1.7 and ratio >= 5.0
          and suite_seconds < 480.0)
    assert _report(
        "scaling law n in {1000,2000,4000}", ok,
        f"l1filter exponent {exp_f:.2f} (<=1.3), adm exponent {exp_a:.2f} "
        f"(>=1.7, fitted on sizes <=2000), ratio at 2000 {ratio:.1f}x (>=5), "
        f"suite {suite_seconds:.0f}s (<480s), errors {errors}",
    )


def test_checkerboard_denoising():
    """512x512 checkerboard with 10% impulsive corruption: the recovered
    image has rank 2 and matches the clean image pixelwise."""
    img = synth.checkerboard(512, 64)
    gt = synth.corrupt_impulsive(img, 0.1, 0)
    t0 = time.perf_counter()
    sol = estimate_rank_and_solve(gt.m_obs, FilterConfig(rng_seed=0))
    elapsed = time.perf_counter() - t0
    maxdif = synth.max_dif(sol.l, img)
    ok = sol.rank_of_l == 2 and maxdif <= 1e-3 and elapsed < 30.0
    assert _report(
        "checkerboard 512/64 at 10% corruption", ok,
        f"rank {sol.rank_of_l} (==2), MaxDif {maxdif:.3g} (<=1e-3), "
        f"time {elapsed:.2f}s (<30s)",
    )


def test_sparsity_magnitude_robustness():
    """Recovery is insensitive to the magnitude scale of the sparse part."""
    errs = {}
    for sigma in (1, 3, 5, 10):
        gt, _ = _instance(500, 0.01, 0.01, 0, sigma_scale=float(sigma))
        sol = estimate_rank_and_solve(gt.m_obs,
                                      FilterConfig(rank_hint=5, rng_seed=0))
        errs[sigma] = synth.rel_err(sol.l, gt.l0)
    ok = all(e <= 1e-5 for e in errs.values())
    detail = ", ".join(f"sigma={s}: {e:.3g}" for s, e in errs.items())
    assert _report("sparsity magnitude sweep", ok, detail + " (all <=1e-5)")


def test_proximal_operator_properties():
    """SVT optimality under random probing, soft-threshold contraction,
    and SVD reconstruction, across 50 random instances each."""
    rng = np.random.default_rng(0)
    failures = []

    def objective(a, w, eta):
        return eta * nuclear_norm(a) + 0.5 * frobenius_norm(a - w) ** 2

    for i in range(50):
        shape = (int(rng.integers(4, 20)), int(rng.integers(4, 20)))
        w = rng.standard_normal(shape) * rng.uniform(0.5, 4.0)
        eta = rng.uniform(0.05, 2.0)

        a_star = svt(w, eta)
        best = objective(a_star, w, eta)
        probes = a_star[None] + rng.standard_normal((1000,) + shape) \
            * rng.uniform(1e-4, 1.0, size=(1000, 1, 1))
        probe_obj = (eta * np.linalg.svd(probes, compute_uv=False).sum(axis=1)
                     + 0.5 * ((probes - w) ** 2).sum(axis=(1, 2)))
        if best > probe_obj.min() + 1e-9:
            failures.append(f"svt probe beat instance {i}")

        x = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        st = frobenius_norm(
            np.sign(x) * np.maximum(np.abs(x) - eta, 0)
            - np.sign(y) * np.maximum(np.abs(y) - eta, 0))
        if st > frobenius_norm(x - y) + 1e-12:
            failures.append(f"contraction violated instance {i}")

        f = svd(w, rank_tol=0.0)
        if frobenius_norm(f.reconstruct() - w) > 1e-8 * frobenius_norm(w):
            failures.append(f"svd reconstruction instance {i}")

    ok = not failures
    assert _report("proximal operator suite (50 instances)", ok,
                   "no violations" if ok else "; ".join(failures))


def _l1_grid_oracle(x, a):
    """Three-stage grid refinement of min_z ||x - A z||_1 over 2-D z.

    Each stage evaluates a 201x201 grid; the final grid step is below 1e-4.
    """
    center = np.zeros(2)
    half = 2.0 * np.abs(x).sum()  # ||z*||_2 <= 2 ||x||_1 for orthonormal A
    best_obj = np.inf
    best_z = center
    for stage in range(3):
        n = 201 if stage < 2 else max(201, int(np.ceil(2 * half / 1e-4)) + 1)
        grid = np.linspace(-half, half, n)
        z1, z2 = np.meshgrid(center[0] + grid, center[1] + grid)
        cand = np.stack([z1.ravel(), z2.ravel()])
        obj = np.abs(x[:, None] - a @ cand).sum(axis=0)
        k = int(obj.argmin())
        best_obj = float(obj[k])
        best_z = cand[:, k]
        center = best_z
        step = grid[1] - grid[0]
        half = 2.0 * step
    assert step <= 1e-4
    return best_obj, best_z


def test_l1_regression_oracle():
    """ADM matches a brute-force grid oracle on tiny problems, and the
    columnwise solver reproduces the sequential one."""
    rng = np.random.default_rng(0)
    worst_gap = -np.inf
    worst_colwise = 0.0
    for _ in range(20):
        a, _ = np.linalg.qr(rng.standard_normal((10, 2)))
        z0 = rng.standard_normal(2) * 3.0
        x = a @ z0
        spikes = rng.choice(10, size=2, replace=False)
        x[spikes] += rng.uniform(-10, 10, size=2)
        xm = x[:, None]

        # slow penalty growth for certified optimality on tiny instances
        cfg = AdmConfig(tol=1e-10, rho=1.05, max_iter=5000)
        sol = solve_l1reg(xm, a, cfg)
        adm_obj = np.abs(xm - a @ sol.z).sum()
        oracle_obj, _ = _l1_grid_oracle(x, a)
        worst_gap = max(worst_gap, adm_obj - oracle_obj)

        colwise = solve_l1reg_columnwise(xm, a, cfg)
        worst_colwise = max(worst_colwise,
                            float(np.abs(colwise.e - sol.e).max()),
                            float(np.abs(colwise.z - sol.z).max()))
    ok = worst_gap <= 1e-3 and worst_colwise <= 1e-8
    assert _report(
        "l1 regression grid oracle (20 instances)", ok,
        f"worst objective gap {worst_gap:.3g} (<=1e-3), "
        f"columnwise vs sequential {worst_colwise:.3g} (<=1e-8)",
    )


def test_nystrom_dual_formulas():
    """The factored completion formula agrees with the pseudo-inverse
    formula on exact rank-5 instances."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        l0 = rng.standard_normal((80, 5)) @ rng.standard_normal((70, 5)).T
        ri, ci, block = sample_submatrix(l0, 30, 30, rng)
        f = svd(block)
        seed = SeedRecovery(row_idx=ri, col_idx=ci, seed_svd=f, r_prime=f.rank)
        comp_r = np.setdiff1d(np.arange(80), ri)
        comp_c = np.setdiff1d(np.arange(70), ci)
        q = filter_columns(l0, seed, AdmConfig(tol=1e-10))[0]
        p = filter_rows(l0, seed, AdmConfig(tol=1e-10))[0]
        a, b = nystrom_complete(seed, q, p)
        direct = a[comp_r] @ b[comp_c].T
        via_pinv = nystrom_complete_via_pinv(
            l0[np.ix_(comp_r, ci)], f.reconstruct(), l0[np.ix_(ri, comp_c)])
        worst = max(worst,
                    frobenius_norm(direct - via_pinv) / frobenius_norm(direct))
    ok = worst <= 1e-8
    assert _report("generalized Nystrom dual formulas (10 instances)", ok,
                   f"worst relative deviation {worst:.3g} (<=1e-8)")


def test_rank_estimation():
    """Without a rank hint the estimator finds the true rank with an
    adequately oversampled seed; infeasibly high rank falls back to the
    full solver and stays feasible."""
    gt, spec = _instance(1000, 0.005, 0.01, 0)  # true rank 5
    sol = estimate_rank_and_solve(gt.m_obs, FilterConfig(rng_seed=0))
    seed_ok = (sol.stats["seed_rows"] / sol.stats["r_prime"] >= 10
               and sol.stats["seed_cols"] / sol.stats["r_prime"] >= 10)
    err = synth.rel_err(sol.l, gt.l0)

    gt_hi, _ = _instance(100, 0.4, 0.01, 0)  # true rank 40
    fb = estimate_rank_and_solve(gt_hi.m_obs, FilterConfig(rng_seed=0))
    res = frobenius_norm(gt_hi.m_obs - fb.l - fb.s) / frobenius_norm(gt_hi.m_obs)

    ok = (sol.method == "l1-filter" and sol.stats["r_prime"] == 5 and seed_ok
          and fb.method == "full-pcp-fallback" and res <= 1e-7)
    assert _report(
        "rank estimation and fallback", ok,
        f"estimated r'={sol.stats['r_prime']} (==5) with seed "
        f"{sol.stats['seed_rows']}x{sol.stats['seed_cols']}, RelErr {err:.3g}; "
        f"fallback method {fb.method}, residual {res:.3g} (<=1e-7)",
    )


@pytest.mark.slow
def test_exact_recovery_m2000_full_scale():
    gt, spec = _instance(2000, 0.01, 0.01, 0)
    t0 = time.perf_counter()
    sol = estimate_rank_and_solve(gt.m_obs,
                                  FilterConfig(rank_hint=20, rng_seed=0))
    elapsed = time.perf_counter() - t0
    err = synth.rel_err(sol.l, gt.l0)
    l1_dev = abs(l1_norm(sol.s) - l1_norm(gt.s0)) / l1_norm(gt.s0)
    ok = (err <= 1e-5 and sol.rank_of_l == 20 and l1_dev <= 1e-3
          and elapsed < 300.0)
    assert _report(
        "exact recovery m=2000 r=20 (slow)", ok,
        f"RelErr {err:.3g}, rank {sol.rank_of_l}, |S|_l1 dev {l1_dev:.3g}, "
        f"time {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_scaling_law_full_adm_leg():
    records, summary = bench.suite_size_sweep(scale=1.0, seeds=(0,),
                                              methods=("adm",),
                                              adm_max_size=4000)
    exp_a = summary["exponents"]["adm"]
    ok = exp_a >= 1.7 and not any(r["error"] for r in records)
    assert _report("adm scaling with the 4000 leg (slow)", ok,
                   f"adm exponent {exp_a:.2f} (>=1.7)")

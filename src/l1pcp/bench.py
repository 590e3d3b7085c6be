"""Benchmark harness: scaled reproductions of the synthetic comparison
suites, with machine-readable CSV/JSON reports.

Record schema (CSV_HEADER) is frozen; bump CSV_SCHEMA_VERSION on change.
"""

import csv
import functools
import io
import json
import math
import platform
import time

import numpy as np

from . import synth
from .l1filter import FilterConfig, estimate_rank_and_solve
from .matcore import l0_count, l1_norm
from .pcp_adm import AdmConfig, solve_pcp

CSV_SCHEMA_VERSION = 2
CSV_HEADER = [
    "method", "m", "n", "r", "rho_s", "sigma_scale",
    "rel_err", "max_dif", "ave_dif",
    "rank_l", "l0_s", "l1_s", "iters", "seconds", "seed", "error",
    "solution_method", "converged", "final_residual", "attempts",
]

# a solve that claims converged=True with rel_err above this is wrong
CONVERGED_WRONG_REL_ERR = 1e-5


def environment_info():
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "schema_version": CSV_SCHEMA_VERSION,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


# "l1filter" runs estimate_rank_and_solve, "adm" solve_pcp on the whole matrix
METHODS = ("l1filter", "adm")


def run_instance(method, gt, r, rho_s, sigma_scale, seed, rank_hint=None):
    """Solve one instance and return a report record. Failures are caught
    and recorded so a sweep can continue."""
    m_rows, n_cols = gt.m_obs.shape
    # CSV_HEADER's fields in its order; a failed solve leaves the results None
    record = dict.fromkeys(CSV_HEADER)
    record.update(method=method, m=m_rows, n=n_cols, r=r, rho_s=rho_s,
                  sigma_scale=sigma_scale, seed=seed, error="")
    try:
        if method == "adm":
            sol = solve_pcp(gt.m_obs, AdmConfig())
        elif method == "l1filter":
            sol = estimate_rank_and_solve(gt.m_obs,
                                          FilterConfig(rank_hint=rank_hint, rng_seed=seed))
        else:
            raise ValueError(f"unknown method {method!r}")
    except Exception as exc:  # recorded per-row, sweep continues
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record, None

    record.update(synth.recovery_errors(sol.l, gt.l0))
    record.update({
        "rank_l": sol.rank_of_l,
        "l0_s": l0_count(sol.s),
        "l1_s": l1_norm(sol.s),
        "iters": sol.iterations,
        "seconds": sol.elapsed,
        "solution_method": sol.method,
        "converged": sol.converged,
        "final_residual": sol.final_residual,
        "attempts": sol.stats.get("attempts"),
    })
    return record, sol


def _synth_gt(m, rho_r, rho_s, sigma_scale, seed):
    spec = synth.SynthSpec(m=m, n=m, rho_r=rho_r, rho_s=rho_s,
                           sigma_scale=sigma_scale, rng_seed=seed)
    return synth.generate(spec), spec.rank


# The synthetic sweeps: (default scale, default methods, points), each point
# (unscaled m, rho_r, rho_s, sigma_scale) solved by every method for every
# seed at m * scale.
GRIDS = {
    "table1": (0.25, ("l1filter", "adm"),
               [(m, 0.01, 0.01, 1.0) for m in (2000, 5000, 10000)]),
    "rank-sweep": (1.0, ("l1filter", "adm"),
                   [(1000, rho_r, 0.02, 1.0)
                    for rho_r in (0.005, 0.01, 0.02, 0.03, 0.04, 0.05)]),
    "sparsity-sweep": (1.0, ("l1filter", "adm"),
                       [(1000, 0.005, rho_s, 1.0) for rho_s in (0.02, 0.05, 0.1, 0.15, 0.2)]),
    "sigma-sweep": (0.5, ("l1filter",),
                    [(1000, 0.01, 0.01, float(sigma)) for sigma in range(1, 11)]),
}


def suite_grid(name, scale=None, seeds=(0,), methods=None):
    """Run the GRIDS entry `name`; scale and methods default to the entry's."""
    default_scale, default_methods, points = GRIDS[name]
    scale = default_scale if scale is None else scale
    records = []
    for base, rho_r, rho_s, sigma in points:
        m = int(round(base * scale))
        for seed in seeds:
            gt, r = _synth_gt(m, rho_r, rho_s, sigma, seed)
            for method in methods or default_methods:
                # a scaled-down point can round to rank 0, which hints nothing
                rec, _ = run_instance(method, gt, r, rho_s, sigma, seed, rank_hint=r or None)
                records.append(rec)
    return records, {}


def fit_time_exponent(sizes, seconds):
    """Slope of log(time) vs log(size); the scaling-law exponent."""
    sizes = np.asarray(sizes, dtype=float)
    seconds = np.asarray(seconds, dtype=float)
    if sizes.size < 2:
        raise ValueError("need at least two sizes to fit an exponent")
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def suite_size_sweep(scale=1.0, seeds=(0,), methods=METHODS,
                     r=10, rho_s=0.01, adm_max_size=2000):
    """Timing sweep over n in {1000, 2000, 4000} * scale at fixed rank.

    The full-matrix ADM leg, "adm", is capped at adm_max_size * scale (its
    solves beyond that dominate the suite budget); its exponent is fitted on
    the sizes it did run.
    """
    sizes = [int(round(base * scale)) for base in (1000, 2000, 4000)]
    adm_cap = int(round(adm_max_size * scale))
    records = []
    times = {method: {} for method in methods}
    for m in sizes:
        for seed in seeds:
            gt, _ = _synth_gt(m, r / m, rho_s, 1.0, seed)
            for method in methods:
                if method == "adm" and m > adm_cap:
                    continue
                rec, _ = run_instance(method, gt, r, rho_s, 1.0, seed, rank_hint=r)
                records.append(rec)
                if not rec["error"]:
                    times[method].setdefault(m, []).append(rec["seconds"])
    summary = {"sizes": sizes, "exponents": {}}
    for method, per_size in times.items():
        ms = sorted(per_size)
        if len(ms) >= 2:
            mean_t = [float(np.mean(per_size[m])) for m in ms]
            summary["exponents"][method] = fit_time_exponent(ms, mean_t)
    return records, summary


def suite_checkerboard(scale=1.0, seeds=(0,), methods=("l1filter",),
                       m=512, cell=64, fraction=0.1):
    # whole cells of the scaled size, as many per side as at scale 1 (two at
    # least, so that the image has rank 2)
    cells = max(2, int(round(m / cell)))
    cell = max(1, int(round(cell * scale)))
    m = cells * cell
    records = []
    img = synth.checkerboard(m, cell)
    for seed in seeds:
        gt = synth.corrupt_impulsive(img, fraction, seed)
        for method in methods:
            rec, _ = run_instance(method, gt, 2, fraction, 1.0, seed, rank_hint=None)
            records.append(rec)
    return records, {"m": m, "cell": cell, "fraction": fraction}


SUITES = {
    **{name: functools.partial(suite_grid, name) for name in GRIDS},
    "size-sweep": suite_size_sweep,
    "checkerboard": suite_checkerboard,
}


def run_suite(name, scale=None, seeds=(0,), methods=None, **kwargs):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    for method in methods or ():
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {list(METHODS)}")
    seeds = tuple(seeds)
    if not seeds:  # a report with no records
        raise ValueError("seeds must hold at least one seed")
    fn = SUITES[name]
    if scale is not None:
        if not 0 < scale < math.inf:
            raise ValueError(f"scale must be finite and > 0, got {scale}")
        kwargs["scale"] = scale
    if methods is not None:
        kwargs["methods"] = tuple(methods)
    records, summary = fn(seeds=seeds, **kwargs)
    # a NaN rel_err fails the test too
    summary["converged_wrong"] = sum(
        bool(r["converged"]) and not r["rel_err"] <= CONVERGED_WRONG_REL_ERR for r in records)
    return {"environment": environment_info(), "suite": name,
            "records": records, "summary": summary}


def write_csv_report(fh, report):
    """Write the report's records, one CSV_HEADER row each, to the binary file fh."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=CSV_HEADER)
    writer.writeheader()
    writer.writerows(report["records"])
    fh.write(text.getvalue().encode())


def write_json_report(fh, report):
    """Write the report as indented JSON to the binary file fh."""
    fh.write(json.dumps(report, indent=2).encode() + b"\n")

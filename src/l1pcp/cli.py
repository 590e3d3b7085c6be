"""Command-line surface: decompose matrices from files, generate synthetic
data, and run the benchmark suites.

Exit codes for decompose: 0 success, 1 input parse failure,
2 non-convergence, 3 dimension errors and invalid options (--lambda is
accepted only with --method adm).
"""

import argparse
import json
import sys
import time

import numpy as np

from . import bench, matio, synth
from .l1filter import PIPELINE_TOL, FilterConfig, estimate_rank_and_factor
from .matcore import l0_count, l1_norm, linf_norm
from .pcp_adm import AdmConfig, solve_pcp


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _s_norms(s):
    return l1_norm(s), linf_norm(s)


def _l_errors(l, l0):
    """Sums of squares of L - L0, L0 and L, and the sum and the max of
    |L - L0|."""
    dif = l - l0
    np.abs(dif, out=dif)
    return (float(np.vdot(dif, dif)), float(np.vdot(l0, l0)), float(np.vdot(l, l)),
            float(dif.sum()), float(dif.max(initial=0.0)))


def _block_stats(sol, truth):
    """(l1_s, l0_s, errors) of a solution, where errors holds rel_err,
    max_dif and ave_dif against the true L0 (None without one). All come
    from the row blocks of matio.iter_row_blocks, so a factored L or S is
    never formed whole, and each pass forms its blocks into one buffer. l0_s
    counts |S| above 1e-6 ||S||_inf, taken over all of S, which takes a
    second pass once ||S||_inf is known."""
    norms = [_s_norms(block) for _, block in matio.iter_row_blocks(sol.s)]
    l1_s = sum(l1 for l1, _ in norms)
    s_inf = max((linf for _, linf in norms), default=0.0)
    l0_s = sum(l0_count(block, 1e-6 * s_inf) for _, block in matio.iter_row_blocks(sol.s))
    if truth is None:
        return l1_s, l0_s, {"rel_err": None, "max_dif": None, "ave_dif": None}
    sq_dif, sq_l0, sq_l, sum_dif, max_dif = zip(
        *[_l_errors(block, truth[rows]) for rows, block in matio.iter_row_blocks(sol.l)])
    sq_l0 = sum(sq_l0)
    return l1_s, l0_s, {
        # as synth.rel_err: relative to ||L0||_F, or ||L||_F itself when L0 = 0
        "rel_err": (sum(sq_dif) / sq_l0) ** 0.5 if sq_l0 else sum(sq_l) ** 0.5,
        "max_dif": max(max_dif), "ave_dif": sum(sum_dif) / truth.size,
    }


def cmd_decompose(args):
    try:
        m = matio.read_matrix(args.input)
    except (OSError, ValueError) as exc:
        return _fail(1, f"cannot read {args.input}: {exc}")

    truth = None
    if args.truth:
        try:
            truth = matio.read_matrix(args.truth)
        except (OSError, ValueError) as exc:
            return _fail(1, f"cannot read {args.truth}: {exc}")
        if truth.shape != m.shape:
            return _fail(3, f"truth shape {truth.shape} != input shape {m.shape}")

    try:
        if args.method == "adm":
            tol = 1e-7 if args.tol is None else args.tol
            sol = solve_pcp(m, AdmConfig(lam=args.lam, tol=tol))
        else:
            # FilterConfig rejects --lambda: the seed PCP uses its own lambda
            cfg = FilterConfig(
                s_r=args.oversample_rows, s_c=args.oversample_cols,
                rank_hint=args.rank_hint, rng_seed=args.seed,
                adm=AdmConfig(lam=args.lam,
                              tol=PIPELINE_TOL if args.tol is None else args.tol),
            )
            # L and S stay factored; the writes and stats below form them
            # in row blocks
            sol = estimate_rank_and_factor(m, cfg)
    except ValueError as exc:
        return _fail(3, str(exc))

    if args.out_l:
        matio.write_matrix(args.out_l, sol.l)
    if args.out_s:
        matio.write_matrix(args.out_s, sol.s)

    l1_s, l0_s, errors = _block_stats(sol, truth)
    stats = {
        "method": sol.method,
        "rows": m.shape[0], "cols": m.shape[1],
        "residual": sol.final_residual,
        "rank": sol.rank_of_l,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "seed": args.seed,
        "l1_s": l1_s,
        "l0_s": l0_s,
        "t": sol.elapsed,
        "t1": sol.stats.get("t1"),
        "t2": sol.stats.get("t2"),
        "t_assemble": sol.stats.get("t_assemble"),
        "filter_failed_columns": sol.stats.get("filter_failed_columns"),
        "seed_polish_iterations": sol.stats.get("seed_polish_iterations"),
        "seed_residual": sol.stats.get("seed_residual"),
        **errors,
    }
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
    print(json.dumps(stats))

    if not sol.converged:
        return _fail(2, f"did not converge: residual {sol.final_residual:.3g}")
    return 0


def cmd_synth(args):
    spec = synth.SynthSpec(m=args.m, n=args.n or args.m, rho_r=args.rho_r,
                           rho_s=args.rho_s, magnitude=args.magnitude,
                           sigma_scale=args.sigma_scale, rng_seed=args.seed)
    gt = synth.generate(spec)
    if args.out_m:
        matio.write_matrix(args.out_m, gt.m_obs)
    if args.out_l0:
        matio.write_matrix(args.out_l0, gt.l0)
    if args.out_s0:
        matio.write_matrix(args.out_s0, gt.s0)
    print(json.dumps({"m": spec.m, "n": spec.n, "rank": spec.rank,
                      "n_sparse": spec.n_sparse, "seed": spec.rng_seed}))
    return 0


def cmd_checkerboard(args):
    img = synth.checkerboard(args.m, args.cell)
    gt = synth.corrupt_impulsive(img, args.fraction, args.seed)
    prefix = args.out
    synth.write_pgm(f"{prefix}_clean.pgm", gt.l0)
    synth.write_pgm(f"{prefix}_corrupted.pgm", gt.m_obs)
    matio.write_matrix(f"{prefix}_clean.dmat", gt.l0)
    matio.write_matrix(f"{prefix}_corrupted.dmat", gt.m_obs)
    matio.write_matrix(f"{prefix}_s0.dmat", gt.s0)
    print(json.dumps({"m": args.m, "cell": args.cell, "fraction": args.fraction,
                      "corrupted_pixels": l0_count(gt.s0, 0.0), "prefix": prefix}))
    return 0


def cmd_bench(args):
    t0 = time.perf_counter()
    kwargs = {}
    if args.suite == "size-sweep" and args.adm_max_size is not None:
        kwargs["adm_max_size"] = args.adm_max_size
    report = bench.run_suite(
        args.suite, scale=args.scale, seeds=range(args.seeds),
        methods=args.methods, **kwargs,
    )
    report["environment"]["suite_seconds"] = time.perf_counter() - t0
    if args.out_csv:
        bench.write_csv_report(args.out_csv, report)
    if args.out_json:
        bench.write_json_report(args.out_json, report)
    if not args.out_csv and not args.out_json:
        print(json.dumps(report, indent=2))
    else:
        print(json.dumps({"suite": args.suite,
                          "records": len(report["records"]),
                          "summary": report["summary"]}))
    failures = [r for r in report["records"] if r["error"]]
    if failures:
        for r in failures:
            print(f"warning: {r['method']} m={r['m']} seed={r['seed']}: {r['error']}",
                  file=sys.stderr)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="l1pcp",
                                description="Robust PCA: low-rank + sparse decomposition")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="decompose a matrix file into L + S")
    d.add_argument("input")
    d.add_argument("--method", choices=("l1filter", "adm"), default="l1filter")
    d.add_argument("--lambda", dest="lam", type=float, default=None)
    d.add_argument("--tol", type=float, default=None)
    d.add_argument("--rank-hint", type=int, default=None)
    d.add_argument("--oversample-rows", type=float, default=10.0)
    d.add_argument("--oversample-cols", type=float, default=10.0)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out-l")
    d.add_argument("--out-s")
    d.add_argument("--stats-json")
    d.add_argument("--truth", help="ground-truth L0 file for error metrics")
    d.set_defaults(func=cmd_decompose)

    s = sub.add_parser("synth", help="generate a synthetic low-rank + sparse instance")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--rho-r", type=float, required=True)
    s.add_argument("--rho-s", type=float, required=True)
    s.add_argument("--magnitude", type=float, default=500.0)
    s.add_argument("--sigma-scale", type=float, default=1.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-m")
    s.add_argument("--out-l0")
    s.add_argument("--out-s0")
    s.set_defaults(func=cmd_synth)

    c = sub.add_parser("checkerboard", help="generate a corrupted checkerboard image")
    c.add_argument("--m", type=int, default=512)
    c.add_argument("--cell", type=int, default=64)
    c.add_argument("--fraction", type=float, default=0.1)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True, help="output file prefix")
    c.set_defaults(func=cmd_checkerboard)

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("--suite", choices=sorted(bench.SUITES), required=True)
    b.add_argument("--scale", type=float, default=None)
    b.add_argument("--seeds", type=int, default=1, help="number of RNG seeds per point")
    b.add_argument("--methods", nargs="+", default=None)
    b.add_argument("--adm-max-size", type=int, default=None,
                   help="largest unscaled size the full-matrix ADM legs of size-sweep run at")
    b.add_argument("--out-csv")
    b.add_argument("--out-json")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

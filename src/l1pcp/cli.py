"""Command-line surface: decompose matrices from files, generate synthetic
data, and run the benchmark suites.

Exit codes for decompose: 0 success; 1 a file that cannot be read or
written: an input that does not parse or holds NaN or Inf, an output
(--out-l, --out-s, --stats-json) that cannot be opened, which is found
before the solve starts, or a write that fails, a non-finite block
included; 2 non-convergence; 3 dimension errors and invalid options
(--lambda is accepted only with --method adm). Every output is opened
before the solve and removed again unless decompose gets as far as exit 0
or 2, so a failed run leaves no partial file.
"""

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from . import bench, matio, synth
from .l1filter import PIPELINE_TOL, FilterConfig, Remainder, estimate_rank_and_factor
# l1_norm is not called here since the output pass sums |S| in place, but
# perfbench's self-test reads the binding that its cli.stats span wraps
from .matcore import l0_count, l1_norm  # noqa: F401
from .pcp_adm import AdmConfig, solve_pcp


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


class _Exit(Exception):
    """Ends decompose with an error line and an exit code; raised inside the
    with-block that holds the outputs, so they are removed on the way out."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _open_output(outputs, path, opener):
    """opener(path) entered on the ExitStack outputs, or None without a
    path; a path that cannot be opened ends decompose with exit 1."""
    if not path:
        return None
    try:
        return outputs.enter_context(opener(path))
    except OSError as exc:
        raise _Exit(1, f"cannot write {path}: {exc}") from None


def _output_pass(sol, truth, write_l, write_s):
    """Write L and S and gather their stats in one pass over the row blocks
    of matio.iter_row_blocks(L). Returns (l1_s, l0_s, errors): errors holds
    rel_err, max_dif and ave_dif against the true L0 (None without one).
    write_l and write_s write a block, or are None.

    A factored L or S is never formed whole: an L block is formed into the
    row-block iterator's buffer, and its S block into one more buffer, from
    the L block when S is factored, copied from a dense S otherwise. Once
    both are written, |S| and then |L - L0| are formed in S's buffer. l0_s
    counts |S| above 1e-6 ||S||_inf, taken over all of S, so it takes a
    second pass over S once ||S||_inf is known, after both buffers are
    freed."""
    factored = isinstance(sol.s, Remainder)
    s_buf = None
    l1_s = s_inf = 0.0
    sq_dif = sq_l0 = sq_l = sum_dif = max_dif = 0.0
    for rows, l in matio.iter_row_blocks(sol.l):
        if s_buf is None:
            s_buf = np.empty(l.shape)
        s = s_buf[:l.shape[0]]
        if factored:
            sol.s.rows_into(rows, s, l_rows=l)
        else:
            np.copyto(s, sol.s[rows])
        if write_l:
            write_l(l)
        if write_s:
            write_s(s)
        np.abs(s, out=s)
        l1_s += float(s.sum())
        s_inf = max(s_inf, float(s.max()))
        if truth is not None:
            l0 = truth[rows]
            np.subtract(l, l0, out=s)  # |L - L0| from here on
            np.abs(s, out=s)
            sq_dif += float(np.vdot(s, s))
            sq_l0 += float(np.vdot(l0, l0))
            sq_l += float(np.vdot(l, l))
            sum_dif += float(s.sum())
            max_dif = max(max_dif, float(s.max(initial=0.0)))
    del s_buf, l, s
    l0_s = sum(l0_count(block, 1e-6 * s_inf) for _, block in matio.iter_row_blocks(sol.s))
    if truth is None:
        return l1_s, l0_s, {"rel_err": None, "max_dif": None, "ave_dif": None}
    return l1_s, l0_s, {
        # as synth.rel_err: relative to ||L0||_F, or ||L||_F itself when L0 = 0
        "rel_err": (sq_dif / sq_l0) ** 0.5 if sq_l0 else sq_l ** 0.5,
        "max_dif": max_dif, "ave_dif": sum_dif / truth.size,
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
        with contextlib.ExitStack() as outputs:
            write_l = _open_output(outputs, args.out_l,
                                   lambda path: matio.matrix_writer(path, m.shape))
            write_s = _open_output(outputs, args.out_s,
                                   lambda path: matio.matrix_writer(path, m.shape))
            stats_file = _open_output(outputs, args.stats_json, matio.output_file)
            sol = _solve(m, args)
            try:
                l1_s, l0_s, errors = _output_pass(sol, truth, write_l, write_s)
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
                if stats_file:
                    stats_file.write(json.dumps(stats, indent=2).encode() + b"\n")
            except (OSError, ValueError) as exc:
                raise _Exit(1, f"cannot write the decomposition: {exc}") from None
    except _Exit as exc:
        return _fail(exc.code, str(exc))
    print(json.dumps(stats))

    if not sol.converged:
        return _fail(2, f"did not converge: residual {sol.final_residual:.3g}")
    return 0


def _solve(m, args):
    """The decompose solve the options ask for; invalid options end it with
    exit 3."""
    try:
        if args.method == "adm":
            tol = 1e-7 if args.tol is None else args.tol
            return solve_pcp(m, AdmConfig(lam=args.lam, tol=tol))
        # FilterConfig rejects --lambda: the seed PCP uses its own lambda
        cfg = FilterConfig(
            s_r=args.oversample_rows, s_c=args.oversample_cols,
            rank_hint=args.rank_hint, rng_seed=args.seed,
            adm=AdmConfig(lam=args.lam, tol=PIPELINE_TOL if args.tol is None else args.tol),
        )
        # L and S stay factored; the output pass forms them in row blocks
        return estimate_rank_and_factor(m, cfg)
    except ValueError as exc:
        raise _Exit(3, str(exc)) from None


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

"""Command-line surface: decompose matrices from files, generate synthetic
data, and run the benchmark suites.

main turns a failure of any subcommand into one "error: ..." line and an
exit code: an _Exit's own, 3 for a ValueError, 1 for an OSError. So 0 is
success; 1 a file that cannot be read or written (for decompose, an input
that does not parse or holds NaN or Inf, an output that cannot be opened,
or a failed write); 2 decompose's non-convergence; 3 invalid options and
dimensions, two outputs of decompose or of bench in one regular file
included, and an output of decompose in its input or --truth file: a DMAT
input is mapped read-only (matio.read_dmat), and an output opened over it
would truncate the map, which kills the process with SIGBUS. decompose
opens every output before the solve, and bench its reports before the
suite, and each removes them again when it exits 1 or 3, so a failed run
leaves no partial file.
"""

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from . import bench, matio, synth
from .l1filter import PIPELINE_TOL, FilterConfig, estimate_rank_and_factor
# decompose calls neither, since the output pass sums and counts |S| in
# place; l0_count serves checkerboard, and perfbench's self-test reads the
# l1_norm binding that its cli.stats span wraps
from .matcore import l0_count, l1_norm  # noqa: F401
from .pcp_adm import AdmConfig, solve_pcp


class _Exit(Exception):
    """Ends a subcommand with an error line and this exit code; decompose
    raises it inside the with-block that holds its outputs, so they are
    removed on the way out."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _open_output(outputs, path, opener):
    """opener(path) entered on the ExitStack outputs, or None without a
    path; a path that cannot be opened ends the subcommand with exit 1."""
    if not path:
        return None
    try:
        return outputs.enter_context(opener(path))
    except OSError as exc:
        raise _Exit(1, f"cannot write {path}: {exc}") from None


def _file_key(path):
    """path's regular file by its inode and device, os.stat(path)[1:3], so
    that hard links match, or a path not made yet by its real path; None
    for anything else, such as a device like /dev/null."""
    if os.path.isfile(path):
        return os.stat(path)[1:3]
    return None if os.path.exists(path) else os.path.realpath(path)


def _distinct_outputs(paths, flags, inputs=()):
    """Reject two of *paths* that name one regular file, which would keep
    only the last output written, and a path that names one of the regular
    files *inputs*, which it would overwrite; files are matched by
    _file_key, and a device may repeat."""
    files = [key for key in map(_file_key, filter(None, paths)) if key is not None]
    if len(set(files)) < len(files):
        raise ValueError(f"{flags} must name different files")
    read = {_file_key(path) for path in inputs if path and os.path.isfile(path)}
    if read.intersection(files):
        raise ValueError(f"{flags} must not name the input or --truth file")


def _read(path):
    """The matrix in path; one that cannot be read ends decompose with exit 1."""
    try:
        return matio.read_matrix(path)
    except (OSError, ValueError) as exc:
        raise _Exit(1, f"cannot read {path}: {exc}") from None


def _output_pass(sol, write_l, write_s):
    """Write L and S, each by write_l and write_s unless None; returns
    (l1_s, l0_s). matio.blocks walks L once, if written, and S once to write
    it and sum |S| in the walk's buffer, so a factored L or S is never formed
    whole. l0_s counts |S| above 1e-6 ||S||_inf, taken over all of S, so a
    third walk forms S once more."""
    if write_l:
        for _, l in matio.blocks(sol.l):
            write_l(l)
        del l  # frees L's buffer before the S walk allocates its own
    l1_s = s_inf = 0.0
    for _, s in matio.blocks(sol.s):
        if write_s:
            write_s(s)
        np.abs(s, out=s)
        l1_s += float(s.sum())
        s_inf = float(np.maximum(s_inf, s.max()))  # keeps a NaN, as max() does not
    del s
    l0_s = sum(int(np.count_nonzero(np.abs(s, out=s) > 1e-6 * s_inf))
               for _, s in matio.blocks(sol.s))
    return l1_s, l0_s


def cmd_decompose(args):
    _distinct_outputs((args.out_l, args.out_s, args.stats_json),
                      "--out-l, --out-s and --stats-json", (args.input, args.truth))
    m = _read(args.input)
    truth = _read(args.truth) if args.truth else None
    if truth is not None and truth.shape != m.shape:
        raise ValueError(f"truth shape {truth.shape} != input shape {m.shape}")

    with contextlib.ExitStack() as outputs:
        write_l = _open_output(outputs, args.out_l,
                               lambda path: matio.matrix_writer(path, m.shape))
        write_s = _open_output(outputs, args.out_s,
                               lambda path: matio.matrix_writer(path, m.shape))
        stats_file = _open_output(outputs, args.stats_json, matio.output_file)
        sol = _solve(m, args)
        try:
            l1_s, l0_s = _output_pass(sol, write_l, write_s)
            errors = (dict.fromkeys(("rel_err", "max_dif", "ave_dif")) if truth is None
                      else synth.recovery_errors(sol.l, truth))
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
                # solve_pcp's SVT path counts, on the adm and fallback paths
                **{k: v for k, v in sol.stats.items() if k.startswith("svt_")},
                **errors,
            }
            if stats_file:
                stats_file.write(json.dumps(stats, indent=2).encode() + b"\n")
        except (OSError, ValueError) as exc:
            raise _Exit(1, f"cannot write the decomposition: {exc}") from None
    print(json.dumps(stats))

    if not sol.converged:
        raise _Exit(2, f"did not converge: residual {sol.final_residual:.3g}")
    return 0


def _solve(m, args):
    """The decompose solve the options ask for; the ValueError of an invalid
    option ends it with exit 3 in main."""
    if args.method == "adm":
        tol = {} if args.tol is None else {"tol": args.tol}  # no --tol: AdmConfig's default
        return solve_pcp(m, AdmConfig(lam=args.lam, **tol))
    # FilterConfig rejects --lambda: the seed PCP uses its own lambda
    cfg = FilterConfig(
        s_r=args.oversample_rows, s_c=args.oversample_cols,
        rank_hint=args.rank_hint, rng_seed=args.seed,
        adm=AdmConfig(lam=args.lam, tol=PIPELINE_TOL if args.tol is None else args.tol),
    )
    # L and S stay factored; the output pass forms them in row blocks
    return estimate_rank_and_factor(m, cfg)


def cmd_synth(args):
    spec = synth.SynthSpec(m=args.m, n=args.m if args.n is None else args.n,
                           rho_r=args.rho_r, rho_s=args.rho_s, magnitude=args.magnitude,
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
    _distinct_outputs((args.out_csv, args.out_json), "--out-csv and --out-json")
    kwargs = {}
    if args.suite == "size-sweep" and args.adm_max_size is not None:
        kwargs["adm_max_size"] = args.adm_max_size
    with contextlib.ExitStack() as outputs:
        csv_file = _open_output(outputs, args.out_csv, matio.output_file)
        json_file = _open_output(outputs, args.out_json, matio.output_file)
        report = bench.run_suite(args.suite, scale=args.scale, seeds=range(args.seeds),
                                 methods=args.methods, **kwargs)
        report["environment"]["suite_seconds"] = time.perf_counter() - t0
        if csv_file:
            bench.write_csv_report(csv_file, report)
        if json_file:
            bench.write_json_report(json_file, report)
    if not csv_file and not json_file:
        print(json.dumps(report, indent=2))
    else:
        print(json.dumps({"suite": args.suite,
                          "records": len(report["records"]),
                          "summary": report["summary"]}))
    for r in report["records"]:
        if r["error"]:
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
    b.add_argument("--methods", nargs="+", choices=bench.METHODS, default=None)
    b.add_argument("--adm-max-size", type=int, default=None,
                   help="largest unscaled size the full-matrix ADM leg of size-sweep runs at")
    b.add_argument("--out-csv")
    b.add_argument("--out-json")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_Exit, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, _Exit) else 3 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())

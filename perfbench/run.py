"""Closed-loop benchmark of the l1pcp solvers.

    python3 perfbench/run.py --workload filter-2000 --seed 1 --seconds 15 --trace 0
    python3 -m pytest -q perfbench      # self-test on tiny instances

One client issues one solve at a time from one process (cli workloads: one
fresh CLI process per solve), with FilterConfig(parallelism=1) and the BLAS
thread pool at its default. Inputs are generated from --seed; every output
is checked against the planted low-rank part and rank outside the timed
region. The workloads, and what every metric means, are in manifest.json
next to this file.

With --trace 0 the last line of stdout carries the end-to-end metrics
(solve_s, peak_alloc_mb, peak_rss_mb, setup_s). With --trace 1 the run
alternates untraced and traced cycles, and the last line carries the
per-layer metrics built from spans around the public functions of each
l1pcp module (see spans.py). The lines before it print every metric with
its unit, rel_err, fail_frac and the environment. A JSON report, and in
traced runs the spans, are written under perfbench/_work/.

The program is imported from src/ next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from spans import Recorder, descendants, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
MANIFEST = json.loads((HERE / "manifest.json").read_text())
WORKLOADS = MANIFEST["workloads"]

SETUP_REPS = 5
MIN_CYCLES = 2      # passes over the instances per run, at least (traced runs: 1 + 1)
CHECK_ROWS = 512
DMAT_HEADER = 16
MB = 1e6

END_TO_END_UNITS = {"solve_s": "s", "peak_alloc_mb": "MB", "peak_rss_mb": "MB", "setup_s": "s"}


class ProgramMissing(RuntimeError):
    """The l1pcp sources are not next to the benchmark."""


def import_program():
    """Import l1pcp from the checkout's src/ and nowhere else."""
    if not (SRC / "l1pcp" / "__init__.py").is_file():
        raise ProgramMissing(f"no l1pcp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import l1pcp
    import l1pcp.cli  # noqa: F401  (the cli layer; also loads matio)

    if not Path(l1pcp.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"l1pcp was imported from {l1pcp.__file__}, not {SRC}")
    return l1pcp


# ---------------------------------------------------------------- environment

def _blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, read through ctypes."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(np, workload, seed, trace):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------- instances

@dataclass
class Instance:
    m: object      # observed matrix M = L0 + S0
    l0: object     # planted low-rank part
    rank: int
    path: Path | None = None   # DMAT copy of M (cli workloads)


def instance_seed(np, seed, i):
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def make_instances(l1pcp, np, wl, seed, work):
    out = []
    for i in range(wl["instances"]):
        spec = l1pcp.synth.SynthSpec(m=wl["m"], n=wl["m"], rho_r=wl["rank"] / wl["m"],
                                     rho_s=wl["rho_s"], rng_seed=instance_seed(np, seed, i))
        gt = l1pcp.synth.generate(spec)
        inst = Instance(m=gt.m_obs, l0=gt.l0, rank=spec.rank)
        if wl["kind"] == "cli":
            inst.path = work / f"m{i}.dmat"
            write_dmat(np, inst.path, inst.m)
        out.append(inst)
    return out


def write_dmat(np, path, m):
    with open(path, "wb") as fh:
        fh.write(b"DMAT" + np.array(m.shape, dtype="<u4").tobytes() + bytes(4))
        fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def read_dmat(np, path, shape):
    raw = np.fromfile(path, dtype=np.uint8, count=DMAT_HEADER)
    rows, cols = (int(v) for v in raw[4:12].view("<u4"))
    if raw[:4].tobytes() != b"DMAT" or (rows, cols) != tuple(shape):
        raise ValueError(f"{path}: bad DMAT header")
    return np.fromfile(path, dtype="<f8", offset=DMAT_HEADER).reshape(rows, cols)


# ---------------------------------------------------------------- checks

def check(np, inst, l, s, rank, tolerance):
    """Return (rel_err of L, reason or None). Never trusts the solver's own
    converged flag or residual: L and S are compared with the planted parts,
    CHECK_ROWS rows at a time so the check adds little memory."""
    if l.shape != inst.m.shape or s.shape != inst.m.shape:
        return float("inf"), f"output shape {l.shape}/{s.shape} != {inst.m.shape}"
    num_l = den_l = num_s = den_s = 0.0
    for lo in range(0, inst.m.shape[0], CHECK_ROWS):
        rows = slice(lo, lo + CHECK_ROWS)
        l0, lb, sb = inst.l0[rows], l[rows], s[rows]
        if not (np.isfinite(lb).all() and np.isfinite(sb).all()):
            return float("inf"), "non-finite output"
        s0 = inst.m[rows] - l0
        num_l += float(np.square(lb - l0).sum())
        den_l += float(np.square(l0).sum())
        num_s += float(np.square(sb - s0).sum())
        den_s += float(np.square(s0).sum())
    err_l = (num_l / den_l) ** 0.5
    err_s = (num_s / den_s) ** 0.5 if den_s else num_s ** 0.5
    if err_l > tolerance:
        return err_l, f"rel_err(L) {err_l:.3g} > {tolerance:g}"
    if err_s > tolerance:
        return err_l, f"rel_err(S) {err_s:.3g} > {tolerance:g}"
    if rank != inst.rank:
        return err_l, f"rank {rank} != planted {inst.rank}"
    return err_l, None


# ---------------------------------------------------------------- operations

@dataclass
class OpResult:
    seconds: float
    rel_err: float
    error: str | None
    traced: bool = False
    maxrss_kb: int | None = None


class InProcess:
    """Solves in the benchmark process through the public l1pcp calls."""

    def __init__(self, l1pcp, np, wl):
        self.l1pcp, self.np, self.wl = l1pcp, np, wl

    def solve(self, inst):
        # looked up at call time so that span wrappers apply
        if self.wl["kind"] == "adm":
            return self.l1pcp.pcp_adm.solve_pcp(inst.m)
        cfg = self.l1pcp.l1filter.FilterConfig(rank_hint=self.wl["rank_hint"], parallelism=1)
        return self.l1pcp.l1filter.estimate_rank_and_solve(inst.m, cfg)

    def _solve(self, inst, recorder=None):
        """Time one solve; return (solution or None, error, seconds, root span)."""
        root = recorder.open("bench.op") if recorder else None
        t0 = time.perf_counter()
        try:
            sol, error = self.solve(inst), None
        except Exception as exc:  # an op that raises counts as failed
            sol, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if recorder:
            recorder.close(root)
        return sol, error, seconds, root

    def _result(self, inst, sol, error, seconds, traced=False):
        if sol is None:
            return OpResult(seconds, float("inf"), error, traced)
        rel, error = check(self.np, inst, sol.l, sol.s, sol.rank_of_l, self.wl["tolerance"])
        return OpResult(seconds, rel, error, traced)

    def run(self, inst, recorder=None):
        sol, error, seconds, root = self._solve(inst, recorder)
        return self._result(inst, sol, error, seconds, traced=recorder is not None), root

    def memory_pass(self, inst):
        """Untimed warm-up solve under tracemalloc; the input exists before
        tracing starts, so the peak excludes it."""
        tracemalloc.start()
        try:
            sol, error, seconds, _ = self._solve(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return self._result(inst, sol, error, seconds), peak / MB

    def peak_rss_mb(self, results):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


class CliProcess:
    """One `python -m l1pcp.cli decompose` process per solve."""

    def __init__(self, np, wl, work):
        self.np, self.wl, self.work = np, wl, work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _cli_args(self, inst):
        args = ["decompose", str(inst.path), "--out-l", str(self.work / "l.dmat"),
                "--out-s", str(self.work / "s.dmat")]
        if self.wl["rank_hint"] is not None:
            args += ["--rank-hint", str(self.wl["rank_hint"])]
        return args

    def _spawn(self, argv):
        """Run argv to completion; return (exit code, seconds, start time,
        max RSS in KiB, stdout)."""
        for stale in ("l.dmat", "s.dmat", "child_spans.json", "child_alloc.json"):
            (self.work / stale).unlink(missing_ok=True)
        out_path = self.work / "stdout.txt"
        with open(out_path, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            try:
                # os.wait4 gives this child's own max RSS; RUSAGE_CHILDREN
                # would be the high-water mark over every child so far
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, t0, usage.ru_maxrss, out_path.read_text()

    def _result(self, inst, code, seconds, maxrss, stdout, traced=False):
        if code != 0:
            return OpResult(seconds, float("inf"), f"cli exit {code}", traced, maxrss)
        try:
            rank = json.loads(stdout.strip().splitlines()[-1])["rank"]
            l = read_dmat(self.np, self.work / "l.dmat", inst.m.shape)
            s = read_dmat(self.np, self.work / "s.dmat", inst.m.shape)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return OpResult(seconds, float("inf"), f"unreadable cli output: {exc}",
                            traced, maxrss)
        rel, error = check(self.np, inst, l, s, rank, self.wl["tolerance"])
        return OpResult(seconds, rel, error, traced, maxrss)

    def run(self, inst, recorder=None):
        if recorder is None:
            code, seconds, _, maxrss, stdout = self._spawn(
                [sys.executable, "-m", "l1pcp.cli"] + self._cli_args(inst))
            return self._result(inst, code, seconds, maxrss, stdout), None
        spans_path = self.work / "child_spans.json"
        code, seconds, t0, maxrss, stdout = self._spawn(
            [sys.executable, str(HERE / "cli_child.py"), "--spans", str(spans_path), "--"]
            + self._cli_args(inst))
        root = recorder.open("bench.op")
        recorder.close(root)
        root.start, root.end = t0, t0 + seconds
        if spans_path.is_file():
            recorder.adopt(json.loads(spans_path.read_text()), root)
        return self._result(inst, code, seconds, maxrss, stdout, traced=True), root

    def memory_pass(self, inst):
        out = self.work / "child_alloc.json"
        code, seconds, _, maxrss, stdout = self._spawn(
            [sys.executable, str(HERE / "cli_child.py"), "--tracemalloc", str(out), "--"]
            + self._cli_args(inst))
        result = self._result(inst, code, seconds, maxrss, stdout)
        peak = json.loads(out.read_text())["peak_bytes"] if out.is_file() else float("nan")
        return result, (peak - inst.m.nbytes) / MB

    def peak_rss_mb(self, results):
        timed = [r.maxrss_kb for r in results if r.maxrss_kb is not None]
        return statistics.median(timed) * 1024 / MB


# ---------------------------------------------------------------- main loop

def run(args):
    wl = WORKLOADS[args.workload]
    l1pcp = import_program()
    import numpy as np

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        recorder = Recorder() if args.trace else None
        return _measure(args, wl, l1pcp, np, work, recorder)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, wl, l1pcp, np, work, recorder):
    env = environment(np, args.workload, args.seed, args.trace)
    print("environment " + json.dumps(env), flush=True)

    # set-up, SETUP_REPS times: import l1pcp in a fresh interpreter, then
    # generate (and for cli workloads write) the instances in this one
    setup_times, setup_roots, instances = [], [], None
    if recorder:
        recorder.install()
    for _ in range(SETUP_REPS):
        instances = None
        import_child_s = import_seconds()
        root = recorder.open("bench.setup") if recorder else None
        t = time.perf_counter()
        instances = make_instances(l1pcp, np, wl, args.seed, work)
        setup_times.append(import_child_s + time.perf_counter() - t)
        if recorder:
            recorder.close(root)
            setup_roots.append(root)
    if recorder:
        recorder.uninstall()

    runner = CliProcess(np, wl, work) if wl["kind"] == "cli" else InProcess(l1pcp, np, wl)

    # untimed memory pass; in-process it is also the warm-up operation
    mem_result, peak_alloc_mb = runner.memory_pass(instances[0])

    # Each operation is one solve. A cycle solves every instance once, and
    # runs end on a cycle boundary so that every instance weighs the same in
    # the median; the median over solves shrugs off the stalls that a busy
    # 2-thread BLAS pool suffers. Traced runs alternate untraced and traced
    # cycles.
    results, roots, cycles = [], [], {False: 0, True: 0}
    deadline = time.perf_counter() + args.seconds
    need = {False: 1, True: 1} if recorder else {False: MIN_CYCLES, True: 0}
    while time.perf_counter() < deadline or any(cycles[k] < n for k, n in need.items()):
        traced = bool(recorder) and cycles[False] > cycles[True]
        if traced:
            recorder.install()
        try:
            for inst in instances:
                result, root = runner.run(inst, recorder if traced else None)
                results.append(result)
                if root is not None:
                    roots.append(root)
        finally:
            if traced:
                recorder.uninstall()
        cycles[traced] += 1

    checked = [mem_result] + results
    failed = [r for r in checked if r.error]
    untraced = [r.seconds for r in results if not r.traced]
    rel_err = max((r.rel_err for r in checked if r.rel_err < float("inf")), default=0.0)
    fail_frac = len(failed) / len(checked)

    if recorder:
        metrics = layer_metrics(recorder.spans, roots, recorder.absent,
                                subprocess_ops=wl["kind"] == "cli")
        traced_s = [r.seconds for r in results if r.traced]
        metrics["trace.overhead_frac"] = (statistics.median(traced_s)
                                          / statistics.median(untraced) - 1.0)
        if "synth.generate" not in recorder.absent:
            metrics["synth.generate_s"] = statistics.median(
                sum(s.duration for s in descendants(recorder.spans, [r.id])
                    if s.name == "synth.generate")
                for r in setup_roots)
        metrics["check.rel_err_max"] = rel_err
        metrics["check.fail_frac"] = fail_frac
        units = {k: _layer_unit(k) for k in metrics}
        (WORK / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"environment": env, "absent": sorted(recorder.absent),
             "spans": [s.to_json() for s in recorder.spans]}))
    else:
        metrics = {
            "solve_s": statistics.median(untraced),
            "peak_alloc_mb": peak_alloc_mb,
            "peak_rss_mb": runner.peak_rss_mb(results),
            "setup_s": statistics.median(setup_times),
        }
        units = dict(END_TO_END_UNITS)

    report = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "rel_err": rel_err, "fail_frac": fail_frac,
        "solve_seconds": [r.seconds for r in results],
        "solve_traced": [r.traced for r in results],
        "setup_seconds": setup_times,
        "failures": [r.error for r in failed],
    }
    (WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    for k, v in metrics.items():
        print(f"{k:36s} {v:.6g} {units[k]}")
    print(f"{'rel_err':36s} {rel_err:.3g} 1 (tolerance {wl['tolerance']:g})")
    print(f"{'fail_frac':36s} {fail_frac:.6g} 1 ({len(failed)} of {len(checked)} ops)")
    for r in failed:
        print(f"failed op: {r.error}")
    print(json.dumps({"correct": not failed, "attempted": len(checked), "failed": len(failed),
                      "metrics": report["metrics"]}))
    return 0


def import_seconds():
    """Seconds a fresh interpreter takes to import l1pcp (and numpy)."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import l1pcp; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def _layer_unit(name):
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_s") or leaf in ("s", "t1", "t2", "t_assemble"):
        return "s"
    if leaf.endswith("_frac") or leaf == "rel_err_max":
        return "1"
    if leaf.endswith("_bytes"):
        return "B"
    if leaf.endswith("_cells"):
        return "cells"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        return run(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # turn SIGTERM into SystemExit so that CLI children are killed and
    # reaped, and the work directory removed, on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())

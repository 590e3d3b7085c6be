"""End-to-end tests of the command-line interface."""

import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from l1pcp import bench, cli, matcore, matio, synth
from l1pcp.cli import main
from l1pcp.l1filter import FilterConfig, estimate_rank_and_factor, estimate_rank_and_solve
from l1pcp.matcore import frobenius_norm, l0_count, l1_norm, linf_norm
from l1pcp.pcp_adm import AdmConfig, solve_pcp
from oracles import recovery_errors

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _synth_files(tmp_path, m=200, seed=0):
    m_path = tmp_path / "m.dmat"
    l0_path = tmp_path / "l0.dmat"
    rc = main(["synth", "--m", str(m), "--rho-r", "0.01", "--rho-s", "0.01",
               "--seed", str(seed),
               "--out-m", str(m_path), "--out-l0", str(l0_path)])
    assert rc == 0
    return m_path, l0_path


def test_decompose_with_truth_stats(tmp_path, capsys):
    m_path, l0_path = _synth_files(tmp_path)
    stats_path = tmp_path / "stats.json"
    out_l = tmp_path / "l.dmat"
    rc = main(["decompose", str(m_path), "--method", "l1filter",
               "--rank-hint", "2", "--truth", str(l0_path),
               "--out-l", str(out_l), "--stats-json", str(stats_path)])
    assert rc == 0
    stats = json.loads(stats_path.read_text())
    assert stats["method"] == "l1-filter"
    assert stats["rel_err"] <= 1e-5
    assert stats["rank"] == 2
    assert stats["filter_failed_columns"] == 0
    assert stats["seed_polish_iterations"] > 0
    assert 0 < stats["seed_residual"] <= 1e-11
    # stage timings are reported and account for the total
    assert stats["t"] >= stats["t1"] + stats["t2"] + stats["t_assemble"] - 1e-3
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == stats
    l = matio.read_matrix(out_l)
    l0 = matio.read_matrix(l0_path)
    assert frobenius_norm(l - l0) / frobenius_norm(l0) <= 1e-5


def test_decompose_methods_agree(tmp_path, capsys):
    m_path, _ = _synth_files(tmp_path, seed=1)
    l_filter = tmp_path / "lf.dmat"
    l_adm = tmp_path / "la.dmat"
    assert main(["decompose", str(m_path), "--method", "l1filter",
                 "--rank-hint", "2", "--out-l", str(l_filter)]) == 0
    filter_stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert main(["decompose", str(m_path), "--method", "adm",
                 "--out-l", str(l_adm)]) == 0
    adm_stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # the ADM's stats count its SVTs by path; the l1 filter's have none
    svt_paths = {k: v for k, v in adm_stats.items() if k.startswith("svt_")}
    assert set(svt_paths) == {"svt_warm", "svt_zero", "svt_gram", "svt_svd"}
    assert sum(svt_paths.values()) == adm_stats["iterations"]
    assert not any(k.startswith("svt_") for k in filter_stats)
    a = matio.read_matrix(l_filter)
    b = matio.read_matrix(l_adm)
    assert frobenius_norm(a - b) / frobenius_norm(b) <= 1e-4


def test_decompose_adm_tol_defaults_to_adm_config(tmp_path, capsys, monkeypatch):
    # without --tol, --method adm takes AdmConfig's own default, moved here
    m_path, _ = _synth_files(tmp_path, m=40)
    monkeypatch.setattr(cli, "AdmConfig", functools.partial(AdmConfig, tol=3e-6))
    cfgs = []

    def recorded(m, cfg):
        cfgs.append(cfg)
        return solve_pcp(m, cfg)

    monkeypatch.setattr(cli, "solve_pcp", recorded)
    for argv in ([], ["--tol", "1e-5"]):
        assert main(["decompose", str(m_path), "--method", "adm", *argv]) == 0
    assert [c.tol for c in cfgs] == [3e-6, 1e-5]


def test_decompose_unconverged_l1filter_exits_2(tmp_path, capsys, monkeypatch):
    # the CLI has no iteration cap; starve every PCP and l1 regression at 8
    m_path, _ = _synth_files(tmp_path, m=300)
    monkeypatch.setattr(cli, "AdmConfig", functools.partial(AdmConfig, max_iter=8))
    rc = main(["decompose", str(m_path), "--method", "l1filter", "--rank-hint", "3"])
    assert rc == 2
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["method"] == "l1-filter"
    assert stats["converged"] is False
    assert stats["filter_failed_columns"] > 0


def test_decompose_zero_matrix_exits_zero(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    matio.write_matrix(path, np.zeros((20, 20)))
    out_l = tmp_path / "l.csv"
    out_s = tmp_path / "s.csv"
    rc = main(["decompose", str(path), "--out-l", str(out_l),
               "--out-s", str(out_s)])
    assert rc == 0
    capsys.readouterr()
    assert not matio.read_matrix(out_l).any()
    assert not matio.read_matrix(out_s).any()


def test_decompose_uncertified_zero_seed_exits_2(tmp_path, capsys):
    # rank-2 L on 5 of 300 rows: the first seed misses them and recovers 0
    rng = np.random.default_rng(1)
    m = np.zeros((300, 300))
    m[rng.choice(300, 5, replace=False)] = (rng.standard_normal((5, 2))
                                            @ rng.standard_normal((300, 2)).T)
    path = tmp_path / "rows.dmat"
    matio.write_matrix(path, m)
    assert main(["decompose", str(path)]) == 2
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["method"] == "degenerate-zero-seed"
    assert stats["converged"] is False
    assert stats["residual"] > 1.0
    assert stats["seed_polish_iterations"] == 0 and stats["seed_residual"] == 0.0


def _sparse_only(size):
    """A size x size M of 1% uniform spikes in [-500, 500] and nothing else."""
    rng = np.random.default_rng(5)
    m = np.zeros((size, size))
    idx = rng.choice(m.size, m.size // 100, replace=False)
    m.flat[idx] = rng.uniform(-500, 500, idx.size)
    return m


def test_decompose_zero_seed_streams_l_and_s(tmp_path, capsys):
    # M is mapped, L = 0 and S = M stay factored, and the certificate forms
    # sign(M) one row block at a time: the process holds row blocks only
    path = tmp_path / "m.dmat"
    matio.write_matrix(path, _sparse_only(1000))
    capsys.readouterr()
    nbytes = 1000 * 1000 * 8
    tracemalloc.start()
    try:
        rc = main(["decompose", str(path), "--out-l", str(tmp_path / "l.dmat"),
                   "--out-s", str(tmp_path / "s.dmat"), "--stats-json",
                   str(tmp_path / "stats.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert json.loads((tmp_path / "stats.json").read_text())["method"] == "degenerate-zero-seed"
    # 0.16x M, against 2.01x with M read into core and sign(M) formed whole
    # for the certificate, and 3.18x with a dense L = 0 and a copy of M
    assert peak <= 0.3 * nbytes, f"peak {peak / nbytes:.2f}x M.nbytes"


def test_decompose_rows_that_sum_to_zero_exit_2(tmp_path, capsys):
    # rows 0, 33, ..., 957 hold u_i v, v alternating +-1: the seed misses
    # them, and the zero-seed certificate lambda ||sign(M)||_2 is 5.48
    m = np.zeros((1000, 1000))
    rows = np.arange(0, 958, 33)
    m[rows] = np.outer(np.linspace(1.0, 2.0, rows.size), np.resize([1.0, -1.0], 1000))
    path = tmp_path / "rows.dmat"
    matio.write_matrix(path, m)
    assert main(["decompose", str(path)]) == 2
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["method"] == "degenerate-zero-seed" and stats["converged"] is False
    assert stats["residual"] == pytest.approx(30 ** 0.5, rel=1e-12)


def test_decompose_negative_seed_exits_3(tmp_path, capsys):
    # numpy's "expected non-negative integer" named no option
    m_path, _ = _synth_files(tmp_path, m=100)
    out_l = tmp_path / "l.dmat"
    capsys.readouterr()
    assert main(["decompose", str(m_path), "--seed", "-1", "--out-l", str(out_l)]) == 3
    assert capsys.readouterr().err == "error: rng_seed must be >= 0, got -1\n"
    assert not out_l.exists()


def test_decompose_lambda_only_with_adm(tmp_path, capsys):
    m_path, _ = _synth_files(tmp_path, m=100)
    assert main(["decompose", str(m_path), "--method", "l1filter",
                 "--lambda", "0.1"]) == 3
    assert "--lambda applies only to --method adm" in capsys.readouterr().err
    assert main(["decompose", str(m_path), "--method", "adm",
                 "--lambda", "0.1"]) == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["method"] == "adm"


@pytest.mark.parametrize("method", ["adm", "l1filter"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_decompose_nonpositive_tol_exit_3(tmp_path, capsys, method, tol):
    m_path, _ = _synth_files(tmp_path, m=100)
    capsys.readouterr()
    assert main(["decompose", str(m_path), "--method", method, "--tol", tol]) == 3
    reason = "finite" if tol == "inf" else "positive"
    assert capsys.readouterr().err == f"error: tol must be {reason}\n"


@pytest.mark.parametrize("flag", ["--oversample-rows", "--oversample-cols"])
@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_decompose_nonfinite_oversampling_exit_3(tmp_path, capsys, flag, rate):
    m_path, _ = _synth_files(tmp_path, m=100)
    capsys.readouterr()
    assert main(["decompose", str(m_path), flag, rate]) == 3
    assert capsys.readouterr().err == "error: oversampling rates must be finite and > 1\n"


@pytest.mark.parametrize("method", ["adm", "l1filter"])
def test_decompose_unresolvable_scale_exit_3(tmp_path, capsys, method):
    m_path = tmp_path / "tiny.dmat"
    rng = np.random.default_rng(0)
    matio.write_matrix(m_path, 1e-160 * np.outer(rng.standard_normal(60),
                                                 rng.standard_normal(60)))
    assert main(["decompose", str(m_path), "--method", method]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: max|M| = ") and err.endswith("rescale the matrix\n")


@pytest.mark.parametrize("rank_hint", ["0", "-3"])
def test_decompose_rank_hint_below_one_exit_3(tmp_path, capsys, rank_hint):
    m_path, _ = _synth_files(tmp_path, m=100)
    capsys.readouterr()
    assert main(["decompose", str(m_path), "--rank-hint", rank_hint]) == 3
    assert capsys.readouterr().err == "error: rank_hint must be >= 1\n"


def test_decompose_fallback_reports_its_seed_attempts(tmp_path, capsys):
    # rank 40 at m=100: two grown seeds, then a full PCP solve
    m_path = tmp_path / "m.dmat"
    assert main(["synth", "--m", "100", "--rho-r", "0.4", "--rho-s", "0.01",
                 "--out-m", str(m_path)]) == 0
    assert main(["decompose", str(m_path)]) == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["method"] == "full-pcp-fallback" and stats["converged"] is True
    assert isinstance(stats["t1"], float) and stats["t1"] > 0
    assert stats["t2"] is None and stats["t_assemble"] is None


def test_decompose_unreadable_input_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.dmat"
    assert main(["decompose", str(missing)]) == 1
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("1,2\n3\n")
    assert main(["decompose", str(garbled)]) == 1
    non_finite = tmp_path / "nan.dmat"
    non_finite.write_bytes(matio._HEADER.pack(matio.MAGIC, 2, 2)
                           + np.array([1.0, 2.0, 3.0, np.nan], dtype="<f8").tobytes())
    capsys.readouterr()
    assert main(["decompose", str(non_finite)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_decompose_dimension_mismatch_exit_3(tmp_path, capsys):
    m_path, _ = _synth_files(tmp_path, m=100)
    truth = tmp_path / "wrong.csv"
    matio.write_matrix(truth, np.zeros((5, 5)))
    assert main(["decompose", str(m_path), "--truth", str(truth)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("method", ["l1filter", "adm"])
@pytest.mark.parametrize("name", ["empty.dmat", "empty.csv"])
def test_decompose_empty_matrix_exit_3(tmp_path, capsys, method, name):
    path = tmp_path / name
    matio.write_matrix(path, np.zeros((0, 5)))
    assert main(["decompose", str(path), "--method", method]) == 3
    assert "error: matrix must be nonempty" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["l1filter", "adm"])
def test_decompose_empty_csv_prints_only_the_error(tmp_path, method):
    # numpy's loadtxt warns of an empty file on stderr unless the reader stops it
    path = tmp_path / "empty.csv"
    path.write_text("")
    proc = subprocess.run([sys.executable, "-m", "l1pcp.cli", "decompose", str(path),
                           "--method", method], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == "error: matrix must be nonempty\n"


def test_synth_same_seed_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.dmat"
    out2 = tmp_path / "b.dmat"
    for out in (out1, out2):
        assert main(["synth", "--m", "50", "--rho-r", "0.04", "--rho-s", "0.1",
                     "--seed", "9", "--out-m", str(out)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_zero_sparsity_file(tmp_path, capsys):
    s0_path = tmp_path / "s0.csv"
    assert main(["synth", "--m", "30", "--rho-r", "0.1", "--rho-s", "0",
                 "--out-s0", str(s0_path)]) == 0
    capsys.readouterr()
    assert not matio.read_matrix(s0_path).any()


def test_checkerboard_outputs(tmp_path, capsys):
    prefix = tmp_path / "cb"
    rc = main(["checkerboard", "--m", "64", "--cell", "8",
               "--fraction", "0.1", "--seed", "0", "--out", str(prefix)])
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["corrupted_pixels"] == round(0.1 * 64 * 64)
    clean = matio.read_matrix(f"{prefix}_clean.dmat")
    corrupted = matio.read_matrix(f"{prefix}_corrupted.dmat")
    s0 = matio.read_matrix(f"{prefix}_s0.dmat")
    np.testing.assert_array_equal(clean + s0, corrupted)
    assert (tmp_path / "cb_clean.pgm").read_bytes().startswith(b"P5\n64 64\n")


def test_bench_suite_reports(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    rc = main(["bench", "--suite", "checkerboard", "--scale", "0.125",
               "--seeds", "1", "--out-csv", str(csv_path),
               "--out-json", str(json_path)])
    assert rc == 0
    capsys.readouterr()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["method", "m", "n"]
    assert len(lines) == 2
    report = json.loads(json_path.read_text())
    assert report["suite"] == "checkerboard"
    assert report["records"][0]["error"] == ""
    assert report["records"][0]["seed"] == 0
    assert "numpy" in report["environment"]


def test_parser_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["bench", "--suite", "not-a-suite"])


@pytest.mark.parametrize("method", ["bogus", "adm-partial"])
def test_parser_rejects_an_unknown_bench_method(capsys, method):
    # unchecked, each record carried "unknown method" and bench exited 0
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", "checkerboard", "--scale", "0.125", "--methods", method])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, named", [
    (["synth", "--m", "10", "--rho-r", "0.1", "--rho-s", "2"], 3, "rho_s"),
    (["synth", "--m", "10", "--rho-r", "-1", "--rho-s", "0.1"], 3, "rho_r"),
    (["checkerboard", "--m", "10", "--cell", "3", "--out", "{tmp}/cb"], 3, "cell"),
    (["bench", "--suite", "size-sweep", "--scale", "-1"], 3, "scale"),
    (["synth", "--m", "10", "--rho-r", "0.1", "--rho-s", "0.1",
      "--out-m", "{tmp}/missing/m.dmat"], 1, "missing/m.dmat"),
    # these printed numpy's "negative dimensions are not allowed", a
    # traceback, or nothing at all (n_sparse -50, or an 8x8 checkerboard)
    (["synth", "--m", "-5", "--rho-r", "0.1", "--rho-s", "0.1"], 3, "m and n"),
    (["synth", "--m", "10", "--n", "0", "--rho-r", "0.1", "--rho-s", "0.1"], 3, "m and n"),
    (["synth", "--m", "10", "--rho-r", "0.1", "--rho-s", "-0.5"], 3, "rho_s"),
    (["synth", "--m", "10", "--rho-r", "0.1", "--rho-s", "0.1", "--magnitude", "nan",
      "--out-m", "{tmp}/m.dmat"], 3, "magnitude"),
    # the reports, opened before the suite, are removed again
    (["bench", "--suite", "checkerboard", "--scale", "0", "--out-json", "{tmp}/r.json",
      "--out-csv", "{tmp}/r.csv"], 3, "scale"),
    # a ZeroDivisionError traceback, or five degenerate files and exit 0
    (["checkerboard", "--m", "10", "--cell", "0", "--out", "{tmp}/cb"], 3, "cell=0"),
    (["checkerboard", "--m", "10", "--cell", "-5", "--out", "{tmp}/cb"], 3, "cell=-5"),
    (["checkerboard", "--m", "0", "--out", "{tmp}/cb"], 3, "m=0"),
    (["checkerboard", "--m", "-4", "--cell", "2", "--out", "{tmp}/cb"], 3, "m=-4"),
    # a report with no records and exit 0
    (["bench", "--suite", "checkerboard", "--scale", "0.1", "--seeds", "0",
      "--out-json", "{tmp}/r.json"], 3, "seeds"),
    (["bench", "--suite", "checkerboard", "--scale", "0.1", "--seeds", "-2"], 3, "seeds"),
    # numpy's "expected non-negative integer", which names no option
    (["synth", "--m", "10", "--rho-r", "0.1", "--rho-s", "0.1", "--seed", "-1",
      "--out-m", "{tmp}/m.dmat"], 3, "rng_seed"),
    (["checkerboard", "--m", "8", "--cell", "4", "--seed", "-1", "--out", "{tmp}/cb"], 3,
     "rng_seed"),
], ids=["synth-rho-s", "synth-rho-r", "checkerboard-cell", "bench-scale", "synth-missing-dir",
        "synth-m", "synth-n-0", "synth-rho-s-negative", "synth-magnitude", "bench-scale-0",
        "checkerboard-cell-0", "checkerboard-cell-negative", "checkerboard-m-0",
        "checkerboard-m-negative", "bench-seeds-0", "bench-seeds-negative", "synth-seed-negative",
        "checkerboard-seed-negative"])
def test_every_subcommand_fails_with_one_error_line(tmp_path, capsys, argv, code, named):
    assert main([a.format(tmp=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert named in err
    assert not any(tmp_path.iterdir())


def _fake_run_instance(calls, error=""):
    """A bench.run_instance that solves nothing: it notes (method, m) in
    calls and returns a record that failed with error, if any."""
    def run(method, gt, r, rho_s, sigma_scale, seed, rank_hint=None):
        calls.append((method, gt.m_obs.shape[0]))
        record = dict.fromkeys(bench.CSV_HEADER)
        record.update(method=method, m=gt.m_obs.shape[0], seed=seed, seconds=1.0, error=error)
        return record, None
    return run


def test_bench_opens_its_reports_before_the_suite(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "run_instance", _fake_run_instance(calls))
    csv_path = tmp_path / "r.csv"
    assert main(["bench", "--suite", "checkerboard", "--out-csv", str(csv_path),
                 "--out-json", str(tmp_path / "missing" / "r.json")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert calls == [] and not csv_path.exists()


def test_bench_reports_in_one_file_exit_3(tmp_path, capsys, monkeypatch):
    # the JSON report would overwrite the CSV one
    calls = []
    monkeypatch.setattr(bench, "run_instance", _fake_run_instance(calls))
    new, old, link = tmp_path / "r.out", tmp_path / "old.out", tmp_path / "link.out"
    old.write_bytes(b"kept")
    link.symlink_to(old)
    hard = tmp_path / "hard.out"
    os.link(old, hard)
    for a, b in ((new, new), (old, old), (old, link), (old, hard)):
        assert main(["bench", "--suite", "checkerboard", "--scale", "0.1",
                     "--out-csv", str(a), "--out-json", str(b)]) == 3
        assert capsys.readouterr().err == (
            "error: --out-csv and --out-json must name different files\n")
    assert calls == [] and not new.exists()
    assert old.read_bytes() == b"kept"


def test_bench_forwards_adm_max_size(tmp_path, capsys, monkeypatch):
    # sizes 10, 20 and 40; the ADM leg stops at 0.01 * --adm-max-size
    for argv, adm_sizes in (([], [10, 20]), (["--adm-max-size", "1000"], [10])):
        calls = []
        monkeypatch.setattr(bench, "run_instance", _fake_run_instance(calls))
        assert main(["bench", "--suite", "size-sweep", "--scale", "0.01",
                     "--out-json", str(tmp_path / "r.json")] + argv) == 0
        assert [m for method, m in calls if method == "adm"] == adm_sizes
        assert [m for method, m in calls if method == "l1filter"] == [10, 20, 40]
    capsys.readouterr()


def test_bench_prints_the_report_and_a_warning_per_failed_record(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "run_instance", _fake_run_instance(calls, "RuntimeError: boom"))
    assert main(["bench", "--suite", "checkerboard", "--scale", "0.125", "--seeds", "2"]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)  # no --out-*: the whole report on stdout
    assert report["suite"] == "checkerboard" and len(report["records"]) == len(calls) == 2
    assert "suite_seconds" in report["environment"]
    assert err.splitlines() == [f"warning: l1filter m=64 seed={seed}: RuntimeError: boom"
                                for seed in (0, 1)]


@pytest.mark.parametrize("first, second", [("--out-l", "--out-s"), ("--out-s", "--stats-json"),
                                           ("--out-l", "--stats-json")])
def test_decompose_outputs_in_one_file_exit_3(tmp_path, capsys, monkeypatch, first, second):
    # the second output would overwrite the first
    m_path, _ = _synth_files(tmp_path, m=100)

    def no_solve(m, cfg):
        raise AssertionError("the solve started")

    monkeypatch.setattr(cli, "estimate_rank_and_factor", no_solve)
    new, old, link = tmp_path / "new.dmat", tmp_path / "old.dmat", tmp_path / "link.dmat"
    old.write_bytes(b"kept")
    link.symlink_to(old)
    hard = tmp_path / "hard.dmat"  # a hard link has its own real path
    os.link(old, hard)
    capsys.readouterr()
    for a, b in ((new, new), (old, old), (old, link), (old, hard)):
        assert main(["decompose", str(m_path), first, str(a), second, str(b)]) == 3
        assert capsys.readouterr().err == (
            "error: --out-l, --out-s and --stats-json must name different files\n")
    assert not new.exists()
    assert old.read_bytes() == b"kept" and hard.samefile(old)


@pytest.mark.parametrize("argv", [
    ["m.dmat", "--out-s", "m.dmat"],
    ["m.dmat", "--out-l", "hard.dmat"],
    ["m.dmat", "--truth", "l0.dmat", "--stats-json", "l0.dmat"],
], ids=["input", "hard-link-to-input", "truth"])
def test_decompose_output_over_an_input_exit_3(tmp_path, capsys, monkeypatch, argv):
    # a DMAT input is mapped: an output opened over it would truncate the
    # map under the solve, which dies of SIGBUS on its next read
    m_path, l0_path = _synth_files(tmp_path, m=100)
    os.link(m_path, tmp_path / "hard.dmat")
    kept = {path: path.read_bytes() for path in (m_path, l0_path)}
    opened = []
    monkeypatch.setattr(matio, "output_file", opened.append)
    monkeypatch.setattr(matio, "matrix_writer", lambda path, shape: opened.append(path))
    capsys.readouterr()
    assert main(["decompose", *(str(tmp_path / a) if a.endswith(".dmat") else a
                                for a in argv)]) == 3
    assert capsys.readouterr().err == ("error: --out-l, --out-s and --stats-json must not "
                                       "name the input or --truth file\n")
    assert opened == []
    assert all(path.read_bytes() == data for path, data in kept.items())


def test_decompose_outputs_may_share_a_device(tmp_path, capsys):
    m_path, _ = _synth_files(tmp_path, m=100)
    assert main(["decompose", str(m_path), "--out-l", os.devnull, "--out-s", os.devnull,
                 "--stats-json", os.devnull]) == 0
    assert main(["decompose", str(m_path), "--out-l", os.devnull, "--out-s", os.devnull]) == 0


@pytest.fixture(scope="module")
def rank10_dmat(tmp_path_factory):
    """A 1000x1000 rank-10 instance with 1% corruption, as a DMAT file."""
    path = tmp_path_factory.mktemp("rank10") / "m.dmat"
    assert main(["synth", "--m", "1000", "--rho-r", "0.01", "--rho-s", "0.01",
                 "--seed", "3", "--out-m", str(path)]) == 0
    return path


def test_decompose_streams_l_and_s(rank10_dmat, tmp_path, capsys):
    # M is mapped and L and S are written from the factors in row blocks:
    # the process holds a few blocks, not M or the dense L, S and |S|
    # temporaries
    capsys.readouterr()
    nbytes = 1000 * 1000 * 8
    tracemalloc.start()
    try:
        rc = main(["decompose", str(rank10_dmat), "--rank-hint", "10",
                   "--out-l", str(tmp_path / "l.dmat"), "--out-s", str(tmp_path / "s.dmat")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    capsys.readouterr()
    # 0.19x M: one filter chunk with its presolve, or the output pass's one
    # row block (1.19x with M read into core, 1.33x besides with a dense E
    # beside the presolve and the output pass's second row block, 1.51x
    # while the finiteness check held an m x n mask and the presolve its own
    # chunk-sized copies)
    assert peak <= 0.3 * nbytes, f"peak {peak / nbytes:.2f}x M.nbytes"


@pytest.mark.parametrize("truth", [False, True], ids=["plain", "truth"])
def test_output_pass_holds_one_row_block(rank10_dmat, tmp_path, truth):
    # the factored solution and the truth exist before the pass; it forms L,
    # then S, in one row block and |S| in place, and recovery_errors then
    # forms L and |L - L0| in one row block of its own
    m = matio.read_matrix(rank10_dmat)
    sol = estimate_rank_and_factor(m, FilterConfig(rank_hint=10))
    l0 = sol.l.a @ sol.l.b.T if truth else None  # any dense truth
    block = matcore.row_blocks(m.shape)[0]
    block_bytes = (block.stop - block.start) * m.shape[1] * 8
    with matio.matrix_writer(tmp_path / "l.dmat", m.shape) as write_l, \
            matio.matrix_writer(tmp_path / "s.dmat", m.shape) as write_s:
        tracemalloc.start()
        try:
            cli._output_pass(sol, write_l, write_s)
            if truth:
                synth.recovery_errors(sol.l, l0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one block, its |S| > threshold mask and the writers' finiteness
    # masks: 1.1x the block, against 2.1x with an S buffer beside L's and
    # l0_count's |S| temporary
    assert peak <= 1.25 * block_bytes, f"peak {peak / block_bytes:.2f}x a row block"


def test_decompose_files_match_dense_solve(rank10_dmat, tmp_path, capsys):
    out_l, out_s = tmp_path / "l.dmat", tmp_path / "s.dmat"
    assert main(["decompose", str(rank10_dmat), "--rank-hint", "10",
                 "--out-l", str(out_l), "--out-s", str(out_s)]) == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    m = matio.read_matrix(rank10_dmat)
    sol = estimate_rank_and_solve(m, FilterConfig(rank_hint=10))
    assert stats["method"] == sol.method == "l1-filter"
    tol = 1e-15 * linf_norm(m)
    assert linf_norm(matio.read_matrix(out_l) - sol.l) <= tol
    assert linf_norm(matio.read_matrix(out_s) - sol.s) <= tol
    assert stats["l0_s"] == l0_count(sol.s)
    assert stats["rank"] == sol.rank_of_l
    assert stats["residual"] == sol.final_residual
    assert stats["converged"] is sol.converged is True
    assert stats["l1_s"] == pytest.approx(l1_norm(sol.s), rel=1e-12)


def test_decompose_truth_stats_match_dense_formulas(tmp_path, capsys, monkeypatch):
    # several row blocks, the last one short
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 7 * 200 * 8)
    m_path, l0_path = _synth_files(tmp_path)
    assert main(["decompose", str(m_path), "--rank-hint", "2",
                 "--truth", str(l0_path), "--out-l", str(tmp_path / "l.dmat")]) == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    l = matio.read_matrix(tmp_path / "l.dmat")
    l0 = matio.read_matrix(l0_path)
    dense = recovery_errors(l, l0)
    assert stats["rel_err"] == pytest.approx(dense["rel_err"], rel=1e-12)
    assert stats["max_dif"] == dense["max_dif"]
    assert stats["ave_dif"] == pytest.approx(dense["ave_dif"], rel=1e-12)


def _dense_stats(l, s, l0):
    """decompose's S and truth stats by whole-matrix formulas."""
    errors = ({"rel_err": None, "max_dif": None, "ave_dif": None} if l0 is None else
              recovery_errors(l, l0))
    return {"l1_s": l1_norm(s), "l0_s": l0_count(s), **errors}


@pytest.mark.parametrize("truth", [False, True], ids=["plain", "truth"])
@pytest.mark.parametrize("method", ["l1-filter", "full-pcp-fallback", "degenerate-zero-seed",
                                    "adm"])
def test_decompose_output_pass_matches_dense_solve(tmp_path, capsys, monkeypatch, method,
                                                   truth):
    if method == "full-pcp-fallback":  # rank 40 at m=100: the seed grows past half
        m_path, l0_path = tmp_path / "m.dmat", tmp_path / "l0.dmat"
        assert main(["synth", "--m", "100", "--rho-r", "0.4", "--rho-s", "0.01",
                     "--out-m", str(m_path), "--out-l0", str(l0_path)]) == 0
        argv, solve = [], lambda m: estimate_rank_and_solve(m)
    elif method == "degenerate-zero-seed":  # 1% spikes and no L: certified L = 0
        m_path, l0_path = tmp_path / "m.dmat", tmp_path / "l0.dmat"
        matio.write_matrix(m_path, _sparse_only(300))
        matio.write_matrix(l0_path, np.zeros((300, 300)))
        argv, solve = [], lambda m: estimate_rank_and_solve(m)
    else:
        m_path, l0_path = _synth_files(tmp_path)
        if method == "adm":
            argv, solve = ["--method", "adm"], lambda m: solve_pcp(m, AdmConfig())
        else:
            argv = ["--rank-hint", "2"]
            solve = lambda m: estimate_rank_and_solve(m, FilterConfig(rank_hint=2))
    if truth:
        argv += ["--truth", str(l0_path)]
    out_l, out_s = tmp_path / "l.dmat", tmp_path / "s.dmat"
    m = matio.read_matrix(m_path)
    # several row blocks, the last one short
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 7 * m.shape[1] * 8)
    capsys.readouterr()
    assert main(["decompose", str(m_path), "--out-l", str(out_l), "--out-s", str(out_s)]
                + argv) == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    sol = solve(m)
    assert stats["method"] == sol.method
    l, s = matio.read_matrix(out_l), matio.read_matrix(out_s)
    if method == "l1-filter":  # the factors' row blocks against one dense product
        tol = 1e-15 * linf_norm(m)
        assert linf_norm(l - sol.l) <= tol and linf_norm(s - sol.s) <= tol
    else:
        np.testing.assert_array_equal(l, sol.l)
        np.testing.assert_array_equal(s, sol.s)
    dense = _dense_stats(l, s, matio.read_matrix(l0_path) if truth else None)
    assert stats["l0_s"] == dense.pop("l0_s")
    if truth:
        assert stats["max_dif"] == dense.pop("max_dif")
    assert {k: stats[k] for k in dense} == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("ext", ["dmat", "csv"])
def test_decompose_files_are_write_matrix_of_the_factors(tmp_path, capsys, monkeypatch, ext):
    # decompose's output pass and write_matrix walk L and S the same way
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 7 * 200 * 8)  # the last block short
    m_path, _ = _synth_files(tmp_path)
    out_l, out_s = tmp_path / f"l.{ext}", tmp_path / f"s.{ext}"
    assert main(["decompose", str(m_path), "--rank-hint", "2",
                 "--out-l", str(out_l), "--out-s", str(out_s)]) == 0
    sol = estimate_rank_and_factor(matio.read_matrix(m_path), FilterConfig(rank_hint=2))
    assert sol.method == "l1-filter"
    for path, mat in ((out_l, sol.l), (out_s, sol.s)):
        ref = tmp_path / f"ref.{ext}"
        matio.write_matrix(ref, mat)
        assert path.read_bytes() == ref.read_bytes()


def _poisoned_solve(monkeypatch):
    """Make decompose's l1filter solve return an L whose last row is NaN,
    so that only its last row block fails to write."""
    def solve(m, cfg):
        sol = estimate_rank_and_factor(m, cfg)
        sol.l.a[-1] = np.nan
        return sol

    monkeypatch.setattr(cli, "estimate_rank_and_factor", solve)


def _output_argv(tmp_path, bad_flag=None):
    """(decompose output options, their paths): bad_flag's path is in a
    directory that does not exist."""
    paths = {"--out-l": tmp_path / "l.dmat", "--out-s": tmp_path / "s.csv",
             "--stats-json": tmp_path / "stats.json"}
    if bad_flag:
        paths[bad_flag] = tmp_path / "missing" / "out"
    return [a for flag, path in paths.items() for a in (flag, str(path))], paths


@pytest.mark.parametrize("flag", ["--out-l", "--out-s", "--stats-json"])
def test_decompose_unwritable_output_exits_1_before_the_solve(tmp_path, capsys, monkeypatch,
                                                              flag):
    m_path, _ = _synth_files(tmp_path, m=100)

    def no_solve(m, cfg):
        raise AssertionError("the solve started")

    monkeypatch.setattr(cli, "estimate_rank_and_factor", no_solve)
    argv, paths = _output_argv(tmp_path, flag)
    capsys.readouterr()
    assert main(["decompose", str(m_path)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {paths[flag]}: ") and err.count("\n") == 1
    assert not any(path.exists() for path in paths.values())


def test_decompose_failed_write_removes_every_output(tmp_path, capsys, monkeypatch):
    # the first row blocks of L and S are written before the last L block fails
    m_path, _ = _synth_files(tmp_path)
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 7 * 200 * 8)
    _poisoned_solve(monkeypatch)
    argv, paths = _output_argv(tmp_path)
    capsys.readouterr()
    assert main(["decompose", str(m_path), "--rank-hint", "2"] + argv) == 1
    err = capsys.readouterr().err
    assert err == "error: cannot write the decomposition: matrix contains non-finite entries\n"
    assert not any(path.exists() for path in paths.values())


def test_decompose_invalid_option_leaves_no_output(tmp_path, capsys):
    m_path, _ = _synth_files(tmp_path, m=100)
    argv, paths = _output_argv(tmp_path)
    capsys.readouterr()
    assert main(["decompose", str(m_path), "--rank-hint", "0"] + argv) == 3
    assert capsys.readouterr().err == "error: rank_hint must be >= 1\n"
    assert not any(path.exists() for path in paths.values())


def test_decompose_imports_no_masked_arrays(tmp_path):
    # np.setdiff1d imports numpy.ma on first use, a cost every process paid
    m_path, _ = _synth_files(tmp_path, m=100)
    code = ("import sys; from l1pcp.cli import main; "
            f"rc = main(['decompose', {str(m_path)!r}, '--rank-hint', '1']); "
            "sys.exit(10 * ('numpy.ma' in sys.modules) + rc)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()

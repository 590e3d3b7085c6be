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

from l1pcp import cli, matio, synth
from l1pcp.cli import main
from l1pcp.l1filter import FilterConfig, estimate_rank_and_factor, estimate_rank_and_solve
from l1pcp.matcore import frobenius_norm, l0_count, l1_norm, linf_norm
from l1pcp.pcp_adm import AdmConfig, solve_pcp

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
    assert main(["decompose", str(m_path), "--method", "adm",
                 "--out-l", str(l_adm)]) == 0
    capsys.readouterr()
    a = matio.read_matrix(l_filter)
    b = matio.read_matrix(l_adm)
    assert frobenius_norm(a - b) / frobenius_norm(b) <= 1e-4


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


@pytest.fixture(scope="module")
def rank10_dmat(tmp_path_factory):
    """A 1000x1000 rank-10 instance with 1% corruption, as a DMAT file."""
    path = tmp_path_factory.mktemp("rank10") / "m.dmat"
    assert main(["synth", "--m", "1000", "--rho-r", "0.01", "--rho-s", "0.01",
                 "--seed", "3", "--out-m", str(path)]) == 0
    return path


def test_decompose_streams_l_and_s(rank10_dmat, tmp_path, capsys):
    # L and S are written from the factors in row blocks: besides M the
    # process holds a few blocks, not the dense L, S and |S| temporaries
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
    # M itself, then 0.33x M: the filter stage's chunks, or the output
    # pass's two row blocks (1.51x while the finiteness check held an m x n
    # mask and the presolve its own chunk-sized copies)
    assert peak <= 1.45 * nbytes, f"peak {peak / nbytes:.2f}x M.nbytes"


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
    monkeypatch.setattr(matio, "BLOCK_BYTES", 7 * 200 * 8)
    m_path, l0_path = _synth_files(tmp_path)
    assert main(["decompose", str(m_path), "--rank-hint", "2",
                 "--truth", str(l0_path), "--out-l", str(tmp_path / "l.dmat")]) == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    l = matio.read_matrix(tmp_path / "l.dmat")
    l0 = matio.read_matrix(l0_path)
    assert stats["rel_err"] == pytest.approx(synth.rel_err(l, l0), rel=1e-12)
    assert stats["max_dif"] == synth.max_dif(l, l0)
    assert stats["ave_dif"] == pytest.approx(synth.ave_dif(l, l0), rel=1e-12)


def _dense_stats(l, s, l0):
    """decompose's S and truth stats by the dense formulas."""
    errors = ({"rel_err": None, "max_dif": None, "ave_dif": None} if l0 is None else
              {"rel_err": synth.rel_err(l, l0), "max_dif": synth.max_dif(l, l0),
               "ave_dif": synth.ave_dif(l, l0)})
    return {"l1_s": l1_norm(s), "l0_s": l0_count(s), **errors}


@pytest.mark.parametrize("truth", [False, True], ids=["plain", "truth"])
@pytest.mark.parametrize("method", ["l1-filter", "full-pcp-fallback", "adm"])
def test_decompose_output_pass_matches_dense_solve(tmp_path, capsys, monkeypatch, method,
                                                   truth):
    if method == "full-pcp-fallback":  # rank 40 at m=100: the seed grows past half
        m_path, l0_path = tmp_path / "m.dmat", tmp_path / "l0.dmat"
        assert main(["synth", "--m", "100", "--rho-r", "0.4", "--rho-s", "0.01",
                     "--out-m", str(m_path), "--out-l0", str(l0_path)]) == 0
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
    monkeypatch.setattr(matio, "BLOCK_BYTES", 7 * m.shape[1] * 8)
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
    monkeypatch.setattr(matio, "BLOCK_BYTES", 7 * 200 * 8)
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

"""Tests for the benchmark harness plumbing."""

import numpy as np
import pytest

from l1pcp import bench, synth


def test_fit_time_exponent_exact_power_law():
    sizes = [1000, 2000, 4000]
    seconds = [2.0 * (s / 1000) ** 1.5 for s in sizes]
    assert bench.fit_time_exponent(sizes, seconds) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        bench.fit_time_exponent([1000], [1.0])


def test_run_instance_records_errors():
    gt = synth.generate(synth.SynthSpec(m=20, n=20, rho_r=0.05, rho_s=0.0))
    rec, sol = bench.run_instance("no-such-method", gt, 1, 0.0, 1.0, 0)
    assert sol is None
    assert "no-such-method" in rec["error"]
    assert rec["rel_err"] is None
    assert rec["solution_method"] is rec["converged"] is rec["attempts"] is None
    # the JSON report keeps the CSV's column order
    assert list(rec) == bench.CSV_HEADER


def test_run_instance_success_record():
    gt = synth.generate(synth.SynthSpec(m=60, n=60, rho_r=0.05, rho_s=0.02,
                                        rng_seed=1))
    rec, sol = bench.run_instance("adm", gt, 3, 0.02, 1.0, 1)
    assert rec["error"] == ""
    assert rec["rank_l"] == sol.rank_of_l
    assert rec["seconds"] > 0
    assert rec["rel_err"] <= 1e-4
    assert set(rec) == set(bench.CSV_HEADER)
    assert rec["solution_method"] == "adm" and rec["converged"] is True
    assert rec["final_residual"] == sol.final_residual <= 1e-7
    assert rec["attempts"] is None  # solve_pcp samples no seed


def test_l1filter_record_says_what_the_solver_claimed():
    gt = synth.generate(synth.SynthSpec(m=100, n=100, rho_r=0.4, rho_s=0.01, rng_seed=0))
    rec, sol = bench.run_instance("l1filter", gt, 40, 0.01, 1.0, 0)
    assert rec["method"] == "l1filter"
    assert rec["solution_method"] == sol.method == "full-pcp-fallback"
    assert rec["converged"] is sol.converged is True
    assert rec["final_residual"] == sol.final_residual
    assert rec["attempts"] == sol.stats["attempts"] == 3


@pytest.mark.xfail(strict=True, reason="the 10x10 seed of this sparsity-sweep point "
                   "returns RelErr 0.028 with converged=True; a wrong seed is neither "
                   "detected (ROADMAP item 6) nor regrown (ROADMAP item 10)")
def test_sparsity_sweep_rho_s_01_is_exact_or_unconverged():
    gt, r = bench._synth_gt(1000, 0.005, 0.1, 1.0, 0)
    rec, _ = bench.run_instance("l1filter", gt, r, 0.1, 1.0, 0, rank_hint=r)
    assert rec["error"] == ""
    assert rec["rel_err"] <= bench.CONVERGED_WRONG_REL_ERR or not rec["converged"]


def test_summary_counts_converged_wrong_solves(monkeypatch):
    def records(rel_err, converged):
        return {"rel_err": rel_err, "converged": converged}

    def fake_suite(seeds):
        return [records(0.03, True), records(1e-9, True), records(0.4, False),
                records(None, None), records(2e-5, True), records(np.nan, True)], {"m": 10}

    monkeypatch.setitem(bench.SUITES, "fake", fake_suite)
    assert bench.run_suite("fake")["summary"] == {"m": 10, "converged_wrong": 3}


def test_size_sweep_caps_the_adm():
    records, summary = bench.suite_size_sweep(
        scale=0.05, seeds=(0,), methods=("adm",), r=2, adm_max_size=2000)
    assert [(r["method"], r["m"]) for r in records] == [("adm", 50), ("adm", 100)]
    assert all(r["error"] == "" for r in records)
    assert set(summary["exponents"]) == {"adm"}


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        bench.run_suite("bogus")


# (m, r, rho_s, sigma_scale) of each grid suite at a tiny scale, in run order
GRID_POINTS = {
    "table1": (0.025, ("l1filter", "adm"),
               [(50, 0, 0.01, 1.0), (125, 1, 0.01, 1.0), (250, 2, 0.01, 1.0)]),
    "rank-sweep": (0.1, ("l1filter", "adm"),
                   [(100, 0, 0.02, 1.0), (100, 1, 0.02, 1.0), (100, 2, 0.02, 1.0),
                    (100, 3, 0.02, 1.0), (100, 4, 0.02, 1.0), (100, 5, 0.02, 1.0)]),
    "sparsity-sweep": (0.2, ("l1filter", "adm"),
                       [(200, 1, 0.02, 1.0), (200, 1, 0.05, 1.0), (200, 1, 0.1, 1.0),
                        (200, 1, 0.15, 1.0), (200, 1, 0.2, 1.0)]),
    "sigma-sweep": (0.1, ("l1filter",),
                    [(100, 1, 0.01, float(sigma)) for sigma in range(1, 11)]),
}


GRID_DEFAULTS = {
    "table1": (0.25, ("l1filter", "adm")),
    "rank-sweep": (1.0, ("l1filter", "adm")),
    "sparsity-sweep": (1.0, ("l1filter", "adm")),
    "sigma-sweep": (0.5, ("l1filter",)),
}


@pytest.mark.parametrize("name", sorted(GRID_POINTS))
def test_grid_suite_runs_its_grid(name):
    assert bench.GRIDS[name][:2] == GRID_DEFAULTS[name]
    scale, methods, points = GRID_POINTS[name]
    report = bench.run_suite(name, scale=scale, seeds=(0, 1))
    got = [(r["m"], r["r"], r["rho_s"], r["sigma_scale"], r["method"], r["seed"])
           for r in report["records"]]
    assert got == [(*point, method, seed)
                   for point in points for seed in (0, 1) for method in methods]
    assert all(r["error"] == "" for r in report["records"])
    # each seed draws its own instance: ||S||_1 moves far beyond rounding
    l1_s = {}
    for key, r in zip(got, report["records"]):
        l1_s.setdefault(key[:5], set()).add(round(r["l1_s"], 3))
    assert all(len(values) == 2 for values in l1_s.values())


def test_size_sweep_summary_shape():
    records, summary = bench.suite_size_sweep(
        scale=0.05, seeds=(0,), methods=("l1filter",), r=2, adm_max_size=2000)
    assert summary["sizes"] == [50, 100, 200]
    assert "l1filter" in summary["exponents"]
    assert len(records) == 3


def test_csv_report_roundtrip(tmp_path):
    gt = synth.generate(synth.SynthSpec(m=40, n=40, rho_r=0.05, rho_s=0.02))
    rec, _ = bench.run_instance("adm", gt, 2, 0.02, 1.0, 0)
    report = {"environment": bench.environment_info(), "suite": "x",
              "records": [rec], "summary": {}}
    path = tmp_path / "r.csv"
    with open(path, "wb") as fh:
        bench.write_csv_report(fh, report)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(bench.CSV_HEADER)
    assert lines[1].split(",")[0] == "adm"
    row = dict(zip(bench.CSV_HEADER, lines[1].split(",")))
    assert int(row["m"]) == 40
    assert float(row["rel_err"]) == pytest.approx(rec["rel_err"])


@pytest.mark.parametrize("method", ["bogus", "adm-partial"])
def test_run_suite_rejects_an_unknown_method_before_solving(monkeypatch, method):
    def forbidden(*args, **kwargs):
        raise AssertionError("run_suite solved before it checked the methods")

    monkeypatch.setattr(bench, "run_instance", forbidden)
    with pytest.raises(ValueError, match="unknown method"):
        bench.run_suite("checkerboard", scale=0.125, methods=("l1filter", method))


def test_run_suite_forwards_its_methods(monkeypatch):
    solved = []

    def record(method, *args, **kwargs):
        solved.append(method)
        return {"method": method, "converged": True, "rel_err": 0.0}, None

    monkeypatch.setattr(bench, "run_instance", record)
    report = bench.run_suite("checkerboard", scale=0.1, seeds=(0, 1), methods=["adm"])
    assert solved == ["adm", "adm"]
    assert [r["method"] for r in report["records"]] == solved


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
def test_run_suite_rejects_a_bad_scale_before_solving(monkeypatch, scale):
    # --scale 0 used to solve an 8x8 checkerboard of 1-pixel cells
    def forbidden(*args, **kwargs):
        raise AssertionError("run_suite solved before it checked the scale")

    monkeypatch.setattr(bench, "run_instance", forbidden)
    with pytest.raises(ValueError, match="scale must be finite and > 0"):
        bench.run_suite("checkerboard", scale=scale)


@pytest.mark.parametrize("seeds", [(), range(0), range(-2)])
def test_run_suite_rejects_no_seeds_before_solving(monkeypatch, seeds):
    # --seeds 0 wrote a report with no records and exited 0
    def forbidden(*args, **kwargs):
        raise AssertionError("run_suite solved before it checked the seeds")

    monkeypatch.setattr(bench, "run_instance", forbidden)
    with pytest.raises(ValueError, match="seeds must hold at least one seed"):
        bench.run_suite("checkerboard", scale=0.1, seeds=seeds)


@pytest.mark.parametrize("scale, m, cell", [
    (0.1, 48, 6), (0.125, 64, 8), (0.3, 152, 19), (0.7, 360, 45), (1.0, 512, 64)])
def test_checkerboard_suite_keeps_whole_cells_at_every_scale(scale, m, cell):
    # eight cells of the scaled size per side; rounding the cell to
    # m // (m // cell) gave cell 6 for m = 51, which does not divide it
    records, summary = bench.suite_checkerboard(scale=scale, methods=())
    assert records == [] and (summary["m"], summary["cell"]) == (m, cell)
    assert m % cell == 0
    assert np.linalg.matrix_rank(synth.checkerboard(m, cell)) == 2

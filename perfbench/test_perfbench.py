"""Self-test of the benchmark on tiny instances (a few seconds):

    python3 -m pytest -q perfbench

It checks that a wrong answer is counted as a failed operation, that the
span wrappers nest, restore the original bindings and report removed
functions as absent, and that both output modes print exactly the metrics
BENCHMARK.json declares.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

l1pcp = run.import_program()

import numpy as np  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"tiny-filter": {"kind": "l1filter", "m": 80, "rank": 2, "rho_s": 0.01, "rank_hint": 2,
                        "instances": 1, "tolerance": 1e-06, "why": "self-test"},
        "tiny-adm": {"kind": "adm", "m": 40, "rank": 2, "rho_s": 0.01, "rank_hint": None,
                     "instances": 2, "tolerance": 1e-05, "why": "self-test"}}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    for name, wl in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, wl)


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def tiny_instance():
    return run.make_instances(l1pcp, np, TINY["tiny-filter"], 3, None)[0]


def test_check_accepts_truth_and_rejects_wrong_answers():
    inst = tiny_instance()
    s0 = inst.m - inst.l0
    assert run.check(np, inst, inst.l0, s0, inst.rank, 1e-6)[1] is None
    wrong = inst.l0 * (1 + 1e-4)
    assert "rel_err(L)" in run.check(np, inst, wrong, inst.m - wrong, inst.rank, 1e-6)[1]
    assert "rel_err(S)" in run.check(np, inst, inst.l0, s0 * 1.01, inst.rank, 1e-6)[1]
    assert "rank" in run.check(np, inst, inst.l0, s0, inst.rank + 1, 1e-6)[1]
    bad = inst.l0.copy()
    bad[0, 0] = np.nan
    assert run.check(np, inst, bad, s0, inst.rank, 1e-6)[1] == "non-finite output"


@pytest.mark.parametrize("workload", sorted(TINY))
def test_correct_solver_passes(capsys, workload):
    out = bench(capsys, workload)
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] == 1 + run.MIN_CYCLES * TINY[workload]["instances"]


def test_wrong_low_rank_part_counts_as_failed(capsys, monkeypatch):
    solve = l1pcp.l1filter.estimate_rank_and_solve

    def sabotaged(m, cfg=None):
        sol = solve(m, cfg)
        sol.l = sol.l + 1e-3 * np.abs(sol.l).max()
        return sol

    monkeypatch.setattr(l1pcp.l1filter, "estimate_rank_and_solve", sabotaged)
    out = bench(capsys, "tiny-filter")
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] == 1 + run.MIN_CYCLES


def test_untraced_run_prints_the_declared_end_to_end_metrics(capsys):
    out = bench(capsys, "tiny-filter")
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_prints_the_declared_per_layer_metrics(capsys, workload):
    out = bench(capsys, workload, trace=1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert abs(m["trace.unattributed_frac"]) < 0.05
    if workload == "tiny-adm":
        assert m["l1reg.s"] == 0 and m["pcp_adm.calls"] == 1
    else:
        assert m["l1reg.calls"] == 2 and m["l1filter.attempts"] == 1
    assert m["matio.read_bytes"] == 0


def test_spans_nest_and_self_times_add_up():
    rec = spans.Recorder()
    rec.install()
    try:
        root = rec.open("bench.op")
        sol = l1pcp.l1filter.estimate_rank_and_solve(
            tiny_instance().m, l1pcp.FilterConfig(rank_hint=2))
        rec.close(root)
    finally:
        rec.uninstall()
    inner = spans.descendants(rec.spans, [root.id])
    own = spans.self_times(rec.spans)
    assert sum(own[s.id] for s in inner) + own[root.id] == pytest.approx(root.duration)
    names = {s.name for s in inner}
    assert {"l1filter.recover_seed", "pcp_adm.solve_pcp", "matcore.svd",
            "l1reg.solve_l1reg_columnwise", "l1reg.solve_l1reg"} <= names
    assert sol.rank_of_l == 2


def test_uninstall_restores_every_binding():
    before = {(mod, attr): getattr(mod, attr)
              for mod in (l1pcp.l1filter, l1pcp.pcp_adm, l1pcp.matcore, l1pcp.cli, l1pcp)
              for attr in ("svd", "svt_with_rank", "as_dense", "solve_pcp",
                           "solve_l1reg_columnwise", "estimate_rank_and_solve", "l1_norm")
              if hasattr(mod, attr)}
    rec = spans.Recorder()
    rec.install()
    assert l1pcp.l1filter.svd is not before[(l1pcp.l1filter, "svd")]
    assert l1pcp.cli.l1_norm is not l1pcp.matcore.l1_norm  # cli.stats wraps cli only
    rec.uninstall()
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in before.items())


def test_removed_function_is_reported_absent_not_zero():
    targets = spans.TARGETS + (
        spans.Target("l1reg.gone", "l1pcp.l1reg", "no_such_function"),)
    rec = spans.Recorder()
    rec.install(targets)
    rec.uninstall()
    assert rec.absent == {"l1reg.gone"}
    root = spans.Span(1, "bench.op", 0.0, 1.0, None)
    metrics = spans.layer_metrics([root], [root],
                                  absent={"l1reg.solve_l1reg_columnwise"})
    assert "l1reg.calls" not in metrics
    assert metrics["l1reg.chunks"] == 0 and "l1reg.s" in metrics

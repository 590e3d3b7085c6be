"""The public boundary: what the package root exports, and the input
checks of the entry points that take a matrix from the caller."""

import numpy as np
import pytest

import l1pcp
from l1pcp.l1filter import FilterConfig, estimate_rank_and_factor, estimate_rank_and_solve
from l1pcp.l1reg import solve_l1reg_columnwise
from l1pcp.pcp_adm import solve_pcp

# the root API that README's "Library use" lists
ROOT_API = {
    "FilterConfig", "estimate_rank_and_solve", "estimate_rank_and_factor",
    "LowRank", "Remainder", "PcpSolution", "AdmConfig", "solve_pcp",
    "default_lambda", "PcpDivergenceError", "solve_l1reg_columnwise", "L1RegSolution",
    "SkinnySvd", "SvdConvergenceError", "svd",
    "frobenius_norm", "l1_norm", "linf_norm", "l0_count",
    "SynthSpec", "GroundTruth", "generate", "corrupt_impulsive", "checkerboard",
    "rel_err", "max_dif", "ave_dif",
}
# pipeline stages, the l1-regression chunk kernel, the input check and the
# test oracles: internal, or moved into the tests
NOT_AT_ROOT = {
    "sample_submatrix", "recover_seed", "SeedRecovery", "filter_columns", "filter_rows", "nystrom_complete", "assemble",
    "solve_l1reg", "as_dense", "nystrom_complete_via_pinv", "pseudo_inverse_apply",
    "svt", "soft_threshold", "nuclear_norm",
}


def test_package_root_exports_the_documented_api():
    assert not ROOT_API - set(dir(l1pcp))
    assert not NOT_AT_ROOT & set(dir(l1pcp))


def _low_rank(n=40):
    rng = np.random.default_rng(0)
    return rng.standard_normal((n, 2)) @ rng.standard_normal((n, 2)).T


def _l1reg(m):
    a = np.linalg.qr(np.random.default_rng(1).standard_normal((m.shape[0], 2)))[0]
    return solve_l1reg_columnwise(m, a)


ENTRY_POINTS = {
    "estimate_rank_and_factor": lambda m: estimate_rank_and_factor(m, FilterConfig(rank_hint=2)),
    "estimate_rank_and_solve": lambda m: estimate_rank_and_solve(m, FilterConfig(rank_hint=2)),
    "solve_pcp": solve_pcp,
    "solve_l1reg_columnwise": _l1reg,
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_entry_rejected(entry, value):
    m = _low_rank()
    m[-1, -1] = value
    with pytest.raises(ValueError, match="non-finite"):
        ENTRY_POINTS[entry](m)


def test_l1reg_rejects_x_without_rows():
    # an X with rows but no columns is solved (test_l1reg's
    # test_zero_and_empty_inputs); one with no rows is not
    with pytest.raises(ValueError, match="X has no rows"):
        solve_l1reg_columnwise(np.zeros((0, 5)), np.zeros((0, 0)))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
@pytest.mark.parametrize("entry", ["estimate_rank_and_factor", "estimate_rank_and_solve",
                                   "solve_pcp"])
def test_empty_matrix_rejected(entry, shape):
    with pytest.raises(ValueError, match="nonempty"):
        ENTRY_POINTS[entry](np.zeros(shape))

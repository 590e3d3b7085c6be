"""Robust PCA toolkit: principal component pursuit by reference ADM and by
the linear-time l1-filtering pipeline, with synthetic data generators and a
benchmark harness."""

from .matcore import (
    InputError,
    SkinnySvd,
    SvdConvergenceError,
    frobenius_norm,
    l0_count,
    l1_norm,
    linf_norm,
    svd,
)
from .pcp_adm import AdmConfig, PcpDivergenceError, PcpSolution, default_lambda, solve_pcp
from .l1reg import L1RegSolution, solve_l1reg_columnwise
from .l1filter import (
    FilterConfig,
    LowRank,
    Remainder,
    estimate_rank_and_factor,
    estimate_rank_and_solve,
)
from .synth import (
    GroundTruth,
    SynthSpec,
    ave_dif,
    checkerboard,
    corrupt_impulsive,
    generate,
    max_dif,
    rel_err,
)

__version__ = "0.1.0"

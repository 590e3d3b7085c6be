"""Reference ADM solver for principal component pursuit:

    min ||L||_* + lambda * ||S||_l1   s.t.   M = L + S

Alternates a soft-threshold update of S, a singular-value-threshold update
of L, then the multiplier and penalty updates, until the relative Frobenius
residual ||M - L - S||_F / ||M||_F drops below tol.

Each iteration makes one matcore.svt_with_rank call. By default it takes a
full SVD, as in the paper's reference solver. With rank_adaptive=True it is
given the previous SVT's V_k and tries a certified partial SVD sized by the
previous iterate's rank first (see solve_pcp).

The working set is L, S, the multiplier Y and one work buffer, each the
size of M. S, Y and the work buffer are updated in place and W = M - S +
Y/beta is formed in L's buffer. Each SVT adds LAPACK's U and V^T (2x M for
a square M) while it runs, copies only their retained columns, and
allocates the new L after they are freed; the full-SVD path drops the
retained U_k and V_k once it has read the rank, so they are not held into
the next SVD. numpy's allocations peak at about
6x M on top of M; LAPACK's own copy of W and its workspace, which numpy does
not allocate, come on top of that.

A solve can be resumed: its solution carries the multiplier, the penalty and
the last SVT's factors (AdmState), and solve_pcp(m, cfg, resume=sol) takes
the next steps from there. The iterates never read tol, only the stopping
test does, so a solve resumed at a tighter tol is bit for bit one solve at
that tol.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    SkinnySvd,
    _soft_threshold_into,
    as_dense,
    frobenius_norm,
    svt_with_rank,
)


class PcpDivergenceError(RuntimeError):
    """The iteration produced non-finite values."""


@dataclass
class AdmConfig:
    """Hyperparameters for the ADM solvers.

    lam=None picks 1/sqrt(max(m, n)). The penalty is not a setting:
    solve_pcp starts it at beta0 = 1.25 over a power-iteration estimate of
    the spectral norm and caps it at 1e7 * beta0; the l1-regression solver
    starts column j at beta0_j = 1 / ||x_j||_inf and caps it at
    beta0_j / tol, which is the same 1e7 * beta0_j at the default tol.
    """

    lam: float | None = None
    tol: float = 1e-7
    rho: float = 1.5
    max_iter: int = 1000

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not 1 < self.rho < math.inf:
            raise ValueError("rho must be finite and > 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.tol < math.inf:
            raise ValueError("tol must be finite")


@dataclass(frozen=True)
class AdmState:
    """Where an ADM solve stopped, enough to take its next step.

    y is the multiplier, beta the penalty of the last step, iterations the
    steps taken so far in all. svt holds the last SVT's factors
    (U, Sigma - eta, V) on the rank-adaptive path, so that U diag(Sigma - eta)
    V^T is the returned L; the full-SVD path leaves it None.
    """

    y: np.ndarray
    beta: float
    beta_max: float
    lam: float
    iterations: int
    svt: SkinnySvd | None = None


@dataclass
class PcpSolution:
    """A recovered decomposition M = L + S with its diagnostics.

    final_residual certifies the solve. For solve_pcp (and the l1-filter's
    full-pcp-fallback) it is ||M - L - S||_F / ||M||_F at the last
    iterate. For the l1-filter pipeline, where S = M - L holds by
    construction, it is the largest of the seed PCP's relative Frobenius
    residual and the relative linf constraint residuals
    ||M_c - U Q - E_c||_inf / ||M_c||_inf and ||M_r - P^T V^T - E_r||_inf /
    ||M_r||_inf of the column and row filters; a converged solve keeps it
    at about the solver tolerance, an unconverged one shows a larger value.
    The degenerate-zero-seed path returns L = 0 and reports
    lambda * ||sign(M)||_2: (0, M) is optimal when it is at most 1, and the
    path counts as converged only at 0.9 or below, a margin for the
    power-iteration estimate of the norm.

    state is what solve_pcp(m, cfg, resume=sol) needs to continue the solve
    (see AdmState); solves that return early (a zero M, the pipeline's
    l1-filter and zero-seed paths) leave it None.
    """

    l: np.ndarray
    s: np.ndarray
    iterations: int
    final_residual: float
    rank_of_l: int
    elapsed: float
    converged: bool
    method: str = "adm"
    stats: dict = field(default_factory=dict)
    state: AdmState | None = None


def default_lambda(m_rows, m_cols):
    """The exact-recovery weight 1/sqrt(max(m, n))."""
    if m_rows < 1 or m_cols < 1:
        raise ValueError("matrix dimensions must be >= 1")
    return 1.0 / math.sqrt(max(m_rows, m_cols))


def spectral_norm_estimate(m):
    """Power-iteration estimate of the largest singular value, from 25 steps.

    Deterministic: starts from the all-ones vector.
    """
    m = np.asarray(m, dtype=np.float64)
    v = np.ones(m.shape[1]) / math.sqrt(m.shape[1])
    sigma = 0.0
    for _ in range(25):
        w = m @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = m.T @ (w / nw)
        sigma = np.linalg.norm(v)
        if sigma == 0:
            return 0.0
        v /= sigma
    return float(sigma)


def solve_pcp(m, cfg=None, rank_adaptive=False, resume=None):
    """Solve PCP by ADM. Returns a PcpSolution; converged=False flags
    max_iter exhaustion with final_residual above tol.

    rank_adaptive=False (the default) is the paper's ADM: every iteration
    thresholds a full SVD. It stays the default because it is the reference
    the l1-filter pipeline is measured against.

    rank_adaptive=True passes each SVT the previous one's right singular
    vectors, so that from the second iteration on svt_with_rank replaces
    the full SVD by a randomized range finder sized by the previous
    iterate's SVT rank k: a sketch of k + max(10, k // 2) columns whose
    first k are the previous right singular vectors (a warm start) and the
    rest a fixed-seed Gaussian draw, so solves stay deterministic. A
    Rayleigh-Ritz step gives the singular triplets above the threshold,
    which are accepted only when max|W V_k - U_k Sigma_k| <= 1e-14 sigma_1
    holds, after up to eight power steps. The SVT falls back to the full
    SVD when there is no rank guess (the first iteration, or rank 0), when
    the sketch would exceed a quarter of min(m, n), when every sketched
    value survives the threshold, or when the certificate is never met. The l1-filter pipeline solves its
    seeds and its full-pcp-fallback this way, and its state then carries
    the last SVT's factors.

    resume=sol continues an earlier solve of the same m from sol.state. It
    keeps that solve's lambda and penalty schedule, takes tol, rho and
    max_iter from cfg, counts max_iter over both calls, and reports in
    iterations only the steps it took itself; L, S and the total step count
    equal those of one solve at cfg.tol bit for bit.
    """
    t0 = time.perf_counter()
    m = as_dense(m)
    if m.size == 0:
        raise ValueError("matrix must be nonempty")
    cfg = cfg or AdmConfig()
    if resume is not None and resume.state is None:
        raise ValueError("resume needs a solution that carries its ADM state")

    norm_m = frobenius_norm(m)
    if norm_m == 0.0:
        return PcpSolution(
            l=np.zeros_like(m), s=np.zeros_like(m), iterations=1,
            final_residual=0.0, rank_of_l=0,
            elapsed=time.perf_counter() - t0, converged=True,
        )

    if resume is None:
        lam = cfg.lam if cfg.lam is not None else default_lambda(*m.shape)
        beta = 1.25 / max(spectral_norm_estimate(m), np.finfo(float).tiny)
        beta_max = 1e7 * beta
        l = np.zeros_like(m)
        s = np.zeros_like(m)
        y = np.zeros_like(m)
        rank_l, factors, residual, done = 0, None, 1.0, 0
    else:
        st = resume.state
        lam, beta, beta_max, done = st.lam, st.beta, st.beta_max, st.iterations
        # the loop writes in place: copy, so that the earlier solution stays
        l, s, y = resume.l.copy(), resume.s.copy(), st.y.copy()
        rank_l, residual = resume.rank_of_l, resume.final_residual
        factors = st.svt if rank_adaptive else None
    # a resumed iterate that already meets cfg.tol takes no step, as one
    # solve at cfg.tol would have stopped there
    stop = done if resume is not None and residual <= cfg.tol else cfg.max_iter
    iters = done
    work = np.empty_like(m)

    for iters in range(done + 1, stop + 1):
        if iters > 1:
            beta = min(cfg.rho * beta, beta_max)
        # S = shrink(M - L + Y/beta, lam/beta) in s; the old L is not read
        # again, so l is the shrink's scratch and work keeps Y/beta
        np.subtract(m, l, out=s)
        np.divide(y, beta, out=work)
        np.add(s, work, out=s)
        _soft_threshold_into(s, lam / beta, l)
        # L = SVT(M - S + Y/beta, 1/beta), with W formed in l's buffer
        np.subtract(m, s, out=l)
        np.add(l, work, out=l)
        l, factors = svt_with_rank(l, 1.0 / beta, None if factors is None else factors.v)
        rank_l = factors.rank
        if not rank_adaptive:
            factors = None  # not held into the next SVD, nor returned
        # R = M - L - S, then beta * R, in work
        np.subtract(m, l, out=work)
        np.subtract(work, s, out=work)
        residual = frobenius_norm(work) / norm_m
        if not np.isfinite(residual):
            raise PcpDivergenceError(
                f"non-finite residual at iteration {iters} (beta={beta:.3g})"
            )
        y += np.multiply(beta, work, out=work)
        if residual <= cfg.tol:
            break

    # iters is 0 only at max_iter=0; a resumed call that took no step
    # judges the iterate it was given
    converged = iters > 0 and residual <= cfg.tol
    return PcpSolution(
        l=l, s=s, iterations=iters - done, final_residual=residual,
        rank_of_l=rank_l, elapsed=time.perf_counter() - t0,
        converged=converged, stats={"beta_final": beta, "lambda": lam},
        state=AdmState(y=y, beta=beta, beta_max=beta_max, lam=lam,
                       iterations=iters, svt=factors),
    )

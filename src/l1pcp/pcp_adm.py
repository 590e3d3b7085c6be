"""Reference ADM solver for principal component pursuit:

    min ||L||_* + lambda * ||S||_l1   s.t.   M = L + S

Alternates a soft-threshold update of S, a singular-value-threshold update
of L, then the multiplier and penalty updates, until the relative Frobenius
residual ||M - L - S||_F / ||M||_F drops below tol.

Each iteration makes one matcore.svt_with_rank call, handed the previous
SVT's factors: a certified partial SVD warm-started from them, in the style
of IALM (Lin, Chen & Ma, arXiv:1009.5055), with the partial SVD started from
the eigenvectors of W's Gram matrix as the cold start and LAPACK's full SVD
as the one fallback (see solve_pcp). The first steps' SVTs, whose
threshold exceeds every singular value, are certified 0 by a Cholesky
factorization of the Gram matrix's shift.

The penalty starts at beta0 = 1.25 / ||M||_2, estimated by
spectral_norm_estimate, whose power steps read M's matcore.row_blocks in
place; the zero-seed certificate of the l1-filter pipeline takes the same
walk over sign(M), formed one block at a time.

The working set is L, S and the multiplier Y, each the size of M. S and Y
are updated in place. A step takes Y/beta once into a transient C, forms
T = M - L + C in S's buffer and clip(T, -lam/beta, lam/beta) in C, then
S = T - C and, in the old L's buffer, W = M - S + Y/beta = L + C; C is
freed before the SVT, and R = M - L - S and beta R fill W's buffer after
it. So an SVT holds only W, S and Y besides its own arrays, and allocates
the new L only after they are freed:
- the Gram start holds W scaled by a power of two and the Gram matrix
  while it forms it, then the Gram matrix and its Cholesky factor while it
  tests for rank 0, and, when that test is declined, the Gram matrix and
  its eigenvectors while eigh runs (2x M for a square M each time), then
  keeps p eigenvectors of them;
- the full SVD holds LAPACK's U and V^T (2x M for a square M), of which it
  copies only the retained columns;
- the warm start holds only thin sketches.
Only the last SVT's thin factors are held into the next one. numpy's
allocations peak at about 5x M on top of M on a step that takes the Gram
start or the full SVD, and at about 4x M on a resumed solve whose steps
all take the warm start; LAPACK's own copies and workspace, which numpy
does not allocate, come on top of that.

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
    as_dense,
    frobenius_norm,
    linf_norm,
    row_blocks,
    svt_with_rank,
)


# The stopping test divides two Frobenius norms, each the square root of a
# sum of squares, so solve_pcp takes only an M whose squares stay in range:
# the residual's, about min(tol, eps) max|M|, must square above the
# smallest normal number, and ||M||_F^2 must stay a factor 1/eps^2 below
# overflow, which leaves the iterates room to exceed M.
_EPS = np.finfo(float).eps
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)     # about 1.5e-154
_MAX_NORM = math.sqrt(np.finfo(float).max) * _EPS  # about 3.0e138
_SVT_PATHS = ("warm", "zero", "gram", "svd")  # svt_with_rank's, as solve_pcp counts them


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
    (U, Sigma - eta, V), so that U diag(Sigma - eta) V^T is the returned L;
    it is None only when no step was taken.
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


def spectral_norm_estimate(m, sign=False):
    """Power-iteration estimate of the largest singular value of M, or of
    sign(M) with sign=True, from 25 steps.

    Deterministic: starts from the all-ones vector. On a matrix whose rows
    sum to zero that start vanishes, M 1 = 0, and the iteration starts over
    from a fixed-seed Gaussian vector, so that the estimate is 0 only for a
    zero M; every other M keeps the all-ones iterates.

    Each step is one walk over M's matcore.row_blocks that sums B^T t and
    ||t||^2 for t = B v over the blocks B of 2^-e M, or of sign(M), which
    are M^T M v and ||M v||^2; the estimate is ||M^T M v|| / ||M v|| for
    the last unit iterate v. The dense walk reads M_b in place and scales
    the vectors, t = M_b (2^-e v) and B^T t = M_b^T (2^-e t), bit for bit
    the same while no scaled entry underflows; the sign walk forms sign(M_b)
    in one buffer, once for all 25 steps when one block covers M. So neither
    2^-e M nor sign(M) is held whole.

    2^-e is the power of two that brings max|M| into [1, 2), and the
    estimate is scaled back by 2^e. A power of two scales exactly, so the
    estimate of 2^k M is 2^k times that of M, and it holds at scales whose
    squares would overflow or underflow. A sign matrix is not scaled.
    """
    m = np.asarray(m, dtype=np.float64)
    peak = linf_norm(m)
    if peak == 0.0:
        return 0.0
    e = 0 if sign else math.frexp(peak)[1] - 1
    n = m.shape[1]
    slices = row_blocks(m.shape)
    buf = np.empty((slices[0].stop, n)) if sign else None  # the first is the largest

    def block(rows):
        return np.sign(m[rows], out=buf[:rows.stop - rows.start]) if sign else m[rows]

    kept = block(slices[0]) if sign and len(slices) == 1 else None
    # the all-ones start, then the Gaussian one if an iterate vanished
    for restart in (False, True):
        v = np.random.default_rng(0).standard_normal(n) if restart else np.ones(n)
        v /= np.linalg.norm(v)
        for _ in range(25):
            u, t2, v_e = np.zeros(n), 0.0, np.ldexp(v, -e)
            for rows in slices:
                b = block(rows) if kept is None else kept
                t = b @ v_e
                u += b.T @ np.ldexp(t, -e)
                t2 += float(t @ t)
            if t2 == 0.0:
                break
            v = u / math.sqrt(t2)
            sigma = float(np.linalg.norm(v))
            if sigma == 0.0:
                break
            v /= sigma
        else:
            return float(np.ldexp(sigma, e))
    return 0.0


def solve_pcp(m, cfg=None, resume=None):
    """Solve PCP by ADM. Returns a PcpSolution; converged=False flags
    max_iter exhaustion with final_residual above tol.

    Each SVT is handed the previous one's factors (see svt_with_rank). From
    the second step on it tries a partial SVD sketched from the previous
    right singular vectors and a fixed-seed Gaussian draw, so solves stay
    deterministic; the draw is kept from one warm start to the next of the
    same width, and only within this call. The partial SVD is accepted only
    under a residual certificate of 1e-14 sigma_1. The Gram start is the
    cold start, for the first step and any warm sketch that is not
    certified, and LAPACK's full SVD the one fallback, taken at once when
    the previous rank is too wide for a sketch. The l1-filter pipeline's
    seed and fallback PCPs are this solve.

    stats counts the SVTs by where their factors came from: svt_warm (the
    warm start), svt_zero (a Gram start that certified no singular value
    above the threshold, as the first steps' SVTs do), svt_gram (the other
    Gram starts) and svt_svd (the full SVD); a zero M takes no SVT, and
    every count is 0.

    resume=sol continues an earlier solve of the same m from sol.state. It
    keeps that solve's lambda and penalty schedule, takes tol, rho and
    max_iter from cfg, counts max_iter over both calls, and reports in
    iterations only the steps it took itself; L, S and the total step count
    equal those of one solve at cfg.tol bit for bit.

    A nonzero M whose scale the stopping test cannot resolve raises
    ValueError: max|M| min(tol, eps) must be at least sqrt(tiny), about
    1.5e-154, and sqrt(mn) max|M| at most eps sqrt(max), about 3.0e138.
    Rescale such an M first.
    """
    t0 = time.perf_counter()
    m = as_dense(m)
    if m.size == 0:
        raise ValueError("matrix must be nonempty")
    cfg = cfg or AdmConfig()
    if resume is not None and resume.state is None:
        raise ValueError("resume needs a solution that carries its ADM state")

    peak = linf_norm(m)
    if peak == 0.0:
        return PcpSolution(
            l=np.zeros_like(m), s=np.zeros_like(m), iterations=1,
            final_residual=0.0, rank_of_l=0,
            elapsed=time.perf_counter() - t0, converged=True,
            stats={f"svt_{path}": 0 for path in _SVT_PATHS},
        )
    if not (peak * min(cfg.tol, _EPS) >= _SQRT_TINY
            and peak * math.sqrt(m.size) <= _MAX_NORM):
        raise ValueError(
            f"max|M| = {peak:.3g} of a {m.shape[0]}x{m.shape[1]} PCP input is out of "
            f"the range its stopping test resolves at tol {cfg.tol:.3g}; rescale the matrix"
        )
    norm_m = frobenius_norm(m)

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
        factors = st.svt
    # a resumed iterate that already meets cfg.tol takes no step, as one
    # solve at cfg.tol would have stopped there
    stop = done if resume is not None and residual <= cfg.tol else cfg.max_iter
    iters = done
    paths = dict.fromkeys(_SVT_PATHS, 0)
    draws = {}  # the warm starts' Gaussian draw, for this solve only

    for iters in range(done + 1, stop + 1):
        if iters > 1:
            beta = min(cfg.rho * beta, beta_max)
        # T = M - L + Y/beta in s, c = clip(T), S = T - c, which is rounded as
        # sgn(T) (|T| - lam/beta) where nonzero and is +0.0 elsewhere, and
        # W = M - S + Y/beta = L + c in the old L's buffer
        c = np.divide(y, beta)
        np.subtract(m, l, out=s)
        np.add(s, c, out=s)
        np.clip(s, -lam / beta, lam / beta, out=c)
        np.subtract(s, c, out=s)
        w = np.add(l, c, out=l)
        del c  # not held into the SVT
        l, factors = svt_with_rank(w, 1.0 / beta, None if factors is None else factors.v,
                                   paths=paths, draws=draws)
        rank_l = factors.rank
        # R = M - L - S, then beta * R, in W's buffer, dead once the SVT ran
        np.subtract(m, l, out=w)
        np.subtract(w, s, out=w)
        residual = frobenius_norm(w) / norm_m
        if not np.isfinite(residual):
            raise PcpDivergenceError(
                f"non-finite residual at iteration {iters} (beta={beta:.3g})"
            )
        y += np.multiply(beta, w, out=w)
        del w  # not held into the next iteration's SVT
        if residual <= cfg.tol:
            break

    # iters is 0 only at max_iter=0; a resumed call that took no step
    # judges the iterate it was given
    converged = iters > 0 and residual <= cfg.tol
    return PcpSolution(
        l=l, s=s, iterations=iters - done, final_residual=residual,
        rank_of_l=rank_l, elapsed=time.perf_counter() - t0,
        converged=converged,
        stats={"beta_final": beta, "lambda": lam,
               **{f"svt_{path}": n for path, n in paths.items()}},
        state=AdmState(y=y, beta=beta, beta_max=beta_max, lam=lam,
                       iterations=iters, svt=factors),
    )

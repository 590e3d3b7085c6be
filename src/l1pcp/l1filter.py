"""Linear-time principal component pursuit by l1 filtering.

Pipeline: sample a small seed submatrix, recover it exactly with the
reference ADM solver, and express the aligned column and row blocks in the
seed's column/row subspaces via l1 regression. The filters take those
blocks one CHUNK_COLS-wide chunk at a time, gathered straight from M, so
they hold O(s CHUNK_COLS) of block data for an s-row seed besides their
r' x n coefficients, whatever the size of M. Each chunk is one
solve_l1reg_columnwise call: l1reg's certified exact-fit presolve solves a
column by a least-squares fit on the rows off its detected support S when
|S| <= r' with at least 2 r' rows left, the fit meets the ADM's stopping
rule on those rows, and a least-squares dual certificate proves it an l1
minimizer; the ADM solves the columns it leaves, possibly none. With the
seed's SVD U Sigma V^T, the column coefficients Q and the row coefficients
P, the generalized Nystrom formula gives all of L as one outer product

    L = A B^T,   A = [U Sigma; P^T],   B = [V; (Sigma^{-1} Q)^T],

where A's blocks sit at the seed rows and the other rows, and B's at the
seed columns and the other columns. A and B take O(r'(m+n)) work to form;
L = A B^T and S = M - L are the only O(mn) steps after filtering.

The solve comes in two steps. estimate_rank_and_factor stops at the factors:
on the l1-filter path it returns L as LowRank(A, B) and S as Remainder(M, L),
row-sliceable stand-ins whose L[rows] is A[rows] B^T and S[rows] is
M[rows] - L[rows], so a caller that streams L and S in row blocks (the
decompose CLI) never holds a dense m x n L or S; rows_into forms a block
into the caller's buffer, so one buffer serves every block.
estimate_rank_and_solve follows it with assemble, one A B^T and one
subtraction, and returns dense L and S. The full-pcp-fallback and
degenerate-zero-seed paths return dense arrays from either function;
ndarrays slice into rows the same way.

estimate_rank_and_factor is one seed-attempt loop. From r = rank_hint or
1, each pass proposes an s_r r x s_c r seed, leaves with none once that
exceeds MAX_SEED_FRACTION of either side, samples and recovers the seed,
and accepts it when its recovered rank r' fits the oversampling, or else
grows r <- max(r', r + 1). One branch then builds the solution: no seed
solves all of M by PCP (full-pcp-fallback), r' = 0 returns L = 0
(degenerate-zero-seed), and any other seed is filtered (l1-filter).

Only the seed that passes the oversampling check is polished: its PCP is
resumed from the same iterate until it reaches SEED_TOL_RATIO times the
filter tolerance, so that the seed's subspace error stays below the
threshold at which each filtered column stops. Seeds rejected for an
undersized rank are never polished, since a tight solve of a rank-deficient
block can take many times the steps of the accepted one.

Input is checked at the public boundary: estimate_rank_and_factor (and
through it estimate_rank_and_solve) rejects a matrix that is not 2-D, is
empty or holds NaN or Inf, and solve_pcp and solve_l1reg_columnwise check
what they are given. sample_submatrix, recover_seed, nystrom_complete and
assemble take trusted float64 arrays cut from that checked matrix and check
nothing again; filter_columns and filter_rows hand each chunk to
solve_l1reg_columnwise, which checks it and its basis once more.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

# svd is unused here, but perfbench's self-test reads the l1filter.svd binding
from .matcore import SkinnySvd, as_dense, linf_norm, svd  # noqa: F401
from .l1reg import CHUNK_COLS, solve_l1reg_columnwise
from .pcp_adm import (
    AdmConfig,
    PcpSolution,
    default_lambda,
    solve_pcp,
    spectral_norm_estimate,
)

SEED_RANK_TOL = 1e-6

# A seed larger than this share of either side hands over to a full PCP solve.
MAX_SEED_FRACTION = 0.5

# The pipeline's internal solves run tighter than the standalone solver
# default: seed errors are amplified by the inverted seed spectrum in the
# completion step, so headroom here is cheap insurance on seed-sized blocks.
PIPELINE_TOL = 1e-9

# The accepted seed's PCP is resumed to adm.tol * SEED_TOL_RATIO. Solved
# only to PIPELINE_TOL, a seed leaves the planted L's columns off span(U_s)
# by up to 1.8e-8 * ||x_j||_inf (median 3.7e-10; 2000x2000, rank 10, 1%
# corruption, 100x100 seed), above the filters' stopping threshold
# 1e-9 * ||x_j||_inf, and those columns creep to their penalty cap. The
# 1900-column filter block of that instance, by seed tolerance:
#     seed tol   seed PCP steps   filter iterations per column: mean  max
#     1e-9       24                                             30.3  51
#     1e-10      28                                             21.7  50
#     1e-11      31                                             11.4  28
#     1e-12      35                                             11.4  28
#     1e-13      38                                             11.4  28
SEED_TOL_RATIO = 1e-2

# Largest zero-seed certificate lam * ||sign(M)||_2 accepted as converged:
# the power iteration underestimates the norm (0.206 against 0.209 for 1%
# spikes at n=1000), so the KKT bound 1 gets a margin.
ZERO_SEED_CERT_MAX = 0.9


@dataclass(frozen=True)
class SeedRecovery:
    row_idx: np.ndarray
    col_idx: np.ndarray
    seed_svd: SkinnySvd
    r_prime: int
    pcp_iterations: int = 0
    pcp_residual: float = 0.0
    pcp_converged: bool = True
    polish_iterations: int = 0


@dataclass
class FilterConfig:
    s_r: float = 10.0
    s_c: float = 10.0
    rank_hint: int | None = None
    rng_seed: int = 0
    adm: AdmConfig = field(default_factory=lambda: AdmConfig(tol=PIPELINE_TOL))
    # Only 1 (sequential filters) is accepted; perfbench/run.py still passes
    # the field, so a later benchmark change drops the argument, then the field.
    parallelism: int = 1

    def __post_init__(self):
        if self.rank_hint is not None and self.rank_hint < 1:
            raise ValueError("rank_hint must be >= 1")
        if self.adm.lam is not None:
            raise ValueError("--lambda applies only to --method adm: the l1filter seed "
                             "PCP uses the seed block's own default lambda, so "
                             "FilterConfig.adm.lam must be None")
        if self.parallelism != 1:
            raise ValueError("parallelism must be 1: the filters run sequentially")
        if not (1 < self.s_r < math.inf and 1 < self.s_c < math.inf):
            raise ValueError("oversampling rates must be finite and > 1")


def sample_submatrix(m, n_rows, n_cols, rng_seed):
    """Sample row/column index sets uniformly without replacement.

    rng_seed may be an integer, a SeedSequence, or a Generator. Index sets
    are returned sorted; the block is M restricted to them.
    """
    if n_rows > m.shape[0] or n_cols > m.shape[1]:
        raise ValueError(
            f"requested {n_rows}x{n_cols} block from {m.shape[0]}x{m.shape[1]} matrix"
        )
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    row_idx = np.sort(rng.choice(m.shape[0], size=n_rows, replace=False))
    col_idx = np.sort(rng.choice(m.shape[1], size=n_cols, replace=False))
    return row_idx, col_idx, m[np.ix_(row_idx, col_idx)]


def _complement(idx, size):
    """Sorted indices of range(size) that are not in idx."""
    keep = np.ones(size, dtype=bool)
    keep[idx] = False
    return np.flatnonzero(keep)


def _seed_factors(sol):
    """The seed PCP's last SVT factors without the singular values at or
    below SEED_RANK_TOL * sigma_1; rank 0 when none is left or the block was
    zero, which takes no SVT."""
    f = sol.state.svt if sol.state is not None else None
    if f is None:
        f = SkinnySvd(u=np.zeros((sol.l.shape[0], 0)), sigma=np.zeros(0),
                      v=np.zeros((sol.l.shape[1], 0)))
    k = int((f.sigma > SEED_RANK_TOL * f.sigma.max(initial=0.0)).sum())
    return SkinnySvd(u=f.u[:, :k].copy(), sigma=f.sigma[:k].copy(), v=f.v[:, :k].copy())


def recover_seed(seed_block, adm=None, row_idx=None, col_idx=None, max_rank=0):
    """Recover the low-rank part of a sampled block by small-scale PCP and
    factor it. A block with no signal gives r' = 0 and an empty seed_svd.

    The PCP runs rank-adaptive (see solve_pcp): the seed's SVT rank is small
    next to the block, so a certified partial SVD replaces most full SVDs.
    The seed's factors are those of the PCP's last SVT, whose product is the
    recovered L, less the singular values at or below SEED_RANK_TOL * sigma_1.
    adm.lam=None picks the seed block's own default_lambda.

    A converged PCP whose rank r' is at least 1 and at most max_rank (the
    largest rank the seed's oversampling accepts; the default 0 never
    polishes) is resumed to adm.tol * SEED_TOL_RATIO within the same
    max_iter budget. The polished iterate is kept when its residual is at
    most adm.tol, the unpolished one otherwise. pcp_converged says whether
    adm.tol was reached, pcp_residual belongs to the iterate kept,
    polish_iterations counts the resumed steps and pcp_iterations all steps.
    """
    adm = adm or AdmConfig()
    sol = solve_pcp(seed_block, adm, rank_adaptive=True)
    f = _seed_factors(sol)
    residual, polish = sol.final_residual, 0
    if sol.converged and 0 < f.rank <= max_rank:
        polished = solve_pcp(seed_block, replace(adm, tol=adm.tol * SEED_TOL_RATIO),
                             rank_adaptive=True, resume=sol)
        polish = polished.iterations
        if polished.final_residual <= adm.tol:
            f, residual = _seed_factors(polished), polished.final_residual
    if row_idx is None:
        row_idx = np.arange(seed_block.shape[0])
    if col_idx is None:
        col_idx = np.arange(seed_block.shape[1])
    return SeedRecovery(
        row_idx=np.asarray(row_idx), col_idx=np.asarray(col_idx),
        seed_svd=f, r_prime=f.rank, pcp_iterations=sol.iterations + polish,
        pcp_residual=residual, pcp_converged=sol.converged,
        polish_iterations=polish,
    )


def filter_columns(m_c, u_s, cfg=None):
    """Express the aligned column block as U^s Q + sparse residual.

    Returns (Q, residual, iterations, failed_columns, misfit) of
    solve_l1reg_columnwise: iterations counts the ADM's steps on the columns
    the certified presolve leaves (0 when it left none), failed_columns
    lists the columns whose ADM stopped short of its tolerance, and misfit
    is ||M_c - U^s Q - residual||_inf.
    """
    sol = solve_l1reg_columnwise(m_c, u_s, cfg)
    return sol.z, sol.e, sol.iterations, sol.failed_columns, sol.misfit


def filter_rows(m_r, v_s, cfg=None):
    """Express the aligned row block as P^T (V^s)^T + sparse residual.

    Solved by transposing into column form over the same solver; returns
    (P, residual, iterations, failed_rows, misfit) like filter_columns.
    """
    sol = solve_l1reg_columnwise(m_r.T, v_s, cfg)
    return sol.z, sol.e.T, sol.iterations, sol.failed_columns, sol.misfit


def _stack(idx, on_seed, off_seed):
    """Rows of on_seed at idx and rows of off_seed, in order, at the others."""
    out = np.empty((idx.size + off_seed.shape[0], on_seed.shape[1]))
    out[idx] = on_seed
    out[_complement(idx, out.shape[0])] = off_seed
    return out


def nystrom_complete(seed, q, p):
    """Stacked factors (A, B) of L = A B^T from the seed's SVD U Sigma V^T,
    the column coefficients Q (r' x n-s) and the row coefficients P
    (r' x m-s). A holds U Sigma on the seed rows and P^T on the others; B
    holds V on the seed columns and (Sigma^{-1} Q)^T on the others. The
    product's blocks are the generalized Nystrom ones: U Sigma V^T on the
    seed, U Q and P^T V^T beside it, and P^T Sigma^{-1} Q elsewhere."""
    if seed.r_prime < 1:
        raise ValueError("seed rank must be >= 1")
    f = seed.seed_svd
    return (_stack(seed.row_idx, f.u * f.sigma, p.T),
            _stack(seed.col_idx, f.v, (q / f.sigma[:, None]).T))


@dataclass(frozen=True)
class LowRank:
    """L = A B^T held as its stacked factors A (m x r') and B (n x r').
    L[rows] forms only those rows, A[rows] B^T."""

    a: np.ndarray
    b: np.ndarray

    @property
    def shape(self):
        return self.a.shape[0], self.b.shape[0]

    def __getitem__(self, rows):
        return self.a[rows] @ self.b.T

    def rows_into(self, rows, out):
        """L[rows] formed into out, a float64 array of its shape; returns out."""
        return np.matmul(self.a[rows], self.b.T, out=out)


@dataclass(frozen=True)
class Remainder:
    """S = M - L for a dense M and a LowRank L. S[rows] forms only those
    rows, M[rows] - L[rows]."""

    m: np.ndarray
    l: LowRank

    @property
    def shape(self):
        return self.m.shape

    def __getitem__(self, rows):
        s = self.l[rows]
        return np.subtract(self.m[rows], s, out=s)

    def rows_into(self, rows, out, l_rows=None):
        """S[rows] formed into out, a float64 array of its shape; returns out.
        l_rows, when given, is L[rows] already formed, which is then not
        formed again."""
        if l_rows is None:
            l_rows = self.l.rows_into(rows, out)
        return np.subtract(self.m[rows], l_rows, out=out)


def assemble(m, a, b):
    """L = A B^T and S = M - L from the stacked factors of nystrom_complete."""
    if (a.shape[0], b.shape[0]) != m.shape:
        raise ValueError(f"factors of {a.shape[0]} and {b.shape[0]} rows do not "
                         f"match a {m.shape[0]}x{m.shape[1]} matrix")
    l = a @ b.T
    return l, m - l


def _chunks(size):
    """CHUNK_COLS-wide slices of range(size), the last one ragged."""
    return [slice(lo, min(lo + CHUNK_COLS, size)) for lo in range(0, size, CHUNK_COLS)]


def _filter_stage(m, seed, adm):
    """Filter M's column and row blocks beside the seed, one chunk at a time.
    Returns (Q, P, iterations, failed, residual): the slowest chunk's
    iterations, the number of columns and rows that stopped short, and the
    larger relative constraint residual of the two filters.

    Each filter runs over CHUNK_COLS-wide chunks of its block, gathered
    straight from M; a chunk and its sparse part are dropped before the next
    is gathered, so the stage holds O(s CHUNK_COLS) of block data besides Q
    and P, whatever the size of M. The chunks are solve_l1reg_columnwise's
    own, so every column gets the same Z and E as from the whole block.
    residual is each filter's largest ||X - basis coef - E||_inf over its
    largest ||X||_inf (0 for a zero block), the larger of the two."""
    f = seed.seed_svd
    comp_c = _complement(seed.col_idx, m.shape[1])
    comp_r = _complement(seed.row_idx, m.shape[0])
    q = np.empty((seed.r_prime, comp_c.size))
    p = np.empty((seed.r_prime, comp_r.size))
    iterations, failed = 0, 0
    misfit_c = scale_c = misfit_r = scale_r = 0.0
    for cols in _chunks(comp_c.size):
        x = m[np.ix_(seed.row_idx, comp_c[cols])]
        z, e, it, bad, misfit = filter_columns(x, f.u, adm)
        q[:, cols] = z
        misfit_c = max(misfit_c, misfit)
        scale_c = max(scale_c, linf_norm(x))
        iterations, failed = max(iterations, it), failed + len(bad)
        del x, z, e
    for rows in _chunks(comp_r.size):
        # gathered as its transpose, so that the column form filter_rows
        # hands to solve_l1reg_columnwise is contiguous and not copied
        x = m.T[np.ix_(seed.col_idx, comp_r[rows])].T
        z, e, it, bad, misfit = filter_rows(x, f.v, adm)
        p[:, rows] = z
        misfit_r = max(misfit_r, misfit)
        scale_r = max(scale_r, linf_norm(x))
        iterations, failed = max(iterations, it), failed + len(bad)
        del x, z, e
    residual = max(misfit_c / scale_c if scale_c else 0.0,
                   misfit_r / scale_r if scale_r else 0.0)
    return q, p, iterations, failed, residual


def estimate_rank_and_factor(m, cfg=None):
    """The l1-filtering solve with target-rank estimation, up to the factors
    of L: the seed-attempt loop of the module docstring. Seed and fallback
    PCPs run with rank_adaptive=True (see solve_pcp), and only the accepted
    seed is polished (see recover_seed).

    On the l1-filter path, converged is True only when the seed PCP
    converged and no filtered column or row stopped short of its tolerance.
    The degenerate-zero-seed path reports final_residual lam * ||sign(M)||_2,
    converged only when that is at most ZERO_SEED_CERT_MAX.

    On every path stats["t1"] times the seed attempts and stats["attempts"]
    counts them, the fallback's oversized proposal included.
    stats["seed_polish_iterations"] counts the accepted seed's resumed PCP
    steps and stats["seed_residual"] is the PCP residual of the seed iterate
    kept; both, and stats["filter_failed_columns"], are 0 off the l1-filter
    path.

    The l1-filter path returns l=LowRank(A, B) and s=Remainder(M, l), which
    form their row blocks on demand, and stats["t_assemble"] times forming A
    and B. The other two paths return dense L and S.
    """
    t_start = time.perf_counter()
    m = as_dense(m)
    if m.size == 0:
        raise ValueError("matrix must be nonempty")
    cfg = cfg or FilterConfig()
    m_rows, m_cols = m.shape

    ss = np.random.SeedSequence(cfg.rng_seed)
    r = cfg.rank_hint or 1
    stats = {"t1": 0.0, "attempts": 0, "filter_failed_columns": 0,
             "seed_polish_iterations": 0, "seed_residual": 0.0}
    while True:
        stats["attempts"] += 1
        n_rows, n_cols = int(round(cfg.s_r * r)), int(round(cfg.s_c * r))
        if max(n_rows / m_rows, n_cols / m_cols) > MAX_SEED_FRACTION:
            seed = None
            break
        max_rank = int(min(n_rows / cfg.s_r, n_cols / cfg.s_c))
        t0 = time.perf_counter()
        row_idx, col_idx, block = sample_submatrix(m, n_rows, n_cols, ss.spawn(1)[0])
        seed = recover_seed(block, cfg.adm, row_idx, col_idx, max_rank)
        stats["t1"] += time.perf_counter() - t0
        if seed.r_prime <= max_rank:
            break
        # undersized seed: grow to the oversampled size for the observed rank
        r = max(seed.r_prime, r + 1)

    if seed is None:
        sol = solve_pcp(m, cfg.adm, rank_adaptive=True)
        sol.method = "full-pcp-fallback"
        sol.stats.update(stats, proposed_seed=(n_rows, n_cols))
    elif seed.r_prime == 0:
        # (0, M) solves PCP when Y = lam * sign(M) has ||Y||_2 <= 1 (the
        # KKT conditions of Candes, Li, Ma & Wright); above 1, L = 0 is wrong
        certificate = default_lambda(m_rows, m_cols) * spectral_norm_estimate(np.sign(m))
        sol = PcpSolution(
            l=np.zeros_like(m), s=m.copy(), iterations=stats["attempts"],
            final_residual=certificate, rank_of_l=0, elapsed=0.0,
            converged=certificate <= ZERO_SEED_CERT_MAX,
            method="degenerate-zero-seed", stats=stats,
        )
    else:
        t0 = time.perf_counter()
        q, p, filter_iterations, failed, filter_residual = _filter_stage(m, seed, cfg.adm)
        stats["t2"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        l = LowRank(*nystrom_complete(seed, q, p))
        stats["t_assemble"] = time.perf_counter() - t0
        stats.update(
            seed_rows=int(seed.row_idx.size), seed_cols=int(seed.col_idx.size),
            r_prime=seed.r_prime, seed_iterations=seed.pcp_iterations,
            filter_iterations=filter_iterations, filter_failed_columns=failed,
            seed_polish_iterations=seed.polish_iterations, seed_residual=seed.pcp_residual,
        )
        sol = PcpSolution(
            l=l, s=Remainder(m, l), iterations=seed.pcp_iterations + filter_iterations,
            # certificates: the seed PCP residual and each filter's constraint residual
            final_residual=max(seed.pcp_residual, filter_residual),
            rank_of_l=seed.r_prime, elapsed=0.0,
            converged=seed.pcp_converged and failed == 0, method="l1-filter", stats=stats,
        )
    sol.elapsed = time.perf_counter() - t_start
    return sol


def estimate_rank_and_solve(m, cfg=None):
    """Full l1-filtering solve with target-rank estimation:
    estimate_rank_and_factor followed by assemble, so L and S are dense on
    every path. stats["t_assemble"] includes the dense product and
    subtraction; the other fields are as estimate_rank_and_factor documents.
    """
    t_start = time.perf_counter()
    sol = estimate_rank_and_factor(m, cfg)
    if isinstance(sol.l, LowRank):
        t0 = time.perf_counter()
        sol.l, sol.s = assemble(sol.s.m, sol.l.a, sol.l.b)
        sol.stats["t_assemble"] += time.perf_counter() - t0
        sol.elapsed = time.perf_counter() - t_start
    return sol

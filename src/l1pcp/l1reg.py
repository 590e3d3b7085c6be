"""ADM solver for the decomposable l1 regression problem

    min ||E||_l1   s.t.   X = A Z + E

where A has orthonormal columns, so the Z update is a plain projection
A^T (X - E + U) with no normal-equation inverse.

The iteration is the scaled form of ADM (Boyd et al., "Distributed
Optimization and Statistical Learning via ADMM", 2011): it carries the
multiplier as U = Y / beta, so one step reads

    E = soft(X - A Z + U, 1 / beta)     computed as W - clip(W, -1/beta, 1/beta)
    Z = A^T (X - E + U)
    R = X - A Z - E
    U = (U + R) * beta / beta'          beta' = min(rho * beta, beta_max)

Each block owns four work arrays of its own shape, T = A Z, W, E and R,
plus U, and every step updates them in place; T from the residual is the
A Z of the next step, so one step costs two small matrix products. Columns
leave the block as they finish, and the arrays shrink with them.

The problem separates across columns of X, and the solver treats it that
way: every column carries its own penalty schedule and its own stopping
threshold, both derived from that column's linf norm. The kernel iterates
all columns of a block jointly and freezes each one as it converges. The
arithmetic is the same for every column, but BLAS rounds a matrix product
differently for different block widths, so splitting X differently moves
the result at rounding level (about 1e-16 * ||X||_inf between one block and
64- or 512-column chunks). solve_l1reg_columnwise runs the columns in
sequential chunks of a fixed CHUNK_COLS = 512 columns, so a given X is
always split the same way and its result is reproducible bit for bit.
Per-column stopping implies the whole-matrix guard
||X - A Z - E||_inf <= eps * ||X||_inf.

Column j's penalty starts at beta0_j = 1 / ||x_j||_inf and is capped at
beta0_j / tol (never below beta0_j), unless cfg.beta0 / cfg.beta_max
override. The E-update shrinks by 1 / beta, so this cap lets the shrink
threshold fall to the column's stopping threshold tol * ||x_j||_inf; a
lower cap leaves columns whose only misfit is a small subspace error
creeping towards the threshold through the multiplier alone. At the
default tol = 1e-7 the cap equals the 1e7 * beta0 that solve_pcp uses.
Even at the cap such a column creeps until the shrink threshold reaches its
misfit, which takes about 50 iterations at tol = 1e-9. The l1-filter
pipeline therefore keeps the misfit below the threshold: it resumes the
accepted seed's PCP to SEED_TOL_RATIO = 1e-2 of the filter tolerance, which
took the slowest filtered column of 2000x2000 rank-10 solves from 51
iterations to 28-30.

A column that has not met its threshold is given up (and reported in
failed_columns) once its residual has stopped moving for STAGNATION_ITERS
iterations with its penalty at the cap. Below the cap a flat residual is
not a stall: a column whose misfit lies outside span(A) keeps the same
residual until the shrink threshold falls to it, and the scaled multiplier
can sit at a bit-exact fixed point meanwhile.

The penalty growth rate cfg.rho trades speed against certified optimality:
the default 1.5 is fast and empirically exact in sparse-corruption recovery
regimes, but on small adversarial instances the iterates can freeze at a
feasible non-optimal point once the penalty saturates. rho close to 1
(e.g. 1.05 with a raised max_iter) tracks the optimum to within grid-oracle
resolution.

The l1 filters call a certified exact-fit presolve, _exact_fit_presolve,
before the ADM. With an exact subspace and sparse corruption, each column's
problem has a unique sparse solution (Candes & Tao, "Decoding by linear
programming", IEEE TIT 2005), which the ADM approaches over 10-30 steps
although its support shows after one or two. The presolve reads the
support S off the residual of the projection X - A A^T X, fits Z by least
squares on the other rows C (Woodbury on the orthonormal A: one |S| x |S|
solve per column), and grows S from the fit's residual for at most
PRESOLVE_ROUNDS fits; a fit that certifies no column of a CHUNK_COLS-wide
slice ends that slice. It keeps a column's fit only when all three
certificates hold:
  1. |S| <= k and |C| >= CLEAN_ROWS_PER_COEF * k;
  2. max_C |x - A z| <= tol * ||x||_inf, the ADM's stopping rule, with
     e = x - A z on S and 0 on C;
  3. the least-squares dual y_S = sign(e_S),
     y_C = -A_C (A_C^T A_C)^{-1} A_S^T sign(e_S) has max |y_C| < 1 (and
     A^T y = 0 to DUAL_FEAS_TOL), so that (z, e) is an l1 minimizer.
Every other column is left to the ADM, so the filters solve the same l1
problems as before, and the kernel above is untouched by the presolve.

solve_l1reg_columnwise is the one public entry point, and the only place
where input is checked: X once (2-D, finite, as many rows as A) and A once
(orthonormal columns). solve_l1reg, its chunk kernel, and the presolve take
those trusted arrays and check nothing again.
"""

from dataclasses import dataclass, field

import numpy as np

from .matcore import as_dense, linf_norm
from .pcp_adm import AdmConfig

STAGNATION_EPS = 1e-12
STAGNATION_ITERS = 20
# Fixed chunk width of solve_l1reg_columnwise. Timed on one 1900-column
# filter call (n=2000, rank 10, 2-core OpenBLAS box): 64 columns took about
# 190 ms in per-iteration numpy overhead, one unchunked block 225-260 ms as
# it spilled the cache, and 256-512 were level at 165-190 ms; the widest of
# those needs the fewest chunks.
CHUNK_COLS = 512

# Exact-fit presolve (see _exact_fit_presolve). A row joins a column's
# candidate support when its residual exceeds this share of the column's
# largest residual off the support: one spike leaves a projection residual
# of about (1 - k/n) of itself on its own row and about sqrt(k)/n of itself
# elsewhere, so a share well inside that range separates the two, and a
# lower one takes more of a many-spiked column's spikes into each fit.
# Columns certified on the filter blocks of two 2000x2000 rank-10 solves
# (synth seeds 0-1, rank hint 10), by share:
#     corruption   columns    0.1     0.25     0.5     0.75
#     1%           7600       97.8%   100.0%   99.9%   99.6%
#     10%          7580       10.0%    47.8%   31.4%    5.6%
SUPPORT_SHARE = 0.25
# Least-squares fits per column before it is left to the ADM. On the same
# blocks the projection alone certifies 36.4% (1%) and 0.0% (10%), and one
# to four fits 92.2/99.8/100.0/100.0% and 6.1/34.1/47.8/49.9%. A fit that
# certifies no column of a slice ends the slice: with the basis rotated by
# 1e-6 off the columns' subspace every fit fails, and on the 10% blocks
# that stop cut the presolve from a fifth of the ADM's time to a tenth.
PRESOLVE_ROUNDS = 3
# A certified column keeps at least this many clean rows per basis column,
# and at most k support rows: the regime of exact l1 decoding, where the
# fit on the clean rows is well conditioned.
CLEAN_ROWS_PER_COEF = 2
# Largest ||A^T y||_inf accepted of a dual certificate y. Rounding leaves
# at most 2.6e-15 on the filter blocks of 2000x2000 solves (1% and 10%
# corruption) and on the 10x2 grid-oracle blocks; the margin above that
# rejects a y whose |S| x |S| solve lost its accuracy, and its column goes
# to the ADM.
DUAL_FEAS_TOL = 1e-9


@dataclass
class L1RegSolution:
    z: np.ndarray
    e: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    failed_columns: list = field(default_factory=list)


def _check_dictionary(a):
    a = as_dense(a)
    gram = a.T @ a
    dev = linf_norm(gram - np.eye(a.shape[1]))
    if dev > 1e-8:
        raise ValueError(
            f"dictionary columns are not orthonormal (||A^T A - I||_inf = {dev:.3g})"
        )
    return a


def _solve_block(x, a, cfg):
    """Scaled-multiplier ADM over a block of columns. Column j stops once
    its residual drops to cfg.tol times its own linf norm, or fails once it
    stalls at its penalty cap; its penalty starts at 1 / ||x_j||_inf unless
    cfg.beta0 overrides, and is capped at that start over cfg.tol unless
    cfg.beta_max overrides."""
    n_rows, n_cols = x.shape
    k = a.shape[1]
    col_scale = np.abs(x).max(axis=0)
    thresh = cfg.tol * col_scale

    z_out = np.zeros((k, n_cols))
    e_out = np.zeros((n_rows, n_cols))
    iters_out = np.zeros(n_cols, dtype=int)
    res_out = np.zeros(n_cols)
    failed = []

    live = col_scale > 0.0  # zero columns are solved by Z = E = 0
    active = np.flatnonzero(live)
    if cfg.beta0 is not None:
        beta = np.full(active.size, float(cfg.beta0))
    else:
        beta = 1.0 / col_scale[active]
    if cfg.beta_max is not None:
        beta_max = np.full_like(beta, float(cfg.beta_max))
    else:
        beta_max = np.maximum(beta * (1.0 / cfg.tol), beta)

    xa = x[:, active].copy()
    z = np.zeros((k, active.size))
    u = np.zeros_like(xa)   # scaled multiplier Y / beta
    t = np.zeros_like(xa)   # A Z, carried from one residual to the next W
    e = np.zeros_like(xa)
    w = np.empty_like(xa)
    r = np.empty_like(xa)
    prev_res = np.full(n_cols, np.inf)
    stalled = np.zeros(n_cols, dtype=int)

    for it in range(1, cfg.max_iter + 1):
        if active.size == 0:
            break
        # E = soft(W, 1/beta) as W - clip(W, -1/beta, 1/beta), W = X - A Z + U;
        # maximum then minimum, as np.clip costs about three times as much
        shrink = 1.0 / beta
        np.subtract(xa, t, out=w)
        w += u
        np.maximum(w, -shrink, out=e)
        np.minimum(e, shrink, out=e)
        np.subtract(w, e, out=e)
        # Z = A^T (X - E + U)
        np.subtract(xa, e, out=w)
        w += u
        np.matmul(a.T, w, out=z)
        np.matmul(a, z, out=t)
        np.subtract(xa, t, out=r)
        r -= e
        res = np.maximum(r.max(axis=0), -r.min(axis=0))

        # stagnation: the residual stops moving, with the penalty at its cap,
        # but never reaches the threshold (see the module docstring)
        rel_change = np.abs(res - prev_res[active]) / np.maximum(res, np.finfo(float).tiny)
        stuck = (rel_change < STAGNATION_EPS) & (beta >= beta_max)
        stalled[active] = np.where(stuck, stalled[active] + 1, 0)
        prev_res[active] = res

        ok = res <= thresh[active]
        finished = ok | (stalled[active] >= STAGNATION_ITERS)
        if finished.any():
            cols = active[finished]
            z_out[:, cols] = z[:, finished]
            e_out[:, cols] = e[:, finished]
            iters_out[cols] = it
            res_out[cols] = res[finished]
            failed.extend(int(c) for c, good in zip(cols, ok[finished]) if not good)
            keep = ~finished
            active = active[keep]
            if active.size == 0:
                break
            xa, z, u, t, e, r = (b[:, keep] for b in (xa, z, u, t, e, r))
            w = np.empty_like(xa)
            beta = beta[keep]
            beta_max = beta_max[keep]
        # Y += beta R, then U = Y / beta' for the grown penalty beta'
        beta_next = np.minimum(cfg.rho * beta, beta_max)
        u += r
        u *= beta / beta_next
        beta = beta_next

    if active.size:  # max_iter exhausted
        z_out[:, active] = z
        e_out[:, active] = e
        iters_out[active] = cfg.max_iter
        res_out[active] = prev_res[active]
        failed.extend(int(c) for c in active)

    return z_out, e_out, iters_out, res_out, sorted(failed)


def solve_l1reg(x, a, cfg=None):
    """Solve min ||E||_l1 s.t. X = A Z + E over one chunk of columns, for
    the trusted X and orthonormal-column A of solve_l1reg_columnwise."""
    cfg = cfg or AdmConfig()

    scale = linf_norm(x)
    if x.shape[1] == 0 or scale == 0.0:
        return L1RegSolution(
            z=np.zeros((a.shape[1], x.shape[1])), e=np.zeros_like(x),
            iterations=0, final_residual=0.0, converged=True,
        )

    z, e, iters, res, failed = _solve_block(x, a, cfg)
    return L1RegSolution(
        z=z, e=e, iterations=int(iters.max(initial=0)),
        final_residual=float(res.max(initial=0.0)) / scale,
        converged=not failed, failed_columns=failed,
    )


def solve_l1reg_columnwise(x, a, cfg=None):
    """Solve min ||E||_l1 s.t. X = A Z + E for orthonormal-column A.

    Checks X and A, then runs solve_l1reg over fixed CHUNK_COLS-wide column
    chunks, one after the other; the chunk results are stitched back into
    one solution."""
    x = as_dense(x)
    a = _check_dictionary(a)
    if x.shape[0] != a.shape[0]:
        raise ValueError(f"row mismatch: X has {x.shape[0]}, A has {a.shape[0]}")
    cfg = cfg or AdmConfig()

    n_cols = x.shape[1]
    scale = linf_norm(x)
    if n_cols == 0 or scale == 0.0:
        return solve_l1reg(x, a, cfg)

    # the chunk solutions are joined only once all are solved, so no
    # full-width Z and E are held while a chunk's work arrays are live
    starts = range(0, n_cols, CHUNK_COLS)
    parts = [solve_l1reg(x[:, lo:lo + CHUNK_COLS], a, cfg) for lo in starts]
    residual_abs = max(sol.final_residual * linf_norm(x[:, lo:lo + CHUNK_COLS])
                       for lo, sol in zip(starts, parts))
    failed = [lo + c for lo, sol in zip(starts, parts) for c in sol.failed_columns]
    return L1RegSolution(
        z=np.concatenate([sol.z for sol in parts], axis=1),
        e=np.concatenate([sol.e for sol in parts], axis=1),
        iterations=max(sol.iterations for sol in parts),
        final_residual=residual_abs / scale,
        converged=not failed, failed_columns=failed,
    )


def _exact_fit_presolve(x, a, tol):
    """Certified exact-fit presolve of min ||E||_l1 s.t. X = A Z + E (see
    the module docstring for its three certificates).

    Column by column, take the candidate support S of E from the residual
    of the projection X - A A^T X, fit Z by least squares on the other rows
    C, and grow S from the fit's residual, for at most PRESOLVE_ROUNDS fits
    and only while a fit certifies some column of the slice. A column whose
    projection residual already meets the stopping rule is solved by
    Z = A^T x, E = 0, as in the ADM's first step.

    Runs in CHUNK_COLS-wide slices. Returns (Z, E, rest): rest holds the
    sorted indices of the columns left uncertified, whose Z and E are zero.
    """
    n_rows, n_cols = x.shape
    k = a.shape[1]
    z = np.zeros((k, n_cols))
    e = np.zeros((n_rows, n_cols))
    max_support = min(k, n_rows - CLEAN_ROWS_PER_COEF * k)
    if max_support < 0:
        return z, e, np.arange(n_cols)
    # a zero row at index n_rows pads the supports of a slice to one width,
    # and each support's A_S A_S^T is read off the padded projection A A^T
    a_pad = np.vstack([a, np.zeros((1, k))])
    p_pad = a_pad @ a_pad.T
    rest = []
    for lo in range(0, n_cols, CHUNK_COLS):
        hi = min(lo + CHUNK_COLS, n_cols)
        # one column of X per row, so that picking columns copies rows
        xt = np.ascontiguousarray(x[:, lo:hi].T)
        done = _presolve_slice(xt, a, a_pad, p_pad, tol, max_support,
                               z[:, lo:hi], e[:, lo:hi])
        rest.append(lo + np.flatnonzero(~done))
    return z, e, np.concatenate(rest)


def _presolve_slice(xt, a, a_pad, p_pad, tol, max_support, z_out, e_out):
    """_exact_fit_presolve on the slice X^T = xt. Writes the certified
    columns' Z and E into z_out and e_out and returns their mask. A fit
    round that certifies no column ends the slice."""
    thresh = tol * np.abs(xt).max(axis=1)
    z = xt @ a
    res = xt - z @ a.T
    off = np.abs(res)
    peak = off.max(axis=1)
    done = peak <= thresh
    z_out[:, done] = z[done].T
    live = np.flatnonzero(~done)
    xt, off, peak, thresh = xt[live], off[live], peak[live], thresh[live]
    support = np.zeros(xt.shape, dtype=bool)
    for _ in range(PRESOLVE_ROUNDS):
        support |= off > np.maximum(SUPPORT_SHARE * peak, thresh)[:, None]
        small = support.sum(axis=1) <= max_support
        live, xt, support, thresh = live[small], xt[small], support[small], thresh[small]
        if live.size == 0:
            break
        system = _support_system(a_pad, p_pad, support)
        try:
            # Z = (A_C^T A_C)^{-1} A_C^T x_C
            z = _clean_rows_apply(*system, np.where(support, 0.0, xt) @ a)
        except np.linalg.LinAlgError:  # a singular system: the ADM takes the rest
            break
        res = xt - z @ a.T
        off = np.abs(res)
        off[support] = 0.0
        peak = off.max(axis=1)
        fits = peak <= thresh
        f = np.flatnonzero(fits)
        f = f[_dual_certified(a, [m[f] for m in system], res[f], support[f])]
        if f.size == 0:  # see PRESOLVE_ROUNDS
            break
        z_out[:, live[f]] = z[f].T
        e_out[:, live[f]] = np.where(support[f], res[f], 0.0).T
        done[live[f]] = True
        keep = ~fits
        live, xt, support, thresh, off, peak = (
            v[keep] for v in (live, xt, support, thresh, off, peak))
    return done


def _support_system(a_pad, p_pad, support):
    """(A_S, I - A_S A_S^T) for each row of the support mask, A_S padded
    with a_pad's zero row to the widest support and A_S A_S^T read off the
    padded projection p_pad."""
    n_rows = support.shape[1]
    size = support.sum(axis=1)
    cols, rows = np.nonzero(support)
    idx = np.full((support.shape[0], int(size.max())), n_rows)
    idx[cols, np.arange(cols.size) - np.repeat(np.cumsum(size) - size, size)] = rows
    return a_pad[idx], np.eye(idx.shape[1]) - p_pad[idx[:, :, None], idx[:, None, :]]


def _clean_rows_apply(a_s, core, g):
    """(A_C^T A_C)^{-1} g for each row of g, C the rows off the support.
    With A orthonormal, A_C^T A_C = I - A_S^T A_S, and by Woodbury its
    inverse is I + A_S^T core^{-1} A_S, core = I - A_S A_S^T: one |S| x |S|
    solve per column."""
    w = np.linalg.solve(core, a_s @ g[:, :, None])
    return g + (a_s.transpose(0, 2, 1) @ w)[:, :, 0]


def _dual_certified(a, system, res, support):
    """Mask of the columns (rows of res) whose least-squares dual
    certificate holds: y_S = sign(E_S), y_C = -A_C (A_C^T A_C)^{-1} A_S^T y_S
    with ||y_C||_inf < 1 and ||A^T y||_inf <= DUAL_FEAS_TOL."""
    y_s = np.where(support, np.sign(res), 0.0)
    y = -(_clean_rows_apply(*system, y_s @ a) @ a.T)
    y_c = np.where(support, 0.0, y)
    np.copyto(y, y_s, where=support)
    return (np.abs(y_c).max(axis=1) < 1.0) & (np.abs(y @ a).max(axis=1) <= DUAL_FEAS_TOL)

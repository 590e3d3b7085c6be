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
beta0_j / tol (never below beta0_j). The E-update shrinks by 1 / beta, so
this cap lets the shrink threshold fall to the column's stopping threshold
tol * ||x_j||_inf; a lower cap leaves columns whose only misfit is a small
subspace error creeping towards the threshold through the multiplier
alone. At the
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

solve_l1reg_columnwise is the one l1 solve, the one the l1 filters call.
It checks X once (2-D, finite, as many rows as A) and A once (orthonormal
columns), then takes X one CHUNK_COLS-wide chunk after another: the
certified exact-fit presolve, _exact_fit_presolve, solves the chunk's
columns it can, and solve_l1reg runs the ADM above on the rest, possibly
none, so it is called once per chunk. Both take the trusted arrays and
check nothing again. The solution's iterations and failed_columns are the
ADM's, mapped to X's columns, and final_residual is
||X - A Z - E||_inf / ||X||_inf over every column.

With an exact subspace and sparse corruption, each column's problem has a
unique sparse solution (Candes & Tao, "Decoding by linear programming",
IEEE TIT 2005), which the ADM approaches over 10-30 steps although its
support shows after one or two. The presolve reads the support S off the
residual of the projection X - A A^T X, fits Z by least squares on the
other rows C (Woodbury on the orthonormal A: one |S| x |S| solve per
column), and grows S from the fit's residual for at most PRESOLVE_ROUNDS
fits; a fit that certifies no column of the chunk ends the chunk's
presolve. It keeps a column's fit only when all three certificates hold:
  1. |S| <= k and |C| >= CLEAN_ROWS_PER_COEF * k;
  2. max_C |x - A z| <= tol * ||x||_inf, the ADM's stopping rule, with
     e = x - A z on S and 0 on C;
  3. the least-squares dual y_S = sign(e_S),
     y_C = -A_C (A_C^T A_C)^{-1} A_S^T sign(e_S) has max |y_C| < 1 (and
     A^T y = 0 to DUAL_FEAS_TOL), so that (z, e) is an l1 minimizer.
Every other column is left to the ADM, and the kernel above is untouched
by the presolve. A certified column gets the exact minimizer, where the
ADM would stop within its tolerance of it.
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
# certifies no column of a chunk ends its presolve: with the basis rotated by
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
    """Z and E of X = A Z + E. misfit is ||X - A Z - E||_inf and
    final_residual that over ||X||_inf (0 for a zero X)."""

    z: np.ndarray
    e: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    failed_columns: list = field(default_factory=list)
    misfit: float = 0.0


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
    stalls at its penalty cap; its penalty starts at 1 / ||x_j||_inf and is
    capped at that start over cfg.tol."""
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
    beta = 1.0 / col_scale[active]
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
    """Solve min ||E||_l1 s.t. X = A Z + E by the ADM alone over one chunk
    of columns, for the trusted X and orthonormal-column A of
    solve_l1reg_columnwise."""
    cfg = cfg or AdmConfig()

    scale = linf_norm(x)
    if x.shape[1] == 0 or scale == 0.0:
        return L1RegSolution(
            z=np.zeros((a.shape[1], x.shape[1])), e=np.zeros_like(x),
            iterations=0, final_residual=0.0, converged=True,
        )

    z, e, iters, res, failed = _solve_block(x, a, cfg)
    misfit = float(res.max(initial=0.0))
    return L1RegSolution(
        z=z, e=e, iterations=int(iters.max(initial=0)), final_residual=misfit / scale,
        converged=not failed, failed_columns=failed, misfit=misfit,
    )


def solve_l1reg_columnwise(x, a, cfg=None):
    """Solve min ||E||_l1 s.t. X = A Z + E for orthonormal-column A.

    Checks X and A, then takes fixed CHUNK_COLS-wide column chunks one
    after the other: the exact-fit presolve solves the columns it certifies,
    and solve_l1reg the rest of the chunk, possibly none. iterations and
    failed_columns are the ADM's; misfit is ||X - A Z - E||_inf over every
    column, and final_residual that over ||X||_inf."""
    x = as_dense(x)
    a = _check_dictionary(a)
    if x.shape[0] != a.shape[0]:
        raise ValueError(f"row mismatch: X has {x.shape[0]}, A has {a.shape[0]}")
    cfg = cfg or AdmConfig()

    z = np.empty((a.shape[1], x.shape[1]))
    e = np.empty_like(x)
    iterations, failed, misfit = 0, [], 0.0
    for lo in range(0, x.shape[1], CHUNK_COLS):
        cols = slice(lo, lo + CHUNK_COLS)
        chunk = x[:, cols]
        rest = _exact_fit_presolve(chunk, a, cfg.tol, z[:, cols], e[:, cols])
        sol = solve_l1reg(chunk[:, rest], a, cfg)
        z[:, lo + rest], e[:, lo + rest] = sol.z, sol.e
        # |X - A Z - E| over the chunk, formed in A Z's buffer
        t = a @ z[:, cols]
        np.subtract(chunk, t, out=t)
        t -= e[:, cols]
        misfit = max(misfit, float(np.abs(t, out=t).max(initial=0.0)))
        del t
        iterations = max(iterations, sol.iterations)
        failed.extend((lo + rest[sol.failed_columns]).tolist())
    scale = linf_norm(x)
    return L1RegSolution(
        z=z, e=e, iterations=iterations,
        final_residual=misfit / scale if scale else 0.0,
        converged=not failed, failed_columns=failed, misfit=misfit,
    )


def _exact_fit_presolve(x, a, tol, z_out, e_out):
    """Certified exact-fit presolve of min ||E||_l1 s.t. X = A Z + E over
    one chunk of columns (see the module docstring for its three
    certificates).

    Column by column, take the candidate support S of E from the residual
    of the projection X - A A^T X, fit Z by least squares on the other rows
    C, and grow S from the fit's residual, for at most PRESOLVE_ROUNDS fits
    and only while a fit certifies some column of the chunk. A column whose
    projection residual already meets the stopping rule is solved by
    Z = A^T x, E = 0, as in the ADM's first step.

    Writes the certified columns' Z and E into z_out and e_out, which
    solve_l1reg_columnwise passes as slices of its own Z and E, and leaves
    the other columns as they were. Returns rest, the sorted indices of the
    columns left uncertified.

    Its chunk-sized arrays do not pile up: the projection residual is
    formed in A A^T X's buffer and its absolute value in place, a fit's
    residual in A Z's buffer, and the fit's absolute residual, and the
    support systems of the columns that did not fit, are dropped before
    the dual certificate, which forms y and |y_C| in one buffer.
    """
    n_rows, n_cols = x.shape
    k = a.shape[1]
    max_support = min(k, n_rows - CLEAN_ROWS_PER_COEF * k)
    if max_support < 0:
        return np.arange(n_cols)
    # a zero row at index n_rows pads the supports of the chunk to one
    # width, and each support's A_S A_S^T is read off the padded projection
    a_pad = np.vstack([a, np.zeros((1, k))])
    p_pad = a_pad @ a_pad.T
    # one column of X per row, so that picking columns copies rows
    xt = np.ascontiguousarray(x.T)
    thresh = tol * np.abs(xt).max(axis=1)
    z = xt @ a
    off = z @ a.T
    np.subtract(xt, off, out=off)
    np.abs(off, out=off)
    peak = off.max(axis=1)
    done = peak <= thresh
    z_out[:, done] = z[done].T
    e_out[:, done] = 0.0
    live = np.flatnonzero(~done)
    thresh = thresh[live]
    support = off[live] > np.maximum(SUPPORT_SHARE * peak[live], thresh)[:, None]
    del off
    xt = xt[live]
    for _ in range(PRESOLVE_ROUNDS):
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
        res = z @ a.T
        np.subtract(xt, res, out=res)
        off = np.abs(res)
        off[support] = 0.0
        peak = off.max(axis=1)
        fits = peak <= thresh
        f = np.flatnonzero(fits)
        e = res[f]
        np.copyto(e, 0.0, where=~support[f])
        # the next fit's support grows from this fit's residual; a column
        # that fits has no residual above its threshold, so its S stays
        support |= off > np.maximum(SUPPORT_SHARE * peak, thresh)[:, None]
        del off, res
        system = [m[f] for m in system]
        certified = _dual_certified(a, system, e, support[f])
        f = f[certified]
        if f.size == 0:  # see PRESOLVE_ROUNDS
            break
        z_out[:, live[f]] = z[f].T
        e_out[:, live[f]] = e[certified].T
        done[live[f]] = True
        keep = ~fits
        live, xt, support, thresh = (v[keep] for v in (live, xt, support, thresh))
    return np.flatnonzero(~done)


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


def _dual_certified(a, system, e, support):
    """Mask of the columns (rows of e, each zero off its support) whose
    least-squares dual certificate holds: y_S = sign(E_S),
    y_C = -A_C (A_C^T A_C)^{-1} A_S^T y_S with ||y_C||_inf < 1 and
    ||A^T y||_inf <= DUAL_FEAS_TOL. y and then |y_C| are formed in one
    buffer."""
    g = np.sign(e) @ a
    y = _clean_rows_apply(*system, g) @ a.T
    np.negative(y, out=y)
    np.sign(e, out=y, where=support)
    feasible = np.abs(y @ a).max(axis=1) <= DUAL_FEAS_TOL
    np.copyto(y, 0.0, where=support)
    return (np.abs(y, out=y).max(axis=1) < 1.0) & feasible

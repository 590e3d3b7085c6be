"""Cross-check paths and whole-matrix operators that the solver itself does
not use.

The l1filter pipeline completes L from the seed's SVD factors; these
oracles recompute the same blocks from an explicit pseudo-inverse of the
seed matrix, so that the tests can hold the factored formulas against them.
soft_threshold and svt are the whole-matrix forms of solve_pcp's
shrink and of svt_with_rank, and nuclear_norm the objective's
nuclear norm, for the tests of the proximal operators. reference_adm is
solve_pcp's ADM written out of place, and with lapack_svt it takes LAPACK's
full SVD at every step: the reference the warm-started solves are held
against. recovery_errors takes RelErr, MaxDif and AveDif by whole-matrix
numpy formulas, against synth's and decompose's row-blocked sums.
"""

import numpy as np

from l1pcp.l1filter import SEED_RANK_TOL
from l1pcp.matcore import as_dense, svd, svt_with_rank
from l1pcp.pcp_adm import default_lambda, spectral_norm_estimate


def soft_threshold(m, eta):
    """Elementwise soft shrinkage sgn(x) * max(|x| - eta, 0), written out
    as solve_pcp's shrink writes it, x - clip(x, -eta, eta)."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    x = np.array(m, dtype=np.float64)
    return x - np.clip(x, -eta, eta)


def svt(w, eta):
    """Singular value thresholding: U S_eta(Sigma) V^T.

    Closed-form minimizer of eta*||A||_* + 0.5*||A - W||_F^2.
    """
    return svt_with_rank(w, eta)[0]


def nuclear_norm(m):
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m, dtype=np.float64), compute_uv=False).sum())


def pseudo_inverse_apply(f, rhs):
    """Apply V Sigma^{-1} U^T to *rhs* using the retained singular values."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if f.u.shape[0] != rhs.shape[0]:
        raise ValueError(
            f"dimension mismatch: factor has {f.u.shape[0]} rows, rhs has {rhs.shape[0]}"
        )
    return f.v @ ((f.u.T @ rhs) / f.sigma[:, None])


def nystrom_complete_via_pinv(l_row, seed_l, l_col, rank_tol=SEED_RANK_TOL):
    """Completion block L^r pinv(L^s) L^c, recomputing the pseudo-inverse
    from the seed matrix itself."""
    f = svd(as_dense(seed_l), rank_tol=rank_tol)
    return as_dense(l_row) @ pseudo_inverse_apply(f, as_dense(l_col))


def lapack_svt(w, eta, v_prev):
    """SVT from LAPACK's full SVD, L = U_k (Sigma_k - eta) V_k^T, and V_k."""
    u, sigma, vt = np.linalg.svd(w, full_matrices=False)
    k = int((sigma - eta > 0).sum())
    # V_k^T as the transpose of a C-contiguous V_k, as solve_pcp passes it:
    # the product's last bits depend on the operands' layout
    v = vt[:k].T.copy()
    return (u[:, :k] * (sigma[:k] - eta)) @ v.T, v


def reference_adm(m, tol, svt, paper_update=False):
    """The paper's ADM, out of place, in solve_pcp's order of operations and
    at its default parameters, with the SVT svt(W, eta, previous V_k).
    Returns L, S, Y and the step count.

    The multiplier update is solve_pcp's Y = beta (W - L), or with
    paper_update=True the paper's Y + beta (M - L - S): the same in exact
    arithmetic, as W = M - S + Y/beta."""
    lam = default_lambda(*m.shape)
    beta = 1.25 / spectral_norm_estimate(m)
    beta_max = 1e7 * beta
    l, s, y = np.zeros_like(m), np.zeros_like(m), np.zeros_like(m)
    v = None
    for iters in range(1, 1001):
        if iters > 1:
            beta = min(1.5 * beta, beta_max)
        x = m - l + y / beta
        s = np.sign(x) * np.maximum(np.abs(x) - lam / beta, 0.0)
        # W = M - S + Y/beta, formed as L + clip(X, -lam/beta, lam/beta)
        w = l + np.clip(x, -lam / beta, lam / beta)
        l, v = svt(w, 1 / beta, v)
        r = m - l - s
        y = y + beta * r if paper_update else beta * (w - l)
        if np.linalg.norm(r) / np.linalg.norm(m) <= tol:
            return l, s, y, iters
    raise AssertionError("reference ADM did not converge")


def recovery_errors(l, l0):
    """rel_err, max_dif and ave_dif of a dense L against L0, as the dict of
    synth.recovery_errors."""
    dif = np.abs(l - l0)
    denom = np.linalg.norm(l0)
    return {"rel_err": np.linalg.norm(l - l0) / denom if denom else np.linalg.norm(l),
            "max_dif": dif.max(), "ave_dif": dif.mean()}

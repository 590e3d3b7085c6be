"""Independent cross-check paths that the solver itself does not use.

The l1filter pipeline completes L from the seed's SVD factors; these
oracles recompute the same blocks from an explicit pseudo-inverse of the
seed matrix, so that the tests can hold the factored formulas against them.
"""

import numpy as np

from l1pcp.l1filter import SEED_RANK_TOL
from l1pcp.matcore import as_dense, svd


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

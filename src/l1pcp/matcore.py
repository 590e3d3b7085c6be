"""Dense matrix primitives: norms, skinny SVD, and the two proximal operators
(soft thresholding and singular value thresholding) used by every solver."""

from dataclasses import dataclass

import numpy as np


class SvdConvergenceError(RuntimeError):
    """The underlying SVD factorization failed to converge."""


# as_dense checks finiteness over row blocks of about this many values (at
# least one row each), so its boolean mask stays at 64 KiB, below glibc's
# default mmap threshold, whatever the size of the matrix
FINITE_CHECK_VALUES = 1 << 16


def as_dense(a):
    """Coerce *a* to a C-contiguous 2-D float64 array, rejecting NaN/Inf
    entries. Finiteness is checked one row block of about
    FINITE_CHECK_VALUES values at a time, so besides a copy made to
    convert *a* the check holds only one block's boolean mask."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    arr = np.ascontiguousarray(arr)
    step = max(1, FINITE_CHECK_VALUES // max(1, arr.shape[1]))
    for lo in range(0, arr.shape[0], step):
        if not np.isfinite(arr[lo:lo + step]).all():
            raise ValueError("matrix contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SkinnySvd:
    """Skinny SVD: u (m×k) and v (n×k) with orthonormal columns, sigma
    strictly positive and nonincreasing."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self):
        return self.sigma.size

    def reconstruct(self):
        """Return u @ diag(sigma) @ v.T."""
        return (self.u * self.sigma) @ self.v.T


def frobenius_norm(m):
    return float(np.linalg.norm(m, "fro"))


def l1_norm(m):
    return float(np.abs(m).sum())


def linf_norm(m):
    return float(np.abs(m).max()) if np.asarray(m).size else 0.0


def l0_count(m, threshold=None):
    """Count entries with |x| > threshold.

    Recovered sparse parts carry solver-tolerance noise, so the default
    threshold is 1e-6 times the matrix linf norm rather than exact zero.
    """
    if threshold is None:
        threshold = 1e-6 * linf_norm(m)
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    return int((np.abs(m) > threshold).sum())


def _soft_threshold_into(x, eta, work):
    """Soft-threshold the float64 array *x* in place; *work*, shaped like x,
    is overwritten as scratch. Returns x."""
    # the sign goes to work: numpy's sign is several times slower in place
    np.sign(x, out=work)
    np.abs(x, out=x)
    np.subtract(x, eta, out=x)
    np.maximum(x, 0.0, out=x)
    return np.multiply(work, x, out=x)


def soft_threshold(m, eta):
    """Elementwise soft shrinkage sgn(x) * max(|x| - eta, 0)."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    x = np.array(m, dtype=np.float64)
    return _soft_threshold_into(x, eta, np.empty_like(x))


def svd(m, rank_tol=1e-8, atol=0.0):
    """Skinny SVD of *m*, dropping singular values <= max(rank_tol *
    sigma_max, atol).

    Exact zeros are always dropped, so the result has strictly positive
    singular values even at rank_tol=0. Only the retained columns of
    LAPACK's U and V are copied, u and v C-contiguous.
    """
    m = np.asarray(m, dtype=np.float64)
    if rank_tol < 0 or atol < 0:
        raise ValueError("rank_tol and atol must be nonnegative")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD failed on {m.shape} matrix: {exc}") from exc
    cutoff = max(rank_tol * (s[0] if s.size else 0.0), atol)
    k = int((s > cutoff).sum())
    return SkinnySvd(u=u[:, :k].copy(), sigma=s[:k].copy(), v=vt[:k].T.copy())


def nuclear_norm(m):
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m, dtype=np.float64), compute_uv=False).sum())


# Rank-adaptive SVT (Halko, Martinsson & Tropp, arXiv:0909.4061, with the
# rank predicted from the previous iterate as in IALM, arXiv:1009.5055).
PARTIAL_MAX_FRACTION = 0.25   # sketch wider than this share of min(m, n): full SVD
PARTIAL_MAX_POWER_STEPS = 8
# max|W V_k - U_k Sigma_k| allowed, relative to sigma_1: about ten times its
# rounding floor, which keeps an accepted SVT within ~1e-15 sigma_1 of the
# full SVD's (1e-13 let single SVTs drift by 4e-14 sigma_1)
PARTIAL_CERT_TOL = 1e-14
PARTIAL_SKETCH_SEED = 0


def _svt_partial_factors(w, eta, v_prev):
    """Thresholded factors (U_k, Sigma_k - eta, V_k) from a warm-started
    randomized range finder, or None when the sketch cannot be trusted and
    the full SVD must decide.

    The sketch has p = k + max(10, k // 2) columns for the previous rank k;
    its first k columns are the previous right singular vectors and the rest
    come from a fixed-seed Gaussian draw. The Rayleigh-Ritz step B = Q^T W
    makes W^T U_k = V_k Sigma_k hold exactly, so the triplets are accepted
    once max|W V_k - U_k Sigma_k| <= PARTIAL_CERT_TOL * sigma_1, after up to
    PARTIAL_MAX_POWER_STEPS power steps.
    """
    k_prev = v_prev.shape[1]
    p = k_prev + max(10, k_prev // 2)
    if k_prev == 0 or p > PARTIAL_MAX_FRACTION * min(w.shape):
        return None
    omega = np.random.default_rng(PARTIAL_SKETCH_SEED).standard_normal((w.shape[1], p))
    omega[:, :k_prev] = v_prev
    y = w @ omega
    for _ in range(PARTIAL_MAX_POWER_STEPS + 1):
        q = np.linalg.qr(y)[0]
        f = svd(q.T @ w, rank_tol=0.0)
        k = int((f.sigma > eta).sum())
        if k == p or f.rank == 0:
            return None
        # W^T Q = B^T has range span(V_B), so W V_B spans the next power
        # step W orth(W^T Q); its first k columns are the certificate's W V_k
        y = w @ f.v
        if k:
            u = q @ f.u[:, :k]
            if np.abs(y[:, :k] - u * f.sigma[:k]).max() <= PARTIAL_CERT_TOL * f.sigma[0]:
                return SkinnySvd(u, f.sigma[:k] - eta, f.v[:, :k].copy())
    return None


def svt_with_rank(w, eta, v_prev=None):
    """Singular value thresholding U_k (Sigma_k - eta) V_k^T of *w*, over the
    k singular values above eta. Returns (matrix, factors): factors is the
    SkinnySvd (U_k, Sigma_k - eta, V_k) whose reconstruction is the matrix.

    With the previous iterate's right singular vectors *v_prev* the factors
    come from the certified partial SVD (_svt_partial_factors). Without
    them, or when that sketch cannot be trusted (too wide, every sketched
    value survives the threshold, or no certificate), they come from the
    full SVD, which keeps only the k values above eta, so LAPACK's full U
    and V^T are released before the matrix is allocated. Both share the
    layout of U_k and V_k, and it must hold: the last bits of the product
    depend on how V_k^T is laid out.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    w = np.asarray(w, dtype=np.float64)
    factors = None if v_prev is None else _svt_partial_factors(w, eta, v_prev)
    if factors is None:
        f = svd(w, rank_tol=0.0, atol=eta)
        factors = SkinnySvd(f.u, f.sigma - eta, f.v)
    if factors.rank == 0:
        return np.zeros_like(w), factors
    return factors.reconstruct(), factors


def svt(w, eta):
    """Singular value thresholding: U S_eta(Sigma) V^T.

    Closed-form minimizer of eta*||A||_* + 0.5*||A - W||_F^2.
    """
    return svt_with_rank(w, eta)[0]


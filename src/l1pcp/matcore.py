"""Dense matrix primitives: the row-block policy, norms, skinny SVD, and
singular value thresholding with its rank (each solver writes its soft
threshold out in its own buffers). The SVT takes a certified partial SVD,
warm from the previous factors or started from the Gram matrix's
eigenvectors, and LAPACK's full SVD only where no partial SVD can be
trusted. A Cholesky factorization certifies an SVT of rank 0 without an
eigendecomposition, and the partial SVD takes the SVD of its sketch only
on the power steps that test its certificate: those orthonormalise their
basis by Householder QR, and the plain power steps between them by
Cholesky-QR.

row_blocks is the one row-block policy, which every walk over a matrix
takes: as_dense's finiteness check, matio.blocks and the power steps of
pcp_adm.spectral_norm_estimate each hold at most one block of about
BLOCK_BYTES at a time, so none holds an array that grows with the matrix."""

import math
from dataclasses import dataclass

import numpy as np


class SvdConvergenceError(RuntimeError):
    """The underlying SVD factorization failed to converge."""


class InputError(ValueError):
    """A matrix file that does not parse, or a matrix holding NaN or Inf."""


# Bytes of float64 values per row block (at least one row per block), the
# one block size of every walk over a matrix. A walk holds one block's
# buffer, which the next block reuses, and small blocks let malloc reuse
# that memory: on a 2000x2000 decompose (glibc, 2-core box) the row-block
# stats pass took about 190 ms with 4 MB blocks, which fault in fresh pages
# for every block, and 35-75 ms with 1 MB blocks.
BLOCK_BYTES = 1 << 20


def row_blocks(shape):
    """Row slices that cover a matrix of the given shape, each of at most
    BLOCK_BYTES of float64 values but never less than one row."""
    rows, cols = shape
    step = max(1, BLOCK_BYTES // (8 * max(1, cols)))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def as_dense(a):
    """Coerce *a* to a C-contiguous 2-D float64 array, raising InputError
    for NaN/Inf entries. Finiteness is checked over row_blocks, each block's
    mask written into one boolean buffer, so besides a copy made to convert
    *a* the check holds only one block's mask."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    arr = np.ascontiguousarray(arr)
    slices = row_blocks(arr.shape)
    mask = np.empty((slices[0].stop if slices else 0, arr.shape[1]), dtype=bool)
    for rows in slices:
        if not np.isfinite(arr[rows], out=mask[:rows.stop - rows.start]).all():
            raise InputError("matrix contains non-finite entries")
    return arr


def check_seed(seed):
    """Reject a negative integer RNG seed by name; numpy checks the rest."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"rng_seed must be >= 0, got {seed}")


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
    # max |m| without an |m| temporary; + 0.0 makes an all-zero m's -0.0 0.0
    m = np.asarray(m, dtype=np.float64)  # bool cannot be negated
    return float(max(m.max(), -m.min())) + 0.0 if m.size else 0.0


def l0_count(m, threshold=None):
    """Count entries with |x| > threshold.

    Recovered sparse parts carry solver-tolerance noise, so the default
    threshold is 1e-6 times the matrix linf norm rather than exact zero.
    """
    if threshold is None:
        threshold = 1e-6 * linf_norm(m)
    if not threshold >= 0:  # so that NaN fails
        raise ValueError("threshold must be nonnegative")
    return int((np.abs(m) > threshold).sum())


def svd(m, rank_tol=1e-8, atol=0.0):
    """Skinny SVD of *m*, dropping singular values <= max(rank_tol *
    sigma_max, atol).

    Exact zeros are always dropped, so the result has strictly positive
    singular values even at rank_tol=0. Only the retained columns of
    LAPACK's U and V are copied, u and v C-contiguous.
    """
    m = np.asarray(m, dtype=np.float64)
    if not (rank_tol >= 0 and atol >= 0):  # so that NaN fails
        raise ValueError("rank_tol and atol must be nonnegative")
    # LAPACK fails on a NaN but returns NaN singular values for an infinity
    if not np.isfinite(m).all():
        raise SvdConvergenceError(f"SVD of a {m.shape} matrix with non-finite entries")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD failed on {m.shape} matrix: {exc}") from exc
    cutoff = max(rank_tol * (s[0] if s.size else 0.0), atol)
    k = int((s > cutoff).sum())
    return SkinnySvd(u=u[:, :k].copy(), sigma=s[:k].copy(), v=vt[:k].T.copy())


# Rank-adaptive SVT (Halko, Martinsson & Tropp, arXiv:0909.4061, with the
# rank predicted from the previous iterate as in IALM, arXiv:1009.5055).
PARTIAL_MAX_FRACTION = 0.25   # sketch wider than this share of min(m, n): full SVD
PARTIAL_MAX_POWER_STEPS = 8
# max|W V_k - U_k Sigma_k| allowed, relative to sigma_1: about ten times its
# rounding floor, which keeps an accepted SVT within ~1e-15 sigma_1 of the
# full SVD's (1e-13 let single SVTs drift by 4e-14 sigma_1)
PARTIAL_CERT_TOL = 1e-14
PARTIAL_SKETCH_SEED = 0
# smallest pivot of a plain step's Cholesky factor accepted, over its largest:
# a singular Y^T Y that rounding kept positive definite left 8e-9 to 2e-8,
# the plain steps of the benchmark's instances at least 2.29e-6
CHOLESKY_QR_MIN_PIVOT = 1e-7


def _sketch_width(k):
    """Columns sketched for k expected singular values above the threshold."""
    return k + max(10, k // 2)


def _power_steps_left(miss, goal, sigma_k, sigma_p):
    """Power steps predicted to bring a certificate that missed by *miss*
    down to *goal*: each step multiplies it by about (sigma_p /
    sigma_k)^2, the ratio of the smallest sketched Ritz value to the k-th."""
    rate = (sigma_p / sigma_k) ** 2
    if rate == 0.0:
        return 1
    if rate >= 1.0:
        return PARTIAL_MAX_POWER_STEPS
    return math.ceil(math.log(miss / goal) / -math.log(rate))


def _cholesky_qr(y):
    """An orthonormal basis Q = Y R^-1 of the range of *y* by Cholesky-QR,
    from Y^T Y = R^T R, or None when the factor fails, is not finite, or has
    a pivot below CHOLESKY_QR_MIN_PIVOT of its largest: a singular Y^T Y may
    fail, or keep a rounding-level pivot and miss a direction. Q is
    orthonormal only to about cond(Y)^2 eps, enough for a plain power step,
    which needs only a well-conditioned basis of the same range."""
    try:
        r_t = np.linalg.cholesky(y.T @ y)
    except np.linalg.LinAlgError:
        return None
    pivots = np.diagonal(r_t)
    if not pivots.min() >= CHOLESKY_QR_MIN_PIVOT * pivots.max():  # so that NaN fails
        return None
    q = y @ np.linalg.inv(r_t).T
    return q if np.isfinite(q).all() else None


def _rayleigh_ritz(w, eta, y, plain=0):
    """Thresholded factors (U_k, Sigma_k - eta, V_k) of *w* from the range
    basis *y* (m×p), or None when they cannot be certified.

    The Rayleigh-Ritz step B = Q^T W makes W^T U_k = V_k Sigma_k hold
    exactly, so the triplets are accepted once max|W V_k - U_k Sigma_k| <=
    PARTIAL_CERT_TOL * sigma_1, within PARTIAL_MAX_POWER_STEPS power steps
    of the first; None when every one of the p values survives the
    threshold, or when the certificate is never met. B's SVD is taken from
    the tall W^T Q = B^T, whose factors are B's swapped.

    Only a Rayleigh-Ritz step needs that SVD. The first *plain* steps, and
    after a Rayleigh-Ritz step that misses the certificate all but the last
    of the steps _power_steps_left predicts, are plain power steps W W^T Q,
    which span what the Rayleigh-Ritz steps would have. A Rayleigh-Ritz
    step orthonormalises its basis by Householder QR, a plain step by
    Cholesky-QR, or by Householder QR when the Cholesky factor fails.
    """
    p = y.shape[1]
    for step in range(PARTIAL_MAX_POWER_STEPS + 1):
        q = _cholesky_qr(y) if plain else None
        if q is None:
            q = np.linalg.qr(y)[0]
        if plain:
            plain -= 1
            y = w @ (w.T @ q)
            continue
        # the SVD of B^T = W^T Q: f.u is B's V_B and f.v its U_B
        f = svd(w.T @ q, rank_tol=0.0)
        k = int((f.sigma > eta).sum())
        if k == p or f.rank == 0:
            return None
        # W^T Q = B^T has range span(V_B), so W V_B spans the next power
        # step W orth(W^T Q); its first k columns are the certificate's W V_k
        y = w @ f.u
        if k:
            u = q @ f.v[:, :k]
            miss = np.abs(y[:, :k] - u * f.sigma[:k]).max()
            goal = PARTIAL_CERT_TOL * f.sigma[0]
            if miss <= goal:
                return SkinnySvd(u, f.sigma[:k] - eta, f.u[:, :k].copy())
            # sigma_p is 0 when B has fewer than p nonzero values
            sigma_p = f.sigma[-1] if f.rank == p else 0.0
            steps = _power_steps_left(miss, goal, f.sigma[k - 1], sigma_p)
            # the budget's last step is always a Rayleigh-Ritz step
            plain = max(0, min(steps, PARTIAL_MAX_POWER_STEPS - step) - 1)
    return None


def _svt_partial_factors(w, eta, v_prev, omega):
    """The warm start: _rayleigh_ritz from the sketch W Omega, one plain
    power step before its first Rayleigh-Ritz step, where svt_with_rank's
    Gaussian draw *omega* (n x _sketch_width(k)) gets the previous rank-k
    right singular vectors *v_prev* as its first k columns. None when
    _rayleigh_ritz declines."""
    omega[:, :v_prev.shape[1]] = v_prev
    return _rayleigh_ritz(w, eta, w @ omega, plain=1)


def _scaled_gram(w, e):
    """The Gram matrix of 2^-e W over its shorter side, W^T W or W W^T; the
    scaled copy is freed on return."""
    w = np.ldexp(w, -e)
    return w.T @ w if w.shape[0] >= w.shape[1] else w @ w.T


def _dominates(g, c):
    """Whether c I - G is positive definite, by its Cholesky factorization,
    formed in G's buffer. G is left overwritten when it is and restored bit
    for bit when it is not: negation is exact, and its diagonal is put back
    from a copy."""
    diag = g.diagonal().copy()
    np.negative(g, out=g)
    np.fill_diagonal(g, c - diag)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        np.negative(g, out=g)
        np.fill_diagonal(g, diag)
        return False
    return True


def _svt_gram_factors(w, eta):
    """The cold start, from the Gram matrix G.

    W is first scaled by the power of two 2^-e that brings max|W| into
    [1, 2), as spectral_norm_estimate does, so G neither overflows nor
    underflows. The SVT is 0 when no singular value exceeds eta, that is
    when (2^-e eta)^2 I - G is positive definite; a Cholesky factorization
    of c I - G, with c that square less a margin of 8 max(m, n) eps for
    the rounding of G and of the factorization, certifies it without an
    eigendecomposition, and so does a c that overflows. Otherwise G's
    eigendecomposition counts k, every eigenvalue that could exceed
    (2^-e eta)^2 given G's absolute error, about max(m, n) eps lambda_max;
    at k = 0 the SVT is 0 again. Otherwise the top p = _sketch_width(k)
    eigenvectors, right singular vectors of a tall W (the basis is then W
    times them) or left ones of a wide W, seed _rayleigh_ritz on the
    unscaled W, and its certificate decides. None when p is wider than
    PARTIAL_MAX_FRACTION of min(m, n), when eigh fails or W is not finite,
    or when _rayleigh_ritz declines. The Cholesky factor and then the
    eigenvectors are the only arrays of G's size held beside G, which is
    freed when eigh returns, and of the eigenvectors only the p kept are
    copied.
    """
    zero = SkinnySvd(np.zeros((w.shape[0], 0)), np.zeros(0), np.zeros((w.shape[1], 0)))
    peak = linf_norm(w)
    if not np.isfinite(peak):
        return None
    e = math.frexp(peak)[1] - 1
    eps = np.finfo(float).eps
    with np.errstate(over="ignore"):  # a scaled eta whose square overflows keeps none
        bound = np.ldexp(eta, -e) ** 2
    c = bound * (1 - 8 * max(w.shape) * eps)
    if not np.isfinite(c):
        return zero
    g = _scaled_gram(w, e)
    if _dominates(g, c):
        return zero
    try:
        lam, vecs = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None
    del g
    if not np.isfinite(lam).all():
        return None
    k = int((lam > bound - max(w.shape) * eps * abs(lam[-1])).sum())
    if k == 0:
        return zero
    p = _sketch_width(k)
    if p > PARTIAL_MAX_FRACTION * min(w.shape):
        return None
    basis = vecs[:, :-p - 1:-1].copy()  # the top p, largest first
    del vecs
    return _rayleigh_ritz(w, eta, w @ basis if w.shape[0] >= w.shape[1] else basis)


def svt_with_rank(w, eta, v_prev=None, paths=None, draws=None):
    """Singular value thresholding U_k (Sigma_k - eta) V_k^T of *w*, over the
    k singular values above eta. Returns (matrix, factors): factors is the
    SkinnySvd (U_k, Sigma_k - eta, V_k) whose reconstruction is the matrix.

    The factors come from the first of three paths that succeeds:
    - "warm": with the previous iterate's right singular vectors *v_prev*,
      the certified partial SVD warm-started from them
      (_svt_partial_factors);
    - "gram": without a usable warm start (no v_prev, a previous rank of 0,
      or a warm sketch that ended with every sketched value above eta or
      without a certificate), the certified partial SVD started from the
      eigenvectors of W's Gram matrix (_svt_gram_factors); counted as
      "zero" instead when it certifies that no singular value exceeds eta,
      most often by a Cholesky factorization and no eigendecomposition;
    - "svd": LAPACK's full SVD, which keeps only the k values above eta, so
      its full U and V^T are released before the matrix is allocated.
    The previous rank, v_prev's width, skips both sketches when their width
    for it would pass PARTIAL_MAX_FRACTION of min(m, n), so an iterate too
    wide for a sketch goes straight to the full SVD. All paths share the
    layout of U_k and V_k, and it must hold: the last bits of the product
    depend on how V_k^T is laid out. *paths*, a dict, counts the path taken
    under its name. Only this function draws the warm start's Gaussian
    sketch, and *draws*, a dict, keeps the last width's draw for the next
    call of that width (a warm start overwrites its first k columns, and the
    width sets k); it is dropped before a Gram start or full SVD, so it
    never adds to their peak. Without *draws* every call draws anew.
    """
    if not eta >= 0:  # so that NaN fails
        raise ValueError("eta must be nonnegative")
    w = np.asarray(w, dtype=np.float64)
    draws = {} if draws is None else draws
    k_prev = v_prev.shape[1] if v_prev is not None else 0
    shape = (w.shape[1], _sketch_width(k_prev))
    factors = None
    sketched = shape[1] <= PARTIAL_MAX_FRACTION * min(w.shape)
    if sketched and k_prev:
        if shape not in draws:  # the draw for the last width only, so it stays thin
            draws.clear()
            draws[shape] = np.random.default_rng(PARTIAL_SKETCH_SEED).standard_normal(shape)
        factors, path = _svt_partial_factors(w, eta, v_prev, draws[shape]), "warm"
    if factors is None:
        draws.clear()
    if factors is None and sketched:
        factors = _svt_gram_factors(w, eta)
        path = "zero" if factors is not None and factors.rank == 0 else "gram"
    if factors is None:
        f = svd(w, rank_tol=0.0, atol=eta)
        factors, path = SkinnySvd(f.u, f.sigma - eta, f.v), "svd"
    if paths is not None:
        paths[path] = paths.get(path, 0) + 1
    return factors.reconstruct(), factors

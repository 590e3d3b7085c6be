"""Synthetic problem generation and recovery metrics.

Ground truth follows the standard random model: the low-rank part is a
product of two Gaussian factor matrices, the sparse part has a uniformly
random support with entries i.i.d. uniform in [-magnitude, magnitude].
RNG is numpy's PCG64; factor and support streams are split off the spec
seed with SeedSequence.spawn so results are reproducible across platforms.
checkerboard and moving_object give structured instances instead: an image,
and a video whose corruption is one moving square.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matio
from .matcore import as_dense, check_seed


@dataclass(frozen=True)
class SynthSpec:
    m: int
    n: int
    rho_r: float        # rank ratio r/m
    rho_s: float        # sparsity ratio p/(m*n)
    magnitude: float = 500.0
    sigma_scale: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not (self.m >= 1 and self.n >= 1):
            raise ValueError(f"m and n must be >= 1, got m={self.m}, n={self.n}")
        if not (0 <= self.rho_r <= 1 and self.rank <= self.n):
            raise ValueError(f"rho_r must be in [0, 1] with round(rho_r * m) <= n, "
                             f"got {self.rho_r}")
        if not 0 <= self.rho_s <= 1:
            raise ValueError(f"rho_s must be in [0, 1], got {self.rho_s}")
        if not 0 <= self.magnitude < math.inf:
            raise ValueError(f"magnitude must be finite and >= 0, got {self.magnitude}")
        if not -math.inf < self.sigma_scale < math.inf:
            raise ValueError(f"sigma_scale must be finite, got {self.sigma_scale}")
        check_seed(self.rng_seed)

    @property
    def rank(self):
        return int(round(self.rho_r * self.m))

    @property
    def n_sparse(self):
        return int(round(self.rho_s * self.m * self.n))


@dataclass(frozen=True)
class GroundTruth:
    m_obs: np.ndarray
    l0: np.ndarray
    s0: np.ndarray


def generate(spec):
    """Generate (M, L0, S0) with M = L0 + sigma_scale * S0, deterministic
    for a fixed rng_seed."""
    m, n, r, p = spec.m, spec.n, spec.rank, spec.n_sparse
    ss_l, ss_s = np.random.SeedSequence(spec.rng_seed).spawn(2)

    rng_l = np.random.default_rng(ss_l)
    if r == 0:
        l0 = np.zeros((m, n))
    else:
        l0 = rng_l.standard_normal((m, r)) @ rng_l.standard_normal((n, r)).T

    rng_s = np.random.default_rng(ss_s)
    s0 = np.zeros(m * n)
    if p > 0:
        support = rng_s.choice(m * n, size=p, replace=False)
        s0[support] = rng_s.uniform(-spec.magnitude, spec.magnitude, size=p)
    s0 = s0.reshape(m, n)

    return GroundTruth(m_obs=l0 + spec.sigma_scale * s0, l0=l0, s0=s0)


def checkerboard(m, cell):
    """m x m checkerboard with levels 0.2/0.8; rank is exactly 2."""
    if not (m >= 1 and cell >= 1):
        raise ValueError(f"m and cell must be >= 1, got m={m}, cell={cell}")
    if m % cell != 0:
        raise ValueError(f"cell={cell} does not divide m={m}")
    idx = np.arange(m) // cell
    parity = (idx[:, None] + idx[None, :]) % 2
    return np.where(parity == 0, 0.2, 0.8)


def moving_object():
    """A video of a moving square over a low-rank background, as (M, L0, S0):
    one column of M per frame, one row per pixel of a 40 x 50 frame in
    row-major order, 400 frames.

    L0 = bg light / 2, with bg uniform in [50, 200] (2000 pixels x rank 2)
    and light 1 + 0.1 N(0, 1) (2 x 400), whose first row is replaced by the
    slow 1 + 0.2 sin(linspace(0, 6, 400)). A 12 x 12 square starts at row
    y, drawn from [0, 28), and column 0, with a vertical step vy = +-1. In
    each frame in turn it covers its pixels with one value uniform in
    [0, 255]; then y moves by vy, clipped to [0, 28], and x by 2, modulo
    38. S0 = M - L0 has a density of 144 / 2000 = 7.2%. The RNG is
    default_rng(1)."""
    rng = np.random.default_rng(1)
    bg = rng.uniform(50, 200, (2000, 2))
    light = 1 + 0.1 * rng.standard_normal((2, 400))
    light[0] = 1 + 0.2 * np.sin(np.linspace(0, 6, 400))
    l0 = bg @ light / 2
    y_max, x_max = 40 - 12, 50 - 12
    y, x, vy = rng.integers(0, y_max), 0, rng.choice([-1, 1])
    m = l0.copy()
    video = m.reshape(40, 50, 400)  # a view of M
    for t in range(400):
        video[y:y + 12, x:x + 12, t] = rng.uniform(0, 255)
        y, x = min(max(y + vy, 0), y_max), (x + 2) % x_max
    return GroundTruth(m_obs=m, l0=l0, s0=m - l0)


def corrupt_impulsive(img, fraction, rng_seed):
    """Replace a uniform random fraction of pixels by 0 or the peak value
    1.0 (fair coin per pixel)."""
    img = as_dense(img)
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    check_seed(rng_seed)
    n_bad = int(round(fraction * img.size))
    rng = np.random.default_rng(rng_seed)
    corrupted = img.copy().ravel()
    if n_bad:
        pos = rng.choice(img.size, size=n_bad, replace=False)
        corrupted[pos] = rng.integers(0, 2, size=n_bad).astype(float)
    corrupted = corrupted.reshape(img.shape)
    return GroundTruth(m_obs=corrupted, l0=img, s0=corrupted - img)


def recovery_errors(l_star, l0):
    """The dict of rel_err ||L - L0||_F / ||L0||_F (||L||_F when L0 = 0),
    max_dif max |L - L0| and ave_dif mean |L - L0|. matio.blocks walks L,
    dense or a LowRank, and |L - L0| is formed in each block's buffer."""
    if l_star.shape != l0.shape or not l0.size:
        raise ValueError(f"L {l_star.shape} and L0 {l0.shape} must have one nonempty shape")
    sq_dif = sq_l0 = sq_l = sum_dif = max_dif = 0.0
    for rows, l in matio.blocks(l_star):
        l0_rows = l0[rows]
        sq_l0 += float(np.vdot(l0_rows, l0_rows))
        sq_l += float(np.vdot(l, l))
        dif = np.abs(np.subtract(l, l0_rows, out=l), out=l)
        sq_dif += float(np.vdot(dif, dif))
        sum_dif += float(dif.sum())
        max_dif = float(np.maximum(max_dif, dif.max()))  # keeps a NaN, as max() does not
    return {"rel_err": (sq_dif / sq_l0) ** 0.5 if sq_l0 else sq_l ** 0.5,
            "max_dif": max_dif, "ave_dif": sum_dif / l0.size}


def rel_err(l_star, l0):
    """Relative Frobenius error against the true low-rank matrix."""
    return recovery_errors(l_star, l0)["rel_err"]


def max_dif(l_star, l0):
    return recovery_errors(l_star, l0)["max_dif"]


def ave_dif(l_star, l0):
    return recovery_errors(l_star, l0)["ave_dif"]


def write_pgm(path, img):
    """Write an 8-bit binary PGM (P5), clamping [0,1] linearly to 0..255."""
    img = as_dense(img)
    pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))

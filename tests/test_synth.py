"""Tests for synthetic data generation, checkerboard images, and metrics."""

import numpy as np
import pytest

from l1pcp import matcore, synth
from l1pcp.l1filter import LowRank
import oracles


def test_generate_rank_and_support_counts():
    spec = synth.SynthSpec(m=200, n=200, rho_r=0.02, rho_s=0.05, rng_seed=0)
    gt = synth.generate(spec)
    assert spec.rank == 4
    sig = np.linalg.svd(gt.l0, compute_uv=False)
    assert (sig > 1e-10 * sig[0]).sum() == 4
    assert np.count_nonzero(gt.s0) == spec.n_sparse
    np.testing.assert_array_equal(gt.m_obs, gt.l0 + gt.s0)


def test_generate_is_bit_reproducible():
    spec = synth.SynthSpec(m=50, n=60, rho_r=0.04, rho_s=0.1, rng_seed=7)
    a = synth.generate(spec)
    b = synth.generate(spec)
    np.testing.assert_array_equal(a.m_obs, b.m_obs)
    np.testing.assert_array_equal(a.l0, b.l0)
    np.testing.assert_array_equal(a.s0, b.s0)


def test_moving_object_video():
    gt = synth.moving_object()
    assert gt.m_obs.shape == (2000, 400)
    sig = np.linalg.svd(gt.l0, compute_uv=False)
    assert (sig > 1e-10 * sig[0]).sum() == 2
    # one 12x12 square per frame, covered by one value, L0 elsewhere
    support = gt.s0 != 0
    assert support.mean() == 0.072
    np.testing.assert_array_equal(gt.m_obs[~support], gt.l0[~support])
    np.testing.assert_array_equal(gt.s0, gt.m_obs - gt.l0)
    video = gt.m_obs.reshape(40, 50, 400)
    for t in (0, 1, 399):
        rows, cols = np.nonzero(support.reshape(40, 50, 400)[:, :, t])
        assert np.ptp(rows) == np.ptp(cols) == 11 and cols.min() == 2 * t % 38
        assert np.unique(video[rows, cols, t]).size == 1
    b = synth.moving_object()
    np.testing.assert_array_equal(gt.m_obs, b.m_obs)


def test_generate_zero_sparsity():
    gt = synth.generate(synth.SynthSpec(m=30, n=30, rho_r=0.1, rho_s=0.0))
    assert not gt.s0.any()
    np.testing.assert_array_equal(gt.m_obs, gt.l0)


def test_generate_sigma_scale():
    spec = synth.SynthSpec(m=40, n=40, rho_r=0.05, rho_s=0.1, sigma_scale=3.0)
    gt = synth.generate(spec)
    np.testing.assert_allclose(gt.m_obs, gt.l0 + 3.0 * gt.s0)


def test_generate_rejects_oversubscribed_support():
    with pytest.raises(ValueError):
        synth.generate(synth.SynthSpec(m=4, n=4, rho_r=0.25, rho_s=2.0))


@pytest.mark.parametrize("field, value, name", [
    ("m", -5, "m and n"), ("m", 0, "m and n"), ("n", -1, "m and n"),
    ("rho_r", -1.0, "rho_r"), ("rho_r", float("nan"), "rho_r"), ("rho_r", 0.5, "rho_r"),
    ("rho_s", -0.5, "rho_s"), ("rho_s", float("nan"), "rho_s"),
    ("magnitude", float("nan"), "magnitude"), ("magnitude", -1.0, "magnitude"),
    ("magnitude", float("inf"), "magnitude"), ("sigma_scale", float("inf"), "sigma_scale"),
    ("rng_seed", -1, "rng_seed"), ("rng_seed", np.int64(-3), "rng_seed"),
])
def test_spec_rejects_bad_sizes_by_name(field, value, name):
    # rho_r = 0.5 asks for rank 5 of a 10x4 matrix
    spec = {"m": 10, "n": 4, "rho_r": 0.1, "rho_s": 0.1, field: value}
    with pytest.raises(ValueError, match=f"^{name} must"):
        synth.SynthSpec(**spec)


def test_sparse_magnitude_statistics():
    # |U[-500, 500]| has mean 250; check within 5% on a large support
    spec = synth.SynthSpec(m=400, n=400, rho_r=0.01, rho_s=0.1, rng_seed=0)
    gt = synth.generate(spec)
    vals = np.abs(gt.s0[gt.s0 != 0])
    assert vals.size == spec.n_sparse >= 10_000
    assert abs(vals.mean() - 250.0) <= 0.05 * 250.0


def test_checkerboard_rank_two():
    img = synth.checkerboard(8, 4)
    assert img.shape == (8, 8)
    assert set(np.unique(img)) == {0.2, 0.8}
    sig = np.linalg.svd(img, compute_uv=False)
    assert (sig > 1e-10 * sig[0]).sum() == 2
    with pytest.raises(ValueError):
        synth.checkerboard(10, 3)


@pytest.mark.parametrize("m, cell, named", [(10, 0, "cell=0"), (10, -5, "cell=-5"),
                                             (0, 64, "m=0"), (-4, 2, "m=-4")])
def test_checkerboard_rejects_sizes_below_one_by_name(m, cell, named):
    # cell 0 divided by zero; the others made degenerate images
    with pytest.raises(ValueError, match=f"^m and cell must be >= 1, got .*{named}"):
        synth.checkerboard(m, cell)


def test_corrupt_impulsive_counts():
    img = synth.checkerboard(512, 64)
    gt = synth.corrupt_impulsive(img, 0.1, 0)
    # impulse values 0/1 never coincide with the 0.2/0.8 clean levels, so
    # the count of corrupted pixels is exact
    assert np.count_nonzero(gt.s0) == round(0.1 * 512 * 512)
    bad_values = gt.m_obs[gt.m_obs != img]
    assert set(np.unique(bad_values)) <= {0.0, 1.0}


@pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
def test_corrupt_impulsive_rejects_a_fraction_outside_0_1(fraction):
    with pytest.raises(ValueError, match="fraction must be in"):
        synth.corrupt_impulsive(synth.checkerboard(8, 4), fraction, 0)


def test_corrupt_impulsive_rejects_a_negative_seed_by_name():
    img = synth.checkerboard(8, 4)
    with pytest.raises(ValueError, match="^rng_seed must be >= 0, got -1"):
        synth.corrupt_impulsive(img, 0.1, -1)
    # a Generator or SeedSequence is numpy's to take
    seeded = synth.corrupt_impulsive(img, 0.1, np.random.SeedSequence(2)).m_obs
    np.testing.assert_array_equal(seeded, synth.corrupt_impulsive(img, 0.1, 2).m_obs)


def test_corrupt_impulsive_zero_fraction():
    img = synth.checkerboard(16, 4)
    gt = synth.corrupt_impulsive(img, 0.0, 0)
    np.testing.assert_array_equal(gt.m_obs, img)
    assert not gt.s0.any()


def test_metrics_trivial_cases():
    l0 = np.ones((5, 4))
    assert synth.rel_err(l0, l0) == 0.0
    assert synth.max_dif(l0, l0) == 0.0
    assert synth.ave_dif(l0, l0) == 0.0
    shifted = l0 + 1.0
    assert synth.max_dif(shifted, l0) == 1.0
    assert synth.ave_dif(shifted, l0) == 1.0
    assert synth.rel_err(shifted, l0) == pytest.approx(1.0)


@pytest.mark.parametrize("case", ["dense", "low-rank", "zero-l0"])
def test_recovery_errors_match_dense_formulas(monkeypatch, case):
    # several row blocks, the last one short
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 7 * 30 * 8)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((50, 3)), rng.standard_normal((30, 3))
    l0 = np.zeros((50, 30)) if case == "zero-l0" else a @ b.T
    l_star = LowRank(a + 1e-3 * rng.standard_normal(a.shape), b)
    dense = l_star.a @ l_star.b.T
    l_in = dense if case == "dense" else l_star
    errors = synth.recovery_errors(l_in, l0)
    for name, value in errors.items():
        assert getattr(synth, name)(l_in, l0) == value
    expected = oracles.recovery_errors(dense, l0)
    assert errors == pytest.approx(expected, rel=1e-12)
    if case == "dense":  # |L - L0| of the same values, in any order
        assert errors["max_dif"] == expected["max_dif"]


def test_recovery_errors_keep_a_nan_in_a_later_row_block():
    # max(x, nan) is x: a NaN in the last of three row blocks read max_dif
    # 0.0 beside a NaN rel_err
    l0 = np.ones((3000, 100))
    l_star = l0.copy()
    l_star[-1, -1] = np.nan
    assert len(matcore.row_blocks(l0.shape)) == 3
    errors = synth.recovery_errors(l_star, l0)
    assert np.isnan(errors["max_dif"])
    np.testing.assert_equal(errors, oracles.recovery_errors(l_star, l0))


def test_recovery_errors_reject_mismatched_or_empty_shapes():
    with pytest.raises(ValueError, match="one nonempty shape"):
        synth.recovery_errors(np.ones((3, 2)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="one nonempty shape"):
        synth.recovery_errors(np.ones((0, 3)), np.ones((0, 3)))


def test_write_pgm_bytes(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 2.0]])  # 2.0 clamps to 255
    path = tmp_path / "img.pgm"
    synth.write_pgm(path, img)
    raw = path.read_bytes()
    header, pixels = raw[: raw.index(b"255\n") + 4], raw[raw.index(b"255\n") + 4:]
    assert header == b"P5\n2 2\n255\n"
    assert list(pixels) == [0, 128, 255, 255]

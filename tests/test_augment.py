"""Augmentation tests: identities, reproducibility, and distributional checks."""

import numpy as np
import pytest

from tsadapt.augment import (
    AugmentSpec,
    apply_augment,
    jitter,
    magnitude_warp,
    permutation,
    scale,
)
from tsadapt.errors import ConfigurationError, ContractError


@pytest.fixture
def batch():
    return np.random.default_rng(0).normal(size=(5, 3, 32))


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            AugmentSpec(kind="jitter", sigma=-0.1)
        with pytest.raises(ConfigurationError):
            AugmentSpec(kind="magnitude-warp", knots=1)
        with pytest.raises(ConfigurationError):
            AugmentSpec(kind="permutation", segments=0)
        with pytest.raises(ConfigurationError):
            AugmentSpec(kind="compose")
        with pytest.raises(ConfigurationError):
            AugmentSpec(kind="time-travel")

    @pytest.mark.parametrize("kw", [
        dict(knots=2.5), dict(knots=4.0), dict(knots=True),
        dict(kind="permutation", segments=2.5), dict(kind="permutation", segments="5"),
    ])
    def test_counts_must_be_integers(self, kw):
        # built in Python, a float count used to pass here and fail inside
        # the augmentation with TypeError or AxisError
        with pytest.raises(ConfigurationError, match="must be an integer"):
            AugmentSpec(**kw)

    def test_numpy_integer_counts_accepted(self):
        AugmentSpec(knots=np.int64(4), segments=np.int32(3))

    def test_round_trips_through_dict(self):
        spec = AugmentSpec(kind="compose", parts=(
            AugmentSpec(kind="jitter", sigma=0.3),
            AugmentSpec(kind="magnitude-warp", knots=6),
        ))
        assert AugmentSpec.from_dict(spec.to_dict()) == spec

    def test_kind_mismatch(self, batch):
        with pytest.raises(ContractError):
            magnitude_warp(batch, AugmentSpec(kind="jitter"), np.random.default_rng(0))


class TestMagnitudeWarp:
    def test_sigma_zero_is_bitwise_identity(self, batch):
        spec = AugmentSpec(kind="magnitude-warp", sigma=0.0)
        out = magnitude_warp(batch, spec, np.random.default_rng(1))
        np.testing.assert_array_equal(out, batch)

    def test_shape_preserved(self, batch):
        for knots in (2, 4, 8):
            spec = AugmentSpec(kind="magnitude-warp", sigma=0.3, knots=knots)
            assert magnitude_warp(batch, spec, np.random.default_rng(2)).shape == batch.shape

    def test_warp_curve_mean_near_one(self):
        # Monte-Carlo estimate of the Normal(1, sigma^2) warp-curve mean
        spec = AugmentSpec(kind="magnitude-warp", sigma=0.2)
        ones = np.ones((10_000, 1, 64))
        curves = magnitude_warp(ones, spec, np.random.default_rng(3))
        assert 0.99 <= curves.mean() <= 1.01

    def test_too_few_samples_for_knots(self):
        spec = AugmentSpec(kind="magnitude-warp", knots=8)
        with pytest.raises(ConfigurationError):
            magnitude_warp(np.zeros((1, 1, 4)), spec, np.random.default_rng(0))


class TestOtherAugmentations:
    def test_jitter_sigma_zero_identity(self, batch):
        out = jitter(batch, AugmentSpec(kind="jitter", sigma=0.0), np.random.default_rng(0))
        np.testing.assert_array_equal(out, batch)

    def test_permutation_single_segment_identity(self, batch):
        spec = AugmentSpec(kind="permutation", segments=1)
        np.testing.assert_array_equal(
            permutation(batch, spec, np.random.default_rng(0)), batch
        )

    def test_permutation_preserves_values(self, batch):
        spec = AugmentSpec(kind="permutation", segments=5)
        out = permutation(batch, spec, np.random.default_rng(5))
        np.testing.assert_array_equal(np.sort(out, axis=2), np.sort(batch, axis=2))

    def test_permutation_too_many_segments(self, batch):
        with pytest.raises(ConfigurationError):
            permutation(batch, AugmentSpec(kind="permutation", segments=64),
                        np.random.default_rng(0))

    def test_scale_uses_one_scalar_per_sample_channel(self, batch):
        # replaying the seed stream recovers the exact draw
        spec = AugmentSpec(kind="scale", sigma=0.5)
        out = scale(batch, spec, np.random.default_rng(9))
        factors = np.random.default_rng(9).normal(1.0, 0.5, size=(5, 3, 1))
        np.testing.assert_array_equal(out, batch * factors)


class TestApplyAugment:
    def test_all_kinds_shape_preserving(self, batch):
        specs = [
            AugmentSpec(kind="magnitude-warp"),
            AugmentSpec(kind="jitter", sigma=0.1),
            AugmentSpec(kind="scale", sigma=0.2),
            AugmentSpec(kind="permutation", segments=4),
            AugmentSpec(kind="none"),
        ]
        for spec in specs:
            assert apply_augment(batch, spec, np.random.default_rng(0)).shape == batch.shape

    def test_bitwise_reproducible(self, batch):
        for kind in ("magnitude-warp", "jitter", "scale", "permutation"):
            spec = AugmentSpec(kind=kind, sigma=0.4, segments=4)
            a = apply_augment(batch, spec, np.random.default_rng(33))
            b = apply_augment(batch, spec, np.random.default_rng(33))
            np.testing.assert_array_equal(a, b)

    def test_compose_none_prefix_is_noop(self, batch):
        inner = AugmentSpec(kind="scale", sigma=0.3)
        composed = AugmentSpec(kind="compose", parts=(AugmentSpec(kind="none"), inner))
        a = apply_augment(batch, composed, np.random.default_rng(7))
        b = apply_augment(batch, inner, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_compose_applies_left_to_right(self, batch):
        lhs = AugmentSpec(kind="compose", parts=(
            AugmentSpec(kind="scale", sigma=0.3),
            AugmentSpec(kind="jitter", sigma=0.1),
        ))
        rng = np.random.default_rng(11)
        manual = jitter(
            scale(batch, AugmentSpec(kind="scale", sigma=0.3), rng),
            AugmentSpec(kind="jitter", sigma=0.1), rng,
        )
        np.testing.assert_array_equal(
            apply_augment(batch, lhs, np.random.default_rng(11)), manual
        )

    def test_rejects_wrong_rank(self):
        with pytest.raises(ContractError):
            apply_augment(np.zeros((4, 8)), AugmentSpec(kind="jitter"),
                          np.random.default_rng(0))

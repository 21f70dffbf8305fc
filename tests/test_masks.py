import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmix.errors import ConfigError, FormatError
from patchmix.masks import (
    PatchMask,
    PixelMask,
    complement,
    expand_to_pixel_mask,
    full_mask,
    mixing_ratio,
    parse_mask,
    reduce_to_patch_mask,
    sample_mask_bits,
    sample_random_mask,
    serialize_mask,
)
from patchmix.rng import RngKey


def random_mask(grid_size, rng):
    return PatchMask(rng.integers(0, 2, (grid_size, grid_size), dtype=np.uint8))


masks_strategy = st.integers(2, 8).flatmap(
    lambda p: st.lists(
        st.integers(0, 1), min_size=p * p, max_size=p * p
    ).map(lambda bits: PatchMask(np.array(bits, dtype=np.uint8).reshape(p, p)))
)


class TestPatchMask:
    def test_validates_bit_values(self):
        with pytest.raises(ConfigError):
            PatchMask(np.array([[0, 2], [1, 0]]))

    def test_requires_square(self):
        with pytest.raises(ConfigError):
            PatchMask(np.zeros((2, 3), dtype=np.uint8))

    def test_bits_are_read_only(self):
        mask = full_mask(2)
        with pytest.raises(ValueError):
            mask.bits[0, 0] = 0

    def test_value_equality(self):
        a = PatchMask(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        b = PatchMask(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        assert a == b
        assert a != complement(b)


class TestSampleRandomMask:
    def test_deterministic_per_seed(self):
        a = sample_random_mask(4, 1.0, RngKey(3).child("m").generator())
        b = sample_random_mask(4, 1.0, RngKey(3).child("m").generator())
        assert a == b

    def test_grid_size_cells(self):
        assert sample_random_mask(4, 1.0, np.random.default_rng(0)).bits.size == 16

    def test_fair_coin_rate(self):
        # Rounding a symmetric Beta draw is a fair coin; compare the hit
        # rate over 10,000 single-cell masks to a direct coin-flip run.
        rng = np.random.default_rng(77)
        ones = sum(sample_random_mask(1, 1.0, rng).popcount() for _ in range(10_000))
        assert 0.47 <= ones / 10_000 <= 0.53
        coin = np.random.default_rng(78).random(10_000) < 0.5
        assert abs(ones / 10_000 - coin.mean()) < 0.03

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            sample_random_mask(0, 1.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            sample_random_mask(4, 0.0, np.random.default_rng(0))


class TestSampleMaskBits:
    def test_single_mask_is_the_first_of_a_batch(self):
        one = sample_random_mask(4, 1.0, RngKey(3).child("m").generator())
        stack = sample_mask_bits(1, 4, 1.0, RngKey(3).child("m").generator())
        assert stack.shape == (1, 4, 4) and stack.dtype == np.uint8
        np.testing.assert_array_equal(one.bits, stack[0])

    @pytest.mark.parametrize("alpha", [0.4, 1.0, 2.5])
    def test_one_call_equals_consecutive_single_draws(self, alpha):
        batched_rng, single_rng = np.random.default_rng(5), np.random.default_rng(5)
        stack = sample_mask_bits(7, 3, alpha, batched_rng)
        singles = [sample_random_mask(3, alpha, single_rng).bits for _ in range(7)]
        np.testing.assert_array_equal(stack, np.stack(singles))
        # Both generators are left at the same point of the stream.
        assert batched_rng.random() == single_rng.random()

    def test_zero_count_is_empty(self):
        rng = np.random.default_rng(0)
        assert sample_mask_bits(0, 4, 1.0, rng).shape == (0, 4, 4)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize(
        "count, grid_size, alpha",
        [(2, 0, 1.0), (2, -1, 1.0), (2, 4, 0.0), (2, 4, -1.0), (-1, 4, 1.0)],
    )
    def test_bad_arguments(self, count, grid_size, alpha):
        with pytest.raises(ConfigError):
            sample_mask_bits(count, grid_size, alpha, np.random.default_rng(0))


class TestExpansion:
    def test_all_ones_expands_to_all_ones(self):
        pixel = expand_to_pixel_mask(full_mask(4), 32, 32)
        assert pixel.bits.shape == (32, 32)
        assert pixel.bits.all()

    def test_single_bit_fills_one_region(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[0, 0] = 1
        pixel = expand_to_pixel_mask(PatchMask(bits), 32, 32)
        assert pixel.bits[:8, :8].all()
        assert pixel.bits.sum() == 64

    def test_non_divisible_rejected(self):
        with pytest.raises(ConfigError):
            expand_to_pixel_mask(full_mask(4), 30, 32)

    def test_rectangular_images_supported(self):
        bits = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        pixel = expand_to_pixel_mask(PatchMask(bits), 8, 4)
        assert pixel.bits.shape == (4, 8)
        assert pixel.bits[:2, :4].all() and pixel.bits.sum() == 8

    def test_reduce_recovers_original(self, rng):
        for p in (2, 4, 8):
            mask = random_mask(p, rng)
            pixel = expand_to_pixel_mask(mask, 32, 32)
            assert reduce_to_patch_mask(pixel, p) == mask

    def test_popcount_scales_by_region_area(self, rng):
        mask = random_mask(4, rng)
        pixel = expand_to_pixel_mask(mask, 32, 16)
        assert pixel.bits.sum() == mask.popcount() * (32 // 4) * (16 // 4)


class TestMixingRatio:
    def test_all_ones(self):
        assert mixing_ratio(full_mask(4)) == 1.0

    def test_all_zeros(self):
        assert mixing_ratio(full_mask(4, value=0)) == 0.0

    def test_five_of_sixteen(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits.flat[:5] = 1
        assert mixing_ratio(PatchMask(bits)) == 0.3125

    @given(masks_strategy)
    @settings(max_examples=50, deadline=None)
    def test_complement_ratios_sum_to_one(self, mask):
        assert mixing_ratio(mask) + mixing_ratio(complement(mask)) == 1.0


class TestSerialization:
    def test_format_example(self):
        mask = PatchMask(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        assert serialize_mask(mask) == "P=2\n10\n01"

    @given(masks_strategy)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, mask):
        assert parse_mask(serialize_mask(mask)) == mask

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "P=2\n10",          # missing row
            "P=2\n10\n01\n11",  # extra row
            "P=2\n1x\n01",      # bad character
            "P=2\n100\n010",    # wrong row width
            "Q=2\n10\n01",      # bad header
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            parse_mask(text)


def test_pixel_mask_validates_bits():
    with pytest.raises(ConfigError):
        PixelMask(np.array([[0, 3]]))

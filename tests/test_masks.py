import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmix.errors import ConfigError, FormatError
from patchmix.evolution import Individual, format_individual, parse_individual
from patchmix.masks import sample_mask_bits, sample_random_mask
from patchmix.mixing import patchmix
from patchmix.rng import RngKey


masks_strategy = st.integers(2, 8).flatmap(
    lambda p: st.lists(
        st.integers(0, 1), min_size=p * p, max_size=p * p
    ).map(lambda bits: np.array(bits, dtype=np.uint8).reshape(p, p))
)

# Every public function that reads one (P, P) mask, on a 4x4 image; the
# stacks of ``patchmix_batch`` are refused alike (tests/test_mixing.py).
MASK_READERS = (
    lambda mask: patchmix(np.zeros((4, 4, 1)), 0, np.ones((4, 4, 1)), 1, mask, 2),
)


class TestPatchMask:
    """A mask is refused, with the same message, by every function that
    reads one."""

    def test_validates_bit_values(self):
        for read in MASK_READERS:
            with pytest.raises(ConfigError, match="^mask bits must contain only 0/1 values$"):
                read(np.array([[0, 2], [1, 0]]))

    def test_requires_square(self):
        for read in MASK_READERS:
            with pytest.raises(ConfigError, match=r"^mask bits must be square, got shape \(2, 3\)"):
                read(np.zeros((2, 3), dtype=np.uint8))

    def test_requires_a_cell(self):
        for read in MASK_READERS:
            with pytest.raises(ConfigError, match="^grid size must be at least 1$"):
                read(np.zeros((0, 0), dtype=np.uint8))


class TestSampleRandomMask:
    def test_deterministic_per_seed(self):
        a = sample_random_mask(4, RngKey(3).child("m").generator())
        b = sample_random_mask(4, RngKey(3).child("m").generator())
        np.testing.assert_array_equal(a, b)

    def test_grid_size_cells(self):
        assert sample_random_mask(4, np.random.default_rng(0)).shape == (4, 4)

    def test_fair_coin_rate(self):
        # Every cell is a fair coin; compare the hit rate over 10,000
        # single-cell masks to a direct coin-flip run.
        rng = np.random.default_rng(77)
        ones = sum(int(sample_random_mask(1, rng).sum()) for _ in range(10_000))
        assert 0.47 <= ones / 10_000 <= 0.53
        coin = np.random.default_rng(78).random(10_000) < 0.5
        assert abs(ones / 10_000 - coin.mean()) < 0.03

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            sample_random_mask(0, np.random.default_rng(0))


class TestSampleMaskBits:
    def test_single_mask_is_the_first_of_a_batch(self):
        one = sample_random_mask(4, RngKey(3).child("m").generator())
        stack = sample_mask_bits(1, 4, RngKey(3).child("m").generator())
        assert stack.shape == (1, 4, 4) and stack.dtype == np.uint8
        np.testing.assert_array_equal(one, stack[0])

    @pytest.mark.parametrize("alpha", [0.4, 1.0, 2.5])
    def test_one_call_equals_consecutive_single_draws(self, alpha):
        # Both streams start after one Beta(alpha, alpha) draw, whose
        # rejection loop consumes a varying number of raw words, so the
        # equivalence is checked from mid-stream positions as well as at
        # every grid size.
        for grid_size in (1, 2, 3, 4):
            batched_rng, single_rng = np.random.default_rng(5), np.random.default_rng(5)
            assert batched_rng.beta(alpha, alpha) == single_rng.beta(alpha, alpha)
            stack = sample_mask_bits(7, grid_size, batched_rng)
            singles = [sample_random_mask(grid_size, single_rng) for _ in range(7)]
            np.testing.assert_array_equal(stack, np.stack(singles))
            # Both generators are left at the same point of the stream.
            assert batched_rng.random() == single_rng.random()

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    def test_every_alpha_gives_a_fair_coin_per_cell(self, alpha):
        # The sampler replaced a rounded Beta(alpha, alpha) draw.  That draw
        # is symmetric about 1/2, so it kept each cell with probability 1/2
        # whatever alpha was; the fair-coin sampler gives the same per-cell
        # law, and both pass the same keep-rate and variance bounds.
        bits = sample_mask_bits(10_000, 4, RngKey(11).child("keep").generator())
        beta_rng = RngKey(11).child("beta").generator()
        rounded_beta = np.round(beta_rng.beta(alpha, alpha, size=bits.shape)).astype(np.uint8)
        cells = bits.size
        for sample in (bits, rounded_beta):
            assert abs(sample.mean() - 0.5) <= 4 * np.sqrt(0.25 / cells)
            # Per-mask density has the binomial variance p(1 - p) / P^2.
            density = sample.reshape(len(sample), -1).mean(axis=1)
            assert density.var(ddof=1) / (0.25 / 16) == pytest.approx(1.0, abs=0.1)
        # The two keep rates differ by less than 4 sd of a difference of two.
        assert abs(bits.mean() - rounded_beta.mean()) <= 4 * np.sqrt(0.5 / cells)

    def test_zero_count_is_empty(self):
        rng = np.random.default_rng(0)
        assert sample_mask_bits(0, 4, rng).shape == (0, 4, 4)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("count, grid_size", [(2, 0), (2, -1), (-1, 4)])
    def test_bad_arguments(self, count, grid_size):
        with pytest.raises(ConfigError):
            sample_mask_bits(count, grid_size, np.random.default_rng(0))


# Masks are stored as rows of the genome file; a one-class genome holds
# exactly one slot, (0, 0), so its text is this header and the mask rows.
GENOME_HEAD = "C=1 P={p} N=1\n1\n(0,0)"


def mask_text(mask):
    """The genome text of a one-class genome whose only slot holds ``mask``."""
    return format_individual(Individual(np.ones(1), mask[None]), 1)


def parse_mask(text):
    """The mask of a one-class genome text."""
    individual, _ = parse_individual(text)
    return individual.masks[0]


class TestSerialization:
    def test_format_example(self):
        mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert mask_text(mask) == GENOME_HEAD.format(p=2) + "\n10\n01"

    @given(masks_strategy)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, mask):
        np.testing.assert_array_equal(parse_mask(mask_text(mask)), mask)

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
            parse_mask(text.replace("P=2", GENOME_HEAD.format(p=2)))

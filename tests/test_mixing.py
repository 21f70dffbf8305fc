import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmix.data import one_hot
from patchmix.errors import ConfigError
from patchmix.masks import expand_to_pixel_mask, mixing_ratio
from patchmix.mixing import MixedBatch, cutmix, mixup, patchmix, patchmix_batch
from patchmix.model import patchify
from patchmix.rng import RngKey


@pytest.fixture()
def pair(rng):
    x_i = rng.random((8, 8, 3))
    x_j = rng.random((8, 8, 3))
    return x_i, x_j


class TestPatchmix:
    def test_all_ones_mask_is_identity(self, pair):
        x_i, x_j = pair
        out = patchmix(x_i, 0, x_j, 1, np.ones((4, 4), dtype=np.uint8), 3)
        assert np.array_equal(out.image, x_i)
        assert out.image_label.tolist() == [1.0, 0.0, 0.0]
        assert (out.patch_labels == 0).all()
        assert out.lam == 1.0

    def test_all_zeros_mask_takes_partner(self, pair):
        x_i, x_j = pair
        out = patchmix(x_i, 0, x_j, 1, np.zeros((4, 4), dtype=np.uint8), 3)
        assert np.array_equal(out.image, x_j)
        assert out.lam == 0.0

    def test_quarter_mask_example(self, pair):
        x_i, x_j = pair
        mask = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        out = patchmix(x_i, 0, x_j, 1, mask, 2)
        assert out.lam == 0.25
        assert out.image_label.tolist() == [0.25, 0.75]
        assert out.patch_labels.tolist() == [0, 1, 1, 1]
        # Top-left 4x4 region comes from x_i, everything else from x_j.
        assert np.array_equal(out.image[:4, :4], x_i[:4, :4])
        assert np.array_equal(out.image[4:], x_j[4:])
        assert np.array_equal(out.image[:4, 4:], x_j[:4, 4:])

    def test_every_pixel_from_one_source(self, pair, rng):
        x_i, x_j = pair
        mask = rng.integers(0, 2, (4, 4), dtype=np.uint8)
        out = patchmix(x_i, 0, x_j, 1, mask, 2)
        from_i = np.isclose(out.image, x_i)
        from_j = np.isclose(out.image, x_j)
        assert (from_i | from_j).all()

    def test_patch_label_fraction_matches_lam(self, pair, rng):
        x_i, x_j = pair
        mask = rng.integers(0, 2, (4, 4), dtype=np.uint8)
        out = patchmix(x_i, 0, x_j, 1, mask, 2)
        assert (out.patch_labels == 0).mean() == out.lam

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=40, deadline=None)
    def test_complement_swap_symmetry(self, mask_id):
        # Swapping the source images while complementing the mask must
        # give the same composed sample.  P=4 keeps lam dyadic, so the
        # label arithmetic is exact.
        rng = np.random.default_rng(mask_id)
        x_i = rng.random((8, 8, 1))
        x_j = rng.random((8, 8, 1))
        bits = (mask_id >> np.arange(16)) & 1
        mask = bits.reshape(4, 4).astype(np.uint8)
        a = patchmix(x_i, 0, x_j, 1, mask, 2)
        b = patchmix(x_j, 1, x_i, 0, 1 - mask, 2)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.image_label, b.image_label)

    def test_label_sums_to_one(self, pair, rng):
        x_i, x_j = pair
        mask = rng.integers(0, 2, (4, 4), dtype=np.uint8)
        out = patchmix(x_i, 2, x_j, 1, mask, 4)
        assert out.image_label.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ConfigError):
            ones = np.ones((4, 4), dtype=np.uint8)
            patchmix(rng.random((8, 8, 3)), 0, rng.random((4, 4, 3)), 1, ones, 2)


def pixel_mask_patchmix(x_i, y_i, x_j, y_j, mask, class_count):
    """Reference: the pixel-mask definition of a grid-mask composite."""
    height, width = x_i.shape[:2]
    keep = expand_to_pixel_mask(mask, width, height)[..., None] == 1
    lam = mixing_ratio(mask)
    label = lam * one_hot(y_i, class_count) + (1.0 - lam) * one_hot(y_j, class_count)
    return np.where(keep, x_i, x_j).astype(np.float64), label


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()
    assert (np.signbit(got) == np.signbit(want)).all()


class TestPatchmixPixelMaskOracle:
    """``patchmix`` copies whole grid cells; it must give the bits of the
    pixel-mask definition it replaced."""

    @pytest.mark.parametrize("grid_size", [1, 2, 4, 8])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32), (np.float64, np.float64),
                                        (np.float32, np.float64)])
    def test_equals_pixel_mask_definition(self, rng, grid_size, channels, dtypes):
        height, width = 2 * grid_size, 3 * grid_size  # H != W
        masks = [np.zeros((grid_size,) * 2, np.uint8), np.ones((grid_size,) * 2, np.uint8)]
        masks += [rng.integers(0, 2, (grid_size,) * 2, dtype=np.uint8) for _ in range(4)]
        for mask in masks:
            x_i = rng.normal(size=(height, width, channels)).astype(dtypes[0])
            x_j = rng.normal(size=(height, width, channels)).astype(dtypes[1])
            for y_i, y_j in [(0, 2), (2, 0), (1, 1)]:
                out = patchmix(x_i, y_i, x_j, y_j, mask, 3)
                image, label = pixel_mask_patchmix(x_i, y_i, x_j, y_j, mask, 3)
                assert_same_bits(out.image, image)
                assert_same_bits(out.image_label, label)
                assert out.patch_labels.dtype == np.int64
                assert out.patch_labels.tolist() == np.where(mask.ravel() == 1, y_i, y_j).tolist()
                assert out.lam == mixing_ratio(mask)

    def test_non_dyadic_ratio_label_bits(self, rng):
        # P = 3 gives ratios such as 4/9, where lam + (1 - lam) and
        # (1 - lam) + lam are both summed for y_i == y_j.
        for _ in range(50):
            mask = rng.integers(0, 2, (3, 3), dtype=np.uint8)
            x = rng.random((6, 6, 1))
            for y_i, y_j in [(0, 1), (1, 0), (1, 1), (0, 0)]:
                out = patchmix(x, y_i, x, y_j, mask, 2)
                assert_same_bits(out.image_label, pixel_mask_patchmix(x, y_i, x, y_j, mask, 2)[1])

    @pytest.mark.parametrize(
        "y_i, y_j, message",
        [(3, 0, r"label 3 outside \[0, 3\)"), (0, -1, r"label -1 outside \[0, 3\)"),
         (-2, 5, r"label -2 outside \[0, 3\)")],
    )
    def test_out_of_range_label_rejected(self, pair, y_i, y_j, message):
        x_i, x_j = pair
        with pytest.raises(ConfigError, match=message):
            patchmix(x_i, y_i, x_j, y_j, np.ones((4, 4), dtype=np.uint8), 3)

    def test_mask_and_divisibility_checked_before_labels(self, pair):
        x_i, x_j = pair
        with pytest.raises(ConfigError, match="only 0/1"):
            patchmix(x_i, 9, x_j, 0, np.full((4, 4), 2, dtype=np.uint8), 3)
        with pytest.raises(ConfigError, match="not divisible by grid size 3"):
            patchmix(x_i, 9, x_j, 0, np.ones((3, 3), dtype=np.uint8), 3)


def stacked_patchmix(images, i, j, y_i, y_j, bits, class_count):
    """Reference: per-sample patchmix, one row at a time, stacked and patchified."""
    samples = [
        patchmix(images[a], int(ya), images[b], int(yb), m, class_count)
        for a, b, ya, yb, m in zip(i, j, y_i, y_j, bits)
    ]
    return MixedBatch(
        patchify(np.stack([s.image for s in samples]), bits.shape[-1]),
        np.stack([s.image_label for s in samples]),
        np.stack([s.patch_labels for s in samples]),
    )


class TestPatchmixBatch:
    def assert_equal_batches(self, got, want):
        assert got.patches.dtype == want.patches.dtype == np.float64
        assert got.patch_labels.dtype == want.patch_labels.dtype == np.int64
        np.testing.assert_array_equal(got.patches, want.patches)
        np.testing.assert_array_equal(got.image_labels, want.image_labels)
        np.testing.assert_array_equal(got.patch_labels, want.patch_labels)

    @pytest.mark.parametrize("grid_size", [1, 2, 4])
    def test_equals_stacked_patchmix(self, rng, grid_size):
        # Non-square images catch a swap of the H/P and W/P cell axes.
        for shape in [(h, w, c) for h, w in [(8, 8), (8, 12), (12, 8)] for c in (1, 3)]:
            for dtype in (np.float32, np.float64):
                images = rng.random((10, *shape)).astype(dtype)
                labels = rng.integers(0, 4, 10)
                i = rng.integers(0, 10, 25)
                j = rng.integers(0, 10, 25)
                bits = rng.integers(0, 2, (25, grid_size, grid_size), dtype=np.uint8)
                args = (images, i, j, labels[i], labels[j], bits, 4)
                self.assert_equal_batches(patchmix_batch(*args), stacked_patchmix(*args))

    def test_all_ones_rows_are_identity(self, rng):
        images = rng.random((6, 8, 8, 3)).astype(np.float32)
        labels = rng.integers(0, 3, 6)
        idx = rng.permutation(6)
        bits = np.ones((6, 4, 4), dtype=np.uint8)
        args = (images, idx, idx, labels[idx], labels[idx], bits, 3)
        out = patchmix_batch(*args)
        self.assert_equal_batches(out, stacked_patchmix(*args))
        np.testing.assert_array_equal(out.patches, patchify(images[idx].astype(np.float64), 4))
        np.testing.assert_array_equal(out.image_labels, np.eye(3)[labels[idx]])
        np.testing.assert_array_equal(out.patch_labels, np.repeat(labels[idx][:, None], 16, 1))

    def test_empty_batch(self, rng):
        images = rng.random((3, 8, 8, 3))
        none = np.empty(0, dtype=np.int64)
        out = patchmix_batch(images, none, none, none, none, np.empty((0, 2, 2)), 3)
        assert len(out) == 0
        assert out.patches.shape == (0, 4, 48)
        assert out.image_labels.shape == (0, 3)
        assert out.patch_labels.shape == (0, 4)

    @pytest.mark.parametrize(
        "bits, labels, error",
        [
            (np.full((2, 2, 2), 2), (0, 1), "0/1"),
            (np.ones((3, 2, 2)), (0, 1), "one entry per row"),
            (np.ones((2, 2, 2)), (0, 3), "label outside"),
        ],
    )
    def test_bad_inputs_rejected(self, rng, bits, labels, error):
        images = rng.random((2, 4, 4, 1))
        rows = np.array([0, 1])
        with pytest.raises(ConfigError, match=error):
            patchmix_batch(images, rows, rows, np.array(labels), np.array(labels), bits, 3)

    def test_out_slice_writes_only_its_rows(self, rng):
        for dtype in (np.float32, np.float64):
            images = rng.random((4, 8, 12, 3)).astype(dtype)
            rows = np.arange(4)
            bits = rng.integers(0, 2, (4, 2, 2), dtype=np.uint8)
            args = (images, rows, rows[::-1], rows % 2, rows % 3, bits, 3)
            buffer = np.full((7, 4, 72), -1.0)
            out = patchmix_batch(*args, out=buffer[2:6])
            assert np.shares_memory(out.patches, buffer)
            self.assert_equal_batches(out, stacked_patchmix(*args))
            assert (buffer[:2] == -1.0).all() and (buffer[6:] == -1.0).all()


class TestMixup:
    def test_endpoints(self, pair):
        x_i, x_j = pair
        assert np.array_equal(mixup(x_i, 0, x_j, 1, 1.0, 2).image, x_i)
        assert np.array_equal(mixup(x_i, 0, x_j, 1, 0.0, 2).image, x_j)

    def test_midpoint_blend(self):
        x_i = np.full((4, 4, 1), 0.2)
        x_j = np.full((4, 4, 1), 0.6)
        out = mixup(x_i, 0, x_j, 1, 0.5, 2)
        assert np.allclose(out.image, 0.4)
        assert out.image_label.tolist() == [0.5, 0.5]
        assert out.patch_labels is None

    def test_out_of_range_weight_rejected(self, pair):
        x_i, x_j = pair
        with pytest.raises(ConfigError):
            mixup(x_i, 0, x_j, 1, 1.2, 2)


class TestCutmix:
    def test_label_weight_from_area(self, rng):
        x_i = rng.random((32, 32, 3))
        x_j = rng.random((32, 32, 3))
        out = cutmix(x_i, 0, x_j, 1, rng, 16, 16, 2)
        assert out.lam == 0.75
        assert out.image_label.tolist() == [0.75, 0.25]

    def test_rectangle_is_verbatim_transplant(self, rng):
        x_i = np.zeros((16, 16, 1))
        x_j = np.ones((16, 16, 1))
        out = cutmix(x_i, 0, x_j, 1, rng, 4, 6, 2)
        assert out.image.sum() == 4 * 6
        rows, cols = np.nonzero(out.image[:, :, 0])
        assert rows.max() - rows.min() + 1 == 6
        assert cols.max() - cols.min() + 1 == 4

    def test_zero_area_returns_first_image(self, rng):
        x_i = rng.random((8, 8, 1))
        x_j = rng.random((8, 8, 1))
        before = rng.bit_generator.state
        out = cutmix(x_i, 0, x_j, 1, rng, 0, 0, 2)
        assert np.array_equal(out.image, x_i)
        assert out.lam == 1.0
        # The degenerate case must not consume random numbers.
        assert rng.bit_generator.state == before

    def test_same_seed_same_rectangle(self):
        x_i = np.zeros((16, 16, 1))
        x_j = np.ones((16, 16, 1))
        a = cutmix(x_i, 0, x_j, 1, RngKey(5).child("c").generator(), 4, 4, 2)
        b = cutmix(x_i, 0, x_j, 1, RngKey(5).child("c").generator(), 4, 4, 2)
        assert np.array_equal(a.image, b.image)

    def test_oversized_region_rejected(self, rng):
        with pytest.raises(ConfigError):
            cutmix(rng.random((8, 8, 1)), 0, rng.random((8, 8, 1)), 1, rng, 9, 4, 2)

    def test_rectangle_always_inside(self, rng):
        # Heavily exercised placement: the transplant must stay in bounds
        # even when the Gaussian center lands outside the image.
        x_i = np.zeros((8, 8, 1))
        x_j = np.ones((8, 8, 1))
        for _ in range(300):
            out = cutmix(x_i, 0, x_j, 1, rng, 4, 4, 2)
            assert out.image.sum() == 16

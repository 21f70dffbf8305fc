import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmix import mixing
from patchmix.errors import ConfigError
from patchmix.mixing import MixedBatch, cutmix, mixup, patchmix, patchmix_batch, unpatchify
from patchmix.model import patchify
from patchmix.rng import RngKey


@pytest.fixture()
def pair(rng):
    x_i = rng.random((8, 8, 3))
    x_j = rng.random((8, 8, 3))
    return x_i, x_j


def pixels(batch, height, width, grid_size):
    """The (B, H, W, C) images whose patch matrices a batch holds."""
    b, _, patch_pixels = batch.patches.shape
    channels = patch_pixels * grid_size**2 // (height * width)
    return unpatchify(batch.patches, (b, height, width, channels), grid_size)


class TestPatchmix:
    def test_all_ones_mask_is_identity(self, pair):
        x_i, x_j = pair
        out = patchmix(x_i, 0, x_j, 1, np.ones((4, 4), dtype=np.uint8), 3)
        assert np.array_equal(pixels(out, 8, 8, 4)[0], x_i)
        assert out.image_labels[0].tolist() == [1.0, 0.0, 0.0]
        assert (out.patch_labels == 0).all()
        assert out.image_labels[0, 0] == 1.0

    def test_all_zeros_mask_takes_partner(self, pair):
        x_i, x_j = pair
        out = patchmix(x_i, 0, x_j, 1, np.zeros((4, 4), dtype=np.uint8), 3)
        assert np.array_equal(pixels(out, 8, 8, 4)[0], x_j)
        assert out.image_labels[0, 0] == 0.0

    def test_quarter_mask_example(self, pair):
        x_i, x_j = pair
        mask = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        out = patchmix(x_i, 0, x_j, 1, mask, 2)
        assert out.image_labels[0, 0] == 0.25
        assert out.image_labels[0].tolist() == [0.25, 0.75]
        assert out.patch_labels[0].tolist() == [0, 1, 1, 1]
        # Top-left 4x4 region comes from x_i, everything else from x_j.
        image = pixels(out, 8, 8, 2)[0]
        assert np.array_equal(image[:4, :4], x_i[:4, :4])
        assert np.array_equal(image[4:], x_j[4:])
        assert np.array_equal(image[:4, 4:], x_j[:4, 4:])

    def test_every_pixel_from_one_source(self, pair, rng):
        x_i, x_j = pair
        mask = rng.integers(0, 2, (4, 4), dtype=np.uint8)
        out = patchmix(x_i, 0, x_j, 1, mask, 2)
        from_i = np.isclose(pixels(out, 8, 8, 4)[0], x_i)
        from_j = np.isclose(pixels(out, 8, 8, 4)[0], x_j)
        assert (from_i | from_j).all()

    def test_patch_label_fraction_matches_lam(self, pair, rng):
        x_i, x_j = pair
        mask = rng.integers(0, 2, (4, 4), dtype=np.uint8)
        out = patchmix(x_i, 0, x_j, 1, mask, 2)
        assert (out.patch_labels == 0).mean() == out.image_labels[0, 0]

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
        assert np.array_equal(a.patches, b.patches)
        assert np.array_equal(a.image_labels, b.image_labels)

    def test_label_sums_to_one(self, pair, rng):
        x_i, x_j = pair
        mask = rng.integers(0, 2, (4, 4), dtype=np.uint8)
        out = patchmix(x_i, 2, x_j, 1, mask, 4)
        assert out.image_labels[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ConfigError):
            ones = np.ones((4, 4), dtype=np.uint8)
            patchmix(rng.random((8, 8, 3)), 0, rng.random((4, 4, 3)), 1, ones, 2)


def pixel_mask_patchmix(x_i, y_i, x_j, y_j, mask, class_count):
    """Reference: the pixel-mask definition of a grid-mask composite, each
    cell bit repeated over its pixel region, the label split by the
    kept-cell fraction."""
    height, width = x_i.shape[:2]
    p = len(mask)
    keep = np.kron(mask, np.ones((height // p, width // p), dtype=np.uint8))[..., None] == 1
    lam = mask.sum() / mask.size
    eye = np.eye(class_count)
    label = lam * eye[y_i] + (1.0 - lam) * eye[y_j]
    return np.where(keep, x_i, x_j).astype(np.float64), label


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()
    assert (np.signbit(got) == np.signbit(want)).all()


GRIDS, CHANNELS = [1, 2, 4, 8], [1, 3]
DTYPES = [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)]


class TestPatchmixPixelMaskOracle:
    """``patchmix`` copies whole grid cells; it must give the bits of the
    pixel-mask definition it replaced."""

    @staticmethod
    def cases(rng, grid_size, channels, dtypes):
        """``(x_i, y_i, x_j, y_j, mask)``: all-zeros, all-ones and four random
        masks over H != W sources, each with three label pairs."""
        height, width = 2 * grid_size, 3 * grid_size
        masks = [np.zeros((grid_size,) * 2, np.uint8), np.ones((grid_size,) * 2, np.uint8)]
        masks += [rng.integers(0, 2, (grid_size,) * 2, dtype=np.uint8) for _ in range(4)]
        for mask in masks:
            x_i = rng.normal(size=(height, width, channels)).astype(dtypes[0])
            x_j = rng.normal(size=(height, width, channels)).astype(dtypes[1])
            for y_i, y_j in [(0, 2), (2, 0), (1, 1)]:
                yield x_i, y_i, x_j, y_j, mask

    @pytest.mark.parametrize("grid_size", GRIDS)
    @pytest.mark.parametrize("channels", CHANNELS)
    @pytest.mark.parametrize("dtypes", DTYPES)
    def test_equals_pixel_mask_definition(self, rng, grid_size, channels, dtypes):
        for x_i, y_i, x_j, y_j, mask in self.cases(rng, grid_size, channels, dtypes):
            out = patchmix(x_i, y_i, x_j, y_j, mask, 3)
            image, label = pixel_mask_patchmix(x_i, y_i, x_j, y_j, mask, 3)
            assert_same_bits(out.patches, patchify(image[None], grid_size))
            assert_same_bits(out.image_labels[0], label)
            assert out.patch_labels.dtype == np.int64
            assert out.patch_labels[0].tolist() == np.where(mask.ravel() == 1, y_i, y_j).tolist()
            if y_i != y_j:  # the label weight of the first source
                assert out.image_labels[0, y_i] == mask.sum() / mask.size

    @pytest.mark.parametrize("grid_size", GRIDS)
    @pytest.mark.parametrize("channels", CHANNELS)
    @pytest.mark.parametrize("dtypes", DTYPES)
    def test_float32_out_equals_cast_pixel_mask_definition(self, rng, grid_size, channels, dtypes):
        for x_i, y_i, x_j, y_j, mask in self.cases(rng, grid_size, channels, dtypes):
            image, _ = pixel_mask_patchmix(x_i, y_i, x_j, y_j, mask, 3)
            want = patchify(image[None], grid_size).astype(np.float32)
            buffer = np.full((3, *want.shape[1:]), -1.0, dtype=np.float32)
            out = patchmix(x_i, y_i, x_j, y_j, mask, 3, out=buffer[1:2])
            assert np.shares_memory(out.patches, buffer)
            assert_same_bits(out.patches, want)
            assert (buffer[0] == -1.0).all() and (buffer[2] == -1.0).all()

    def test_non_dyadic_ratio_label_bits(self, rng):
        # P = 3 gives ratios such as 4/9, where lam + (1 - lam) and
        # (1 - lam) + lam are both summed for y_i == y_j.
        for _ in range(50):
            mask = rng.integers(0, 2, (3, 3), dtype=np.uint8)
            x = rng.random((6, 6, 1))
            for y_i, y_j in [(0, 1), (1, 0), (1, 1), (0, 0)]:
                out = patchmix(x, y_i, x, y_j, mask, 2)
                want = pixel_mask_patchmix(x, y_i, x, y_j, mask, 2)[1]
                assert_same_bits(out.image_labels[0], want)

    @pytest.mark.parametrize(
        "y_i, y_j, message",
        [(3, 0, r"label 3 outside \[0, 3\)"), (0, -1, r"label -1 outside \[0, 3\)"),
         (-2, 5, r"label -2 outside \[0, 3\)")],
    )
    def test_out_of_range_label_rejected(self, pair, y_i, y_j, message):
        x_i, x_j = pair
        with pytest.raises(ConfigError, match=message):
            patchmix(x_i, y_i, x_j, y_j, np.ones((4, 4), dtype=np.uint8), 3)

    @pytest.mark.parametrize("value", [257, -255, 1.5, np.nan], ids=["257", "-255", "1.5", "nan"])
    def test_values_a_uint8_cast_would_make_0_or_1_rejected(self, pair, value):
        # Cast first, 257 and -255 would wrap to 1 and 1.5 truncate to 1.
        x_i, x_j = pair
        mask = np.array([[value, 0], [1, 0]])
        with pytest.raises(ConfigError, match="^mask bits must contain only 0/1 values$"):
            patchmix(x_i, 0, x_j, 1, mask, 2)

    def test_mask_and_divisibility_checked_before_labels(self, pair):
        x_i, x_j = pair
        with pytest.raises(ConfigError, match="only 0/1"):
            patchmix(x_i, 9, x_j, 0, np.full((4, 4), 2, dtype=np.uint8), 3)
        with pytest.raises(ConfigError, match="not divisible by grid size 3"):
            patchmix(x_i, 9, x_j, 0, np.ones((3, 3), dtype=np.uint8), 3)


def stacked_patchmix(images, i, j, y_i, y_j, bits, class_count):
    """Reference: per-sample patchmix, one row at a time, stacked."""
    rows = [
        patchmix(images[a], int(ya), images[b], int(yb), m, class_count)
        for a, b, ya, yb, m in zip(i, j, y_i, y_j, bits)
    ]
    return MixedBatch(
        np.concatenate([row.patches for row in rows]),
        np.concatenate([row.image_labels for row in rows]),
        np.concatenate([row.patch_labels for row in rows]),
    )


class TestPatchmixBatch:
    def assert_equal_batches(self, got, want):
        assert got.patches.dtype == want.patches.dtype == np.float64
        assert got.patch_labels.dtype == want.patch_labels.dtype == np.int64
        np.testing.assert_array_equal(got.patches, want.patches)
        np.testing.assert_array_equal(got.image_labels, want.image_labels)
        np.testing.assert_array_equal(got.patch_labels, want.patch_labels)

    @pytest.mark.parametrize("gather_bytes", [None, 100], ids=["one-block", "100-byte-blocks"])
    @pytest.mark.parametrize("grid_size", [1, 2, 4])
    def test_equals_stacked_patchmix(self, rng, grid_size, gather_bytes, monkeypatch):
        # Non-square images catch a swap of the H/P and W/P cell axes.  The
        # small blocks split every gather, with a partial last block, and
        # go down to one row at a time where a row is wider.
        if gather_bytes:
            monkeypatch.setattr(mixing, "_GATHER_BYTES", gather_bytes)
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

    @pytest.mark.parametrize("value", [257, -255, 1.5, np.nan], ids=["257", "-255", "1.5", "nan"])
    def test_values_a_uint8_cast_would_make_0_or_1_rejected(self, rng, value):
        images = rng.random((2, 4, 4, 1))
        rows = np.array([0, 1])
        bits = np.ones((2, 2, 2))
        bits[1, 0, 1] = value
        with pytest.raises(ConfigError, match="^mask bits must contain only 0/1 values$"):
            patchmix_batch(images, rows, rows, rows, rows, bits, 2)

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

    @pytest.mark.parametrize(
        "i, j, row, index",
        [([3], [0], 0, 3), ([-1], [0], 0, -1), ([0, 1, 2], [2, 1, -3], 2, -3)],
        ids=["past-the-end", "negative", "third-row"],
    )
    def test_source_index_outside_the_images_rejected(self, rng, i, j, row, index):
        # Unchecked, 3 past the end fails on a pixel row of the gather, and a
        # negative index takes an image from the end.
        images = rng.random((3, 4, 4, 1))
        labels = np.zeros(len(i), dtype=np.int64)
        with pytest.raises(ConfigError, match=rf"^row {row}: source index {index} lies outside \[0, 3\)$"):
            patchmix_batch(images, i, j, labels, labels, np.ones((len(i), 2, 2)), 2)

    @pytest.mark.parametrize(
        "shape, error",
        [
            ((2, 0, 0), "^grid size must be at least 1$"),
            ((2, 4), r"^mask bits must be square, got shape \(2, 4\)$"),
            ((2, 4, 2), r"^mask bits must be square, got shape \(2, 4, 2\)$"),
            ((2, 2, 2, 2), r"^mask bits must be square, got shape \(2, 2, 2, 2\)$"),
        ],
        ids=["empty-grids", "flat", "oblong-grids", "four-axes"],
    )
    def test_bits_that_are_not_a_stack_of_grids_rejected(self, rng, shape, error):
        # The refusals and wording of ``patchmix``'s mask check.
        images = rng.random((2, 4, 4, 1))
        rows = np.array([0, 1])
        with pytest.raises(ConfigError, match=error):
            patchmix_batch(images, rows, rows, rows, rows, np.ones(shape), 3)

    @pytest.mark.parametrize(
        "buffer",
        [np.zeros((4, 4, 48))[::2], np.zeros((2, 48, 4)).transpose(0, 2, 1), np.zeros((2, 4, 24)),
         np.zeros((2, 1, 4, 48))],
        ids=["strided-rows", "transposed", "short-patches", "extra-axis"],
    )
    def test_out_other_than_a_contiguous_batch_matrix_rejected(self, rng, buffer):
        # A reshape of a non-contiguous array copies, so the rows would be
        # written into the copy and lost.
        images = rng.random((2, 8, 8, 3))
        rows = np.array([0, 1])
        before = buffer.copy()
        with pytest.raises(ConfigError, match=r"^out must be a C-contiguous array of shape \(2, 4, 48\)"):
            patchmix_batch(images, rows, rows, rows, rows, np.ones((2, 2, 2)), 3, out=buffer)
        np.testing.assert_array_equal(buffer, before)

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


@pytest.mark.parametrize("writer", ["patchmix", "mixup", "cutmix", "patchify"])
def test_every_writer_refuses_a_transposed_out(rng, writer):
    # The transposed view has the result's shape, but its reshape copies.
    images, rows = rng.random((2, 8, 8, 3)), [0, 1]
    out = np.zeros((1 if writer == "patchmix" else 2, 48, 4)).transpose(0, 2, 1)
    write = {
        "patchmix": lambda: patchmix(images[0], 0, images[1], 1, np.ones((2, 2)), 3, out=out),
        "mixup": lambda: mixup(images, rows, rows, rows, rows, [0.5, 0.5], 3, 2, out=out),
        "cutmix": lambda: cutmix(images, rows, rows, rows, rows, rng, 2, 2, 3, 2, out=out),
        "patchify": lambda: patchify(images, 2, out),
    }[writer]
    with pytest.raises(ConfigError, match="^out must be a C-contiguous array of shape"):
        write()
    assert not out.any()


def pixel_mixup(x_i, y_i, x_j, y_j, lam, class_count):
    """Reference: the per-sample pixel blend of two images."""
    image = lam * x_i.astype(np.float64) + (1.0 - lam) * x_j.astype(np.float64)
    eye = np.eye(class_count)
    return image, lam * eye[y_i] + (1.0 - lam) * eye[y_j]


def pixel_cutmix(x_i, y_i, x_j, y_j, rng, region_w, region_h, class_count):
    """Reference: the per-sample rectangle transplant, its center drawn
    horizontal first, then vertical."""
    height, width = x_i.shape[:2]
    image = x_i.astype(np.float64).copy()
    eye = np.eye(class_count)
    if region_w == 0 or region_h == 0:
        return image, eye[y_i]
    cx = rng.normal(width / 2.0, width / 4.0)
    cy = rng.normal(height / 2.0, height / 4.0)
    x0 = int(np.clip(round(cx - region_w / 2.0), 0, width - region_w))
    y0 = int(np.clip(round(cy - region_h / 2.0), 0, height - region_h))
    image[y0 : y0 + region_h, x0 : x0 + region_w] = x_j[y0 : y0 + region_h, x0 : x0 + region_w]
    lam = 1.0 - (region_w * region_h) / (width * height)
    return image, lam * eye[y_i] + (1.0 - lam) * eye[y_j]


def stacked_pixels(rows, shape, class_count, grid_size):
    """``(patches, image_labels)`` of per-sample ``(image, label)`` references."""
    images = np.array([image for image, _ in rows]).reshape(len(rows), *shape)
    labels = np.array([label for _, label in rows]).reshape(len(rows), class_count)
    return patchify(images, grid_size), labels


def mixup_one(x_i, y_i, x_j, y_j, lam, class_count, grid_size=2):
    return mixup(np.stack([x_i, x_j]), [0], [1], [y_i], [y_j], [lam], class_count, grid_size)


def cutmix_one(x_i, y_i, x_j, y_j, rng, region_w, region_h, class_count, grid_size=1):
    return cutmix(
        np.stack([x_i, x_j]), [0], [1], [y_i], [y_j], rng, region_w, region_h, class_count, grid_size
    )


class TestMixup:
    def test_endpoints(self, pair):
        x_i, x_j = pair
        assert np.array_equal(pixels(mixup_one(x_i, 0, x_j, 1, 1.0, 2), 8, 8, 2)[0], x_i)
        assert np.array_equal(pixels(mixup_one(x_i, 0, x_j, 1, 0.0, 2), 8, 8, 2)[0], x_j)

    def test_midpoint_blend(self):
        x_i = np.full((4, 4, 1), 0.2)
        x_j = np.full((4, 4, 1), 0.6)
        out = mixup_one(x_i, 0, x_j, 1, 0.5, 2)
        assert np.allclose(pixels(out, 4, 4, 2), 0.4)
        assert out.image_labels[0].tolist() == [0.5, 0.5]
        assert out.patch_labels is None

    def test_out_of_range_weight_rejected(self, pair):
        x_i, x_j = pair
        with pytest.raises(ConfigError):
            mixup_one(x_i, 0, x_j, 1, 1.2, 2)

    @pytest.mark.parametrize("size", [0, 1, 37])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_equals_stacked_per_sample_blends(self, rng, size, dtype):
        images = rng.random((10, 8, 12, 3)).astype(dtype)
        labels = rng.integers(0, 4, 10)
        i, j = rng.integers(0, 10, size), rng.integers(0, 10, size)
        # The demo draws a batch's weights in one call; it must give the
        # per-sample draws and leave the stream where they leave it.
        batch_rng, sample_rng = np.random.default_rng(size), np.random.default_rng(size)
        lam = batch_rng.beta(1.0, 1.0, size=size)
        weights = [float(sample_rng.beta(1.0, 1.0)) for _ in range(size)]
        assert batch_rng.random() == sample_rng.random()
        buffer = np.full((size, 4, 72), -1.0)
        out = mixup(images, i, j, labels[i], labels[j], lam, 4, 2, out=buffer)
        rows = [pixel_mixup(images[a], labels[a], images[b], labels[b], w, 4)
                for a, b, w in zip(i, j, weights)]
        patches, image_labels = stacked_pixels(rows, (8, 12, 3), 4, 2)
        assert out.patches is buffer and out.patch_labels is None
        assert out.patches.tobytes() == patches.tobytes() and out.patches.shape == patches.shape
        assert out.image_labels.tobytes() == image_labels.tobytes()
        assert out.image_labels.shape == (size, 4)


class TestCutmix:
    def test_label_weight_from_area(self, rng):
        x_i = rng.random((32, 32, 3))
        x_j = rng.random((32, 32, 3))
        out = cutmix_one(x_i, 0, x_j, 1, rng, 16, 16, 2)
        assert out.image_labels[0, 0] == 0.75
        assert out.image_labels[0].tolist() == [0.75, 0.25]

    def test_rectangle_is_verbatim_transplant(self, rng):
        x_i = np.zeros((16, 16, 1))
        x_j = np.ones((16, 16, 1))
        out = cutmix_one(x_i, 0, x_j, 1, rng, 4, 6, 2, grid_size=4)
        image = pixels(out, 16, 16, 4)[0]
        assert image.sum() == 4 * 6
        rows, cols = np.nonzero(image[:, :, 0])
        assert rows.max() - rows.min() + 1 == 6
        assert cols.max() - cols.min() + 1 == 4

    def test_zero_area_returns_first_image(self, rng):
        x_i = rng.random((8, 8, 1))
        x_j = rng.random((8, 8, 1))
        before = rng.bit_generator.state
        out = cutmix_one(x_i, 0, x_j, 1, rng, 0, 0, 2)
        assert np.array_equal(pixels(out, 8, 8, 1)[0], x_i)
        assert out.image_labels[0, 0] == 1.0
        # The degenerate case must not consume random numbers.
        assert rng.bit_generator.state == before

    def test_same_seed_same_rectangle(self):
        x_i = np.zeros((16, 16, 1))
        x_j = np.ones((16, 16, 1))
        a = cutmix_one(x_i, 0, x_j, 1, RngKey(5).child("c").generator(), 4, 4, 2)
        b = cutmix_one(x_i, 0, x_j, 1, RngKey(5).child("c").generator(), 4, 4, 2)
        assert np.array_equal(a.patches, b.patches)

    def test_oversized_region_rejected(self, rng):
        with pytest.raises(ConfigError):
            cutmix_one(rng.random((8, 8, 1)), 0, rng.random((8, 8, 1)), 1, rng, 9, 4, 2)

    def test_rectangle_always_inside(self, rng):
        # Heavily exercised placement: the transplant must stay in bounds
        # even when the Gaussian center lands outside the image.
        x_i = np.zeros((8, 8, 1))
        x_j = np.ones((8, 8, 1))
        for _ in range(300):
            out = cutmix_one(x_i, 0, x_j, 1, rng, 4, 4, 2)
            assert out.patches.sum() == 16

    @pytest.mark.parametrize("size", [0, 1, 37])
    @pytest.mark.parametrize("region", [(3, 5), (1, 1), (12, 8), (0, 4), (4, 0)])
    def test_batch_equals_stacked_per_sample_transplants(self, rng, size, region):
        # An empty region (0 wide or 0 high) pastes and draws nothing.
        images = rng.random((10, 8, 12, 3)).astype(np.float32)
        labels = rng.integers(0, 4, 10)
        i, j = rng.integers(0, 10, size), rng.integers(0, 10, size)
        batch_rng, sample_rng = np.random.default_rng(size), np.random.default_rng(size)
        buffer = np.full((size, 16, 18), -1.0)
        out = cutmix(images, i, j, labels[i], labels[j], batch_rng, *region, 4, 4, out=buffer)
        rows = [pixel_cutmix(images[a], labels[a], images[b], labels[b], sample_rng, *region, 4)
                for a, b in zip(i, j)]
        assert batch_rng.random() == sample_rng.random()
        patches, image_labels = stacked_pixels(rows, (8, 12, 3), 4, 4)
        assert out.patches is buffer and out.patch_labels is None
        assert out.patches.tobytes() == patches.tobytes() and out.patches.shape == patches.shape
        assert out.image_labels.tobytes() == image_labels.tobytes()
        assert out.image_labels.shape == (size, 4)


@pytest.mark.parametrize("composer", ["mixup", "cutmix"])
@pytest.mark.parametrize("index", [3, -1], ids=["past-the-end", "negative"])
@pytest.mark.parametrize("side", ["i", "j"])
def test_pixel_composers_refuse_a_source_index_outside_the_images(rng, composer, index, side):
    # Unchecked, -1 blends or pastes from the last image and 3 raises a raw
    # IndexError; both get patchmix_batch's refusal, naming the row.
    images = rng.random((3, 4, 4, 1))
    rows = {"i": [0, 1], "j": [2, 0]}
    rows[side] = [rows[side][0], index]
    labels = [0, 0]
    compose = {
        "mixup": lambda: mixup(images, rows["i"], rows["j"], labels, labels, [0.5, 0.5], 3, 2),
        "cutmix": lambda: cutmix(images, rows["i"], rows["j"], labels, labels, rng, 2, 2, 3, 2),
    }[composer]
    with pytest.raises(ConfigError, match=rf"^row 1: source index {index} lies outside \[0, 3\)$"):
        compose()

import colorsys
import threading

import numpy as np
import pytest

from patchmix import data
from patchmix.data import (
    CIFAR_RECORD_BYTES,
    Dataset,
    load_cifar_binary,
    load_dataset,
    save_dataset,
    sniff_and_load,
    synth_shapes,
    toy_2d_three_class,
)
from patchmix.errors import ConfigError, FormatError
from patchmix.rng import RngKey


def make_cifar_bytes(labels, fill=None, rng=None):
    """Assemble raw CIFAR records: label byte + channel-planar pixels."""
    chunks = []
    for i, label in enumerate(labels):
        if fill is not None:
            pixels = np.full(3072, fill, dtype=np.uint8)
        else:
            pixels = rng.integers(0, 256, 3072, dtype=np.uint8)
        chunks.append(bytes([label]) + pixels.tobytes())
    return b"".join(chunks)


class TestDataset:
    def test_coerces_storage_types(self):
        ds = Dataset(np.zeros((2, 4, 4, 1)), np.array([0, 1]), 2)
        assert ds.images.dtype == np.float32
        assert ds.labels.dtype == np.int64
        assert (ds.height, ds.width, ds.channels) == (4, 4, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((2, 4, 4, 1)), np.array([0]), 2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((1, 4, 4, 1)), np.array([5]), 2)

    def test_pixels_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError):
            Dataset(np.full((1, 4, 4, 1), 1.5), np.array([0]), 2)

    def test_non_finite_pixels_rejected(self):
        """NaN, +inf and -inf are each named as non-finite, also beside an
        out-of-range pixel."""
        for value in (np.nan, np.inf, -np.inf):
            for other in (0.5, 1.5, -0.5):
                bad = np.full((2, 4, 4, 1), other)
                bad[1, 2, 3, 0] = value
                with pytest.raises(ConfigError, match=r"^pixel values must be finite$"):
                    Dataset(bad, np.array([0, 1]), 2)

    @pytest.mark.parametrize("value", [1.0 + 1e-6, -1e-6, 3e38])
    def test_finite_out_of_range_pixel_named(self, value):
        bad = np.full((2, 4, 4, 1), 0.5)
        bad[0, 1, 0, 0] = value
        with pytest.raises(ConfigError, match=r"^pixel values must lie in \[0, 1\]$"):
            Dataset(bad, np.array([0, 1]), 2)

    def test_class_indices_partition(self):
        ds = Dataset(np.zeros((5, 4, 4, 1)), np.array([1, 0, 1, 2, 0]), 3)
        groups = ds.class_indices()
        assert [g.tolist() for g in groups] == [[1, 4], [0, 2], [3]]

    def test_subset_keeps_class_count(self):
        ds = Dataset(np.zeros((4, 4, 4, 1)), np.array([0, 1, 2, 1]), 3)
        sub = ds.subset([1, 3])
        assert len(sub) == 2
        assert sub.class_count == 3
        assert sub.labels.tolist() == [1, 1]


class TestCifarLoader:
    def test_roundtrip_values(self, tmp_path, rng):
        raw = make_cifar_bytes([3, 9, 0], rng=rng)
        path = tmp_path / "batch.bin"
        path.write_bytes(raw)
        ds = load_cifar_binary(path)
        assert ds.images.shape == (3, 32, 32, 3)
        assert ds.labels.tolist() == [3, 9, 0]
        assert ds.class_count == 10
        # Channel-planar layout: record byte 1 is red at pixel (0, 0).
        assert ds.images[0, 0, 0, 0] == np.float32(raw[1] / 255.0)
        # Green plane starts 1024 bytes after the red plane.
        assert ds.images[0, 0, 0, 1] == np.float32(raw[1 + 1024] / 255.0)
        assert ds.images.max() <= 1.0 and ds.images.min() >= 0.0

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * (CIFAR_RECORD_BYTES - 1))
        with pytest.raises(FormatError):
            load_cifar_binary(path)

    def test_label_byte_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(make_cifar_bytes([10], fill=0))
        with pytest.raises(FormatError):
            load_cifar_binary(path)

    def test_empty_file_loads_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(load_cifar_binary(path)) == 0


def reference_synth_images(class_count, image_size, samples_per_class, seed):
    """``synth_shapes`` pixels with the noise drawn by ``rng.normal``, as it
    was before the noise went through one reused standard-normal buffer."""
    rng = RngKey(seed).child("synth-shapes").generator()
    rows, cols = np.meshgrid(np.arange(image_size), np.arange(image_size), indexing="ij")
    images = np.empty(
        (class_count, samples_per_class, image_size, image_size, 3), dtype=np.float32
    )
    for k in range(class_count):
        base = np.asarray(colorsys.hsv_to_rgb(k / class_count, 0.85, 0.9))
        period = 2 + (k % 3)
        band = [rows, cols, rows + cols, rows - cols][k % 4] // period % 2
        clean = (0.55 + 0.45 * band.astype(np.float64))[:, :, None] * base
        noise = rng.normal(0.0, 0.04, size=(samples_per_class, image_size, image_size, 3))
        noise += clean
        images[k] = np.clip(noise, 0.0, 1.0, out=noise)
    return images.reshape(-1, image_size, image_size, 3), rng.bit_generator.state


def class_values(args):
    """Values ``synth_shapes(*args)`` draws per class."""
    class_count, image_size, samples_per_class, seed = args
    return samples_per_class * image_size * image_size * 3


# Shapes on both sides of the overlap floor: 32 px draws 3072 values per
# sample, so 85 samples stay below 2**18 and 86 reach it.
BELOW_FLOOR = [(2, 16, 1, 0), (3, 20, 7, 11), (10, 32, 13, 12345), (3, 32, 85, 5)]
ABOVE_FLOOR = [(3, 32, 86, 5), (2, 32, 90, 1), (5, 32, 100, 8), (16, 16, 342, 9)]


class TestSynthShapes:
    @pytest.mark.parametrize("args", BELOW_FLOOR + ABOVE_FLOOR)
    def test_pixels_equal_the_normal_draw_reference(self, args):
        want, _ = reference_synth_images(*args)
        got = synth_shapes(*args).images
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("args", BELOW_FLOOR + ABOVE_FLOOR)
    def test_classes_overlap_on_a_worker_only_from_the_floor(self, args, monkeypatch):
        """Each class is post-processed once, in class order, on one worker
        thread from the floor on, and below it on the calling thread with
        no other thread started."""
        seen = []
        pattern = data._class_pattern

        def record(k, *rest):
            seen.append((k, threading.current_thread(), threading.active_count()))
            return pattern(k, *rest)

        monkeypatch.setattr(data, "_class_pattern", record)
        before = threading.active_count()
        synth_shapes(*args)
        assert threading.active_count() == before
        assert [k for k, _, _ in seen] == list(range(args[0]))
        serial = class_values(args) < data.OVERLAP_FLOOR
        assert {thread is threading.current_thread() for _, thread, _ in seen} == {serial}
        assert {count for _, _, count in seen} == {before if serial else before + 1}

    @pytest.mark.parametrize("class_count", [3, 5])
    def test_worker_joined_when_post_processing_raises(self, class_count, monkeypatch):
        error = RuntimeError("class 2 refused")
        pattern = data._class_pattern

        def refuse_class_2(k, *rest):
            if k == 2:
                raise error
            return pattern(k, *rest)

        monkeypatch.setattr(data, "_class_pattern", refuse_class_2)
        args = (class_count, 32, 86, 5)
        assert class_values(args) >= data.OVERLAP_FLOOR
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            synth_shapes(*args)
        assert raised.value is error
        assert threading.active_count() == before

    @pytest.mark.parametrize("shape", [(1,), (3, 4, 5), (7, 16, 16, 3)])
    def test_scaled_standard_normal_is_the_normal_draw(self, shape):
        """Same bytes, and the generator left in the same state."""
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        buf = np.empty(shape)
        for _ in range(3):
            rng.standard_normal(out=buf)
            buf *= 0.04
            want = ref_rng.normal(0.0, 0.04, size=shape)
            assert buf.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_shape_and_determinism(self):
        a = synth_shapes(3, 16, 5, 7)
        b = synth_shapes(3, 16, 5, 7)
        assert a.images.shape == (15, 16, 16, 3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_pixels(self):
        a = synth_shapes(3, 16, 5, 7)
        b = synth_shapes(3, 16, 5, 8)
        assert not np.array_equal(a.images, b.images)

    def test_classes_are_patch_separable(self):
        # Any 4x4 patch should identify the class: compare patch means to
        # per-class references taken from different samples.
        ds = synth_shapes(4, 16, 6, 3)
        refs = np.stack([
            ds.images[ds.labels == c][0, :4, :4].mean(axis=(0, 1)) for c in range(4)
        ])
        correct = 0
        total = 0
        for i in range(len(ds)):
            patch = ds.images[i, 8:12, 8:12].mean(axis=(0, 1))
            guess = np.argmin(((refs - patch) ** 2).sum(axis=1))
            correct += guess == ds.labels[i]
            total += 1
        assert correct / total > 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(class_count=1),
            dict(class_count=17),
            dict(image_size=15),
            dict(image_size=12),
            dict(samples_per_class=0),
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        args = dict(class_count=3, image_size=16, samples_per_class=2, seed=0)
        args.update(kwargs)
        with pytest.raises(ConfigError):
            synth_shapes(**args)


class TestToy2d:
    def test_layout(self):
        ds = toy_2d_three_class(10, 4)
        assert ds.images.shape == (30, 1, 2, 1)
        assert ds.class_count == 3
        assert sorted(np.unique(ds.labels)) == [0, 1, 2]

    def test_clusters_are_separable(self):
        ds = toy_2d_three_class(50, 4)
        pts = ds.images.reshape(-1, 2)
        centroids = np.stack([pts[ds.labels == c].mean(axis=0) for c in range(3)])
        nearest = np.argmin(
            ((pts[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1
        )
        assert (nearest == ds.labels).mean() > 0.99

    def test_determinism(self):
        assert np.array_equal(
            toy_2d_three_class(5, 1).images, toy_2d_three_class(5, 1).images
        )


class TestDatasetCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = synth_shapes(3, 16, 4, 9)
        path = tmp_path / "ds.pmxd"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.images.tobytes() == ds.images.tobytes()
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_count == ds.class_count

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ds.pmxd"
        ds = toy_2d_three_class(2, 0)
        save_dataset(ds, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "ds.pmxd"
        save_dataset(toy_2d_three_class(2, 0), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_sniff_dispatches_both_formats(self, tmp_path, rng):
        ck = tmp_path / "ds.pmxd"
        save_dataset(toy_2d_three_class(2, 0), ck)
        assert sniff_and_load(ck).images.shape == (6, 1, 2, 1)

        cifar = tmp_path / "batch.bin"
        cifar.write_bytes(make_cifar_bytes([1, 2], rng=rng))
        assert sniff_and_load(cifar).images.shape == (2, 32, 32, 3)

        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"ABCDEF")
        with pytest.raises(FormatError):
            sniff_and_load(junk)

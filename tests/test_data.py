"""Dataset generation determinism and CIFAR-10 binary format parsing."""
import numpy as np
import pytest

from riformer import Dataset, SynthSpec, load_cifar10_binary, synth_dataset
from riformer.data import CIFAR_MEAN, CIFAR_STD


def test_same_seed_identical_bytes():
    a = synth_dataset(SynthSpec(seed=5, samples_per_class=3))
    b = synth_dataset(SynthSpec(seed=5, samples_per_class=3))
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_different_streams_differ():
    a = synth_dataset(SynthSpec(seed=5, samples_per_class=3, stream="train"))
    b = synth_dataset(SynthSpec(seed=5, samples_per_class=3, stream="val"))
    assert not np.array_equal(a.images, b.images)


def test_class_balance_and_shapes():
    spec = SynthSpec(seed=0, num_classes=6, samples_per_class=4, resolution=32)
    ds = synth_dataset(spec)
    assert ds.images.shape == (24, 3, 32, 32)
    assert ds.images.dtype == np.float32
    counts = np.bincount(ds.labels, minlength=6)
    np.testing.assert_array_equal(counts, np.full(6, 4))


def test_batches_cover_dataset_once():
    ds = synth_dataset(SynthSpec(seed=1, num_classes=2, samples_per_class=5))
    seen = []
    for xb, yb, idx in ds.batches(4):
        assert len(xb) == len(yb) == len(idx)
        assert np.array_equal(xb, ds.images[idx])
        assert np.array_equal(yb, ds.labels[idx])
        seen.extend(idx.tolist())
    assert seen == list(range(len(ds)))


def test_shuffled_batches_are_a_permutation():
    ds = synth_dataset(SynthSpec(seed=1, num_classes=2, samples_per_class=5))
    rng = np.random.default_rng(0)
    batches = list(ds.batches(3, rng))
    for xb, yb, idx in batches:
        assert np.array_equal(xb, ds.images[idx])
        assert np.array_equal(yb, ds.labels[idx])
    indices = np.concatenate([idx for _, _, idx in batches])
    assert sorted(indices.tolist()) == list(range(len(ds)))
    assert indices.tolist() != list(range(len(ds)))


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        Dataset(images=np.zeros((3, 3, 8, 8), np.float32),
                labels=np.zeros(2, np.int64))


# ---------------------------------------------------------------------------
# CIFAR-10 binary format

def write_cifar_fixture(path, n=10, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n).astype(np.uint8)
    pixels = rng.integers(0, 256, (n, 3072)).astype(np.uint8)
    records = np.concatenate([labels[:, None], pixels], axis=1)
    records.tofile(path)
    return labels, pixels


def test_fixture_roundtrip(tmp_path):
    f = tmp_path / "batch.bin"
    labels, pixels = write_cifar_fixture(str(f), n=10)
    ds = load_cifar10_binary(str(f))
    assert len(ds) == 10
    assert ds.images.shape == (10, 3, 32, 32)
    np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))


def test_first_record_label_byte_preserved(tmp_path):
    f = tmp_path / "batch.bin"
    labels, _ = write_cifar_fixture(str(f), n=4, seed=3)
    ds = load_cifar10_binary(str(f))
    assert ds.labels[0] == int(labels[0])


def test_pixel_normalization(tmp_path):
    f = tmp_path / "batch.bin"
    record = np.concatenate([[np.uint8(1)], np.full(3072, 255, np.uint8)])
    record.tofile(str(f))
    ds = load_cifar10_binary(str(f))
    # a 255 byte is 1.0 before each channel's normalization
    for c in range(3):
        np.testing.assert_allclose(ds.images[0, c],
                                   (1 - CIFAR_MEAN[c]) / CIFAR_STD[c],
                                   rtol=1e-6)


def test_truncated_file_rejected(tmp_path):
    f = tmp_path / "bad.bin"
    with open(f, "wb") as fh:
        fh.write(b"\x00" * 5000)
    with pytest.raises(ValueError):
        load_cifar10_binary(str(f))


def test_label_byte_out_of_range_rejected(tmp_path):
    f = tmp_path / "bad.bin"
    record = np.concatenate([[np.uint8(11)], np.zeros(3072, np.uint8)])
    record.tofile(str(f))
    with pytest.raises(ValueError):
        load_cifar10_binary(str(f))


def test_directory_split_resolution(tmp_path):
    for i in range(1, 6):
        write_cifar_fixture(str(tmp_path / f"data_batch_{i}.bin"), n=2, seed=i)
    write_cifar_fixture(str(tmp_path / "test_batch.bin"), n=3, seed=9)
    assert len(load_cifar10_binary(str(tmp_path), "train")) == 10
    assert len(load_cifar10_binary(str(tmp_path), "test")) == 3
    with pytest.raises(ValueError):
        load_cifar10_binary(str(tmp_path), "valid")

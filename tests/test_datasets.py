import struct

import numpy as np
import pytest

from fedsim import datasets
from fedsim.datasets import (
    IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, IdxParseError, LabeledDataset,
    generate_synthetic, load_dataset, parse_source, partition_shards,
)

# The noise and spread of a bare "synthetic" descriptor.
OPTIONS = {key: parse_source("synthetic")[key] for key in ("noise", "spread")}


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx3"
    lab_path = tmp_path / "labels.idx1"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols)
                         + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return img_path, lab_path


def load_pair(images_path, labels_path):
    """The whole IDX pair, read through `load_dataset`."""
    return load_dataset(f"idx:{images_path},{labels_path}", 1,
                        np.random.default_rng(0))


class TestIdxParsing:
    def test_roundtrip(self, tmp_path):
        gen = np.random.default_rng(0)
        images = gen.integers(0, 256, (5, 2, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, labels)
        data = load_pair(img, lab)
        assert data.covariates.shape == (5, 6)
        assert data.covariates.min() >= 0.0 and data.covariates.max() <= 1.0
        np.testing.assert_allclose(data.covariates[2],
                                   images[2].ravel() / 255.0)
        np.testing.assert_array_equal(data.labels, labels)

    def test_bad_image_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8),
                                  np.zeros(1, np.uint8))
        raw = bytearray(img.read_bytes())
        raw[3] = 0x99
        img.write_bytes(bytes(raw))
        with pytest.raises(IdxParseError, match="byte 0"):
            load_pair(img, lab)

    def test_truncated_payload(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8),
                                  np.zeros(2, np.uint8))
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(IdxParseError, match="byte 16"):
            load_pair(img, lab)

    @pytest.mark.parametrize("magic,dims", [(IDX_IMAGES_MAGIC, 3),
                                            (IDX_LABELS_MAGIC, 1)],
                             ids=["images", "labels"])
    def test_header_past_the_end_of_the_file(self, tmp_path, magic, dims):
        # Every size 2**32 - 1: the images claim about 8e28 bytes, more
        # than a read can even ask for, the labels 4 GiB. Neither is read.
        path = tmp_path / "huge.idx"
        path.write_bytes(struct.pack(f">{1 + dims}I", magic,
                                     *[0xFFFFFFFF] * dims) + bytes(10))
        with pytest.raises(IdxParseError) as caught:
            datasets._load_idx(path, magic, dims)
        assert str(caught.value) == (
            f"{path}: truncated, wanted {0xFFFFFFFF ** dims} bytes at byte "
            f"{4 + 4 * dims}, got 10")

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8),
                                np.zeros(2, np.uint8))
        lab = tmp_path / "labels3.idx1"
        lab.write_bytes(struct.pack(">II", 0x801, 3)
                        + np.zeros(3, np.uint8).tobytes())
        with pytest.raises(IdxParseError, match="does not match"):
            load_pair(img, lab)


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(3, 5, 30, np.random.default_rng(42), **OPTIONS)
        b = generate_synthetic(3, 5, 30, np.random.default_rng(42), **OPTIONS)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shapes_and_range(self):
        data = generate_synthetic(4, 7, 100, np.random.default_rng(1),
                                  **OPTIONS)
        assert data.covariates.shape == (100, 7)
        assert data.covariates.min() >= 0.0 and data.covariates.max() <= 1.0
        assert set(np.unique(data.labels)) <= set(range(4))

    def test_descriptor_options(self):
        opts = parse_source("synthetic:classes=3,dim=16,noise=0.2")
        assert opts["classes"] == 3 and opts["dim"] == 16
        assert opts["noise"] == 0.2
        data = load_dataset("synthetic:classes=3,dim=16", 50,
                            np.random.default_rng(2))
        assert data.num_classes == 3 and data.dim == 16 and len(data) == 50

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            parse_source("csv:foo")


class TestPartition:
    def test_disjoint_and_sized(self):
        data = generate_synthetic(3, 4, 100, np.random.default_rng(3),
                                  **OPTIONS)
        # Tag each sample uniquely through its first coordinate.
        covariates = data.covariates.copy()
        covariates[:, 0] = np.arange(100) / 100.0
        data = LabeledDataset(covariates, data.labels, 3)
        shards, rest = partition_shards(data, 4, 20,
                                        np.random.default_rng(4))
        assert all(len(s) == 20 for s in shards)
        assert len(rest) == 20
        seen = np.concatenate([s.covariates[:, 0] for s in shards]
                              + [rest.covariates[:, 0]])
        assert np.unique(seen).size == 100

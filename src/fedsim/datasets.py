"""Dataset loading, synthesis, and device partitioning.

Two sources are supported: IDX image/label file pairs (big-endian headers,
magic 0x803 for images and 0x801 for labels) and a seeded synthetic
generator producing Gaussian class clusters. Covariates are scaled to
[0, 1] in both cases. Device shards are disjoint random subsets, so label
mixes across devices are naturally unbalanced.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Synthetic generator options: (default, type, least, upper bound excluded).
_SYNTHETIC = {"classes": (2, int, 2, math.inf), "dim": (24, int, 1, math.inf),
              "noise": (0.18, float, 0.0, math.inf),
              "spread": (0.25, float, 0.0, math.inf)}


@dataclass(frozen=True)
class LabeledDataset:
    """Covariates in [0, 1] with integer labels in [0, num_classes)."""

    covariates: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        covariates = np.asarray(self.covariates, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if covariates.ndim != 2 or covariates.shape[0] < 1:
            raise ValueError("covariates must be a non-empty N x d matrix")
        if labels.shape != (covariates.shape[0],):
            raise ValueError("need one label per covariate row")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ValueError("labels out of range")
        object.__setattr__(self, "covariates", covariates)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.labels.size

    @property
    def dim(self) -> int:
        return self.covariates.shape[1]

    def subset(self, idx: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.covariates[idx], self.labels[idx],
                              self.num_classes)


class IdxParseError(ValueError):
    """Malformed IDX file; the message carries the failing byte offset."""


def _read_exact(f, count, offset, path):
    """The `count` bytes of `f` from byte `offset`, its read position.

    The file's size is checked first, so a header that claims more bytes
    than the file holds fails without allocating them.
    """
    got = min(count, max(0, os.fstat(f.fileno()).st_size - offset))
    if got != count:
        raise IdxParseError(
            f"{path}: truncated, wanted {count} bytes at byte {offset}, "
            f"got {got}")
    return f.read(count)


def _load_idx(path, magic, dims) -> np.ndarray:
    """The (count, values per item) uint8 array of an IDX file of `magic`
    whose header holds `dims` sizes, the count first."""
    offset = 4 * (1 + dims)
    with open(path, "rb") as f:
        found, *sizes = struct.unpack(f">{1 + dims}I",
                                      _read_exact(f, offset, 0, path))
        if found != magic:
            raise IdxParseError(
                f"{path}: bad magic 0x{found:08x} at byte 0, "
                f"expected 0x{magic:08x}")
        per_item = math.prod(sizes[1:])
        payload = _read_exact(f, sizes[0] * per_item, offset, path)
    return np.frombuffer(payload, dtype=np.uint8).reshape(sizes[0], per_item)


def _read_idx_pair(images_path, labels_path):
    """The (covariates, labels) arrays of an IDX pair of equal counts:
    (N, rows*cols) floats in [0, 1] and (N,) ints."""
    covariates = _load_idx(images_path, IDX_IMAGES_MAGIC, 3).astype(
        np.float64) / 255.0
    labels = _load_idx(labels_path, IDX_LABELS_MAGIC, 1)[:, 0].astype(
        np.int64)
    if covariates.shape[0] != labels.shape[0]:
        raise IdxParseError(
            f"image count {covariates.shape[0]} does not match label count "
            f"{labels.shape[0]}")
    return covariates, labels


def generate_synthetic(num_classes: int, dim: int, count: int,
                       rng: np.random.Generator, *, noise: float,
                       spread: float) -> LabeledDataset:
    """Gaussian class clusters with centers spread inside the unit box.

    `parse_source` checks the option ranges.
    """
    centers = 0.5 + spread * rng.standard_normal((num_classes, dim))
    labels = rng.integers(0, num_classes, size=count)
    covariates = centers[labels] + noise * rng.standard_normal((count, dim))
    covariates = np.clip(covariates, 0.0, 1.0)
    return LabeledDataset(covariates, labels, num_classes)


def parse_source(descriptor: str) -> dict:
    """Split a dataset descriptor into a kind plus options.

    "synthetic" or "synthetic:classes=3,dim=16,noise=0.2,spread=0.3"
    selects the generator; "idx:<images>,<labels>" selects an IDX pair.
    Each synthetic option may be given once and must lie in its range of
    _SYNTHETIC.
    """
    kind, _, tail = descriptor.partition(":")
    if kind == "synthetic":
        opts = {key: default for key, (default, *_) in _SYNTHETIC.items()}
        given = set()
        for item in tail.split(",") if tail else ():
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in _SYNTHETIC:
                raise ValueError(f"unknown synthetic option {key!r}")
            if key in given:
                raise ValueError(f"synthetic option {key!r} given twice")
            given.add(key)
            opts[key] = _SYNTHETIC[key][1](value)
        for key, (_, _, least, below) in _SYNTHETIC.items():
            if not least <= opts[key] < below:  # also false for NaN
                raise ValueError(f"{key} must lie in [{least:g}, {below:g}), "
                                 f"got {opts[key]!r}")
        return {"kind": "synthetic", **opts}
    if kind == "idx":
        paths = tail.split(",")
        if len(paths) != 2:
            raise ValueError("idx source needs '<images>,<labels>'")
        return {"kind": "idx", "images": paths[0], "labels": paths[1]}
    raise ValueError(f"unknown dataset source {descriptor!r}")


def load_dataset(descriptor: str, count: int,
                 rng: np.random.Generator) -> LabeledDataset:
    """Materialize a dataset pool of at least `count` samples.

    An IDX pair must hold `count` samples of at least one pixel and at
    least two distinct labels; otherwise a ConfigurationError names the
    file.
    """
    opts = parse_source(descriptor)
    if opts["kind"] == "synthetic":
        return generate_synthetic(opts["classes"], opts["dim"], count, rng,
                                  noise=opts["noise"], spread=opts["spread"])
    covariates, labels = _read_idx_pair(opts["images"], opts["labels"])
    if len(labels) < count:
        raise ConfigurationError(
            f"data: {opts['images']} holds {len(labels)} samples, the run "
            f"needs {count} (num_devices x samples_per_device + test_samples)")
    if covariates.shape[1] < 1:
        raise ConfigurationError(
            f"data: the images in {opts['images']} have 0 pixels; a run "
            f"needs at least 1")
    if np.unique(labels).size < 2:
        raise ConfigurationError(
            f"data: every label in {opts['labels']} is {labels[0]}; a run "
            f"needs at least 2 classes")
    return LabeledDataset(covariates, labels, int(labels.max()) + 1)


def partition_shards(dataset: LabeledDataset, num_devices: int,
                     samples_per_device: int, rng: np.random.Generator):
    """Disjoint random shards for each device plus the untouched remainder;
    the dataset holds at least num_devices * samples_per_device samples."""
    needed = num_devices * samples_per_device
    order = rng.permutation(len(dataset))
    shards = [dataset.subset(order[k * samples_per_device:
                                   (k + 1) * samples_per_device])
              for k in range(num_devices)]
    remainder = dataset.subset(order[needed:])
    return shards, remainder

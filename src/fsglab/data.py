"""Datasets: seeded synthetic generators and the big-endian IDX format.

Synthetic kinds:
* blobs   - Gaussian clusters at fixed centers evenly spaced on a circle of
            radius 2; noise is the per-coordinate standard deviation.
* spirals - two interleaved arms, radius growing along 1.5 turns, with
            Gaussian coordinate noise.

IDX files are parsed per the classic layout: 32-bit big-endian magic
(0x00000803 for images, 0x00000801 for labels), then as many 32-bit
big-endian sizes as the magic's low byte says (3 and 1), then raw unsigned
bytes, exactly as many as the sizes' product.  One reader (`_read_idx`)
parses either file and `write_idx` writes both the same way.  Pixels are
scaled by 1/255 into [0, 1] and images come back as (B, 1, H, W) float64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError
from .rng import Rng
from .tensor import DTYPE

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    x: np.ndarray  # (B, ...) float64 features
    y: np.ndarray  # (B,) int labels


def gen_synthetic(kind: str, n_per_class: int, noise: float, rng: Rng,
                  classes: int = 2) -> Dataset:
    """Class means plus noise * rng.normals, class 0 first and x before y in each point."""
    if n_per_class < 1:
        raise ContractError(f"n_per_class must be >= 1, got {n_per_class}")
    if kind == "blobs":
        means = np.repeat(_blob_centers(classes), n_per_class, axis=0)
    elif kind == "spirals":
        means, classes = _spiral_arms(n_per_class), 2
    else:
        raise ContractError(f"unknown synthetic kind {kind!r}")
    return Dataset(means + noise * rng.normals(means.shape),
                   np.repeat(np.arange(classes, dtype=np.int64), n_per_class))


def _blob_centers(classes: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(classes) / classes
    return 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _spiral_arms(n_per_class: int) -> np.ndarray:
    """Two interleaved arms (1.5 turns), the second rotated by pi, as (2 n_per_class, 2).

    Radius runs 0.3 -> 3.0, which keeps the radial gap between arms around
    0.9: classes stay separable under the usual noise levels (~0.15).
    """
    t = (np.arange(n_per_class) + 0.5) / n_per_class
    r = 0.3 + 2.7 * t
    angle = 3.0 * np.pi * t + np.pi * np.arange(2)[:, None]
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1).reshape(-1, 2)


# ---------------------------------------------------------------------------
# IDX
# ---------------------------------------------------------------------------


def _read_idx(path, magic: int, buf: bytes):
    """(sizes, payload) of the IDX file `buf` read from path: the magic, then
    magic & 0xff big-endian sizes, then exactly their product of bytes."""
    what, unit = {IMAGE_MAGIC: ("image", "bytes"), LABEL_MAGIC: ("label", "labels")}[magic]
    header = 4 + 4 * (magic & 0xFF)
    found = int.from_bytes(buf[:4], "big")
    if len(buf) >= 4 and found != magic:
        raise FormatError(f"{path}: bad {what} magic 0x{found:08x}, expected 0x{magic:08x}")
    if len(buf) < header:
        raise FormatError(f"{path}: truncated header")
    sizes = struct.unpack_from(f">{magic & 0xFF}I", buf, 4)
    payload = buf[header:]
    if len(payload) != math.prod(sizes):
        raise FormatError(f"{path}: payload holds {len(payload)} {unit}, header promises "
                          f"{math.prod(sizes)}")
    return sizes, payload


def load_idx(images_path, labels_path) -> Dataset:
    bufs = []
    for path in (images_path, labels_path):  # both are read before either is parsed
        with open(path, "rb") as fh:
            bufs.append(fh.read())
    (count, rows, cols), pixels = _read_idx(images_path, IMAGE_MAGIC, bufs[0])
    (lab_count,), labels = _read_idx(labels_path, LABEL_MAGIC, bufs[1])
    if lab_count != count:
        raise FormatError(f"image/label count mismatch: {count} images vs {lab_count} labels")
    images = np.frombuffer(pixels, dtype=np.uint8).astype(DTYPE) / 255.0
    return Dataset(images.reshape(count, 1, rows, cols),
                   np.frombuffer(labels, dtype=np.uint8).astype(np.int64))


def _as_bytes(what: str, values) -> np.ndarray:
    """values as uint8; a value that is not a whole number in [0, 255] raises
    ContractError (a plain uint8 cast would wrap 256 to 0 and cut 255.9 to 255)."""
    values = np.asarray(values)
    if values.dtype == np.uint8:
        return values
    if values.dtype.kind not in "buif":
        raise ContractError(f"{what} must be numeric, got dtype {values.dtype}")
    real = values.astype(DTYPE)
    bad = ~((real >= 0.0) & (real <= 255.0) & (real == np.floor(real)))
    if bad.any():
        raise ContractError(f"{what} hold {values[bad].flat[0].item()!r}, "
                            f"not a whole number in [0, 255]")
    return values.astype(np.uint8)


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> None:
    """Inverse of load_idx for fixtures: images (B, H, W) and labels (B,), whole
    numbers in [0, 255].  Any other shape or value raises ContractError before
    a file is opened."""
    images = _as_bytes("images", images)
    labels = _as_bytes("labels", labels)
    if images.ndim != 3 or labels.ndim != 1:
        raise ContractError(f"write_idx expects images (B, H, W) and labels (B,), got "
                            f"{images.shape} and {labels.shape}")
    if labels.shape[0] != images.shape[0]:
        raise ContractError(f"image/label count mismatch: {images.shape[0]} images vs "
                            f"{labels.shape[0]} labels")
    for path, magic, values in ((images_path, IMAGE_MAGIC, images),
                                (labels_path, LABEL_MAGIC, labels)):
        with open(path, "wb") as fh:
            fh.write(struct.pack(f">{values.ndim + 1}I", magic, *values.shape))
            fh.write(values.tobytes())

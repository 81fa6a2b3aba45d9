"""Dataset ingestion: IDX files, raw CHW binaries, synthetic generator.

All loaders normalize images to float64 in [0,1] (uint8 sources are
divided by 255; float sources are taken as-is) and labels to int64.
"""

from __future__ import annotations

import inspect
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import read_field, reject_unknown


class DataFormatError(ValueError):
    """Bad magic, unsupported encoding, or truncated payload."""


@dataclass
class Dataset:
    images: np.ndarray      # (n, c, h, w) float64 in [0,1]
    labels: np.ndarray      # (n,) int64
    num_classes: int

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataFormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")
        if self.labels.size and not 0 <= self.labels.min() <= self.labels.max() < self.num_classes:
            raise DataFormatError(f"labels must lie in [0, {self.num_classes}), got "
                                  f"{self.labels.min()} to {self.labels.max()}")

    def __len__(self):
        return self.images.shape[0]


# ---------------------------------------------------------------------------
# IDX (MNIST-style)
# ---------------------------------------------------------------------------

_IDX_UBYTE = 0x08


def load_idx_file(path):
    """Parse one IDX file (unsigned-byte payloads only) to a numpy array."""
    blob = Path(path).read_bytes()
    if len(blob) < 4:
        raise DataFormatError(f"{path}: too short for an IDX header")
    z0, z1, code, ndim = struct.unpack_from(">BBBB", blob, 0)
    if z0 != 0 or z1 != 0:
        raise DataFormatError(f"{path}: bad IDX magic {blob[:4]!r}")
    if code != _IDX_UBYTE:
        raise DataFormatError(f"{path}: unsupported IDX dtype code 0x{code:02x} "
                              "(only 0x08 unsigned byte is handled)")
    header = 4 + 4 * ndim
    if len(blob) < header:
        raise DataFormatError(f"{path}: truncated IDX dimension table")
    dims = struct.unpack_from(f">{ndim}I", blob, 4)
    count = int(np.prod(dims, dtype=np.int64))
    payload = blob[header:]
    if len(payload) != count:
        raise DataFormatError(
            f"{path}: payload is {len(payload)} bytes, dims {dims} need {count}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims).copy()


def load_idx_dataset(images_path, labels_path, num_classes=None):
    images = load_idx_file(images_path)
    labels = load_idx_file(labels_path)
    if labels.ndim != 1:
        raise DataFormatError(f"{labels_path}: labels must be rank 1, got {labels.ndim}")
    if images.ndim == 3:
        images = images[:, None]
    elif images.ndim != 4:
        raise DataFormatError(f"{images_path}: images must be rank 3 or 4")
    if labels.size == 0:
        raise DataFormatError(f"{labels_path}: no labels")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return Dataset(images.astype(np.float64) / 255.0,
                   labels.astype(np.int64), num_classes)


# ---------------------------------------------------------------------------
# Raw CHW binary with JSON sidecar
# ---------------------------------------------------------------------------

def load_raw_chw(sidecar_path):
    """Raw little-endian CHW sample file described by a JSON sidecar with
    fields count/channels/height/width/dtype/data/labels[/num_classes]."""
    sidecar_path = Path(sidecar_path)
    try:
        meta = json.loads(sidecar_path.read_text())
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{sidecar_path}: invalid JSON sidecar ({e})") from None
    for key in ("count", "channels", "height", "width", "dtype", "data", "labels"):
        if key not in meta:
            raise DataFormatError(f"{sidecar_path}: sidecar missing field {key!r}")
    for key in ("count", "channels", "height", "width", "num_classes"):
        if key in meta and (type(meta[key]) is not int or meta[key] < 1):
            raise DataFormatError(f"{sidecar_path}: sidecar field {key!r} must be an "
                                  f"integer >= 1, got {meta[key]!r}")
    n, c, h, w = (meta[k] for k in ("count", "channels", "height", "width"))
    dtypes = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8"),
              "uint8": np.dtype("u1")}
    if meta["dtype"] not in dtypes:
        raise DataFormatError(f"{sidecar_path}: unsupported dtype {meta['dtype']!r}")
    dt = dtypes[meta["dtype"]]
    data_path = sidecar_path.parent / meta["data"]
    blob = data_path.read_bytes()
    need = n * c * h * w * dt.itemsize
    if len(blob) != need:
        raise DataFormatError(f"{data_path}: {len(blob)} bytes, expected {need}")
    images = np.frombuffer(blob, dtype=dt).reshape(n, c, h, w).astype(np.float64)
    if meta["dtype"] == "uint8":
        images /= 255.0
    labels_path = sidecar_path.parent / meta["labels"]
    lblob = labels_path.read_bytes()
    if len(lblob) != n:
        raise DataFormatError(f"{labels_path}: {len(lblob)} label bytes, expected {n}")
    labels = np.frombuffer(lblob, dtype=np.uint8).astype(np.int64)
    num_classes = meta["num_classes"] if "num_classes" in meta else int(labels.max()) + 1
    return Dataset(images, labels, num_classes)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

def synthetic_dataset(num_samples, num_classes=8, image_size=16, channels=1,
                      noise=0.08, max_shift=2, seed=0):
    """Class-templated pattern images: each class owns a random low-res
    grid placed in the central window; samples are small random shifts of
    the template plus Gaussian noise, clipped to [0,1].

    Each distinct (class, shift) roll of a template is built once from
    modular row and column indices, and every sample is taken from those
    rolls in one gather. The draw order (templates, labels, shifts,
    noise) is what fixes a seed's bytes."""
    rng = np.random.default_rng(seed)
    margin = max(1, image_size // 4)
    window = image_size - 2 * margin
    grid = max(2, window // 2)
    templates = np.zeros((num_classes, channels, image_size, image_size))
    for cls in range(num_classes):
        cells = rng.uniform(0.35, 1.0, (channels, grid, grid))
        cells *= rng.random((channels, grid, grid)) < 0.55
        up = np.repeat(np.repeat(cells, -(-window // grid), axis=1),
                       -(-window // grid), axis=2)[:, :window, :window]
        templates[cls, :, margin:margin + window, margin:margin + window] = up
    labels = rng.integers(0, num_classes, num_samples)
    shifts = rng.integers(-max_shift, max_shift + 1, (num_samples, 2)) % image_size
    keys = (labels * image_size + shifts[:, 0]) * image_size + shifts[:, 1]
    rolls, sample_roll = np.unique(keys, return_inverse=True)
    cls, dy, dx = rolls // image_size**2, rolls // image_size % image_size, rolls % image_size
    # np.roll by s puts source index (j - s) mod size at j
    rows = (np.arange(image_size) - dy[:, None]) % image_size
    cols = (np.arange(image_size) - dx[:, None]) % image_size
    rolled = templates[cls[:, None, None, None], np.arange(channels)[:, None, None],
                       rows[:, None, :, None], cols[:, None, None, :]]
    images = rolled[sample_roll]
    images += rng.normal(0.0, noise, images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images, labels.astype(np.int64), num_classes)


def train_val_split(ds: Dataset, val_fraction, rng):
    n = len(ds)
    n_val = int(round(n * val_fraction))
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    return (Dataset(ds.images[train_idx], ds.labels[train_idx], ds.num_classes),
            Dataset(ds.images[val_idx], ds.labels[val_idx], ds.num_classes))


def load_dataset(data_cfg: dict, base_dir="."):
    """Dispatch on data.kind: synthetic | idx | raw_chw. A malformed field
    (each is read by ``read_field``), a field below its lower bound and a
    key the kind does not read raise ``ConfigurationError``."""
    kind = read_field("data.kind", data_cfg, str)
    base = Path(base_dir)
    if kind == "synthetic":
        # an omitted field takes the generator's own default; below 3 px
        # the template window is empty and every class is noise
        default = {name: p.default for name, p in
                   inspect.signature(synthetic_dataset).parameters.items()}
        args = dict(
            num_samples=read_field("data.num_samples", data_cfg, int, low=1),
            num_classes=read_field("data.num_classes", data_cfg, int, default["num_classes"],
                                   low=1),
            image_size=read_field("data.image_size", data_cfg, int, default["image_size"], low=3),
            channels=read_field("data.channels", data_cfg, int, default["channels"], low=1),
            noise=read_field("data.noise", data_cfg, float, default["noise"], low=0.0),
            max_shift=read_field("data.max_shift", data_cfg, int, default["max_shift"], low=0),
            seed=read_field("data.seed", data_cfg, int, default["seed"], low=0))
        reject_unknown("data", data_cfg, ("kind", *args))
        return synthetic_dataset(**args)
    if kind == "idx":
        reject_unknown("data", data_cfg, ("kind", "images", "labels", "num_classes"))
        return load_idx_dataset(base / read_field("data.images", data_cfg, str),
                                base / read_field("data.labels", data_cfg, str),
                                read_field("data.num_classes", data_cfg, int, None, low=1))
    if kind == "raw_chw":
        reject_unknown("data", data_cfg, ("kind", "sidecar"))
        return load_raw_chw(base / read_field("data.sidecar", data_cfg, str))
    raise DataFormatError(f"data.kind: unknown dataset kind {kind!r}")

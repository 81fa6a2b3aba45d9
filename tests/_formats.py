"""Writers of the on-disk dataset formats that ``cgnet.data`` loads, and
of a checkpoint record that ``cgnet.checkpoint`` cannot write.

The package only reads these formats; the tests build their fixtures with
these writers and round-trip them through the loaders.
"""

import json
import struct
from pathlib import Path

import numpy as np

IDX_UBYTE = 0x08   # the one IDX payload type the loader reads


def write_idx_file(path, arr):
    """Write an unsigned-byte IDX file."""
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">BBBB", 0, 0, IDX_UBYTE, arr.ndim))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


def write_raw_chw(sidecar_path, dataset, dtype="float32"):
    """Write a ``Dataset`` as raw little-endian CHW samples, uint8 labels
    and the JSON sidecar that describes them."""
    sidecar_path = Path(sidecar_path)
    stem = sidecar_path.stem
    data_name, labels_name = f"{stem}.images.bin", f"{stem}.labels.bin"
    n, c, h, w = dataset.images.shape
    arr = dataset.images.astype("<f4" if dtype == "float32" else "<f8")
    if dtype == "uint8":
        arr = np.round(dataset.images * 255.0).astype(np.uint8)
    (sidecar_path.parent / data_name).write_bytes(np.ascontiguousarray(arr).tobytes())
    (sidecar_path.parent / labels_name).write_bytes(
        dataset.labels.astype(np.uint8).tobytes())
    meta = {"schema_version": 1, "count": n, "channels": c, "height": h,
            "width": w, "dtype": dtype, "data": data_name, "labels": labels_name,
            "num_classes": dataset.num_classes}
    sidecar_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def write_deep_record(path, name, rank):
    """Write a CGN1 container of one float64 record of shape (1,) * rank:
    the rank field holds up to 255, a numpy array at most 64."""
    nb = name.encode("utf-8")
    Path(path).write_bytes(b"CGN1" + struct.pack("<IH", 1, len(nb)) + nb
                           + struct.pack(f"<BB{rank}I", 0, rank, *[1] * rank)
                           + struct.pack("<d", 1.0))

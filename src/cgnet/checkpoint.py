"""Binary checkpoint container (magic "CGN1").

Byte layout, all integers little-endian:

    offset 0   4 bytes   magic b"CGN1"
    offset 4   uint32    record count
    then, per record:
        uint16        name length in bytes
        bytes         name (UTF-8)
        uint8         dtype code: 0 = float64, 1 = int64, 2 = uint8
        uint8         rank (number of dimensions)
        uint32 x rank dimension sizes
        bytes         payload, row-major, little-endian

Model checkpoints store every tensor of the network plus one uint8
record named "__config__" holding the canonical JSON of the model
configuration, so a checkpoint is self-describing. A gated layer's
"<layer>.gate_mean"/"<layer>.gate_var" records are BN1's running stats,
written a second time beside "<layer>.bn1_mean"/"<layer>.bn1_var"; loading
rejects a checkpoint in which the two copies differ.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"CGN1"
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8"), 2: np.dtype("u1")}
_CODES = {np.dtype("float64"): 0, np.dtype("int64"): 1, np.dtype("uint8"): 2}

CONFIG_RECORD = "__config__"


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def write_container(path, tensors):
    """Write named arrays; ``tensors`` is an ordered iterable of (name, array)."""
    items = list(tensors.items()) if isinstance(tensors, dict) else list(tensors)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(items)))
        for name, arr in items:
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _CODES:
                arr = arr.astype(np.float64)
            code = _CODES[arr.dtype]
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<BB", code, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype(_DTYPES[code]).tobytes())


def read_container(path):
    """Read a container back as an ordered dict name -> array."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    off = 4
    try:
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        out = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + nlen].decode("utf-8")
            off += nlen
            if name in out:
                raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
            code, ndim = struct.unpack_from("<BB", blob, off)
            off += 2
            if code not in _DTYPES:
                raise CheckpointError(f"{path}: unknown dtype code {code} in {name!r}")
            shape = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            dt = _DTYPES[code]
            nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
            payload = blob[off:off + nbytes]
            if len(payload) != nbytes:
                raise CheckpointError(f"{path}: truncated payload for {name!r}")
            off += nbytes
            out[name] = np.frombuffer(payload, dtype=dt).reshape(shape).copy()
    except struct.error as e:
        raise CheckpointError(f"{path}: truncated checkpoint ({e})") from None
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return out


def save_model(path, model):
    """Serialize a network (tensors plus embedded model config)."""
    items = model.state_tensors()
    cfg = json.dumps(model.config, sort_keys=True).encode("utf-8")
    items.append((CONFIG_RECORD, np.frombuffer(cfg, dtype=np.uint8).copy()))
    write_container(path, items)


def load_model(path):
    """Rebuild a network from a checkpoint written by save_model."""
    from .network import build_model
    tensors = read_container(path)
    if CONFIG_RECORD not in tensors:
        raise CheckpointError(f"{path}: missing {CONFIG_RECORD} record")
    cfg = json.loads(tensors[CONFIG_RECORD].tobytes().decode("utf-8"))
    model = build_model(cfg, rng=None)
    model.load_state_tensors(tensors)
    return model

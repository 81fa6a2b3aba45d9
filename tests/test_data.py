"""Dataset ingestion: IDX fixtures, raw CHW sidecar, synthetic generator."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgnet import data
from cgnet.config import ConfigurationError
from cgnet.data import (DataFormatError, Dataset, load_dataset,
                        load_idx_dataset, load_idx_file, load_raw_chw,
                        synthetic_dataset, train_val_split)

from _formats import write_idx_file, write_raw_chw
from _oracles import synthetic_dataset_reference

TINY = Path(__file__).resolve().parent.parent / "configs" / "tiny_smoke.json"


class TestIdx:
    def test_hand_built_roundtrip(self, tmp_path, rng):
        # 4-image hand-built idx file round-trips exactly
        images = rng.integers(0, 256, (4, 6, 6)).astype(np.uint8)
        labels = np.array([0, 1, 2, 1], dtype=np.uint8)
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx_file(ip, images)
        write_idx_file(lp, labels)
        ds = load_idx_dataset(ip, lp)
        assert ds.images.shape == (4, 1, 6, 6)
        np.testing.assert_array_equal(np.round(ds.images[:, 0] * 255), images)
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.num_classes == 3

    def test_header_fields_are_big_endian(self, tmp_path):
        write_idx_file(tmp_path / "x.idx", np.zeros((2, 3), dtype=np.uint8))
        blob = (tmp_path / "x.idx").read_bytes()
        assert blob[:4] == bytes([0, 0, 0x08, 2])
        assert blob[4:12] == (2).to_bytes(4, "big") + (3).to_bytes(4, "big")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.idx").write_bytes(b"\x01\x00\x08\x01" + b"\x00" * 8)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx_file(tmp_path / "bad.idx")

    def test_unsupported_dtype_named(self, tmp_path):
        (tmp_path / "f.idx").write_bytes(bytes([0, 0, 0x0D, 1]) + b"\x00" * 8)
        with pytest.raises(DataFormatError, match="0x0d"):
            load_idx_file(tmp_path / "f.idx")

    @pytest.mark.parametrize("num_classes", [None, 3])
    def test_empty_label_set_rejected(self, tmp_path, num_classes):
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx_file(ip, np.zeros((0, 6, 6), dtype=np.uint8))
        write_idx_file(lp, np.zeros(0, dtype=np.uint8))
        with pytest.raises(DataFormatError, match="no labels"):
            load_idx_dataset(ip, lp, num_classes)

    def test_label_outside_num_classes_rejected(self, tmp_path):
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx_file(ip, np.zeros((3, 6, 6), dtype=np.uint8))
        write_idx_file(lp, np.array([0, 1, 5], dtype=np.uint8))
        with pytest.raises(DataFormatError, match=r"labels must lie in \[0, 2\), got 0 to 5"):
            load_idx_dataset(ip, lp, num_classes=2)

    def test_num_classes_below_one_named(self, tmp_path):
        write_idx_file(tmp_path / "img.idx", np.zeros((3, 6, 6), dtype=np.uint8))
        write_idx_file(tmp_path / "lbl.idx", np.zeros(3, dtype=np.uint8))
        with pytest.raises(ConfigurationError, match=r"data\.num_classes: must be >= 1, got 0"):
            load_dataset({"kind": "idx", "images": "img.idx", "labels": "lbl.idx",
                          "num_classes": 0}, tmp_path)

    def test_truncated_payload(self, tmp_path):
        write_idx_file(tmp_path / "t.idx", np.zeros((4, 4), dtype=np.uint8))
        blob = (tmp_path / "t.idx").read_bytes()
        (tmp_path / "t.idx").write_bytes(blob[:-3])
        with pytest.raises(DataFormatError, match="payload"):
            load_idx_file(tmp_path / "t.idx")


class TestRawChw:
    def test_roundtrip(self, tmp_path, rng):
        ds = Dataset(rng.random((5, 2, 4, 4)), rng.integers(0, 3, 5), 3)
        sidecar = tmp_path / "set.json"
        write_raw_chw(sidecar, ds, dtype="float64")
        back = load_raw_chw(sidecar)
        np.testing.assert_array_equal(back.images, ds.images)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_uint8_normalized(self, tmp_path, rng):
        ds = Dataset(rng.random((3, 1, 4, 4)), rng.integers(0, 2, 3), 2)
        sidecar = tmp_path / "u8.json"
        write_raw_chw(sidecar, ds, dtype="uint8")
        back = load_raw_chw(sidecar)
        assert back.images.min() >= 0.0 and back.images.max() <= 1.0

    def test_missing_field_named(self, tmp_path):
        (tmp_path / "s.json").write_text(json.dumps({"count": 1}))
        with pytest.raises(DataFormatError, match="channels"):
            load_raw_chw(tmp_path / "s.json")

    def test_size_mismatch(self, tmp_path, rng):
        ds = Dataset(rng.random((3, 1, 4, 4)), rng.integers(0, 2, 3), 2)
        sidecar = tmp_path / "s.json"
        write_raw_chw(sidecar, ds)
        meta = json.loads(sidecar.read_text())
        meta["count"] = 4
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DataFormatError, match="bytes"):
            load_raw_chw(sidecar)

    @pytest.mark.parametrize("num_classes", [None, 3])
    def test_empty_file_rejected(self, tmp_path, num_classes):
        sidecar = tmp_path / "empty.json"
        write_raw_chw(sidecar, Dataset(np.zeros((0, 1, 4, 4)), np.zeros(0, np.int64), 3))
        meta = json.loads(sidecar.read_text())
        assert meta["count"] == 0
        if num_classes is None:
            del meta["num_classes"]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DataFormatError, match="'count' must be an integer >= 1, got 0"):
            load_raw_chw(sidecar)

    @pytest.mark.parametrize("key,value", [
        ("count", "abc"), ("channels", 2.5), ("height", True), ("num_classes", 2.0),
    ])
    def test_non_integer_field_rejected(self, tmp_path, rng, key, value):
        ds = Dataset(rng.random((3, 1, 4, 4)), rng.integers(0, 2, 3), 2)
        sidecar = tmp_path / "s.json"
        write_raw_chw(sidecar, ds)
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DataFormatError, match=f"'{key}' must be an integer"):
            load_raw_chw(sidecar)


class TestSynthetic:
    def test_reproducible(self):
        a = synthetic_dataset(50, seed=42)
        b = synthetic_dataset(50, seed=42)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = synthetic_dataset(50, seed=1)
        b = synthetic_dataset(50, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_shapes_and_range(self):
        ds = synthetic_dataset(20, num_classes=4, image_size=12, channels=1)
        assert ds.images.shape == (20, 1, 12, 12)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert set(np.unique(ds.labels)) <= set(range(4))

    def test_split(self, rng):
        ds = synthetic_dataset(100, seed=5)
        train, val = train_val_split(ds, 0.2, rng)
        assert len(train) == 80 and len(val) == 20

    def test_dispatch(self):
        ds = load_dataset({"kind": "synthetic", "num_samples": 10,
                           "num_classes": 3, "image_size": 8, "seed": 1})
        assert len(ds) == 10
        with pytest.raises(DataFormatError, match="kind"):
            load_dataset({"kind": "parquet"})

    def test_omitted_fields_take_the_generator_defaults(self, monkeypatch):
        # the defaults are read from synthetic_dataset's signature, not restated
        want = synthetic_dataset(12)
        got = load_dataset({"kind": "synthetic", "num_samples": 12})
        assert got.images.tobytes() == want.images.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        calls = []

        def generator(num_samples, num_classes=3, image_size=5, channels=2, noise=0.5,
                      max_shift=1, seed=9):
            calls.append((num_samples, num_classes, image_size, channels, noise, max_shift, seed))

        monkeypatch.setattr(data, "synthetic_dataset", generator)
        load_dataset({"kind": "synthetic", "num_samples": 4, "seed": 2})
        assert calls == [(4, 3, 5, 2, 0.5, 1, 2)]

    @pytest.mark.parametrize("key,value,rule", [
        ("num_samples", -5, ">= 1"), ("num_samples", 0, ">= 1"),
        ("num_classes", 0, ">= 1"), ("image_size", 0, ">= 3"), ("image_size", 2, ">= 3"),
        ("channels", 0, ">= 1"), ("noise", -1.0, ">= 0.0"), ("max_shift", -1, ">= 0"),
        ("seed", -3, ">= 0"),
    ])
    def test_field_below_bound_named(self, key, value, rule):
        # each of these used to fail inside numpy, or, for channels 0, as a
        # channel mismatch blamed on the model; an image_size of 1 or 2
        # leaves the class window empty, so every class was the same noise
        with pytest.raises(ConfigurationError, match=rf"data\.{key}: must be {rule}, got {value}"):
            load_dataset({"kind": "synthetic", "num_samples": 10, key: value})


class TestSyntheticGather:
    """The one-gather generator against the per-sample ``np.roll`` loop, and
    the bytes a seed gives pinned, so that no change moves a seed's
    dataset (and with it the benchmark's inputs) unseen."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 6), st.integers(3, 12), st.integers(1, 3),
           st.sampled_from([0.0, 0.08]), st.integers(0, 15), st.integers(0, 2**32 - 1))
    def test_matches_per_sample_roll(self, num_samples, num_classes, image_size,
                                     channels, noise, max_shift, seed):
        args = (num_samples, num_classes, image_size, channels, noise, max_shift, seed)
        ds = synthetic_dataset(*args)
        images, labels = synthetic_dataset_reference(*args)
        assert ds.images.tobytes() == images.tobytes()
        assert ds.labels.tobytes() == labels.astype(np.int64).tobytes()

    @pytest.mark.parametrize("data_cfg,golden", [
        (json.loads(TINY.read_text())["data"],
         "3d3d5c24f2df305faba3521032e0d912e63d14b5e632f002eab7a07f8e39e9ab"),
        # the shape of the train benchmark workload's sample pool
        ({"kind": "synthetic", "num_samples": 2048, "num_classes": 8, "image_size": 16,
          "channels": 1, "noise": 0.08, "max_shift": 2, "seed": 1114088974},
         "1141160b373a3957acedeb5a1bca4603e32a1babe6fabd2eb0c59fee37eedff1"),
    ])
    def test_dataset_bytes_pinned(self, data_cfg, golden):
        ds = load_dataset(data_cfg)
        digest = hashlib.sha256(ds.images.astype("<f8").tobytes())
        digest.update(ds.labels.astype("<i8").tobytes())
        assert digest.hexdigest() == golden

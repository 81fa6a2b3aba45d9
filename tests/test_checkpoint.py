"""Checkpoint container: byte layout, roundtrip, corruption handling."""

import struct

import numpy as np
import pytest

from cgnet import checkpoint
from cgnet.checkpoint import (CheckpointError, load_model, read_container,
                              save_model, write_container)
from cgnet.network import build_model
from cgnet.nn import ConfigurationError


class TestContainer:
    def test_roundtrip(self, tmp_path, rng):
        tensors = {
            "a": rng.standard_normal((3, 4)),
            "b": np.arange(10, dtype=np.int64),
            "c": np.frombuffer(b"hello", dtype=np.uint8).copy(),
        }
        path = tmp_path / "t.cgn"
        write_container(path, tensors)
        back = read_container(path)
        assert list(back) == ["a", "b", "c"]
        for k in tensors:
            np.testing.assert_array_equal(back[k], tensors[k])
            assert back[k].dtype == tensors[k].dtype

    def test_documented_byte_layout(self, tmp_path):
        # one float64 scalar record named "x": verify bytes field by field
        path = tmp_path / "t.cgn"
        write_container(path, {"x": np.array([1.5])})
        blob = path.read_bytes()
        assert blob[:4] == b"CGN1"
        assert struct.unpack_from("<I", blob, 4)[0] == 1
        assert struct.unpack_from("<H", blob, 8)[0] == 1
        assert blob[10:11] == b"x"
        code, ndim = struct.unpack_from("<BB", blob, 11)
        assert (code, ndim) == (0, 1)
        assert struct.unpack_from("<I", blob, 13)[0] == 1
        assert struct.unpack_from("<d", blob, 17)[0] == 1.5
        assert len(blob) == 25

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cgn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            read_container(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "t.cgn"
        write_container(path, {"a": rng.standard_normal(100)})
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 10])
        with pytest.raises(CheckpointError, match="truncated"):
            read_container(path)


    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "dup.cgn"
        write_container(path, [("a", np.array([1.0])), ("a", np.array([2.0]))])
        with pytest.raises(CheckpointError, match="duplicate tensor name 'a'"):
            read_container(path)


class TestModelCheckpoint:
    def model_cfg(self):
        return {
            "input_shape": [1, 8, 8],
            "num_classes": 3,
            "cg_defaults": {"groups": 2},
            "layers": [
                {"type": "conv", "out_channels": 4, "kernel_size": 3, "padding": 1},
                {"type": "cg_conv", "out_channels": 8, "kernel_size": 3, "padding": 1},
                {"type": "avgpool", "kernel_size": 8},
                {"type": "flatten"},
                {"type": "linear", "out_features": 3},
            ],
        }

    def test_model_roundtrip_bitwise(self, tmp_path, rng):
        model = build_model(self.model_cfg(), rng)
        model.gated_layers()[0].params.gate.delta[:] = rng.standard_normal(8)
        model.freeze_gates()
        path = tmp_path / "model.cgn"
        save_model(path, model)
        back = load_model(path)
        x = rng.standard_normal((2, 1, 8, 8))
        ya, _ = model.forward_infer(x)
        yb, _ = back.forward_infer(x)
        np.testing.assert_array_equal(ya, yb)

    def test_frozen_flag_persisted(self, tmp_path, rng):
        model = build_model(self.model_cfg(), rng)
        path = tmp_path / "unfrozen.cgn"
        save_model(path, model)
        back = load_model(path)
        assert not back.gated_layers()[0].params.gate.frozen
        model.freeze_gates()
        save_model(path, model)
        assert load_model(path).gated_layers()[0].params.gate.frozen

    def test_missing_frozen_flag_loads_unfrozen(self, tmp_path, rng):
        model = build_model(self.model_cfg(), rng)
        model.freeze_gates()
        path = tmp_path / "model.cgn"
        save_model(path, model)
        tensors = read_container(path)
        del tensors["__frozen__"]
        write_container(path, tensors)
        assert not any(l.params.gate.frozen for l in load_model(path).gated_layers())

    def test_unexpected_tensor_rejected(self, tmp_path, rng):
        model = build_model(self.model_cfg(), rng)
        model.freeze_gates()
        path = tmp_path / "model.cgn"
        save_model(path, model)
        tensors = read_container(path)
        tensors["L01.w_extra"] = np.zeros(3)
        write_container(path, tensors)
        with pytest.raises(ConfigurationError, match="unexpected tensor.*'L01.w_extra'"):
            load_model(path)

    def test_save_is_deterministic(self, tmp_path, rng):
        model = build_model(self.model_cfg(), rng)
        model.freeze_gates()
        p1, p2 = tmp_path / "a.cgn", tmp_path / "b.cgn"
        save_model(p1, model)
        save_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_gate_records_are_bn1_stats(self, tmp_path, rng):
        model = build_model(self.model_cfg(), rng)
        model.forward_train(rng.standard_normal((4, 1, 8, 8)))
        model.freeze_gates()
        path = tmp_path / "model.cgn"
        save_model(path, model)
        tensors = read_container(path)
        stats = model.gated_layers()[0].params.bn1
        assert np.any(stats.running_mean != 0.0)
        for stat in ("mean", "var"):
            np.testing.assert_array_equal(tensors[f"L01.gate_{stat}"],
                                          tensors[f"L01.bn1_{stat}"])

    def test_gate_record_differing_from_bn1_rejected(self, tmp_path, rng):
        model = build_model(self.model_cfg(), rng)
        model.freeze_gates()
        path = tmp_path / "model.cgn"
        save_model(path, model)
        tensors = read_container(path)
        tensors["L01.gate_mean"][3] += 0.25
        write_container(path, tensors)
        with pytest.raises(ConfigurationError, match="'L01.bn1_mean' and 'L01.gate_mean'"):
            load_model(path)

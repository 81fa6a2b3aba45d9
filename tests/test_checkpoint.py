"""Checkpoint container: byte layout, roundtrip, corruption handling."""

import struct

import numpy as np
import pytest

from cgnet import checkpoint
from cgnet.checkpoint import (CheckpointError, load_model, read_container,
                              save_model, write_container)
from cgnet.network import build_model
from cgnet.nn import ConfigurationError

from _formats import write_deep_record
from _oracles import kernel_split


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

    @pytest.mark.parametrize("bad, match", [
        (("n" * 65536, np.array([1.0])), "65536 UTF-8 bytes"),
        (("\u00e9" * 32768, np.array([1.0])), "65536 UTF-8 bytes"),
        (("wide", np.zeros((0, 2 ** 32))), "record 'wide': shape"),
    ])
    def test_record_the_format_cannot_hold_writes_nothing(self, tmp_path, bad, match):
        # the valid record first: a failure partway would leave its bytes behind
        path = tmp_path / "t.cgn"
        with pytest.raises(CheckpointError, match=match):
            write_container(path, [("ok", np.array([1.0])), bad])
        assert not path.exists()

    def test_longest_name_roundtrips(self, tmp_path):
        path = tmp_path / "t.cgn"
        name = "n" * 65535
        write_container(path, {name: np.array([2.0])})
        assert list(read_container(path)) == [name]

    def test_name_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "t.cgn"
        write_container(path, {"ab": np.array([1.0])})
        blob = bytearray(path.read_bytes())
        blob[10:12] = b"\xff\xfe"   # the name's two bytes
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="not UTF-8"):
            read_container(path)

    @pytest.mark.parametrize("rank", [65, 255])
    def test_rank_numpy_cannot_hold_rejected(self, tmp_path, rank):
        # one float64 record of shape (1,) * rank: the rank field holds it,
        # a numpy array does not
        path = tmp_path / "deep.cgn"
        write_deep_record(path, "deep", rank)
        with pytest.raises(CheckpointError, match=f"record 'deep' declares rank {rank}"):
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
        assert not back.gates_frozen()
        model.freeze_gates()
        save_model(path, model)
        assert load_model(path).gates_frozen()

    def test_training_pass_clears_frozen_flag(self, tmp_path, rng):
        # a train-mode pass moves BN1/BN2's running stats, so a frozen
        # model that runs one is frozen no longer, and its checkpoint says so
        model = build_model(self.model_cfg(), rng)
        model.freeze_gates()
        model.forward_train(rng.standard_normal((2, 1, 8, 8)))
        assert not model.gates_frozen()
        path = tmp_path / "model.cgn"
        save_model(path, model)
        assert read_container(path)["__frozen__"].tolist() == [0]
        assert not load_model(path).gates_frozen()
        model.freeze_gates()
        assert model.gates_frozen()

    def test_missing_frozen_flag_loads_unfrozen(self, tmp_path, rng):
        model = build_model(self.model_cfg(), rng)
        model.freeze_gates()
        path = tmp_path / "model.cgn"
        save_model(path, model)
        tensors = read_container(path)
        del tensors["__frozen__"]
        write_container(path, tensors)
        assert not load_model(path).gates_frozen()

    @pytest.mark.parametrize("frozen", [np.zeros(0, dtype=np.int64), np.array([7]),
                                        np.array([0, 1]), np.array([-1])],
                             ids=["empty", "seven", "two_values", "minus_one"])
    def test_malformed_frozen_flag_rejected(self, tmp_path, rng, frozen):
        path = tmp_path / "model.cgn"
        save_model(path, build_model(self.model_cfg(), rng))
        tensors = read_container(path)
        tensors["__frozen__"] = frozen
        write_container(path, tensors)
        with pytest.raises(CheckpointError, match="__frozen__ record must hold one 0 or 1"):
            load_model(path)

    @pytest.mark.parametrize("config", [b"{not json", b"\xff\xfe", b"[1, 2]", b'"text"'])
    def test_config_record_not_a_json_object_rejected(self, tmp_path, rng, config):
        path = tmp_path / "model.cgn"
        save_model(path, build_model(self.model_cfg(), rng))
        tensors = read_container(path)
        tensors[checkpoint.CONFIG_RECORD] = np.frombuffer(config, dtype=np.uint8).copy()
        write_container(path, tensors)
        with pytest.raises(CheckpointError, match="__config__"):
            load_model(path)

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

    @pytest.mark.parametrize("G", [1, 2, 4])
    def test_kernel_records_split_w_and_reload_restores_it(self, tmp_path, rng, G):
        # several gated layers, so a load holds several split copies at once
        cfg = {
            "input_shape": [4, 8, 8],
            "num_classes": 3,
            "cg_defaults": {"groups": G},
            "layers": [
                {"type": "cg_conv", "out_channels": 8, "kernel_size": 3, "padding": 1},
                {"type": "cg_conv", "out_channels": 8, "kernel_size": 3, "padding": 1},
                {"type": "maxpool", "kernel_size": 2},
                {"type": "cg_conv", "out_channels": 16, "kernel_size": 3, "padding": 1},
                {"type": "avgpool", "kernel_size": 4},
                {"type": "flatten"},
                {"type": "linear", "out_features": 3},
            ],
        }
        model = build_model(cfg, rng)
        model.freeze_gates()
        path = tmp_path / "model.cgn"
        save_model(path, model)
        tensors = read_container(path)
        for layer in model.gated_layers():
            w_p, w_r = kernel_split(layer.params.w, G)
            np.testing.assert_array_equal(tensors[f"{layer.name}.w_p"], w_p)
            np.testing.assert_array_equal(tensors[f"{layer.name}.w_r"], w_r)
        back = load_model(path)
        for layer, loaded in zip(model.gated_layers(), back.gated_layers()):
            assert loaded.params.w.tobytes() == layer.params.w.tobytes()

    def test_network_without_config_writes_nothing(self, tmp_path, rng):
        # a dense twin has none: the gated model's config would make a file
        # whose dense records load_model rejects
        dense = build_model(self.model_cfg(), rng).to_dense()
        path = tmp_path / "dense.cgn"
        with pytest.raises(CheckpointError, match="no model config"):
            save_model(path, dense)
        assert not path.exists()

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

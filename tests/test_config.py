"""Config fields: the one reader's rules, the bundled configs under them, and
malformed fields that ``cg train`` must reject by name."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cgnet import checkpoint, cli
from cgnet.config import ConfigurationError, read_field
from cgnet.data import load_dataset
from cgnet.network import build_model

REPO = Path(__file__).resolve().parent.parent
TINY = REPO / "configs" / "tiny_smoke.json"
SHIPPED = sorted((REPO / "configs").glob("*.json")) + sorted(
    (REPO / "cgbench" / "models").glob("*.json"))


class TestReadField:
    @pytest.mark.parametrize("kind,value", [
        (int, 3), (float, 2.5), (bool, False), (str, "relu"), (list, [1]), (dict, {}),
    ])
    def test_own_type_accepted(self, kind, value):
        assert read_field("a.b", {"b": value}, kind) == value

    @pytest.mark.parametrize("kind,value,message", [
        (int, 8.9, "a.b: expected int, got 8.9"),
        (int, True, "a.b: expected int, got True"),
        (int, "4", "a.b: expected int, got '4'"),
        (float, "0.5", "a.b: expected a number, got '0.5'"),
        (float, False, "a.b: expected a number, got False"),
        (float, math.nan, "a.b: expected a finite number, got nan"),
        (float, -math.inf, "a.b: expected a finite number, got -inf"),
        (bool, "false", "a.b: expected true or false, got 'false'"),
        (bool, 0, "a.b: expected true or false, got 0"),
        (str, 5, "a.b: expected a string, got 5"),
        (list, {"x": 1}, "a.b: expected a list, got {'x': 1}"),
        (dict, [1], "a.b: expected an object, got [1]"),
        (int, None, "a.b: expected int, got None"),
    ])
    def test_other_values_rejected(self, kind, value, message):
        with pytest.raises(ConfigurationError) as err:
            read_field("a.b", {"b": value}, kind)
        assert str(err.value) == message

    def test_float_field_returns_a_float(self):
        value = read_field("lr", {"lr": 1}, float)
        assert value == 1.0 and type(value) is float

    def test_missing_field(self):
        assert read_field("a.b", {}, int, 7) == 7
        with pytest.raises(ConfigurationError, match=r"^a\.b: required field missing$"):
            read_field("a.b", {}, int)

    def test_null_only_where_the_default_is_none(self):
        assert read_field("x", {"x": None}, int, None) is None
        with pytest.raises(ConfigurationError, match="x: expected a string, got None"):
            read_field("x", {"x": None}, str, "relu")

    def test_first_source_wins(self):
        layer, defaults = {"groups": 2}, {"groups": 4, "epsilon": 3}
        assert read_field("L.groups", (layer, defaults), int) == 2
        assert read_field("L.epsilon", (layer, defaults), float) == 3.0

    def test_list_entries_checked_by_name(self):
        assert read_field("etas", {"etas": [1, 0.5]}, list, each=float) == [1.0, 0.5]
        with pytest.raises(ConfigurationError, match=r"etas\[1\]: expected a number"):
            read_field("etas", {"etas": [0.5, True]}, list, each=float)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_config_reads(path):
    """Every bundled model section builds, every synthetic data section
    loads and every command config's top level reads under the reader's
    rules."""
    cfg = json.loads(path.read_text())
    if "schema_version" in cfg:
        assert cli._load_config(path) == cfg
    model_cfg = cfg.get("model", cfg if "layers" in cfg else None)
    if model_cfg is not None:
        assert build_model(model_cfg, np.random.default_rng(0)).layers
    if cfg.get("data", {}).get("kind") == "synthetic":
        data_cfg = {**cfg["data"], "num_samples": 8}
        assert len(load_dataset(data_cfg)) == 8


@pytest.mark.parametrize("data_cfg", [
    {"kind": "synthetic", "num_samples": 8, "image_sise": 8},
    {"kind": "idx", "images": "img.idx", "labels": "lbl.idx", "image_sise": 8},
    {"kind": "raw_chw", "sidecar": "set.json", "image_sise": 8},
], ids=lambda cfg: cfg["kind"])
def test_dataset_rejects_a_key_its_kind_does_not_read(tmp_path, data_cfg):
    # raised before any file of the data is opened: none of them exists
    with pytest.raises(ConfigurationError, match=r"^data\.image_sise: expected no such key$"):
        load_dataset(data_cfg, base_dir=tmp_path)


_LAYER_KEY_ROWS = [   # (model, layer index, key, other edits of that layer)
    ("vgg8_cg.json", 0, "activaton", {}),   # conv
    ("vgg8_cg.json", 1, "tau", {}),         # cg_conv: meant tau_c
    ("vgg8_cg.json", 2, "stride", {}),      # maxpool: a pool's stride is its kernel size
    ("resnet_cg.json", 1, "grups", {}),     # residual
    ("resnet_cg.json", 4, "padding", {}),   # avgpool
    ("resnet_cg.json", 5, "size", {}),      # flatten
    ("resnet_cg.json", 6, "bias", {}),      # linear
    # a dense residual reads none of a gated layer's keys
    ("resnet_cg.json", 1, "groups", {"cg": False}),
    ("resnet_cg.json", 2, "tau_c", {"cg": False}),
    ("resnet_cg.json", 3, "shuffle", {"cg": False}),
]


@pytest.mark.parametrize("model,index,key,edits", _LAYER_KEY_ROWS,
                         ids=["-".join(map(str, row[:3])) for row in _LAYER_KEY_ROWS])
def test_model_rejects_a_key_its_layer_does_not_read(model, index, key, edits):
    cfg = json.loads((REPO / "cgbench" / "models" / model).read_text())
    cfg["layers"][index].update(edits, **{key: 1})
    with pytest.raises(ConfigurationError,
                       match=rf"^model\.layers\[{index}\]\.{key}: expected no such key$"):
        build_model(cfg, np.random.default_rng(0))


def _set(*path, value):
    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _drop(*path):
    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return edit


@pytest.mark.parametrize("edit,message", [
    # model section
    (_set("model", "layers", 1, "out_channels", value=8.9),
     "model.layers[1].out_channels: expected int, got 8.9"),
    (_set("model", "num_classes", value=2.7), "model.num_classes: expected int, got 2.7"),
    (_set("model", "layers", 0, "out_channels", value="4"),
     "model.layers[0].out_channels: expected int, got '4'"),
    (_set("model", "layers", 1, "tau_c", value="0.5"),
     "model.layers[1].tau_c: expected a number, got '0.5'"),
    # structure
    (_set("model", "layers", 2, value="maxpool"),
     "model.layers[2]: expected an object, got 'maxpool'"),
    (_set("model", "layers", value={"0": {"type": "flatten"}}), "model.layers: expected a list"),
    (_set("model", "cg_defaults", value=[2, 4.0]), "model.cg_defaults: expected an object"),
    # a gated layer's range errors name the layer, and a default's
    # divisibility error names the layer that cannot take it
    (_set("model", "layers", 1, "groups", value=0),
     "model.layers[1].groups: must be >= 1, got 0"),
    (_set("model", "cg_defaults", "groups", value=3),
     "model.layers[1].groups: channels (4 in, 8 out) not divisible by 3"),
    (_set("model", "layers", 1, "tau_c", value=2),
     "model.layers[1].tau_c: must be in [0, 1], got 2.0"),
    (_set("model", "layers", 1, "epsilon", value=0),
     "model.layers[1].epsilon: must be positive and finite, got 0.0"),
    (_set("model", "layers", 1, "activation", value="foo"),
     "model.layers[1].activation: unknown activation 'foo'"),
    # removed keys, in the layer or in cg_defaults, fail as unknown ones: the
    # activation sets the gate kind, so a relu layer never silently reads as a band
    (_set("model", "layers", 1, "gate", value="two_sided"),
     "model.layers[1].gate: expected no such key\n"),
    (_set("model", "layers", 1, "band_init", value=2.0),
     "model.layers[1].band_init: expected no such key\n"),
    (_set("model", "cg_defaults", "band_init", value=2.0),
     "model.cg_defaults.band_init: expected no such key\n"),
    (_set("model", "cg_defaults", "gate", value="two_sided"),
     "model.cg_defaults.gate: expected no such key\n"),
    # a dense layer does not shuffle
    (_set("model", "layers", 0, "shuffle_groups", value=2),
     "model.layers[0].shuffle_groups: expected no such key"),
    # loss section
    (_set("loss", "lambda", value=-1), "loss.lambda: must be >= 0, got -1.0"),
    (_set("loss", "kd", "mix", value=2), "loss.kd.mix: must be in [0, 1], got 2.0"),
    (_set("loss", "kd", "temperature", value=0), "loss.kd.temperature: must be > 0, got 0.0"),
    (_set("loss", "sparsity", value="foo"),
     "loss.sparsity: must be 'target_threshold', got 'foo'"),
    # "none" is gone: a lambda of 0 turns the sparsity loss off
    (_set("loss", "sparsity", value="none"),
     "loss.sparsity: must be 'target_threshold', got 'none'"),
    # the computation-cost form is gone: minimizing it opened every gate
    (_set("loss", "sparsity", value="computation_cost"),
     "loss.sparsity: must be 'target_threshold', got 'computation_cost'"),
    # a misspelt key in a section the trainer reads would read as its default
    (_set("loss", "lamda", value=0.5), "loss.lamda: expected no such key"),
    (_set("loss", "kd", "temprature", value=2.0), "loss.kd.temprature: expected no such key"),
    (_set("optimizer", "lr_decay_epoch", value=[1]),
     "optimizer.lr_decay_epoch: expected no such key"),
    (_set("data", "noize", value=0.5), "data.noize: expected no such key"),
    (_set("model", "layers", 1, "tau", value=0.9), "model.layers[1].tau: expected no such key"),
    (_set("model", "cg_defaults", "grups", value=2),
     "model.cg_defaults.grups: expected no such key"),
    (_set("model", "cg_default", value={"groups": 2}), "model.cg_default: expected no such key"),
    (_set("val_fracton", value=0.5), "val_fracton: expected no such key"),
    # data section
    (_set("data", "noise", value=math.nan), "data.noise: expected a finite number, got nan"),
    (_set("data", "num_samples", value="abc"), "data.num_samples: expected int, got 'abc'"),
    (_set("data", "max_shift", value=2.5), "data.max_shift: expected int, got 2.5"),
    (_set("data", "image_size", value=8.5), "data.image_size: expected int, got 8.5"),
    (_drop("data", "num_samples"), "data.num_samples: required field missing"),
    (_set("data", "channels", value=0), "data.channels: must be >= 1, got 0"),
    # data of another shape than the model takes
    (_set("data", "image_size", value=12),
     "model.input_shape: the model takes [1, 8, 8], the data's images are [1, 12, 12]"),
    (_set("data", "channels", value=3),
     "model.input_shape: the model takes [1, 8, 8], the data's images are [3, 8, 8]"),
    # paths
    (_set("output_dir", value=5), "output_dir: expected a string, got 5"),
    (_set("loss", "kd", "teacher_checkpoint", value=5),
     "loss.kd.teacher_checkpoint: expected a string, got 5"),
])
def test_train_rejects_malformed_field(tmp_path, capsys, edit, message):
    cfg = json.loads(TINY.read_text())
    edit(cfg)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


TRAINING = [p for p in sorted((REPO / "configs").glob("*.json"))
            if "optimizer" in json.loads(p.read_text())]


@pytest.mark.parametrize("path", TRAINING, ids=lambda p: p.name)
def test_shipped_training_config_trains(tmp_path, capsys, path):
    """Each bundled training config runs ``cg train`` as shipped, shrunk to
    64 samples and one epoch: a key the trainer rejects fails here."""
    cfg = json.loads(path.read_text())
    cfg["data"]["num_samples"] = 64
    cfg["optimizer"]["epochs"] = 1
    small = tmp_path / path.name
    small.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(small), "--out", str(out)]) == 0, \
        capsys.readouterr().err
    assert (out / "checkpoint.cgn").exists()


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("checkpoint") / "tiny.cgn"
    model = build_model(json.loads(TINY.read_text())["model"], np.random.default_rng(0))
    model.freeze_gates()
    checkpoint.save_model(path, model)
    return path


@pytest.mark.parametrize("cmd,extra,message", [
    ("eval", {"tau_c_overide": 0.3}, "tau_c_overide: expected no such key"),
    ("analyze", {"eta": [0.5]}, "eta: expected no such key"),
    ("perf", {"num_input": 8}, "num_input: expected no such key"),
    ("perf", {"array": {"row": 8}}, "array.row: expected no such key"),
])
def test_checkpoint_command_rejects_unknown_key(tmp_path, capsys, tiny_checkpoint, cmd, extra,
                                                message):
    """A misspelt key of eval, analyze or perf would read as its default:
    ``tau_c_overide`` would evaluate with no override."""
    cfg = {"schema_version": 1, "seed": 5, "val_fraction": 0.25,
           "checkpoint": str(tiny_checkpoint), "data": json.loads(TINY.read_text())["data"],
           **extra}
    path = tmp_path / f"{cmd}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([cmd, "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())

"""Self-test of the benchmark at toy size: every workload runs in both
modes and reports every metric named in BENCHMARK.json with its unit, and
the output checks catch a wrong result.

    python3 -m pytest -q cgbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import workloads  # noqa: E402
from cgnet.network import Network  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_PLAIN = {
    "input_shape": [1, 8, 8], "num_classes": 2,
    "cg_defaults": {"groups": 2, "epsilon": 4.0},
    "layers": [
        {"type": "conv", "out_channels": 4, "kernel_size": 3, "padding": 1},
        {"type": "cg_conv", "out_channels": 8, "kernel_size": 3, "padding": 1},
        {"type": "maxpool", "kernel_size": 2},
        {"type": "flatten"},
        {"type": "linear", "out_features": 2},
    ],
}
TINY_RESIDUAL = {
    "input_shape": [1, 8, 8], "num_classes": 2,
    "cg_defaults": {"groups": 2, "epsilon": 4.0},
    "layers": [
        {"type": "conv", "out_channels": 4, "kernel_size": 3, "padding": 1},
        {"type": "residual", "out_channels": 4},
        {"type": "residual", "out_channels": 8, "stride": 2},
        {"type": "avgpool", "kernel_size": 4},
        {"type": "flatten"},
        {"type": "linear", "out_features": 2},
    ],
}


def toy_size():
    return workloads.Size(train_model=TINY_PLAIN, eval_model=TINY_RESIDUAL, batch=16,
                          pool_batches=4, check_batches=2, warmup_passes=4,
                          calib_samples=128, eval_samples=256, profile_reps=2,
                          setup_repeats=2, setup_min_s=0.0)


def run_toy(name, trace, tmp_path):
    return bench.run(name, 3, 0.2, trace, toy_size(), tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_reported_with_unit(name, trace, tmp_path):
    result, extras, _ = run_toy(name, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    if extras["pruning_band"] is not None:
        lo, hi = extras["pruning_band"]
        assert lo <= extras["achieved_pruning"] <= hi


def test_perturbed_logit_is_a_failure(tmp_path, monkeypatch):
    forward_infer = Network.forward_infer

    def perturbed(self, x, collect=False, **kwargs):
        logits, records = forward_infer(self, x, collect=collect, **kwargs)
        if not collect:
            logits = logits.copy()
            logits[0, 0] += 1e-6
        return logits, records

    monkeypatch.setattr(Network, "forward_infer", perturbed)
    result, _, _ = run_toy("infer_pruned", 0, tmp_path)
    assert result["failed"] >= 1
    assert not result["correct"]


def test_pruning_outside_band_fails_setup(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.InferPruned, "band", (0.99, 1.0))
    with pytest.raises(workloads.SetupError, match="outside the band"):
        run_toy("infer_pruned", 0, tmp_path)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "cgbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert r.returncode != 0
    assert r.stdout == ""

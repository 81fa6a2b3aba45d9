"""CLI harness: smoke runs, determinism, error paths."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cgnet import cli

REPO = Path(__file__).resolve().parent.parent
TINY = REPO / "configs" / "tiny_smoke.json"


def run_cg(args, cwd):
    return subprocess.run([sys.executable, "-m", "cgnet.cli", *args],
                          cwd=cwd, capture_output=True, text=True)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One trained tiny checkpoint shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("tiny_run")
    rc = cli.main(["train", "--config", str(TINY), "--out", str(out), "--seed", "5"])
    assert rc == 0
    return out


class TestTrain:
    def test_smoke_writes_artifacts(self, tiny_run):
        assert (tiny_run / "checkpoint.cgn").exists()
        metrics = (tiny_run / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,train_loss,val_acc,mean_delta,pruning_ratio,flop_reduction"
        assert len(metrics) == 3  # header + 2 epochs

    def test_deterministic_reruns_bitwise_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = run_cg(["train", "--config", str(TINY), "--out", str(out),
                        "--seed", "9", "--deterministic"], cwd=REPO)
            assert r.returncode == 0, r.stderr
            outs.append(out)
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
        assert (outs[0] / "checkpoint.cgn").read_bytes() == (outs[1] / "checkpoint.cgn").read_bytes()

    def test_malformed_config_names_field(self, tmp_path):
        cfg = json.loads(TINY.read_text())
        del cfg["optimizer"]["lr"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        r = run_cg(["train", "--config", str(bad), "--out", str(tmp_path / "o")],
                   cwd=REPO)
        assert r.returncode == 2
        assert "optimizer.lr" in r.stderr

    def test_bad_schema_version(self, tmp_path):
        cfg = json.loads(TINY.read_text())
        cfg["schema_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        r = run_cg(["train", "--config", str(bad), "--out", str(tmp_path / "o")],
                   cwd=REPO)
        assert r.returncode == 2
        assert "schema_version" in r.stderr


def eval_cfg(tiny_run, tmp_path, **extra):
    cfg = {
        "schema_version": 1,
        "seed": 5,
        "val_fraction": 0.25,
        "checkpoint": str(tiny_run / "checkpoint.cgn"),
        "data": json.loads(TINY.read_text())["data"],
    }
    cfg.update(extra)
    p = tmp_path / "eval.json"
    p.write_text(json.dumps(cfg))
    return p


class TestEval:
    def test_eval_matches_analysis_recount(self, tiny_run, tmp_path):
        cfg = eval_cfg(tiny_run, tmp_path)
        rc = cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")])
        assert rc == 0
        summary = json.loads((tmp_path / "e" / "eval_summary.json").read_text())

        # recompute with the analysis module on the same inputs
        from cgnet import analysis, checkpoint
        from cgnet.data import load_dataset, train_val_split
        from cgnet.training import evaluate
        model = checkpoint.load_model(tiny_run / "checkpoint.cgn")
        ds = load_dataset(json.loads(TINY.read_text())["data"])
        _, val = train_val_split(ds, 0.25, np.random.default_rng([5, 17]))
        acc, _, records = evaluate(model, val.images, val.labels, collect=True)
        report = analysis.count_flops(records)
        assert summary["accuracy"] == acc
        assert summary["flop_reduction"] == report.flop_reduction
        assert summary["dense_flops_total"] == report.dense_total
        assert summary["executed_flops_total"] == report.executed_total

    def test_delta_override_matches_dense(self, tiny_run, tmp_path):
        cfg_open = eval_cfg(tiny_run, tmp_path, delta_override=-1e6,
                            tau_c_override=0.0)
        rc = cli.main(["eval", "--config", str(cfg_open), "--out", str(tmp_path / "o")])
        assert rc == 0
        opened = json.loads((tmp_path / "o" / "eval_summary.json").read_text())

        from cgnet import checkpoint
        from cgnet.data import load_dataset, train_val_split
        from cgnet.training import evaluate
        model = checkpoint.load_model(tiny_run / "checkpoint.cgn")
        dense = model.to_dense()
        ds = load_dataset(json.loads(TINY.read_text())["data"])
        _, val = train_val_split(ds, 0.25, np.random.default_rng([5, 17]))
        acc_dense, _, _ = evaluate(dense, val.images, val.labels)
        assert opened["accuracy"] == acc_dense
        assert opened["flop_reduction"] == 1.0

    def test_missing_checkpoint_clean_error(self, tiny_run, tmp_path):
        cfg = eval_cfg(tiny_run, tmp_path, checkpoint="nowhere/missing.cgn")
        r = run_cg(["eval", "--config", str(cfg), "--out", str(tmp_path / "x")],
                   cwd=REPO)
        assert r.returncode == 2
        assert "checkpoint" in r.stderr and "not found" in r.stderr


class TestFrozenFlag:
    def test_frozen_checkpoint_recorded(self, tiny_run, tmp_path):
        cfg = eval_cfg(tiny_run, tmp_path, num_inputs=16, etas=[0.5, 1.0])
        r = run_cg(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")], cwd=REPO)
        assert r.returncode == 0, r.stderr
        assert "warning" not in r.stderr
        assert json.loads((tmp_path / "e" / "eval_summary.json").read_text())["frozen"] is True

    def test_unfrozen_checkpoint_warns_and_is_recorded(self, tmp_path):
        from cgnet import checkpoint
        from cgnet.network import build_model
        model = build_model(json.loads(TINY.read_text())["model"],
                            np.random.default_rng(4))
        ckpt = tmp_path / "unfrozen.cgn"
        checkpoint.save_model(ckpt, model)
        cfg = eval_cfg(tmp_path, tmp_path, checkpoint=str(ckpt), num_inputs=16,
                       etas=[0.5, 1.0])
        for cmd, summary in (("eval", "eval_summary.json"),
                             ("analyze", "analyze_summary.json"), ("perf", None)):
            out = tmp_path / cmd
            r = run_cg([cmd, "--config", str(cfg), "--out", str(out)], cwd=REPO)
            assert r.returncode == 0, r.stderr
            warnings = [line for line in r.stderr.splitlines() if "not frozen" in line]
            assert len(warnings) == 1, r.stderr
            if summary is not None:
                assert json.loads((out / summary).read_text())["frozen"] is False


class TestAnalyzePerf:
    def test_analyze_writes_artifacts(self, tiny_run, tmp_path):
        cfg = eval_cfg(tiny_run, tmp_path, num_inputs=16, etas=[0.5, 1.0])
        rc = cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "a")])
        assert rc == 0
        out = tmp_path / "a"
        pgms = list(out.glob("intensity_*.pgm"))
        assert (out / "intensity_aggregate.pgm") in pgms
        assert len(pgms) >= 2
        corr = (out / "correlation.csv").read_text().splitlines()
        assert corr[0] == "eta,layer,pearson_r"
        assert any("__mean__" in line for line in corr)

    def test_perf_writes_breakdown(self, tiny_run, tmp_path):
        cfg = eval_cfg(tiny_run, tmp_path, num_inputs=16,
                       array={"rows": 8, "cols": 8, "fill_drain_per_tile": None})
        rc = cli.main(["perf", "--config", str(cfg), "--out", str(tmp_path / "p")])
        assert rc == 0
        rows = (tmp_path / "p" / "perf_breakdown.csv").read_text().splitlines()
        assert rows[1] == "layer,dense_cycles,gated_cycles,theoretical_cycles,utilization"
        assert rows[-1].startswith("__network__")
        # modeled speedup never exceeds the theoretical flop reduction
        last = rows[-1].split(",")
        speedup = float(last[4])
        dense, gated = float(last[1]), float(last[2])
        assert speedup == pytest.approx(dense / gated, rel=1e-12)

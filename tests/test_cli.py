"""CLI harness: smoke runs, determinism, error paths."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cgnet import cli

from _workers import band_workers

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
        # train, then eval, analyze and perf on its checkpoint, twice
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = run_cg(["train", "--config", str(TINY), "--out", str(out / "train"),
                        "--seed", "9", "--deterministic"], cwd=REPO)
            assert r.returncode == 0, r.stderr
            cfg = eval_cfg(out / "train", out, num_inputs=16, etas=[0.5, 1.0])
            for cmd in ("eval", "analyze", "perf"):
                r = run_cg([cmd, "--config", str(cfg), "--out", str(out / cmd),
                            "--deterministic"], cwd=REPO)
                assert r.returncode == 0, (cmd, r.stderr)
            outs.append(out)
        artifacts = ["train/metrics.csv", "train/checkpoint.cgn", "eval/eval_summary.json",
                     "eval/cost_report.csv", "analyze/cost_report.csv",
                     "analyze/correlation.csv", "perf/perf_breakdown.csv"]
        pgms = sorted(p.name for p in (outs[0] / "analyze").glob("intensity_*.pgm"))
        assert "intensity_aggregate.pgm" in pgms and len(pgms) >= 2
        for rel in artifacts + [f"analyze/{name}" for name in pgms]:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_deterministic_train_does_not_depend_on_band_workers(self, tmp_path, monkeypatch):
        # mnist_cg's model and loss, on fewer samples and epochs
        cfg = json.loads((REPO / "configs" / "mnist_cg.json").read_text())
        cfg["data"]["num_samples"] = 640
        cfg["optimizer"].update(epochs=2, lr_decay_epochs=[1])
        path = tmp_path / "mnist_cg.json"
        path.write_text(json.dumps(cfg))
        for var in cli.THREAD_VARS:   # --deterministic sets them; undone after the test
            monkeypatch.setenv(var, "0")
            monkeypatch.delenv(var)
        runs = []
        for workers in (1, 2):
            out = tmp_path / str(workers)
            with band_workers(workers):
                assert cli.main(["train", "--config", str(path), "--out", str(out),
                                 "--deterministic"]) == 0
            runs.append([(out / name).read_bytes() for name in ("checkpoint.cgn", "metrics.csv")])
        assert runs[1] == runs[0]

    def test_malformed_config_names_field(self, tmp_path):
        cfg = json.loads(TINY.read_text())
        del cfg["optimizer"]["lr"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        r = run_cg(["train", "--config", str(bad), "--out", str(tmp_path / "o")],
                   cwd=REPO)
        assert r.returncode == 2
        assert "optimizer.lr" in r.stderr

    def test_omitted_fields_take_the_dataclass_defaults(self, tmp_path, monkeypatch):
        # cmd_train states no default of its own: what it passes for an
        # omitted loss or optimizer field is the dataclass's
        from cgnet import training
        seen = []
        monkeypatch.setattr(training, "train_network",
                            lambda *args, **kwargs: seen.append(args[5:7]) or [])

        def bare(cfg):
            cfg["loss"] = {}
            cfg["optimizer"] = {"epochs": 1, "lr": 0.05}
        assert train_tiny(tmp_path, "bare", bare)[0] == 0
        assert seen == [(training.LossConfig(), training.Schedule(epochs=1, lr=0.05))]

    def test_a_layer_order_that_cannot_run_exits_2(self, tmp_path, capsys):
        # a second flatten used to train forward and end in a traceback in
        # the backward's first batch
        rc, out = train_tiny(tmp_path, "flat", lambda cfg: cfg["model"]["layers"].insert(
            4, {"type": "flatten"}))
        assert rc == 2
        assert "model.layers[4]: flatten needs an (n, c, h, w) input" in \
            capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_bad_schema_version(self, tmp_path):
        cfg = json.loads(TINY.read_text())
        cfg["schema_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        r = run_cg(["train", "--config", str(bad), "--out", str(tmp_path / "o")],
                   cwd=REPO)
        assert r.returncode == 2
        assert "schema_version" in r.stderr


def train_tiny(tmp_path, name, edit=lambda cfg: None):
    """``cg train`` on an edited copy of the tiny config; (exit code, out dir)."""
    cfg = json.loads(TINY.read_text())
    edit(cfg)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    return cli.main(["train", "--config", str(path), "--out", str(out)]), out


def dense_teacher(image_size=8, num_classes=2):
    """An edit making the tiny config a dense network on other data."""
    def edit(cfg):
        for layer in cfg["model"]["layers"]:
            if layer["type"] == "cg_conv":
                layer["type"] = "conv"
        cfg["data"].update(image_size=image_size, num_classes=num_classes)
        cfg["model"]["input_shape"] = [1, image_size, image_size]
        cfg["model"]["num_classes"] = num_classes
        cfg["model"]["layers"][-1]["out_features"] = num_classes
    return edit


class TestKnowledgeDistillation:
    """Naming a teacher checkpoint turns distillation on: a gated student
    trains against a dense teacher; a teacher that does not fit the data or
    the student, or is not a finished model, fails before training, naming
    the field."""

    @pytest.mark.parametrize("teacher,message", [
        (dense_teacher(), None),
        (dense_teacher(image_size=12),
         "loss.kd.teacher_checkpoint: the teacher maps [1, 12, 12] images to 2 classes, "
         "the student [1, 8, 8] to 2"),
        (dense_teacher(num_classes=3),
         "loss.kd.teacher_checkpoint: the teacher maps [1, 8, 8] images to 3 classes, "
         "the student [1, 8, 8] to 2"),
    ], ids=["fits", "other_image_size", "other_class_count"])
    def test_student_trains_against_teacher(self, tmp_path, capsys, teacher, message):
        rc, teacher_out = train_tiny(tmp_path, "teacher", teacher)
        assert rc == 0
        capsys.readouterr()

        def student(cfg):
            cfg["loss"]["kd"]["teacher_checkpoint"] = str(teacher_out / "checkpoint.cgn")
        rc, out = train_tiny(tmp_path, "student", student)
        if message is None:
            assert rc == 0
            assert len((out / "metrics.csv").read_text().splitlines()) == 3
        else:
            assert rc == 2
            assert message in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())

    def test_naming_a_teacher_distils(self, tmp_path):
        rc, teacher_out = train_tiny(tmp_path, "teacher", dense_teacher())
        assert rc == 0

        def student(cfg):
            cfg["loss"]["kd"].update(mix=1.0,
                                     teacher_checkpoint=str(teacher_out / "checkpoint.cgn"))
        runs = [train_tiny(tmp_path, "student", student), train_tiny(tmp_path, "alone")]
        assert [rc for rc, _ in runs] == [0, 0]
        student_loss, alone_loss = [
            [row.split(",")[1] for row in (out / "metrics.csv").read_text().splitlines()[1:]]
            for _, out in runs]
        assert student_loss != alone_loss

    @pytest.mark.parametrize("case", ["unfrozen", "missing"])
    def test_teacher_that_is_no_finished_model_rejected(self, tmp_path, capsys, case):
        # an unfrozen teacher used to pass every check and then fail at the
        # first batch without naming the field, a missing file with a traceback
        from cgnet import checkpoint
        from cgnet.network import build_model
        path = tmp_path / "teacher.cgn"
        if case == "unfrozen":   # a gated model saved before training ends
            model_cfg = json.loads(TINY.read_text())["model"]
            checkpoint.save_model(path, build_model(model_cfg, np.random.default_rng(0)))
        rc, out = train_tiny(tmp_path, "student", lambda cfg: cfg["loss"]["kd"].update(
            teacher_checkpoint=str(path)))
        assert rc == 2
        err = capsys.readouterr().err
        assert "loss.kd.teacher_checkpoint: " in err
        assert ("not frozen" if case == "unfrozen" else f"file not found: {path}") in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("named", ["from_working_dir", "from_config_dir"])
    def test_teacher_path_resolves_like_checkpoint(self, tmp_path, monkeypatch, capsys, named):
        # the teacher used to be looked up only beside the config, so naming
        # it as its run's output_dir plus checkpoint.cgn exited 2
        monkeypatch.chdir(tmp_path)
        (tmp_path / "configs").mkdir()
        teacher = json.loads(TINY.read_text())
        dense_teacher()(teacher)
        teacher["output_dir"] = "runs/teacher"
        (tmp_path / "configs" / "teacher.json").write_text(json.dumps(teacher))
        assert cli.main(["train", "--config", "configs/teacher.json"]) == 0
        name = "runs/teacher/checkpoint.cgn"
        if named == "from_config_dir":
            shutil.copy(name, tmp_path / "configs" / "teacher.cgn")
            name = "teacher.cgn"
        student = json.loads(TINY.read_text())
        student["output_dir"] = "runs/student"
        student["loss"]["kd"]["teacher_checkpoint"] = name
        (tmp_path / "configs" / "student.json").write_text(json.dumps(student))
        assert cli.main(["train", "--config", "configs/student.json"]) == 0, \
            capsys.readouterr().err
        assert (tmp_path / "runs" / "student" / "checkpoint.cgn").exists()

        student["loss"]["kd"]["teacher_checkpoint"] = "runs/nowhere.cgn"
        (tmp_path / "configs" / "student.json").write_text(json.dumps(student))
        capsys.readouterr()
        assert cli.main(["train", "--config", "configs/student.json"]) == 2
        assert "loss.kd.teacher_checkpoint: file not found: runs/nowhere.cgn" in \
            capsys.readouterr().err


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


class TestThreads:
    @pytest.fixture
    def env(self, monkeypatch):
        """An environment without any BLAS thread variable; every change to
        them is undone after the test."""
        for var in cli.THREAD_VARS:
            monkeypatch.setenv(var, "0")
            monkeypatch.delenv(var)
        return monkeypatch

    def threads(self):
        return [os.environ.get(var) for var in cli.THREAD_VARS]

    def parsed(self, *flags):
        return cli.build_parser().parse_args(["train", "--config", "c.json", *flags])

    def test_deterministic_overrides_presets(self, env):
        env.setenv("OPENBLAS_NUM_THREADS", "4")
        cli._setup_threads(self.parsed("--deterministic"))
        assert self.threads() == ["1", "1", "1"]

    def test_no_cap_leaves_presets(self, env):
        # without --deterministic the variables reach BLAS as the user set them
        env.setenv("OPENBLAS_NUM_THREADS", "4")
        cli._setup_threads(self.parsed())
        assert self.threads() == ["4", None, None]

    def test_an_abbreviated_flag_pins_the_threads(self, env, tmp_path):
        # argparse takes any unambiguous prefix of a flag, so the threads
        # follow the parsed flag, not its spelling in argv
        cli._setup_threads(self.parsed("--determ"))
        assert self.threads() == ["1", "1", "1"]
        for var in cli.THREAD_VARS:
            env.delenv(var)
        missing = str(tmp_path / "missing.json")   # exits 2 after the threads are set
        assert cli.main(["train", "--config", missing, "--determ"]) == 2
        assert self.threads() == ["1", "1", "1"]

    def test_parsing_the_flag_loads_no_numpy(self):
        # BLAS reads its thread variables once, when numpy loads
        code = ("import sys; from cgnet import cli; "
                "args = cli.build_parser().parse_args(['train', '--config', 'c.json']); "
                "cli._setup_threads(args); print('numpy' in sys.modules)")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.stdout.strip() == "False", r.stderr


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

    def test_directory_as_checkpoint_exits_2(self, tiny_run, tmp_path, capsys):
        # a directory used to pass the existence check and end in a traceback
        (tmp_path / "run.cgn").mkdir()
        cfg = eval_cfg(tiny_run, tmp_path, checkpoint=str(tmp_path / "run.cgn"))
        assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"checkpoint: file not found: {tmp_path / 'run.cgn'}" in capsys.readouterr().err


    @pytest.mark.parametrize("corrupt", ["config", "name"])
    def test_corrupt_checkpoint_exits_2(self, tiny_run, tmp_path, corrupt):
        from cgnet import checkpoint
        tensors = checkpoint.read_container(tiny_run / "checkpoint.cgn")
        if corrupt == "config":
            tensors[checkpoint.CONFIG_RECORD] = np.frombuffer(b"{", dtype=np.uint8).copy()
        ckpt = tmp_path / "corrupt.cgn"
        checkpoint.write_container(ckpt, tensors)
        if corrupt == "name":   # the first record name's first byte
            blob = bytearray(ckpt.read_bytes())
            blob[10] = 0xFF
            ckpt.write_bytes(bytes(blob))
        cfg = eval_cfg(tiny_run, tmp_path, checkpoint=str(ckpt))
        r = run_cg(["eval", "--config", str(cfg), "--out", str(tmp_path / "x")], cwd=REPO)
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert ("__config__" if corrupt == "config" else "not UTF-8") in r.stderr

    def test_checkpoint_of_a_rank_numpy_cannot_hold_exits_2(self, tiny_run, tmp_path, capsys):
        # numpy's own error used to end the command in a traceback
        from _formats import write_deep_record
        ckpt = tmp_path / "deep.cgn"
        write_deep_record(ckpt, "deep", 65)
        cfg = eval_cfg(tiny_run, tmp_path, checkpoint=str(ckpt))
        assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"{ckpt}: record 'deep' declares rank 65" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("gate", "two_sided"), ("band_init", 1.0)])
    def test_checkpoint_config_with_removed_key_exits_2(self, tiny_run, tmp_path, capsys,
                                                         key, value):
        # a checkpoint written before the key was removed: its relu layer
        # must not silently load as a band
        from cgnet import checkpoint
        tensors = checkpoint.read_container(tiny_run / "checkpoint.cgn")
        model_cfg = json.loads(tensors[checkpoint.CONFIG_RECORD].tobytes())
        model_cfg["layers"][1][key] = value
        tensors[checkpoint.CONFIG_RECORD] = np.frombuffer(
            json.dumps(model_cfg).encode(), dtype=np.uint8).copy()
        ckpt = tmp_path / "old.cgn"
        checkpoint.write_container(ckpt, tensors)
        out = tmp_path / "out"
        cfg = eval_cfg(tiny_run, tmp_path, checkpoint=str(ckpt))
        assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"model.layers[1].{key}: expected no such key" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("kind", ["idx", "raw_chw"])
    def test_empty_dataset_exits_2(self, tiny_run, tmp_path, kind):
        from cgnet.data import Dataset
        from _formats import write_idx_file, write_raw_chw
        if kind == "idx":
            write_idx_file(tmp_path / "img.idx", np.zeros((0, 8, 8), dtype=np.uint8))
            write_idx_file(tmp_path / "lbl.idx", np.zeros(0, dtype=np.uint8))
            data = {"kind": "idx", "images": "img.idx", "labels": "lbl.idx"}
        else:
            write_raw_chw(tmp_path / "set.json",
                          Dataset(np.zeros((0, 1, 8, 8)), np.zeros(0, np.int64), 2))
            data = {"kind": "raw_chw", "sidecar": "set.json"}
        cfg = eval_cfg(tiny_run, tmp_path, data=data)
        r = run_cg(["eval", "--config", str(cfg), "--out", str(tmp_path / "x")], cwd=REPO)
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert ("no labels" if kind == "idx" else "'count' must be an integer >= 1") \
            in r.stderr


class TestFrozenFlag:
    def test_frozen_checkpoint_recorded(self, tiny_run, tmp_path):
        cfg = eval_cfg(tiny_run, tmp_path, num_inputs=16, etas=[0.5, 1.0])
        r = run_cg(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")], cwd=REPO)
        assert r.returncode == 0, r.stderr
        assert "warning" not in r.stderr
        assert json.loads((tmp_path / "e" / "eval_summary.json").read_text())["frozen"] is True
        r = run_cg(["perf", "--config", str(cfg), "--out", str(tmp_path / "p")], cwd=REPO)
        assert r.returncode == 0, r.stderr
        header = (tmp_path / "p" / "perf_breakdown.csv").read_text().splitlines()[0]
        assert " frozen=True " in header

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
        header = (tmp_path / "perf" / "perf_breakdown.csv").read_text().splitlines()[0]
        assert " frozen=False " in header

    def test_empty_frozen_record_fails_eval(self, tiny_run, tmp_path):
        from cgnet import checkpoint
        tensors = checkpoint.read_container(tiny_run / "checkpoint.cgn")
        tensors["__frozen__"] = np.zeros(0, dtype=np.int64)
        ckpt = tmp_path / "empty_frozen.cgn"
        checkpoint.write_container(ckpt, tensors)
        cfg = eval_cfg(tiny_run, tmp_path, checkpoint=str(ckpt), num_inputs=16,
                       etas=[0.5, 1.0])
        out = tmp_path / "e"
        r = run_cg(["eval", "--config", str(cfg), "--out", str(out)], cwd=REPO)
        assert r.returncode == 2, r.stdout
        assert "__frozen__" in r.stderr and "Traceback" not in r.stderr, r.stderr

    def test_nan_kernel_fails_eval(self, tiny_run, tmp_path):
        """eval, analyze and perf all refuse a checkpoint whose kernel holds
        a NaN, before writing any artifact."""
        from cgnet import checkpoint
        tensors = checkpoint.read_container(tiny_run / "checkpoint.cgn")
        tensors["L01.w_p"][0, 0, 1, 1] = np.nan
        ckpt = tmp_path / "nan.cgn"
        checkpoint.write_container(ckpt, tensors)
        cfg = eval_cfg(tiny_run, tmp_path, checkpoint=str(ckpt), num_inputs=16,
                       etas=[0.5, 1.0])
        for cmd in ("eval", "analyze", "perf"):
            out = tmp_path / cmd
            r = run_cg([cmd, "--config", str(cfg), "--out", str(out)], cwd=REPO)
            assert r.returncode == 2, (cmd, r.stdout)
            assert "not finite" in r.stderr, (cmd, r.stderr)
            assert not any(out.iterdir()), (cmd, sorted(out.iterdir()))


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

    def test_analyze_tiny_config_skips_eta_admitting_no_layer(self, tiny_run, tmp_path,
                                                              capsys):
        # the tiny gated layer has 4 input channels, so the default eta 0.125
        # (G = 8) admits no layer while 0.25, 0.5 and 1.0 do
        out = tmp_path / "a"
        with pytest.warns(UserWarning, match="no layer admits regrouping at eta=0.125"):
            rc = cli.main(["analyze", "--config", str(TINY), "--out", str(out),
                           "--checkpoint", str(tiny_run / "checkpoint.cgn")])
        assert rc == 0
        etas = {line.split(",")[0]
                for line in (out / "correlation.csv").read_text().splitlines()[1:]}
        assert etas == {"0.25", "0.5", "1.0"}
        means = json.loads((out / "analyze_summary.json").read_text())["correlation_means"]
        assert sorted(means) == ["0.25", "0.5", "1.0"]
        stdout = capsys.readouterr().out
        assert "eta 0.125" not in stdout and "eta 0.250" in stdout

    def test_analyze_runs_one_forward_pass(self, tiny_run, tmp_path, monkeypatch):
        # intensity maps, costs and correlation all read one collecting pass
        from cgnet.network import Network
        calls = []
        forward_infer = Network.forward_infer

        def counted(self, *args, **kwargs):
            calls.append(kwargs)
            return forward_infer(self, *args, **kwargs)

        monkeypatch.setattr(Network, "forward_infer", counted)
        cfg = eval_cfg(tiny_run, tmp_path, num_inputs=16, etas=[0.5, 1.0])
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert len(calls) == 1
        assert calls[0]["collect"] and calls[0]["capture"]

    def test_analyze_takes_an_ungated_checkpoint(self, tmp_path, capsys):
        # it used to exit 2 with "no gated layers to aggregate" and write
        # nothing, though eval and perf take the same checkpoint
        rc, run = train_tiny(tmp_path, "dense", dense_teacher())
        assert rc == 0
        cfg = eval_cfg(run, tmp_path, num_inputs=16, etas=[0.5, 1.0])
        out = tmp_path / "a"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "analyze_summary.json", "correlation.csv", "cost_report.csv"]
        corr = (out / "correlation.csv").read_text().splitlines()
        assert corr[0] == "eta,layer,pearson_r" and any("__mean__" in line for line in corr)
        summary = json.loads((out / "analyze_summary.json").read_text())
        assert summary["flop_reduction"] == 1.0
        assert sorted(summary["correlation_means"]) == ["0.5", "1.0"]
        assert f"wrote correlation.csv and cost_report.csv to {out}" in capsys.readouterr().out

    def test_perf_without_an_array_section_models_the_default_array(self, tiny_run, tmp_path,
                                                                      monkeypatch):
        from cgnet import perf
        seen = []
        model_network_speedup = perf.model_network_speedup

        def spy(records, array):
            seen.append(array)
            return model_network_speedup(records, array)

        monkeypatch.setattr(perf, "model_network_speedup", spy)
        cfg = eval_cfg(tiny_run, tmp_path, num_inputs=16)
        assert cli.main(["perf", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
        assert seen == [perf.ArrayConfig()]

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


class TestConfigRanges:
    """Out-of-range or malformed values of the split, the analyzed inputs,
    the overrides, the boolean switches and the model section fail with
    exit 2, naming the key, before any artifact is written."""

    @pytest.mark.parametrize("cmd,key,value", [
        ("eval", "val_fraction", -0.5),
        ("eval", "val_fraction", 1.5),
        ("eval", "val_fraction", 0.0),
        ("train", "val_fraction", 1.0),
        ("analyze", "num_inputs", 0),
        ("analyze", "num_inputs", -5),
        ("analyze", "intensity_sample", -1),
        ("analyze", "intensity_sample", 500),
        # these used to end in a ZeroDivisionError or a failed reshape
        ("analyze", "etas", [0.0]),
        ("analyze", "etas", [2.0]),
        ("analyze", "etas", [-0.5]),
        # an empty list used to write a header-only correlation.csv
        ("analyze", "etas", []),
        ("perf", "array.rows", 0),
        ("perf", "array.cols", -2),
    ])
    def test_out_of_range_rejected(self, tiny_run, tmp_path, capsys, cmd, key, value):
        if cmd == "train":
            cfg = json.loads(TINY.read_text())
            cfg[key] = value
            path = tmp_path / "train.json"
            path.write_text(json.dumps(cfg))
        else:
            section, _, field = key.partition(".")   # array.rows sits in the array section
            extra = {section: {field: value}} if field else {key: value}
            path = eval_cfg(tiny_run, tmp_path, **{"etas": [0.5, 1.0], **extra})
        out = tmp_path / "out"
        assert cli.main([cmd, "--config", str(path), "--out", str(out)]) == 2
        assert f"{key}:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("cmd,key,extra", [
        ("train", "seed", {"seed": "abc"}),
        ("train", "val_fraction", {"val_fraction": "abc"}),
        ("eval", "seed", {"seed": 1.5}),
        ("eval", "delta_override", {"delta_override": "abc"}),
        ("eval", "tau_c_override", {"tau_c_override": "abc"}),
        ("eval", "delta_shift", {"delta_shift": [1.0]}),
        ("analyze", "num_inputs", {"num_inputs": "ten"}),
        ("analyze", "num_inputs", {"num_inputs": 2.0}),
        ("analyze", "num_inputs", {"num_inputs": True}),
        ("analyze", "intensity_sample", {"intensity_sample": "abc"}),
        ("analyze", "etas", {"etas": "abc"}),
        ("analyze", "etas[1]", {"etas": [0.5, "abc"]}),
        ("analyze", "etas[1]", {"etas": [0.5, True]}),
        ("perf", "array.fill_drain_per_tile", {"array": {"fill_drain_per_tile": "abc"}}),
        # a removed key: the force-open training mode is gone
        ("train", "force_open", {"force_open": True}),
        ("train", "loss.kd.enabled", {"loss": {"kd": {"enabled": "no"}}}),
        # Python's json reads NaN and Infinity; a gate compared against NaN
        # decides False everywhere and would read as pruning
        ("eval", "delta_override", {"delta_override": float("nan")}),
        ("eval", "delta_shift", {"delta_shift": float("nan")}),
        ("eval", "delta_shift", {"delta_shift": float("-inf")}),
        ("perf", "delta_override", {"delta_override": float("inf")}),
        ("analyze", "etas[1]", {"etas": [0.5, float("nan")]}),
        ("train", "loss.lambda", {"loss": {"lambda": float("nan")}}),
        ("train", "optimizer.lr_decay_epochs[0]",
         {"optimizer": {"epochs": 2, "lr": 0.05, "lr_decay_epochs": [float("nan")]}}),
        # a removed key whatever its value: naming a teacher turns KD on
        ("train", "loss.kd.enabled", {"loss": {"kd": {"enabled": True}}}),
        ("train", "loss.kd.enabled", {"loss": {"kd": {"enabled": False}}}),
    ])
    def test_non_numeric_rejected(self, tiny_run, tmp_path, capsys, cmd, key, extra):
        if cmd == "train":
            cfg = {**json.loads(TINY.read_text()), **extra}
            path = tmp_path / "train.json"
            path.write_text(json.dumps(cfg))
        else:
            path = eval_cfg(tiny_run, tmp_path, **{"etas": [0.5, 1.0], **extra})
        out = tmp_path / "out"
        assert cli.main([cmd, "--config", str(path), "--out", str(out)]) == 2
        assert f"{key}: expected" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_tau_c_override_out_of_range_rejected(self, tiny_run, tmp_path, capsys):
        path = eval_cfg(tiny_run, tmp_path, tau_c_override=5)
        out = tmp_path / "out"
        assert cli.main(["eval", "--config", str(path), "--out", str(out)]) == 2
        assert "tau_c_override: tau_c: must be in [0, 1], got 5.0" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_delta_override_on_band_rejected(self, tmp_path, capsys):
        # one delta does not define a two-sided band (tanh gets one)
        rc, run = train_tiny(tmp_path, "band",
                             lambda cfg: cfg["model"]["layers"][1].update(activation="tanh"))
        assert rc == 0
        capsys.readouterr()
        path = eval_cfg(run, tmp_path, delta_override=1.0)
        out = tmp_path / "out"
        assert cli.main(["eval", "--config", str(path), "--out", str(out)]) == 2
        assert "delta_override: set_delta sets one-sided thresholds; layer(s) L01" \
            in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_override_on_dense_checkpoint_rejected(self, tmp_path, capsys):
        # with no gated layer to set, an override would change nothing
        rc, run = train_tiny(tmp_path, "dense", lambda cfg: cfg["model"]["layers"][1].update(
            type="conv"))
        assert rc == 0
        for cmd, key in (("eval", "delta_override"), ("analyze", "tau_c_override"),
                         ("perf", "delta_shift")):
            capsys.readouterr()
            path = eval_cfg(run, tmp_path, **{key: 0.5, "etas": [1.0]})
            out = tmp_path / f"out_{cmd}"
            assert cli.main([cmd, "--config", str(path), "--out", str(out)]) == 2, cmd
            assert f"{key}: the checkpoint has no gated layer" in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("edit,field", [
        (lambda m: m["layers"][1].pop("out_channels"), "model.layers[1].out_channels"),
        (lambda m: m["layers"][1].update(out_channels="abc"), "model.layers[1].out_channels"),
        (lambda m: m["layers"][1].update(groups="four"), "model.layers[1].groups"),
        (lambda m: m["layers"][1].update(shuffle="false"), "model.layers[1].shuffle"),
        (lambda m: m.update(input_shape=[1, 8]), "model.input_shape"),
        (lambda m: m["layers"][1].update(epsilon=float("nan")), "model.layers[1].epsilon"),
        # a default is named where it is set, not in the layer that reads it
        (lambda m: m["cg_defaults"].update(tau_c="x"), "model.cg_defaults.tau_c"),
    ])
    def test_malformed_model_section_rejected(self, tmp_path, capsys, edit, field):
        cfg = json.loads(TINY.read_text())
        edit(cfg["model"])
        path = tmp_path / "train.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert f"{field}: " in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key,value", [
        ("batch_size", 0), ("batch_size", -4), ("epochs", 0), ("lr", 0.0),
        ("lr", -0.05), ("momentum", 1.0), ("momentum", -0.1), ("weight_decay", -1e-4),
        ("lr_decay_factor", 0.0), ("lambda_warmup_frac", 0.0),
        ("lambda_warmup_frac", 1.5), ("lr_decay_epochs[1]", [2, -1]),
    ])
    def test_optimizer_out_of_range_rejected(self, tmp_path, capsys, key, value):
        # batch_size 0 used to escape as a ValueError from range(), -4 to
        # train no batch and still write a checkpoint, and a negative decay
        # epoch to decay the rate from epoch 0
        cfg = json.loads(TINY.read_text())
        cfg["optimizer"][key.partition("[")[0]] = value
        path = tmp_path / "train.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert f"optimizer.{key}:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_negative_fill_drain_rejected(self, tiny_run, tmp_path, capsys):
        # a negative fill/drain latency made cg perf report negative cycles
        path = eval_cfg(tiny_run, tmp_path, array={"fill_drain_per_tile": -1})
        out = tmp_path / "out"
        assert cli.main(["perf", "--config", str(path), "--out", str(out)]) == 2
        assert "array.fill_drain_per_tile:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("cmd", ["train", "eval"])
    def test_more_data_classes_than_model_classes_rejected(self, tiny_run, tmp_path,
                                                           capsys, cmd):
        # a label past the last logit used to end in an IndexError
        data = dict(json.loads(TINY.read_text())["data"], num_classes=3)
        if cmd == "train":
            cfg = json.loads(TINY.read_text())
            cfg["data"] = data
            path = tmp_path / "train.json"
            path.write_text(json.dumps(cfg))
        else:
            path = eval_cfg(tiny_run, tmp_path, data=data)
        out = tmp_path / "out"
        assert cli.main([cmd, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data.num_classes" in err and "model.num_classes" in err
        assert not out.exists() or not any(out.iterdir())

    def test_whole_dataset_validates(self, tiny_run, tmp_path):
        # val_fraction 1.0 leaves no training split, which eval does not need
        cfg = eval_cfg(tiny_run, tmp_path, val_fraction=1.0)
        assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0
        summary = json.loads((tmp_path / "e" / "eval_summary.json").read_text())
        assert summary["n_eval_samples"] == 240

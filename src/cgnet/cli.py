"""Command-line experiment harness.

    cg train   --config FILE [--seed N] [--deterministic] [--out DIR]
    cg eval    --config FILE [...]
    cg analyze --config FILE [...]
    cg perf    --config FILE [...]

Configs are JSON with a ``schema_version`` field; see configs/ for the
bundled references. Every field, in the model and data sections too, is
read by ``config.read_field`` under one set of rules:

  * an int field takes an integer, never true or false;
  * a float field takes any finite number and reads it as a float;
  * a bool field takes only true or false, and a string, list or object
    field only its own type; a list's entries are checked one by one;
  * a field whose default is null also takes null;
  * a value below its lower bound or outside its range is malformed too.

A missing or malformed field exits 2 naming it (``optimizer.lr``,
``model.layers[2].groups``, ``etas[1]``) before any artifact is written,
and so does a key that no reader of its section reads: a misspelt
``loss.lamda``, ``model.layers[1].tau`` or ``tau_c_overide``, or
``loss.kd.enabled`` (naming a teacher turns distillation on). The top
level takes the keys of every command, so a training config also serves
eval, analyze and perf. A removed key, such as ``force_open`` or a gated
layer's ``gate``, exits 2 as an unknown one. Removed values exit 2 with
their reason: a ``loss.sparsity`` other than ``target_threshold`` (the
computation-cost form opened every gate).
``tau_c_override`` evaluates a model at a tau_c it was not trained with:
training runs the channel gate too, so the override changes the model.
eval, analyze and perf take an ungated checkpoint too; analyze then
writes no intensity map, since only a gated layer has one.
A run uses the CPUs of the process's affinity mask. BLAS takes its
threads per call from OPENBLAS/OMP/MKL_NUM_THREADS, the first one set to
a positive integer, and every CPU when none is; a convolution runs its
forward's bands of output rows and its backward's input groups on as
many threads as that share fits into the CPUs (``nn.conv2d_forward``,
``nn.conv2d_backward``). So with the variables unset they run on the
calling thread alone, and with BLAS pinned to one thread on every CPU.
``taskset`` narrows the mask, and so caps both. The extra threads run
only numpy and ``nn.im2col``/``nn.col2im``, no function a tracer wraps;
the backward's calling thread builds each group's upstream gradient in
dy's memory and each other thread in its own copy of dy.
``--deterministic``, read from the parsed arguments like every flag, sets
all three variables to 1, whatever was preset, so repeated runs are
bitwise identical. A band's or group's arithmetic is the same on any
thread, so the artifacts do not depend on how many threads run them
either.

Heavy imports happen inside the command handlers so thread limits can be
applied before numpy loads.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .config import THREAD_VARS, ConfigurationError, read_field, reject_unknown

# the top-level keys that some command reads: one set for all commands, so
# that a training config also serves eval, analyze and perf
CONFIG_KEYS = ("schema_version", "seed", "output_dir", "val_fraction", "data",
               "model", "loss", "optimizer",                               # train
               "checkpoint", "delta_override", "tau_c_override", "delta_shift",
               "num_inputs", "intensity_sample", "etas", "array")          # the others


def _setup_threads(args):
    """Under the parsed ``--deterministic`` flag, set every BLAS thread
    variable to 1; otherwise leave them as the user set them."""
    if args.deterministic:
        for var in THREAD_VARS:
            os.environ[var] = "1"


def _load_config(path):
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config: file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config: invalid JSON in {path} ({e})") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config: top level must be a JSON object")
    if cfg.get("schema_version") != 1:
        raise ConfigurationError(
            f"schema_version: expected 1, got {cfg.get('schema_version')!r}")
    reject_unknown(None, cfg, CONFIG_KEYS)
    return cfg


def _resolve_out(args, cfg):
    output_dir = read_field("output_dir", cfg, str, None)   # checked under --out too
    path = Path(args.out or output_dir or "runs/out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _existing_path(field, name, config_dir):
    """The file ``name`` from the working directory, else from the config's."""
    for path in (Path(name), config_dir / name):
        if path.is_file():
            return path
    raise ConfigurationError(f"{field}: file not found: {name}")


def _resolve_seed(args, cfg):
    seed = read_field("seed", cfg, int, 0)
    return seed if args.seed is None else args.seed


def _load_data(cfg, seed, config_dir, training=False):
    """Dataset from config, split into (train, val) with a derived seed.
    ``val_fraction`` must lie in [0, 1] and leave a validation sample, and a
    training sample when ``training``."""
    import numpy as np
    from .data import load_dataset, train_val_split
    val_fraction = read_field("val_fraction", cfg, float, 0.1)
    if not 0.0 <= val_fraction <= 1.0:
        raise ConfigurationError(f"val_fraction: must be in [0, 1], got {val_fraction}")
    ds = load_dataset(read_field("data", cfg, dict), base_dir=config_dir)
    split_rng = np.random.default_rng([seed, 17])
    train_ds, val_ds = train_val_split(ds, val_fraction, split_rng)
    for name, part in (("validation", val_ds), ("training", train_ds))[:1 + training]:
        if not len(part):
            raise ConfigurationError(
                f"val_fraction: {val_fraction} of {len(ds)} samples leaves no {name} sample")
    return train_ds, val_ds


def _check_data(ds, model):
    """The model must take the data's (c, h, w) images and have a logit for
    every class of the data."""
    if ds.images.shape[1:] != model.input_shape:
        raise ConfigurationError(f"model.input_shape: the model takes {list(model.input_shape)}, "
                                 f"the data's images are {list(ds.images.shape[1:])}")
    if ds.num_classes > model.num_classes:
        raise ConfigurationError(f"data.num_classes: the data has {ds.num_classes} classes, "
                                 f"model.num_classes only {model.num_classes}")


def _write_metrics_csv(path, history):
    cols = ["epoch", "train_loss", "val_acc", "mean_delta", "pruning_ratio",
            "flop_reduction"]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(cols)
        for row in history:
            w.writerow([row["epoch"]] + [repr(float(row[c])) for c in cols[1:]])


def cmd_train(args):
    import numpy as np
    from . import checkpoint
    from .network import build_model
    from .training import LossConfig, Schedule, train_network

    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg)
    out = _resolve_out(args, cfg)
    config_dir = Path(args.config).parent
    train_ds, val_ds = _load_data(cfg, seed, config_dir, training=True)

    model = build_model(read_field("model", cfg, dict), np.random.default_rng([seed, 11]))
    _check_data(train_ds, model)

    loss = read_field("loss", cfg, dict, {})
    reject_unknown("loss", loss, ("sparsity", "lambda", "target", "kd"))
    kd = read_field("loss.kd", loss, dict, {})
    reject_unknown("loss.kd", kd, ("temperature", "mix", "teacher_checkpoint"))
    opt = read_field("optimizer", cfg, dict, {})
    reject_unknown("optimizer", opt, [f.name for f in fields(Schedule)])
    loss_cfg = LossConfig(
        sparsity=read_field("loss.sparsity", loss, str, LossConfig.sparsity),
        lam=read_field("loss.lambda", loss, float, LossConfig.lam),
        target=read_field("loss.target", loss, float, LossConfig.target),
        kd_temperature=read_field("loss.kd.temperature", kd, float, LossConfig.kd_temperature),
        kd_mix=read_field("loss.kd.mix", kd, float, LossConfig.kd_mix))
    schedule = Schedule(
        epochs=read_field("optimizer.epochs", opt, int),
        batch_size=read_field("optimizer.batch_size", opt, int, Schedule.batch_size),
        lr=read_field("optimizer.lr", opt, float),
        momentum=read_field("optimizer.momentum", opt, float, Schedule.momentum),
        weight_decay=read_field("optimizer.weight_decay", opt, float, Schedule.weight_decay),
        lr_decay_epochs=tuple(read_field("optimizer.lr_decay_epochs", opt, list,
                                         list(Schedule.lr_decay_epochs), each=float)),
        lr_decay_factor=read_field("optimizer.lr_decay_factor", opt, float,
                                   Schedule.lr_decay_factor),
        lambda_warmup_frac=read_field("optimizer.lambda_warmup_frac", opt, float,
                                      Schedule.lambda_warmup_frac))
    teacher_path = read_field("loss.kd.teacher_checkpoint", kd, str, None)
    teacher = None
    if teacher_path is not None:   # naming a teacher turns distillation on
        teacher_path = _existing_path("loss.kd.teacher_checkpoint", teacher_path, config_dir)
        try:
            teacher = checkpoint.load_model(teacher_path)
        except (OSError, checkpoint.CheckpointError, ConfigurationError) as e:
            raise ConfigurationError(f"loss.kd.teacher_checkpoint: {e}") from None
        # the student fits the data, so a teacher that fits the student does too
        if (teacher.input_shape, teacher.num_classes) != (model.input_shape, model.num_classes):
            raise ConfigurationError(
                f"loss.kd.teacher_checkpoint: the teacher maps {list(teacher.input_shape)} "
                f"images to {teacher.num_classes} classes, the student "
                f"{list(model.input_shape)} to {model.num_classes}")
        if not teacher.gates_frozen():   # its forward_infer would fail at the first batch
            raise ConfigurationError("loss.kd.teacher_checkpoint: the teacher's gate statistics "
                                     "are not frozen; name the checkpoint of a finished run")

    def log(row):
        print(f"epoch {row['epoch']:3d}  loss {row['train_loss']:.4f}  "
              f"val_acc {row['val_acc']:.4f}  mean_delta {row['mean_delta']:+.3f}  "
              f"pruning {row['pruning_ratio']:.3f}  "
              f"flop_reduction {row['flop_reduction']:.2f}x")

    history = train_network(model, train_ds.images, train_ds.labels,
                            val_ds.images, val_ds.labels, loss_cfg, schedule,
                            np.random.default_rng([seed, 23]),
                            teacher=teacher, log=log)
    ckpt_path = out / "checkpoint.cgn"
    checkpoint.save_model(ckpt_path, model)
    _write_metrics_csv(out / "metrics.csv", history)
    print(f"wrote {ckpt_path} and {out / 'metrics.csv'}")
    return 0


def _load_eval_model(args, cfg, config_dir):
    from . import checkpoint
    in_config = read_field("checkpoint", cfg, str, None)
    ckpt = args.checkpoint or in_config
    if not ckpt:
        raise ConfigurationError("checkpoint: required field missing")
    model = checkpoint.load_model(_existing_path("checkpoint", ckpt, config_dir))
    for key, apply in (("delta_override", model.set_delta),
                       ("tau_c_override", model.set_tau_c),
                       ("delta_shift", model.shift_delta)):
        value = read_field(key, cfg, float, None)
        if value is None:
            continue
        if not model.gated_layers():   # the setters would loop over nothing
            raise ConfigurationError(f"{key}: the checkpoint has no gated layer to apply it to")
        try:
            apply(value)
        except ConfigurationError as e:   # the setter's message names no key
            raise ConfigurationError(f"{key}: {e}") from None
    return model


def _frozen_flag(model):
    """Whether the model's gate statistics are frozen; warns on stderr when
    not, since the command then runs on unfinished running stats."""
    frozen = model.gates_frozen()
    if not frozen:
        print("cg: warning: gate statistics are not frozen; results use the "
              "running statistics of an unfinished training run", file=sys.stderr)
    return frozen


def _checkpoint_command(args):
    """Shared prologue of eval, analyze and perf: config, output directory,
    validation split and checkpoint. Returns (cfg, out, val_ds, model,
    frozen)."""
    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg)
    out = _resolve_out(args, cfg)
    config_dir = Path(args.config).parent
    _, val_ds = _load_data(cfg, seed, config_dir)
    model = _load_eval_model(args, cfg, config_dir)
    _check_data(val_ds, model)
    return cfg, out, val_ds, model, _frozen_flag(model)


def _analyzed_inputs(cfg, val_ds, default):
    """The first ``num_inputs`` validation images and their labels;
    ``num_inputs`` must be >= 1."""
    n_inputs = read_field("num_inputs", cfg, int, default, low=1)
    return val_ds.images[:n_inputs], val_ds.labels[:n_inputs]


def cmd_eval(args):
    from . import analysis
    from .training import evaluate

    _, out, val_ds, model, frozen = _checkpoint_command(args)

    acc, _, records = evaluate(model, val_ds.images, val_ds.labels, collect=True)
    report = analysis.count_flops(records)
    analysis.write_cost_csv(out / "cost_report.csv", report)
    analysis.write_summary_json(out / "eval_summary.json", report, extra={
        "frozen": frozen,
        "accuracy": acc,
        "pruning_ratio": analysis.network_pruning_ratio(records),
        "n_eval_samples": len(val_ds.labels)})
    print(f"accuracy {acc:.4f}  flop_reduction {report.flop_reduction:.3f}x  "
          f"weight_access_reduction {report.weight_access_reduction:.3f}x")
    print(f"wrote {out / 'eval_summary.json'} and {out / 'cost_report.csv'}")
    return 0


def cmd_analyze(args):
    from . import analysis
    cfg, out, val_ds, model, frozen = _checkpoint_command(args)

    images, _ = _analyzed_inputs(cfg, val_ds, 64)
    sample = read_field("intensity_sample", cfg, int, 0)
    if not 0 <= sample < len(images):
        raise ConfigurationError(
            f"intensity_sample: must be in [0, {len(images)}), got {sample}")
    etas = read_field("etas", cfg, list, [0.125, 0.25, 0.5, 1.0], each=float)

    # one collecting pass feeds the intensity maps, the cost report and,
    # through its captured inputs, the correlation study, which runs first
    # so that a bad eta fails before any artifact is written
    _, records = model.forward_infer(images, collect=True, capture=True,
                                     require_frozen=False)
    corr = analysis.partial_final_correlation(records, etas)
    gated = [r for r in records if r.gated]
    for rec in gated:
        analysis.write_pgm(out / f"intensity_{rec.name}.pgm",
                           analysis.intensity_map(rec, sample))
    if gated:   # an ungated model has no intensity map
        analysis.write_pgm(out / "intensity_aggregate.pgm", analysis.aggregate_intensity(
            gated, tuple(model.input_shape[1:]), sample))

    analysis.write_correlation_csv(out / "correlation.csv", corr)

    report = analysis.count_flops(records)
    analysis.write_cost_csv(out / "cost_report.csv", report)
    analysis.write_summary_json(out / "analyze_summary.json", report, extra={
        "frozen": frozen,
        "correlation_means": {repr(e): entry["mean"] for e, entry in corr.items()}})
    for e in corr:
        print(f"eta {e:.3f}: mean partial/final correlation {corr[e]['mean']:.4f}")
    print(f"weight_access_reduction {report.weight_access_reduction:.3f}x")
    print(f"wrote {'intensity maps, ' if gated else ''}correlation.csv and cost_report.csv "
          f"to {out}")
    return 0


def cmd_perf(args):
    from . import analysis, perf
    from .training import evaluate
    cfg, out, val_ds, model, frozen = _checkpoint_command(args)
    section = read_field("array", cfg, dict, {})
    reject_unknown("array", section, [f.name for f in fields(perf.ArrayConfig)])
    array = perf.ArrayConfig(
        rows=read_field("array.rows", section, int, perf.ArrayConfig.rows, low=1),
        cols=read_field("array.cols", section, int, perf.ArrayConfig.cols, low=1),
        fill_drain_per_tile=read_field("array.fill_drain_per_tile", section, int,
                                       perf.ArrayConfig.fill_drain_per_tile, low=0))

    # batched, so memory does not grow with num_inputs
    _, _, records = evaluate(model, *_analyzed_inputs(cfg, val_ds, 32), collect=True)
    report = perf.model_network_speedup(records, array)
    flops = analysis.count_flops(records)
    perf.write_breakdown_csv(out / "perf_breakdown.csv", report, frozen)
    print(f"modeled speedup {report.speedup:.3f}x  "
          f"(theoretical flop_reduction {flops.flop_reduction:.3f}x, "
          f"array {array.rows}x{array.cols})")
    print(f"wrote {out / 'perf_breakdown.csv'}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cg", description="Channel-gated CNN experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("train", cmd_train), ("eval", cmd_eval),
                     ("analyze", cmd_analyze), ("perf", cmd_perf)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--deterministic", action="store_true",
                       help="single-threaded math; bitwise-reproducible runs")
        p.add_argument("--out", default=None, help="output directory")
        if name != "train":
            p.add_argument("--checkpoint", default=None,
                           help="override the config's checkpoint path")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    _setup_threads(args)
    from .checkpoint import CheckpointError
    from .data import DataFormatError
    from .nn import StateError
    from .training import TrainingDiverged
    try:
        return args.fn(args)
    except (ConfigurationError, CheckpointError, DataFormatError, StateError) as e:
        print(f"cg: error: {e}", file=sys.stderr)
        return 2
    except TrainingDiverged as e:
        print(f"cg: training diverged: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

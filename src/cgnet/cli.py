"""Command-line experiment harness.

    cg train   --config FILE [--seed N] [--deterministic] [--out DIR]
    cg eval    --config FILE [...]
    cg analyze --config FILE [...]
    cg perf    --config FILE [...]

Configs are JSON with a ``schema_version`` field; see configs/ for the
bundled references. The environment variable CG_THREADS caps BLAS worker
threads; ``--deterministic`` forces single-threaded math so repeated runs
are bitwise identical.

Heavy imports happen inside the command handlers so thread limits can be
applied before numpy loads.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

_REQUIRED = object()


def _setup_threads(argv):
    threads = os.environ.get("CG_THREADS")
    if "--deterministic" in argv:
        threads = "1"
    if threads:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


def _load_config(path):
    from .nn import ConfigurationError
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
    return cfg


def _get(cfg, path, default=_REQUIRED, kind=None):
    from .nn import ConfigurationError
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigurationError(f"{path}: required field missing")
            return default
        node = node[part]
    if kind is not None and not isinstance(node, kind):
        names = kind[0].__name__ if isinstance(kind, tuple) else kind.__name__
        raise ConfigurationError(f"{path}: expected {names}, got {type(node).__name__}")
    return node


def _resolve_out(args, cfg):
    out = args.out or cfg.get("output_dir") or "runs/out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_seed(args, cfg):
    return args.seed if args.seed is not None else int(cfg.get("seed", 0))


def _load_data(cfg, seed, config_dir):
    """Dataset from config, split into (train, val) with a derived seed."""
    import numpy as np
    from .data import load_dataset, train_val_split
    data_cfg = _get(cfg, "data", kind=dict)
    ds = load_dataset(data_cfg, base_dir=config_dir)
    val_fraction = float(cfg.get("val_fraction", 0.1))
    split_rng = np.random.default_rng([seed, 17])
    return train_val_split(ds, val_fraction, split_rng)


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
    train_ds, val_ds = _load_data(cfg, seed, config_dir)

    model = build_model(_get(cfg, "model", kind=dict), np.random.default_rng([seed, 11]))
    if cfg.get("force_open", False):
        model.set_force_open()

    loss_cfg = LossConfig(
        sparsity=_get(cfg, "loss.sparsity", "target_threshold", str),
        lam=float(_get(cfg, "loss.lambda", 1e-4, (int, float))),
        target=float(_get(cfg, "loss.target", 2.0, (int, float))),
        kd_enabled=bool(_get(cfg, "loss.kd.enabled", False)),
        kd_temperature=float(_get(cfg, "loss.kd.temperature", 1.0, (int, float))),
        kd_mix=float(_get(cfg, "loss.kd.mix", 0.5, (int, float))),
        teacher_checkpoint=_get(cfg, "loss.kd.teacher_checkpoint", None))
    schedule = Schedule(
        epochs=int(_get(cfg, "optimizer.epochs", _REQUIRED, int)),
        batch_size=int(_get(cfg, "optimizer.batch_size", 64, int)),
        lr=float(_get(cfg, "optimizer.lr", _REQUIRED, (int, float))),
        momentum=float(_get(cfg, "optimizer.momentum", 0.9, (int, float))),
        weight_decay=float(_get(cfg, "optimizer.weight_decay", 1e-4, (int, float))),
        lr_decay_epochs=tuple(_get(cfg, "optimizer.lr_decay_epochs", [], list)),
        lr_decay_factor=float(_get(cfg, "optimizer.lr_decay_factor", 0.1, (int, float))),
        lambda_warmup_frac=float(_get(cfg, "optimizer.lambda_warmup_frac", 0.1,
                                      (int, float))))
    teacher = None
    if loss_cfg.kd_enabled:
        if not loss_cfg.teacher_checkpoint:
            from .nn import ConfigurationError
            raise ConfigurationError("loss.kd.teacher_checkpoint: required when KD enabled")
        teacher = checkpoint.load_model(config_dir / loss_cfg.teacher_checkpoint)

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
    from .nn import ConfigurationError
    ckpt = args.checkpoint or cfg.get("checkpoint")
    if not ckpt:
        raise ConfigurationError("checkpoint: required field missing")
    path = Path(ckpt)
    if not path.exists() and not path.is_absolute() and (config_dir / path).exists():
        path = config_dir / path
    if not path.exists():
        raise ConfigurationError(f"checkpoint: file not found: {path}")
    model = checkpoint.load_model(path)
    if cfg.get("delta_override") is not None:
        model.set_delta(float(cfg["delta_override"]))
    if cfg.get("tau_c_override") is not None:
        model.set_tau_c(float(cfg["tau_c_override"]))
    if cfg.get("delta_shift") is not None:
        model.shift_delta(float(cfg["delta_shift"]))
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
    return cfg, out, val_ds, model, _frozen_flag(model)


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

    n_inputs = int(cfg.get("num_inputs", 64))
    images = val_ds.images[:n_inputs]
    labels = val_ds.labels[:n_inputs]

    logits, records = model.forward_infer(images, collect=True,
                                          require_frozen=False)
    gated = [r for r in records if r.gated]
    sample = int(cfg.get("intensity_sample", 0))
    for rec in gated:
        analysis.write_pgm(out / f"intensity_{rec.name}.pgm",
                           analysis.intensity_map(rec, sample))
    input_hw = tuple(model.input_shape[1:])
    analysis.write_pgm(out / "intensity_aggregate.pgm",
                       analysis.aggregate_intensity(gated, input_hw, sample))

    etas = [float(e) for e in cfg.get("etas", [0.125, 0.25, 0.5, 1.0])]
    corr = analysis.partial_final_correlation(model, images, etas)
    analysis.write_correlation_csv(out / "correlation.csv", corr)

    report = analysis.count_flops(records)
    analysis.write_cost_csv(out / "cost_report.csv", report)
    analysis.write_summary_json(out / "analyze_summary.json", report, extra={
        "frozen": frozen,
        "correlation_means": {repr(e): corr[e]["mean"] for e in etas}})
    for e in etas:
        print(f"eta {e:.3f}: mean partial/final correlation {corr[e]['mean']:.4f}")
    print(f"weight_access_reduction {report.weight_access_reduction:.3f}x")
    print(f"wrote intensity maps, correlation.csv and cost_report.csv to {out}")
    return 0


def cmd_perf(args):
    from . import analysis, perf
    cfg, out, val_ds, model, _ = _checkpoint_command(args)

    n_inputs = int(cfg.get("num_inputs", 32))
    images = val_ds.images[:n_inputs]
    _, records = model.forward_infer(images, collect=True, require_frozen=False)
    array = perf.ArrayConfig(
        rows=int(_get(cfg, "array.rows", 16, int)),
        cols=int(_get(cfg, "array.cols", 16, int)),
        fill_drain_per_tile=_get(cfg, "array.fill_drain_per_tile", None))
    report = perf.model_network_speedup(records, array)
    flops = analysis.count_flops(records)
    perf.write_breakdown_csv(out / "perf_breakdown.csv", report)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    _setup_threads(argv)
    args = build_parser().parse_args(argv)
    from .checkpoint import CheckpointError
    from .data import DataFormatError
    from .nn import ConfigurationError, StateError
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

"""Command-line entry point.

One JSON file, passed with --config, sets a run's values; a value it does
not set is its record's default. synth reads the synth section, train the
shape and train sections, inspect-params the shape section. The commands
that read a checkpoint take the model from it; a resumed train run keeps
the checkpoint's shape and train config but for max_epochs, so a copy of
its config.json with more max_epochs extends it. Primary artifacts
(datasets, checkpoints, history, exports) are byte-deterministic given
(config, seed); wall-clock metadata is quarantined into a separate
run_meta.json that no result depends on.

Exit codes: 0 success, 1 usage error, 2 validation error (or diverged
training), 3 selftest failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import analysis, data_io, selftest, trainer
from .classifier import predict
from .model import ModelShapeSpec, init_model
from .numerics import from_fields

# The configuration file's sections and the record each one builds.
SECTIONS = {"shape": ModelShapeSpec, "train": trainer.TrainConfig,
            "synth": data_io.SyntheticTaskConfig}
# The files train_to_checkpoint keeps in a run directory.
CHECKPOINT_FILE, HISTORY_FILE = "checkpoint.ckpt", "history.json"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # validation errors, so remap.
    def error(self, message):
        raise UsageError(message)


def _path(value: str) -> str:
    """The argparse type of every path option: any string but the empty one."""
    if not value:
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return value


@dataclass
class RunConfig:
    shape: ModelShapeSpec
    train: trainer.TrainConfig
    synth: data_io.SyntheticTaskConfig


def build_run_config(args) -> RunConfig:
    """Each section's record from its defaults, then the --config file's
    values; every error in the file starts with its path."""
    path, doc = args.config, {}
    if path:
        try:
            doc = json.loads(Path(path).read_text())
        except (ValueError, RecursionError) as exc:  # JSON syntax, text decoding or nesting
            raise ValueError(f"{path}: cannot parse config: {exc}") from exc
        if not (isinstance(doc, dict) and all(isinstance(v, dict) for v in doc.values())):
            raise ValueError(f"{path}: config must be an object of section objects")
        unknown = set(doc) - set(SECTIONS)
        if unknown:
            raise ValueError(f"{path}: unknown config sections: {sorted(unknown)}")
    try:
        return RunConfig(**{section: from_fields(record, {**asdict(record()), **doc.get(section, {})})
                            for section, record in SECTIONS.items()})
    except ValueError as exc:  # an unknown key or a field check; the defaults pass
        raise ValueError(f"{path}: {exc}") from exc


def _load_model_for_inference(args):
    """The final model, or the best snapshot with --use-best; only that
    tensor group is read from the checkpoint."""
    if not args.use_best:
        return data_io.load_checkpoint(args.checkpoint, groups=("param",)).model
    return data_io.load_checkpoint(args.checkpoint, groups=("best",)).best


def _load_samples(args, shape: ModelShapeSpec, *splits) -> list[list[data_io.Sample]]:
    """The samples of each split of --manifest, in turn, each a row reader
    of its file; an empty split is an error naming the manifest."""
    manifest = data_io.load_manifest(args.manifest)
    if len(manifest.classes) != shape.num_classes:
        raise ValueError(f"{args.manifest}: manifest has {len(manifest.classes)} classes, "
                         f"the model has {shape.num_classes}")
    loaded = []
    for split in splits:
        loaded.append(data_io.load_split(manifest, split, shape.raw_dim))
        if not loaded[-1]:
            raise ValueError(f"split {split!r} is empty in {args.manifest}")
    return loaded


def cmd_synth(args) -> int:
    cfg = build_run_config(args)
    manifest_path = data_io.write_synth_dataset(cfg.synth, args.out_dir)
    classes = len(data_io.SYNTH_CLASSES)
    print(f"wrote {manifest_path} ({classes * cfg.synth.samples_per_class} train / "
          f"{classes * cfg.synth.val_count} val samples)")
    return 0


def _check_resume(path, cfg: RunConfig, ckpt: data_io.CheckpointData) -> None:
    """A resumed run keeps the checkpoint's shape and train config; only
    max_epochs may change, and not to fewer than the epochs completed."""
    diffs = [
        f"{section}.{f.name} {getattr(theirs, f.name)!r} -> {getattr(ours, f.name)!r}"
        for section, ours, theirs in (("shape", cfg.shape, ckpt.model.shape),
                                      ("train", cfg.train, ckpt.config))
        for f in fields(ours)
        if f.name != "max_epochs" and getattr(ours, f.name) != getattr(theirs, f.name)
    ]
    if diffs:
        raise ValueError(f"{path}: cannot resume with a different configuration "
                         f"(only max_epochs may change): {', '.join(diffs)}")
    wanted, done = cfg.train.max_epochs, len(ckpt.state.history)
    if wanted < done:
        raise ValueError(f"{path}: max_epochs {wanted} is below its {done} completed epochs")


def _json_bytes(doc) -> bytes:
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def train_to_checkpoint(run_dir, params, train_split, val_split, config, state, best,
                        echo) -> trainer.TrainState:
    """trainer.fit, rewriting CHECKPOINT_FILE and then HISTORY_FILE in the
    existing directory `run_dir` after every epoch, then calling
    echo(report); once after fit only when no epoch ran. A kill between the
    two writes can leave the history one epoch behind: the checkpoint is
    the record of the run. Its best/ group is the parameters after an
    improving epoch, else copied from `best` (None: the initial parameters
    are their own; or the open checkpoint file the run resumes) until the
    first save, and after it from the checkpoint last written, kept open so
    that the next save's rename cannot take it."""
    path, history = Path(run_dir) / CHECKPOINT_FILE, Path(run_dir) / HISTORY_FILE
    with contextlib.ExitStack() as stack:
        def save(source) -> None:
            nonlocal best
            data_io.save_checkpoint(path, params, state, config, source)
            data_io.atomic_write_bytes(history, _json_bytes({
                "reports": [asdict(r) for r in state.history],
                "best_epoch": state.best_epoch,
                "best_val_accuracy": state.best_val_accuracy,
            }))
            stack.close()  # the previous checkpoint, once opened here
            best = stack.enter_context(open(path, "rb"))

        def on_epoch(report, improved) -> None:
            save(None if improved else best)
            echo(report)

        done = len(state.history)
        trainer.fit(params, train_split, val_split, config, state, on_epoch)
        if len(state.history) == done:
            save(best)
    return state


def _echo_epoch(report: trainer.EpochReport) -> None:
    print(f"epoch {report.epoch}: train_loss={report.train_loss:.6f} "
          f"val_loss={report.val_loss:.6f} val_acc={report.val_accuracy:.4f} "
          f"lr={report.current_lr:g}", flush=True)


def cmd_train(args) -> int:
    """--out-dir is made once the inputs are read and checked, and never
    removed: it holds config.json from the start, and a checkpoint with its
    history.json after every epoch; run_meta.json is written at the end."""
    cfg = build_run_config(args)
    train_split, val_split = _load_samples(args, cfg.shape, "train", "val")
    started = time.time()
    out_dir = Path(args.out_dir)
    with contextlib.ExitStack() as stack:
        if args.resume:  # its best/ group stays in the file until the first save copies it
            best = stack.enter_context(open(args.resume, "rb"))
            ckpt = data_io.load_checkpoint(best, groups=("param", "velocity"))
            _check_resume(args.resume, cfg, ckpt)
            params, state = ckpt.model, ckpt.state
        else:
            params = init_model(cfg.shape, trainer.init_rng(cfg.train.seed))
            state, best = trainer.TrainState.fresh(params), None
        out_dir.mkdir(parents=True, exist_ok=True)
        data_io.atomic_write_bytes(out_dir / "config.json", _json_bytes(asdict(cfg)))
        for report in state.history:  # the epochs before a resume
            _echo_epoch(report)
        state = train_to_checkpoint(out_dir, params, train_split, val_split, cfg.train,
                                    state, best, _echo_epoch)
    # Wall-clock data stays out of the deterministic artifacts.
    meta = {"elapsed_seconds": time.time() - started, "finished_unix": time.time()}
    data_io.atomic_write_bytes(out_dir / "run_meta.json", _json_bytes(meta))
    print(f"saved {out_dir / CHECKPOINT_FILE} (best epoch {state.best_epoch}, "
          f"best val acc {state.best_val_accuracy:.4f})")
    return 0


def cmd_eval(args) -> int:
    params = _load_model_for_inference(args)
    (samples,) = _load_samples(args, params.shape, args.split)
    loss, accuracy, _ = trainer.evaluate(params, samples, {})
    print(f"split={args.split} samples={len(samples)} loss={loss!r} accuracy={accuracy!r}")
    return 0


def cmd_predict(args) -> int:
    params = _load_model_for_inference(args)
    (samples,) = _load_samples(args, params.shape, args.split)
    samples = sorted(samples, key=lambda s: s.id)
    _, _, probabilities = trainer.evaluate(params, samples, {})
    lines = ["id,label,predicted," + ",".join(f"p_{c}" for c in range(params.shape.num_classes))]
    for sample, predicted, probs in zip(
        samples, predict(probabilities).tolist(), analysis.float_rows(probabilities)
    ):
        lines.append(f"{sample.id},{sample.label},{predicted},{probs}")
    text = "\n".join(lines) + "\n"
    if args.out:
        data_io.atomic_write_bytes(Path(args.out), text.encode())
        print(f"wrote {args.out} ({len(samples)} predictions)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_inspect_params(args) -> int:
    cfg = build_run_config(args)
    for title, costs in (("parameters", analysis.count_parameters(cfg.shape)),
                         ("flops per video", analysis.estimate_flops(cfg.shape))):
        print(f"{title}:")
        for name, value in costs.lines.items():
            print(f"  {name:<12} {value:>12,}")
        print(f"total {title}: {costs.total:,}")
    return 0


def cmd_export_responses(args) -> int:
    params = _load_model_for_inference(args)
    analysis.check_width(params.shape, args.width)
    (samples,) = _load_samples(args, params.shape, args.split)
    path = analysis.export_responses(params, samples, args.width, args.out)
    print(f"wrote {path} ({len(samples)} rows)")
    return 0


def cmd_export_features(args) -> int:
    params = _load_model_for_inference(args)
    (samples,) = _load_samples(args, params.shape, args.split)
    path = analysis.export_pooled_features(params, samples, args.out)
    print(f"wrote {path} ({len(samples)} rows)")
    return 0


def cmd_selftest(args) -> int:
    failures = selftest.run_selftest()
    return 3 if failures else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="din", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    def config_command(name, fn, help_text):
        p = command(name, fn, help_text)
        p.add_argument("--config", type=_path, help="JSON configuration file")
        return p

    def checkpoint_command(name, fn, help_text):
        p = command(name, fn, help_text)
        p.add_argument("--checkpoint", type=_path, required=True)
        p.add_argument("--manifest", type=_path, required=True)
        p.add_argument("--split", default="val", choices=data_io.SPLITS)
        p.add_argument("--use-best", dest="use_best", action="store_true",
                       help="use the best-validation snapshot instead of the final model")
        return p

    p = config_command("synth", cmd_synth, "generate the synthetic temporal-order dataset")
    p.add_argument("--out-dir", dest="out_dir", type=_path, required=True)

    p = config_command("train", cmd_train, "train a model on a manifest dataset")
    p.add_argument("--manifest", type=_path, required=True)
    p.add_argument("--out-dir", dest="out_dir", type=_path, required=True)
    p.add_argument("--resume", type=_path, help="checkpoint to resume from")

    checkpoint_command("eval", cmd_eval, "eval a checkpoint on one split")
    p = checkpoint_command("predict", cmd_predict, "predict a checkpoint on one split")
    p.add_argument("--out", type=_path, help="write CSV here instead of stdout")

    config_command("inspect-params", cmd_inspect_params, "print parameter/FLOP accounting")

    p = checkpoint_command("export-responses", cmd_export_responses,
                           "export per-window filter responses for one width")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--out", type=_path, required=True)

    p = checkpoint_command("export-features", cmd_export_features,
                           "export pooled feature vectors plus the mean-frame baseline")
    p.add_argument("--out", type=_path, required=True)

    command("selftest", cmd_selftest, "run the built-in oracle and gradient checks")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

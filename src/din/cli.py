"""Command-line entry point.

One JSON configuration file drives the commands that build a dataset or a
model; each takes override flags only for the sections it uses: synth
the synth section, train the shape and train sections, inspect-params
the shape section. The commands that read a checkpoint take the model
from it; a resumed train run keeps the checkpoint's shape and train
config, except max_epochs. Primary artifacts (datasets, checkpoints,
history, exports) are byte-deterministic given (config, seed);
wall-clock metadata is quarantined into a separate run_meta.json that no
result depends on.

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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # validation errors, so remap.
    def error(self, message):
        raise UsageError(message)

    # argparse takes only -<digits> and -<digits>.<digits> for negative
    # numbers. No din option starts with "-" and a digit or ".", so such an
    # argument is a value (-1e-3, -.5, the widths -2,3), and so is any other
    # float literal (-inf, -nan): "--flag -2,3" reads like "--flag=-2,3".
    def _parse_optional(self, arg_string):
        if arg_string.startswith("-"):
            if arg_string[1:2].isdigit() or arg_string[1:2] == ".":
                return None
            with contextlib.suppress(ValueError):
                float(arg_string)
                return None
        return super()._parse_optional(arg_string)


@dataclass
class RunConfig:
    shape: ModelShapeSpec
    train: trainer.TrainConfig
    synth: data_io.SyntheticTaskConfig


def _merge_section(section: str, file_doc: dict, args):
    """The section's record from its defaults, then the config file's
    values, then the command's override flags; an unknown key fails."""
    record = SECTIONS[section]
    flags = {f.name: getattr(args, f"{section}.{f.name}", None) for f in fields(record)}
    merged = {**asdict(record()), **file_doc.get(section, {})}
    merged.update((name, value) for name, value in flags.items() if value is not None)
    return from_fields(record, merged)


def build_run_config(args) -> RunConfig:
    file_doc = {}
    if args.config:
        path = Path(args.config)
        try:
            file_doc = json.loads(path.read_text())
        except ValueError as exc:  # JSON syntax or text decoding
            raise ValueError(f"{path}: cannot parse config: {exc}") from exc
        if not (isinstance(file_doc, dict) and all(isinstance(v, dict) for v in file_doc.values())):
            raise ValueError(f"{path}: config must be an object of section objects")
        unknown = set(file_doc) - set(SECTIONS)
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
    return RunConfig(**{section: _merge_section(section, file_doc, args) for section in SECTIONS})


def _parse_widths(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise UsageError(f"bad widths {text!r}: {exc}") from exc


# The synth fields whose flag is not --synth-<field>.
_SYNTH_FLAGS = {"num_prototypes": "prototypes", "feature_dim": "dim", "noise_sigma": "sigma",
                "sequence_length": "length"}


def _add_config_flags(p: argparse.ArgumentParser, sections: tuple[str, ...]) -> None:
    """--config plus one override flag per field of each config section the
    command uses, stored as "<section>.<field>"; a synth field's flag
    carries a "synth" prefix."""
    p.add_argument("--config", help="JSON configuration file")
    for section in sections:
        group = p.add_argument_group(f"{section} overrides")
        for f in fields(SECTIONS[section]):
            flag = f"synth_{_SYNTH_FLAGS.get(f.name, f.name)}" if section == "synth" else f.name
            kind = _parse_widths if f.name == "widths" else float if f.type == "float" else int
            group.add_argument(f"--{flag.replace('_', '-')}", dest=f"{section}.{f.name}", type=kind,
                               metavar="H1,H2,..." if kind is _parse_widths else f.name.upper())


def _load_model_for_inference(args):
    """The final model, or the best snapshot with --use-best; only that
    tensor group is read from the checkpoint."""
    if not args.checkpoint:
        raise ValueError("--checkpoint is required")
    if not args.use_best:
        return data_io.load_checkpoint(args.checkpoint, groups=("param",)).model
    return data_io.load_checkpoint(args.checkpoint, groups=("best",)).best


def _load_samples(args, shape: ModelShapeSpec, split=None):
    """(manifest, samples of the split), each a row reader of its file."""
    if not args.manifest:
        raise ValueError("--manifest is required")
    manifest = data_io.load_manifest(args.manifest)
    if len(manifest.classes) != shape.num_classes:
        raise ValueError(f"{args.manifest}: manifest has {len(manifest.classes)} classes, "
                         f"the model has {shape.num_classes}")
    split = split or args.split
    samples = data_io.load_split(manifest, split, shape.raw_dim)
    if not samples:
        raise ValueError(f"split {split!r} is empty in {args.manifest}")
    return manifest, samples


def cmd_synth(args) -> int:
    cfg = build_run_config(args)
    if not args.out_dir:
        raise ValueError("--out-dir is required")
    manifest_path = data_io.write_synth_dataset(cfg.synth, args.out_dir)
    classes = len(data_io.SYNTH_CLASSES)
    print(f"wrote {manifest_path} ({classes * cfg.synth.samples_per_class} train / "
          f"{classes * cfg.synth.val_count} val samples)")
    return 0


def _check_resume(path, cfg: RunConfig, ckpt: data_io.CheckpointData) -> None:
    """A resumed run keeps the checkpoint's shape and train config; only
    max_epochs may change."""
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


def cmd_train(args) -> int:
    cfg = build_run_config(args)
    if not args.out_dir:
        raise ValueError("--out-dir is required")
    manifest, train_split = _load_samples(args, cfg.shape, "train")
    val_split = data_io.load_split(manifest, "val", cfg.shape.raw_dim)
    if not val_split:
        raise ValueError("validation split is empty")
    started = time.time()
    ckpt = data_io.load_checkpoint(args.resume) if args.resume else None
    if ckpt is None:
        params = init_model(cfg.shape, trainer.init_rng(cfg.train.seed))
        state = trainer.TrainState.fresh(params, cfg.train)
    else:
        _check_resume(args.resume, cfg, ckpt)
        params, state = ckpt.model, ckpt.state
    out_dir = Path(args.out_dir)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as stack:
        try:
            # The best snapshot lives in an unlinked file in out_dir, not in memory.
            best = stack.enter_context(data_io.SnapshotFile(cfg.shape, out_dir))
            best.capture(params if ckpt is None else ckpt.best)
            ckpt = None  # frees the loaded best/ group
            state = trainer.fit(params, train_split, val_split, cfg.train, state, best)
        except BaseException:
            for d in created:  # deepest first; rmdir leaves one that is not empty
                with contextlib.suppress(OSError):
                    d.rmdir()
            raise
        for report in state.history:
            print(
                f"epoch {report.epoch}: train_loss={report.train_loss:.6f} "
                f"val_loss={report.val_loss:.6f} val_acc={report.val_accuracy:.4f} "
                f"lr={report.current_lr:g}"
            )
        ckpt_path = out_dir / "checkpoint.ckpt"
        data_io.save_checkpoint(ckpt_path, params, state, cfg.train, best)
    history_doc = {
        "reports": [asdict(r) for r in state.history],
        "best_epoch": state.best_epoch,
        "best_val_accuracy": state.best_val_accuracy,
    }
    data_io.atomic_write_bytes(
        out_dir / "history.json", json.dumps(history_doc, indent=2, sort_keys=True).encode()
    )
    data_io.atomic_write_bytes(
        out_dir / "config.json", json.dumps(asdict(cfg), indent=2, sort_keys=True).encode()
    )
    # Wall-clock data stays out of the deterministic artifacts.
    meta = {"elapsed_seconds": time.time() - started, "finished_unix": time.time()}
    data_io.atomic_write_bytes(out_dir / "run_meta.json", json.dumps(meta, indent=2).encode())
    print(f"saved {ckpt_path} (best epoch {state.best_epoch}, "
          f"best val acc {state.best_val_accuracy:.4f})")
    return 0


def cmd_eval(args) -> int:
    params = _load_model_for_inference(args)
    _, samples = _load_samples(args, params.shape)
    loss, accuracy, _ = trainer.evaluate(params, samples)
    print(f"split={args.split} samples={len(samples)} loss={loss!r} accuracy={accuracy!r}")
    return 0


def cmd_predict(args) -> int:
    params = _load_model_for_inference(args)
    _, samples = _load_samples(args, params.shape)
    samples = sorted(samples, key=lambda s: s.id)
    _, _, probabilities = trainer.evaluate(params, samples)
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


def _load_reference(path: Path) -> dict[str, dict]:
    """An object of name -> {"parameters": int, "flops": int}."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # JSON syntax or text decoding
        raise ValueError(f"{path}: cannot parse reference costs: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: reference costs must be an object of name -> costs")
    for name, costs in doc.items():
        if not (isinstance(costs, dict) and set(costs) == {"parameters", "flops"}
                and all(type(v) is int for v in costs.values())):
            raise ValueError(f'{path}: reference {name!r} must be {{"parameters": int, '
                             f'"flops": int}}, got {costs!r}')
    return doc


def cmd_inspect_params(args) -> int:
    cfg = build_run_config(args)
    reference = _load_reference(Path(args.reference)) if args.reference else {}
    for title, costs in (("parameters", analysis.count_parameters(cfg.shape)),
                         ("flops per video", analysis.estimate_flops(cfg.shape))):
        print(f"{title}:")
        for name, value in costs.lines.items():
            print(f"  {name:<12} {value:>12,}")
        print(f"total {title}: {costs.total:,}")
    # External costs, echoed for side-by-side display only.
    for name, costs in reference.items():
        print(f"reference {name}: parameters={costs['parameters']:,} "
              f"flops={costs['flops']:,}")
    return 0


def cmd_export_responses(args) -> int:
    params = _load_model_for_inference(args)
    if not args.out:
        raise ValueError("--out is required")
    analysis.check_width(params.shape, args.width)
    _, samples = _load_samples(args, params.shape)
    path = analysis.export_responses(params, samples, args.width, args.out)
    print(f"wrote {path} ({len(samples)} rows)")
    return 0


def cmd_export_features(args) -> int:
    params = _load_model_for_inference(args)
    if not args.out:
        raise ValueError("--out is required")
    _, samples = _load_samples(args, params.shape)
    path = analysis.export_pooled_features(params, samples, args.out)
    print(f"wrote {path} ({len(samples)} rows)")
    return 0


def cmd_selftest(args) -> int:
    failures = selftest.run_selftest()
    return 3 if failures else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="din", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, sections=()):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if sections:
            _add_config_flags(p, sections)
        return p

    def checkpoint_command(name, fn, help_text):
        p = command(name, fn, help_text)
        p.add_argument("--checkpoint")
        p.add_argument("--manifest")
        p.add_argument("--split", default="val", choices=data_io.SPLITS)
        p.add_argument("--use-best", dest="use_best", action="store_true",
                       help="use the best-validation snapshot instead of the final model")
        return p

    p = command("synth", cmd_synth, "generate the synthetic temporal-order dataset",
                sections=("synth",))
    p.add_argument("--out-dir", dest="out_dir")

    p = command("train", cmd_train, "train a model on a manifest dataset",
                sections=("shape", "train"))
    p.add_argument("--manifest")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--resume", help="checkpoint to resume from")

    checkpoint_command("eval", cmd_eval, "eval a checkpoint on one split")
    p = checkpoint_command("predict", cmd_predict, "predict a checkpoint on one split")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = command("inspect-params", cmd_inspect_params, "print parameter/FLOP accounting",
                sections=("shape",))
    p.add_argument("--reference",
                   help="JSON file of external model costs to echo alongside")

    p = checkpoint_command("export-responses", cmd_export_responses,
                           "export per-window filter responses for one width")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--out")

    p = checkpoint_command("export-features", cmd_export_features,
                           "export pooled feature vectors plus the mean-frame baseline")
    p.add_argument("--out")

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
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Batch command line: tile | split | train | eval | synth | report.

Every command is deterministic given its config and seed. Each one but
``eval``, whose settings are the checkpoint's, checks its whole resolved
config (every section, not only the ones it reads) before it reads or
writes a file, and writes that config beside its outputs, so a rerun from
that file is byte-identical.
Relative output paths are resolved against the RUMEXDA_OUT_ROOT
environment variable when it is set. Every package error ends a command
with one ``error:`` line and exit code 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path

from . import config as cfgmod
from .adaptation import read_history_jsonl
from .errors import ConfigError, DataError, RumexdaError, ShapeError
from .evaluation import (
    confusion_from_predictions,
    format_report_table,
    report_from_counts,
    select_model_epoch,
    sigma_epochs,
)
from .experiment import run_strategy
from .files import csv_rows, csv_text, write_atomic
from .nn import load_checkpoint, save_checkpoint, trainable_parameter_count
from .synthdata import default_benchmark, generate, read_corpus_domains, write_corpus
from .tiling import (
    ManifestEntry,
    build_splits,
    label_counts,
    image_files,
    read_annotations,
    read_manifest,
    read_pnm,
    tile_image,
    write_manifest,
)

ERRORS = (RumexdaError, OSError)


def _out_path(path: str) -> Path:
    p = Path(path)
    root = os.environ.get("RUMEXDA_OUT_ROOT")
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def comma_ints(text: str) -> tuple[int, ...]:
    """``--hidden-dims 64,32`` -> (64, 32); argparse reports a ValueError."""
    return tuple(int(v) for v in text.split(","))


def _load_config(args) -> cfgmod.RunConfig:
    """The ``--config`` file (or the defaults) with the given flags applied
    and every section checked: the one place a command checks its settings,
    before it reads or writes a file. A flag whose dest is ``section.field``
    sets that config field."""
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    config = cfgmod.read_config(args.config) if args.config else cfgmod.RunConfig()
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, attr = dest.split(".")
            setattr(getattr(config, section), attr, value)
    if config.model.adaptation == "lora" and getattr(args, "model.unfreeze", None) is None:
        config.model.unfreeze = 0  # LoRA freezes the base; only an explicit flag conflicts
    config.validate()
    return config


# ----------------------------------------------------------------------
# tile


def _domain_lookup(args, known_ids: set[str]) -> dict[str, str]:
    """The ``--domain-map`` table; an image belongs to one domain, and each
    row names an image under ``--images-dir``."""
    table: dict[str, str] = {}
    if args.domain_map:
        for line_no, row in csv_rows(args.domain_map):
            if len(row) != 2:
                raise DataError(f"{args.domain_map}:{line_no}: expected image_id,domain_id rows")
            image_id, domain = row[0].strip(), row[1].strip()
            if image_id in table:
                raise DataError(f"{args.domain_map}:{line_no}: image {image_id!r} is mapped "
                                f"again, to {domain!r} after {table[image_id]!r}")
            if image_id not in known_ids:
                raise DataError(f"{args.domain_map}:{line_no}: image {image_id!r} is not under "
                                f"{args.images_dir}")
            table[image_id] = domain
    return table


def cmd_tile(args) -> int:
    config = _load_config(args)
    tc = config.tiling
    boxes = read_annotations(args.annotations)
    positives = [b for b in boxes if b.class_name == tc.positive_class]
    by_image: dict[str, list] = {}
    for b in positives:
        by_image.setdefault(b.image_id, []).append(b)

    images = image_files(args.images_dir)
    if not images:
        print(f"error: no PGM/PPM images under {args.images_dir}", file=sys.stderr)
        return 1
    known_ids = {image_id for image_id, _ in images}
    domain_map = _domain_lookup(args, known_ids)
    missing = sorted({b.image_id for b in positives} - known_ids)
    failures = list(missing)
    for image_id in missing:
        print(f"error: annotation references missing image {image_id!r}", file=sys.stderr)

    entries = []
    make_entry = ManifestEntry._make
    for image_id, path in images:
        try:
            height, width = read_pnm(path).shape[:2]
            records = tile_image(image_id, width, height, by_image.get(image_id, []),
                                 side=tc.tile_size, r_th=tc.r_threshold)
        except Exception as exc:  # per-image failure keeps the run going
            failures.append(image_id)
            print(f"error: {image_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        domain = domain_map.get(image_id, args.domain)
        entries.extend([make_entry((rec, "none", domain)) for rec in records])

    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_manifest(entries, out)  # unique tiles: distinct image ids, distinct origins
    cfgmod.write_config(config, out.with_suffix(out.suffix + ".config.txt"))
    counts = label_counts(e.record for e in entries)
    print(
        f"tiled {len(images) - len(failures) + len(missing)} images -> "
        f"{len(entries)} tiles (background={counts[0]} rumex={counts[1]} unclear={counts[2]})"
    )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# split


def cmd_split(args) -> int:
    config = _load_config(args)
    sc = config.split
    records, subset_of = [], {}
    for record, _, domain in read_manifest(args.manifest):
        records.append(record)
        if subset_of.setdefault(record.image_id, domain) != domain:  # one domain per image
            raise DataError(f"{args.manifest}: image {record.image_id!r} has tiles in domains "
                            f"{subset_of[record.image_id]!r} and {domain!r}")

    entries = build_splits(records, subset_of, sc.val_fraction, sc.mode, sc.seed)
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_manifest(entries, out)
    cfgmod.write_config(config, out.with_suffix(out.suffix + ".config.txt"))
    n_val = sum(1 for e in entries if e.split == "val")
    print(f"split {len(entries)} tiles: {len(entries) - n_val} train, {n_val} val")
    return 0


# ----------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    config = _load_config(args)
    sc = config.synth
    source_specs, target_spec = default_benchmark(
        n_sources=sc.sources,
        dim=sc.dim,
        n_samples=sc.samples,
        positive_fraction=sc.positive_fraction,
        target_shift=sc.target_shift,
        noise_sigma=sc.noise_sigma,
    )
    corpus = generate(source_specs, target_spec, seed=sc.seed, val_fraction=sc.val_fraction)
    out = _out_path(args.out)
    write_corpus(corpus, out)
    cfgmod.write_config(config, out / "config.txt")
    print(
        f"wrote corpus with {len(corpus.sources)} sources x {sc.samples} samples "
        f"(dim={sc.dim}) to {out}"
    )
    return 0


# ----------------------------------------------------------------------
# train


def _f1_text(f1) -> str:
    """An F1 for a summary line; ``none`` where a corpus gave no F1."""
    return "none" if f1 is None else f"{f1:.4f}"


def cmd_train(args) -> int:
    config = _load_config(args)
    sources, targets = read_corpus_domains(args.corpus)
    if len(targets) != 1:
        raise ConfigError(f"training expects exactly one target domain, found {len(targets)}")
    target = targets[0]
    train_cfg = config.training
    if train_cfg.strategy == "m3sda_beta" and len(sources) < 2:
        raise ConfigError(
            f"m3sda_beta needs at least 2 source domains, corpus has {len(sources)}"
        )
    config.model.input_dim = target.dim  # resolved config records the actual dim

    bundle, history = run_strategy(sources, target, config.model, train_cfg, eval_targets=[target])
    selected = select_model_epoch(history.val_f1_series(), train_cfg.warmup)
    bundle.restore(history.selected_snapshot)

    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfgmod.write_config(config, out / "config.txt")
    history.to_jsonl(out / "history.jsonl")
    save_checkpoint(bundle, out / "checkpoint.json")
    rec = history.records[selected - 1]
    print(
        f"trained {train_cfg.strategy} for {train_cfg.epochs} epochs; "
        f"selected epoch {selected} (val F1={_f1_text(rec.source_val_f1)}, "
        f"median target F1={_f1_text(rec.median_target_f1)})"
    )
    return 0


# ----------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    bundle = load_checkpoint(args.checkpoint)
    sources, targets = read_corpus_domains(args.corpus)
    flights = targets if not args.include_sources else sources + targets
    if not flights:
        raise DataError(f"{args.corpus}: corpus has no "
                        f"{'domain' if args.include_sources else 'target domain'}")
    dim = flights[0].dim
    if bundle.config.input_dim != dim:
        raise ShapeError(
            f"checkpoint expects input_dim={bundle.config.input_dim} "
            f"but the corpus has dim={dim}"
        )
    from .adaptation import predict_labels

    counts = {
        ds.domain_id: confusion_from_predictions(ds.labels, predict_labels(bundle, ds.features))
        for ds in flights
    }
    report = report_from_counts(counts)

    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "report.txt", format_report_table(report))
    write_atomic(out / "flights.csv", csv_text(
        [["domain_id", "tp", "fp", "fn", "tn", "precision", "recall", "f1", "included"]]
        + [[fl.domain_id, fl.counts.tp, fl.counts.fp, fl.counts.fn, fl.counts.tn,
            repr(fl.precision), repr(fl.recall), repr(fl.f1), int(fl.included)]
           for fl in report.flights]
    ))
    summary = {
        "median_f1": report.median_f1,
        "mean_f1": report.mean_f1,
        "sigma_flights": report.sigma_f1,
        "trainable_parameters": trainable_parameter_count(bundle),
        "strategy_pairs": bundle.pairs,
    }
    write_atomic(out / "summary.json", json.dumps(summary, sort_keys=True) + "\n")
    print(format_report_table(report), end="")
    return 0


# ----------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    config = _load_config(args)
    history = read_history_jsonl(args.history)
    if not history.records:
        raise DataError(f"{args.history}: empty history")
    # the epochs and warm-up train selected with, so config.txt reruns as a valid config
    config.training.epochs, config.training.warmup = len(history.records), history.warmup
    selected = select_model_epoch(history.val_f1_series(), history.warmup)
    sigma = sigma_epochs(history.median_target_series(), config.evaluation.window)
    rec = history.records[selected - 1]

    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfgmod.write_config(config, out / "config.txt")
    write_atomic(out / "f1_vs_epoch.csv", csv_text(
        [["epoch", "domain_id", "f1"]]
        + [[r.epoch, domain_id, repr(r.target_f1[domain_id])]
           for r in history.records for domain_id in sorted(r.target_f1)]
    ))
    write_atomic(out / "f1_vs_params.csv", csv_text([
        ["trainable_parameters", "strategy", "median_f1", "sigma_epochs"],
        [history.trainable_count, history.strategy,
         repr(rec.median_target_f1) if rec.median_target_f1 is not None else "none",
         repr(sigma)],
    ]))
    lines = [
        f"selected_epoch = {selected}",
        f"source_val_f1 = {rec.source_val_f1}",
        f"median_target_f1 = {rec.median_target_f1}",
        f"sigma_epochs = {sigma} (window={config.evaluation.window})",
    ]
    write_atomic(out / "selection.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


# ----------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process. ``main`` runs the ``cmd_<command>``
    global it finds when the command runs, so the parser binds no function."""
    parser = argparse.ArgumentParser(prog="rumexda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tile", help="convert box annotations into a tile manifest")
    p.add_argument("--annotations", required=True)
    p.add_argument("--images-dir", required=True)
    p.add_argument("--out", required=True, help="manifest file to write")
    p.add_argument("--config")
    p.add_argument("--tile-size", dest="tiling.tile_size", type=int)
    p.add_argument("--r-threshold", dest="tiling.r_threshold", type=float)
    p.add_argument("--positive-class", dest="tiling.positive_class")
    p.add_argument("--domain", default="d0", help="domain id for images not in --domain-map")
    p.add_argument("--domain-map", help="csv of image_id,domain_id pairs")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted (N >= 1) and unused: tile runs in one thread")

    p = sub.add_parser("split", help="assign leakage-safe train/val splits to a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--annotations", help="not read: the manifest carries each tile's plant ids")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--mode", dest="split.mode", choices=cfgmod.SPLIT_MODES)
    p.add_argument("--val-fraction", dest="split.val_fraction", type=float)
    p.add_argument("--seed", dest="split.seed", type=int)

    p = sub.add_parser("synth", help="generate a synthetic covariate-shift corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--sources", dest="synth.sources", type=int)
    p.add_argument("--dim", dest="synth.dim", type=int)
    p.add_argument("--samples", dest="synth.samples", type=int)
    p.add_argument("--positive-fraction", dest="synth.positive_fraction", type=float)
    p.add_argument("--target-shift", dest="synth.target_shift", type=float)
    p.add_argument("--noise-sigma", dest="synth.noise_sigma", type=float)
    p.add_argument("--val-fraction", dest="synth.val_fraction", type=float)
    p.add_argument("--seed", dest="synth.seed", type=int)

    p = sub.add_parser("train", help="train one strategy on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--strategy", dest="training.strategy", choices=cfgmod.STRATEGIES)
    p.add_argument("--lambda", dest="training.lam", type=float, metavar="TRAINING.LAMBDA")
    p.add_argument("--epochs", dest="training.epochs", type=int)
    p.add_argument("--warmup", dest="training.warmup", type=int)
    p.add_argument("--batch-size", dest="training.batch_size", type=int)
    p.add_argument("--lr", dest="training.lr", type=float)
    p.add_argument("--optimizer", dest="training.optimizer", choices=cfgmod.OPTIMIZERS)
    p.add_argument("--seed", dest="training.seed", type=int)
    p.add_argument("--hidden-dims", dest="model.hidden_dims", type=comma_ints)
    p.add_argument("--feature-dim", dest="model.feature_dim", type=int)
    p.add_argument("--unfreeze", dest="model.unfreeze", type=int)
    p.add_argument("--adaptation", dest="model.adaptation", choices=cfgmod.ADAPTATIONS)
    p.add_argument("--lora-rank", dest="model.lora_rank", type=int)

    p = sub.add_parser("eval", help="evaluate a checkpoint per target flight")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--include-sources", action="store_true")

    p = sub.add_parser("report", help="model selection and plot records from a history log")
    p.add_argument("--history", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--window", dest="evaluation.window", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # one stderr line per warning, not Python's location and source line
        warnings.showwarning = lambda message, *_, **__: print(f"warning: {message}",
                                                               file=sys.stderr)
        try:
            return globals()[f"cmd_{args.command}"](args)
        except ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

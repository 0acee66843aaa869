"""Command-line interface: gen-data, train, eval, explain, compare.

``gen-data`` writes ``<out>`` and ``<out>.manifest.json``.  ``train`` writes
``checkpoint.json``, ``history.json`` and ``manifest.json`` into ``--out``,
``explain`` a CSV and a JSON file per sample and ``manifest.json``, and
``compare`` ``comparison.json`` and ``manifest.json``.  ``eval`` writes no
manifest, only its report and only with ``--out``.  A manifest holds the
config snapshot, seeds and output inventory, enough to reproduce the run.
``gen-data``, ``train`` and ``compare`` read their config through one loader
that applies the command-line overrides and names the config file in every
error.  A checkpoint stands alone: it holds the trained model and
the frozen prototype extractor it was trained against, so ``eval`` and
``explain`` read only the checkpoint and the data file, whose factor columns
(if any) must be the checkpoint's, in its order.
Exit codes: 0 success, 2 config/validation error, 3 training divergence,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .data import (Dataset, SynthConfig, config_from_doc, config_to_doc, generate_synthetic,
                   joint_probability_table, json_field, load_table, save_dataset, split)
from .explain import explain_sample, explanation_to_csv_text, explanation_to_doc
from .metrics import accuracy, disentanglement_report, separation_report, zero_block_activity
from .model import (
    classifier_from_doc,
    classifier_to_doc,
    embedder_from_doc,
    embedder_to_doc,
    forward,
)
from .prototypes import (
    FactorCodedExtractor,
    class_orthogonal_extractor,
    extractor_from_doc,
    extractor_to_doc,
    fit_factor_coder,
)
from .training import DivergenceError, TrainConfig, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

CHECKPOINT_FORMAT = "model-checkpoint"
CHECKPOINT_VERSION = 2


class ConfigError(ValueError):
    pass


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None


def _load_config(path, config_class, **overrides):
    """The ``config_class`` config in the JSON file ``path``, with the
    command-line overrides that were given (not None) applied."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    version = doc.get("schema_version", 1)
    if version != 1:
        raise ConfigError(f"{path}: unsupported schema_version {version!r}")
    doc.update({key: value for key, value in overrides.items() if value is not None})
    try:
        return config_from_doc(config_class, doc)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_text(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _manifest(command: str, config_doc, seeds: dict, inputs: dict, outputs) -> dict:
    return {
        "format": "run-manifest",
        "version": 2,
        "command": command,
        "package_version": __version__,
        "created_utc": _utc_now(),
        "config": config_doc,
        "seeds": seeds,
        "inputs": inputs,
        "outputs": list(outputs),
    }


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _table(rows, header) -> str:
    """Aligned plain-text table."""
    rows = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for r, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# ---------------------------------------------------------------- commands


def cmd_gen_data(args) -> int:
    config = _load_config(args.config, SynthConfig, seed=args.seed)
    dataset = generate_synthetic(config)
    save_dataset(dataset, args.out)
    manifest = _manifest(
        "gen-data",
        config_to_doc(config),
        {"seed": config.seed},
        {"config": str(args.config)},
        [os.path.basename(str(args.out))],
    )
    _write_json(str(args.out) + ".manifest.json", manifest)
    _say(args, f"wrote {dataset.n} samples ({dataset.class_count} classes, "
               f"{dataset.factor_count} factors) to {args.out}")
    return EXIT_OK


def _build_extractor(config: TrainConfig, train_set: Dataset):
    """Extractor per config, or None when training uses no prototypes.

    The factor coder is fit on the training split.
    """
    if not config.uses_prototypes:
        return None
    if config.extractor["kind"] == "class-orthogonal":
        seed = config.extractor.get("seed", config.seed)
        return class_orthogonal_extractor(train_set.class_count, config.embedding_dim, seed)
    if train_set.factors is None:  # factor-coded, the one other kind TrainConfig accepts
        raise ConfigError("factor-coded extractor needs a dataset with factor columns")
    coder = fit_factor_coder(
        [train_set.factors[:, i] for i in range(train_set.factor_count)],
        names=train_set.factor_names,
    )
    return FactorCodedExtractor(coder, config.embedding_dim)


def _checkpoint_doc(embedder, classifier, extractor, dataset, config) -> dict:
    # The trained predictor and the frozen extractor it was trained against
    # (null when training used no prototypes); the loss settings live in
    # manifest.json alongside it.
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "input_dim": dataset.input_dim,
        "embedding_dim": config.embedding_dim,
        "class_count": dataset.class_count,
        "class_names": list(dataset.class_names),
        "factor_names": list(dataset.factor_names),
        "seed": config.seed,
        "embedder": embedder_to_doc(embedder),
        "classifier": classifier_to_doc(classifier),
        "extractor": None if extractor is None else extractor_to_doc(extractor),
    }


def _load_checkpoint(path):
    """The checkpoint document, its model and its extractor, every field checked.

    Returns (doc, embedder, classifier, extractor); the extractor is None
    for a model trained without prototypes.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a {CHECKPOINT_FORMAT} document")
    try:
        version = json_field(doc, "version", int)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"checkpoint version {version} is not supported, "
                             f"only version {CHECKPOINT_VERSION}; retrain to write one")
        for key in ("input_dim", "embedding_dim", "class_count", "seed"):
            json_field(doc, key, int)
        for key in ("class_names", "factor_names"):
            if not all(type(name) is str for name in json_field(doc, key, list)):
                raise TypeError(f"field {key!r} must list strings")
        embedder = embedder_from_doc(json_field(doc, "embedder", dict))
        classifier = classifier_from_doc(json_field(doc, "classifier", dict))
        extractor_doc = json_field(doc, "extractor", dict, type(None))
        extractor = None if extractor_doc is None else extractor_from_doc(extractor_doc)
    except KeyError as e:
        raise ConfigError(f"{path}: missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from None
    found = {
        "input_dim": embedder.input_dim,
        "embedding_dim": embedder.embedding_dim,
        "class_count": classifier.class_count,
    }
    for key, value in found.items():
        if doc[key] != value:
            raise ConfigError(f"{path}: field {key!r} is {doc[key]}, the parameters give {value}")
    if len(doc["class_names"]) != doc["class_count"]:
        raise ConfigError(f"{path}: {len(doc['class_names'])} class names for {doc['class_count']} classes")
    if extractor is not None:
        found = {"embedding_dim": extractor.embedding_dim}
        if extractor.kind == "class-orthogonal":
            found["class_count"] = extractor.class_count
        else:
            found["factor_names"] = list(extractor.coder.names)
        for key, value in found.items():
            if doc[key] != value:
                raise ConfigError(f"{path}: field {key!r} is {doc[key]}, the extractor gives {value}")
    return doc, embedder, classifier, extractor


def _load_model_and_data(checkpoint_path, data_path):
    """A checked checkpoint and the data file read against it.

    A data file with factor columns must name the checkpoint's factors in the
    checkpoint's order; one without factor columns is read without factors.
    Returns (doc, embedder, classifier, extractor, dataset).
    """
    doc, embedder, classifier, extractor = _load_checkpoint(checkpoint_path)
    dataset = load_table(data_path, class_names=doc["class_names"])
    if dataset.input_dim != doc["input_dim"]:
        raise ConfigError(
            f"checkpoint expects input_dim {doc['input_dim']}, dataset has {dataset.input_dim}"
        )
    if dataset.factor_names:
        pairs = itertools.zip_longest(dataset.factor_names, doc["factor_names"])
        for i, (found, expected) in enumerate(pairs):
            if found != expected:
                raise ConfigError(f"{data_path}: factor column {i} is {found!r}, "
                                  f"the checkpoint's is {expected!r}")
    return doc, embedder, classifier, extractor, dataset


def _prototypes(extractor, dataset: Dataset):
    """The fixed prototypes of the dataset's rows; None without an extractor
    or, for a factor-coded one, without factor values."""
    targets = None if extractor is None else extractor.targets(dataset.Y, dataset.factors)
    return None if targets is None else extractor.extract_batch(targets)


def _run_training(dataset: Dataset, config: TrainConfig):
    """Split, fit the coder on the training side, build the extractor, train.

    Returns (embedder, classifier, history, extractor, val_set).
    """
    if config.train_fraction < 1.0:
        train_set, val_set = split(dataset, config.train_fraction, config.seed)
    else:
        train_set, val_set = dataset, None
    extractor = _build_extractor(config, train_set)
    embedder, classifier, history = train(train_set, extractor, config, val=val_set)
    return embedder, classifier, history, extractor, val_set


def cmd_train(args) -> int:
    config = _load_config(args.config, TrainConfig, seed=args.seed, lambda_p=args.lambda_p, loss=args.loss)
    dataset = load_table(args.data)

    # Validate everything before creating any output.
    embedder, classifier, history, extractor, _ = _run_training(dataset, config)

    os.makedirs(args.out, exist_ok=True)
    _write_json(
        os.path.join(args.out, "checkpoint.json"),
        _checkpoint_doc(embedder, classifier, extractor, dataset, config),
    )
    _write_json(os.path.join(args.out, "history.json"), history)
    manifest = _manifest(
        "train",
        config_to_doc(config),
        {"seed": config.seed},
        {"config": str(args.config), "data": str(args.data)},
        ["checkpoint.json", "history.json", "manifest.json"],
    )
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    final = history["rows"][-1]
    val_part = "" if final["val_accuracy"] is None else f", val_accuracy={final['val_accuracy']:.4f}"
    _say(args, f"trained {config.epochs} epochs: loss={final['total_loss']:.4f}, "
               f"train_accuracy={final['train_accuracy']:.4f}{val_part}")
    _say(args, f"outputs in {args.out}")
    return EXIT_OK


def _eval_doc(embedder, classifier, extractor, dataset: Dataset) -> dict:
    trace = forward(embedder, classifier, dataset.X)
    disentanglement = None
    joint = None
    zero_block = None
    if extractor is not None and extractor.kind == "factor-coded" and dataset.factors is not None:
        levels = extractor.coder.level_indices(dataset.factors)
        disentanglement = disentanglement_report(trace.z, levels, extractor.layout)
        joint = joint_probability_table(dataset, extractor.coder).tolist()
        if extractor.layout.zero_dim > 0:
            zero_block = zero_block_activity(trace.z, extractor.layout).tolist()
    return {
        "format": "eval-report",
        "version": 1,
        "n_samples": dataset.n,
        "accuracy": accuracy(trace.probs, dataset.Y),
        "separation": separation_report(trace.z, dataset.Y, _prototypes(extractor, dataset)),
        "disentanglement": disentanglement,
        "zero_block_mean_abs_per_dim": zero_block,
        "joint_probabilities": joint,
    }


def _print_eval(args, report: dict) -> None:
    if args.quiet:
        return
    sep = report["separation"]
    rows = [
        ["accuracy", f"{report['accuracy']:.4f}"],
        ["mean |cos| between class centroids", f"{sep['mean_abs_cos']:.4f}"],
        ["max |cos| between class centroids", f"{sep['max_abs_cos']:.4f}"],
        ["mean within-class distance", f"{sep['mean_within_class_dist']:.4f}"],
    ]
    if sep["mean_prototype_dist"] is not None:
        rows.append(["mean embedding-to-prototype distance", f"{sep['mean_prototype_dist']:.4f}"])
    print(_table(rows, ["metric", "value"]))
    if report["disentanglement"] is not None:
        rows = []
        for f in report["disentanglement"]["factors"]:
            rows.append([
                f["name"],
                f"{f['designated_accuracy']:.4f}",
                "-" if f["zero_block_accuracy"] is None else f"{f['zero_block_accuracy']:.4f}",
                "-" if f["other_factors_accuracy"] is None else f"{f['other_factors_accuracy']:.4f}",
            ])
        print()
        print(_table(rows, ["factor", "own dims", "zero block", "other dims"]))


def cmd_eval(args) -> int:
    _, embedder, classifier, extractor, dataset = _load_model_and_data(args.checkpoint, args.data)
    for name, count in zip(dataset.class_names, dataset.Y.sum(axis=0)):
        if count == 0:
            raise ConfigError(f"{args.data}: class {name!r} has no rows; eval needs every class "
                              f"of the checkpoint")
    try:
        report = _eval_doc(embedder, classifier, extractor, dataset)
    except ValueError as e:  # a data file the metrics cannot score, such as one too small to probe
        raise ConfigError(f"{args.data}: {e}") from None
    _print_eval(args, report)
    if args.out is not None:
        _write_json(args.out, report)
        _say(args, f"report written to {args.out}")
    return EXIT_OK


def _parse_ids(flag: str, text: str) -> list:
    """The comma-separated integer ids given to ``flag``: at least one, none twice."""
    ids = {}
    for cell in text.split(","):
        if cell.strip() == "":
            continue
        try:
            i = int(cell)
        except ValueError:
            raise ConfigError(f"{flag}: {cell.strip()!r} is not an integer") from None
        if i in ids:
            raise ConfigError(f"{flag}: {i} is listed twice")
        ids[i] = None
    if not ids:
        raise ConfigError(f"{flag}: empty list")
    return list(ids)


def cmd_explain(args) -> int:
    doc, embedder, classifier, extractor, dataset = _load_model_and_data(args.checkpoint, args.data)
    layout = extractor.layout if extractor is not None and extractor.kind == "factor-coded" else None
    ids = list(range(dataset.n)) if args.samples == "all" else _parse_ids("--samples", args.samples)
    for i in ids:
        if not 0 <= i < dataset.n:
            raise ConfigError(f"--samples: sample {i} out of range [0, {dataset.n})")
    # Explained before the output directory exists: explain_sample raises if
    # the relevance identity fails, and then nothing must have been written.
    explanations = explain_sample(
        embedder,
        classifier,
        dataset.X[ids],
        sample_ids=ids,
        layout=layout,
        class_names=dataset.class_names,
    )
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for expl in explanations:
        base = f"sample_{expl.sample_id:05d}"
        _write_text(os.path.join(args.out, base + ".csv"), explanation_to_csv_text(expl))
        _write_json(os.path.join(args.out, base + ".json"), explanation_to_doc(expl))
        outputs.extend([base + ".csv", base + ".json"])
    manifest = _manifest(
        "explain",
        {"samples": args.samples},
        {"seed": doc["seed"]},
        {"checkpoint": str(args.checkpoint), "data": str(args.data)},
        outputs,
    )
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    _say(args, f"wrote {len(ids)} explanation(s) to {args.out}")
    return EXIT_OK


def _comparison_run(dataset: Dataset, config: TrainConfig) -> dict:
    """One training run scored on its held-out split."""
    embedder, classifier, history, extractor, val_set = _run_training(dataset, config)
    trace = forward(embedder, classifier, val_set.X)
    sep = separation_report(trace.z, val_set.Y, _prototypes(extractor, val_set))
    return {
        "seed": config.seed,
        "accuracy": accuracy(trace.probs, val_set.Y),
        "mean_abs_cos": sep["mean_abs_cos"],
        "mean_prototype_dist": sep["mean_prototype_dist"],
        "final_train_accuracy": history["rows"][-1]["train_accuracy"],
    }


def run_comparison(dataset: Dataset, config: TrainConfig, seeds) -> dict:
    """Train the prototype loss and the CE baseline over the given seeds.

    Each (loss, seed) run is independent and internally deterministic.
    Raises ``ValueError`` for an empty seed list or a repeated seed.
    """
    if config.train_fraction >= 1.0:
        raise ConfigError("compare needs train_fraction < 1 for a held-out split")
    if not seeds:
        raise ValueError("compare needs at least one seed")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValueError(f"seed {seed} is listed twice")
    systems = {}
    for loss_kind, name in (("proto", "predefined-prototype"), ("ce", "cross-entropy")):
        runs = [_comparison_run(dataset, dataclasses.replace(config, loss=loss_kind, seed=seed))
                for seed in seeds]
        acc = np.array([r["accuracy"] for r in runs])
        cos = np.array([r["mean_abs_cos"] for r in runs])
        ddof = 1 if len(runs) > 1 else 0
        systems[name] = {
            "accuracy_mean": float(acc.mean()),
            "accuracy_std": float(acc.std(ddof=ddof)),
            "mean_abs_cos_mean": float(cos.mean()),
            "mean_abs_cos_std": float(cos.std(ddof=ddof)),
            "runs": runs,
        }
    return {
        "format": "comparison",
        "version": 1,
        "seeds": list(seeds),
        "config": config_to_doc(config),
        "systems": systems,
    }


def cmd_compare(args) -> int:
    config = _load_config(args.config, TrainConfig, seed=args.seed)
    if args.seeds is not None:
        seeds = _parse_ids("--seeds", args.seeds)
    elif args.num_seeds < 1:
        raise ConfigError(f"--num-seeds: {args.num_seeds} is less than 1")
    else:
        seeds = [config.seed + i for i in range(args.num_seeds)]
    dataset = load_table(args.data)
    comparison = run_comparison(dataset, config, seeds)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "comparison.json"), comparison)
    manifest = _manifest(
        "compare",
        config_to_doc(config),
        {"seeds": seeds},
        {"config": str(args.config), "data": str(args.data)},
        ["comparison.json", "manifest.json"],
    )
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    if not args.quiet:
        rows = []
        for name, s in comparison["systems"].items():
            rows.append([
                name,
                f"{s['accuracy_mean']:.4f} ± {s['accuracy_std']:.4f}",
                f"{s['mean_abs_cos_mean']:.4f} ± {s['mean_abs_cos_std']:.4f}",
            ])
        print(_table(rows, ["system", "accuracy", "centroid |cos|"]))
        print(f"\noutputs in {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixedproto",
        description="Train embedders against fixed, human-specified prototypes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("data", help="dataset file")
    p.add_argument("--config", required=True, help="training config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--lambda-p", type=float, default=None, dest="lambda_p",
                   help="override the prototype term weight")
    p.add_argument("--loss", choices=("proto", "ce"), default=None, help="override the loss")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("checkpoint", help="checkpoint.json from train")
    p.add_argument("data", help="dataset file")
    p.add_argument("--out", default=None, help="write the metrics JSON here")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", help="export per-sample relevance explanations")
    p.add_argument("checkpoint", help="checkpoint.json from train")
    p.add_argument("data", help="dataset file")
    p.add_argument("--samples", default="0", help="'all' or comma-separated sample indices")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("compare", help="prototype loss vs cross-entropy over several seeds")
    p.add_argument("data", help="dataset file")
    p.add_argument("--config", required=True, help="training config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--seeds", default=None, help="comma-separated explicit seed list")
    p.add_argument("--num-seeds", type=int, default=3, help="number of seeds when --seeds is absent")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

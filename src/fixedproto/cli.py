"""Command-line interface: gen-data, train, eval, explain, compare.

``gen-data`` writes ``<out>`` and ``<out>.manifest.json``.  ``train`` writes
``checkpoint.json``, ``history.json`` and ``manifest.json`` into ``--out``,
``explain`` a CSV and a JSON file per sample and ``manifest.json``, and
``compare`` ``comparison.json`` and ``manifest.json``; one writer creates
each ``--out`` directory and writes its files and manifest.  ``eval`` writes
no manifest, only its report and only with ``--out``.  A manifest holds the
config snapshot, seeds and the names of every file its command wrote, itself
included: enough to reproduce the run.
``gen-data``, ``train`` and ``compare`` read their config through one loader
that applies the command-line overrides; an error names the config file or,
when the file alone is valid, the flag and value of the override at fault.
A checkpoint stands alone: it holds the trained model and the frozen
prototype extractor it was trained against, in a format that only this
module writes and reads, so ``eval`` and ``explain`` read only the
checkpoint and the data file, whose factor columns (if any) must be the
checkpoint's, in its order.
Exit codes: 0 success, 2 config/validation error, 3 training divergence,
4 I/O or memory failure.
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
from .data import (Dataset, SynthConfig, config_from_doc, config_to_doc, generate_synthetic, json_field,
                   json_numbers, load_table, save_dataset, split)
from .explain import check_explainable, explain_sample, explanation_to_csv_text, explanation_to_doc
from .metrics import (accuracy, disentanglement_report, joint_probability_table, separation_report,
                      zero_block_activity)
from .model import forward, param_count, param_views
from .prototypes import (
    FactorCodedExtractor,
    class_orthogonal_extractor,
    extractor_from_doc,
    extractor_to_doc,
    fit_factor_coder,
)
from .training import DivergenceError, TrainConfig, train, train_runs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

CHECKPOINT_FORMAT = "model-checkpoint"
CHECKPOINT_VERSION = 2

# The largest model ``train`` and ``compare`` build: 10**8 float64 parameters
# are 0.8 GB, and training holds six vectors of that size (the parameters, the
# gradient, Adam's two moments and two scratch vectors).  A stack of R runs
# holds six of R times that size (and one of one run's size for the per-run
# accuracy passes), so ``compare`` stacks at most ``MAX_PARAMETERS``
# parameters.
MAX_PARAMETERS = 10**8

# The most runs ``compare`` trains as one stack: 3 runs sharing each step's
# dispatch cost measured fastest on a 2-core host, and 6 no faster.
MAX_STACK = 3


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    """A data file that training cannot use as the config asks; the command
    that read the file names it."""


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text ({e})") from None


def _load_config(path, config_class, **overrides):
    """The ``config_class`` config in the JSON file ``path``, with the
    command-line overrides that were given (not None) applied.  An error names
    the file or, when the file alone is valid, the flag and value at fault."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    version = doc.get("schema_version", 1)
    if type(version) is not int or version != 1:
        raise ConfigError(f"{path}: unsupported schema_version {version!r}")
    given = {key: value for key, value in overrides.items() if value is not None}

    def build(source, **fields):
        try:
            return config_from_doc(config_class, {**doc, **fields})
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{source}: {e}") from None

    try:
        return build(path, **given)
    except ConfigError:
        build(path)  # the file alone, then each override alone on it
        for key, value in given.items():
            build(f"--{key.replace('_', '-')} {value}", **{key: value})
        raise


def _write(path, content) -> None:
    """Write a str as it is, anything else as an indented JSON document; a
    document holding NaN or an infinity is refused, naming ``path``, before
    the file is opened."""
    if not isinstance(content, str):
        try:
            content = json.dumps(content, indent=2, allow_nan=False) + "\n"
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def _manifest(command: str, config_doc, seeds: dict, inputs: dict, outputs: list) -> dict:
    return {
        "format": "run-manifest",
        "version": 2,
        "command": command,
        "package_version": __version__,
        "created_utc": _utc_now(),
        "config": config_doc,
        "seeds": seeds,
        "inputs": inputs,
        "outputs": outputs,
    }


def _write_run(out, files, command: str, config_doc, seeds: dict, inputs: dict) -> None:
    """Create the directory ``out`` and write each ``(name, JSON document or
    text)`` of ``files`` into it, then ``manifest.json``, whose ``outputs``
    are the names written and its own."""
    os.makedirs(out, exist_ok=True)
    outputs = []
    for name, content in files:
        _write(os.path.join(out, name), content)
        outputs.append(name)
    outputs.append("manifest.json")
    _write(os.path.join(out, "manifest.json"), _manifest(command, config_doc, seeds, inputs, outputs))


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
    manifest = str(args.out) + ".manifest.json"
    outputs = [os.path.basename(str(args.out)), os.path.basename(manifest)]
    _write(manifest, _manifest("gen-data", config_to_doc(config), {"seed": config.seed},
                               {"config": str(args.config)}, outputs))
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
    # factor-coded, the one other kind TrainConfig accepts
    return FactorCodedExtractor(fit_factor_coder(train_set), config.embedding_dim)


def _check_model(config_path, config: TrainConfig, data_path, dataset: Dataset) -> None:
    """Refuse, naming the config file and the field, a model of more than
    ``MAX_PARAMETERS`` parameters, before any of it is allocated, and a
    factor-coded ``embedding_dim`` below 3 dimensions per factor of the data."""
    count = param_count((dataset.input_dim, *config.hidden_dims, config.embedding_dim, dataset.class_count))
    if count > MAX_PARAMETERS:
        field = "hidden_dims" if max(config.hidden_dims, default=0) >= config.embedding_dim else "embedding_dim"
        raise ConfigError(f"{config_path}: field {field!r} gives a model of {count} parameters on "
                          f"{dataset.input_dim} features, more than the limit of {MAX_PARAMETERS}")
    need = 3 * dataset.factor_count
    if config.uses_prototypes and config.extractor["kind"] == "factor-coded" and config.embedding_dim < need:
        raise ConfigError(f"{config_path}: field 'embedding_dim' is {config.embedding_dim}, too small for the "
                          f"{dataset.factor_count} factors of {data_path} (needs >= {need})")


def _activation(i: int, layer_count: int) -> str:
    """The activation of embedder layer ``i``, which its position decides."""
    return "relu" if i < layer_count - 1 else "identity"


def _checkpoint_doc(widths, params, extractor, dataset, config) -> dict:
    # The trained predictor and the frozen extractor it was trained against
    # (null when training used no prototypes); the loss settings live in
    # manifest.json alongside it.
    layers, head = param_views(widths, params)
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "input_dim": widths[0],
        "embedding_dim": widths[-2],
        "class_count": widths[-1],
        "class_names": list(dataset.class_names),
        "factor_names": list(dataset.factor_names),
        "seed": config.seed,
        "embedder": {"layers": [{"weight": weight.tolist(), "bias": bias.tolist(),
                                 "activation": _activation(i, len(layers))}
                                for i, (weight, bias) in enumerate(layers)]},
        "classifier": {"weight": head.tolist()},
        "extractor": None if extractor is None else extractor_to_doc(extractor),
    }


def _matrix(value, name: str) -> np.ndarray:
    """The JSON list ``value`` as a float64 matrix with at least one entry."""
    array = json_numbers(value, name, 2)
    if array.ndim != 2 or array.size == 0:
        raise ValueError(f"field {name!r} must be a non-empty list of lists of numbers")
    return array


def _load_checkpoint(path):
    """The checkpoint document, its model and its extractor, every field checked.

    Returns (doc, widths, params, extractor); the extractor is None for a
    model trained without prototypes.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a {CHECKPOINT_FORMAT} document")
    try:
        version = json_field(doc, "version", int)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"checkpoint version {version} is not supported, "
                             f"only version {CHECKPOINT_VERSION}; retrain to write one")
        if json_field(doc, "seed", int) < 0:
            raise ValueError(f"field 'seed' is {doc['seed']}, expected an integer >= 0")
        for key in ("class_names", "factor_names"):
            names = json_field(doc, key, list)
            if not all(type(name) is str for name in names):
                raise TypeError(f"field {key!r} must list strings")
            repeated = [name for i, name in enumerate(names) if name in names[:i]]
            if repeated:
                raise ValueError(f"field {key!r} lists {repeated[0]!r} more than once")
        entries = json_field(json_field(doc, "embedder", dict), "layers", list)
        if not entries:
            raise ValueError("field 'embedder.layers' lists no layer")
        layers = []  # (weight, bias) pairs
        for i, entry in enumerate(entries):
            at = f"embedder.layers[{i}]"
            weight = _matrix(json_field(entry, "weight", list, at=at), f"{at}.weight")
            bias = json_numbers(json_field(entry, "bias", list, at=at), f"{at}.bias", 1)
            if layers and weight.shape[1] != len(layers[-1][1]):
                raise ValueError(f"field '{at}.weight' has {weight.shape[1]} columns, "
                                 f"expected the {len(layers[-1][1])} outputs of layer {i - 1}")
            if bias.shape != weight.shape[:1]:
                raise ValueError(f"field '{at}.bias' has {bias.size} entries, "
                                 f"expected the {weight.shape[0]} rows of its weight")
            activation, expected = json_field(entry, "activation", str, at=at), _activation(i, len(entries))
            if activation != expected:
                raise ValueError(f"field '{at}.activation' is {activation!r}, "
                                 f"expected {expected!r} at layer {i} of {len(entries)}")
            layers.append((weight, bias))
        weight = json_field(json_field(doc, "classifier", dict), "weight", list, at="classifier")
        head = _matrix(weight, "classifier.weight")
        extractor_doc = json_field(doc, "extractor", dict, type(None))
        extractor = None if extractor_doc is None else extractor_from_doc(extractor_doc, at="extractor")
        widths = (layers[0][0].shape[1], *[len(bias) for _, bias in layers], head.shape[1])
        # Each envelope field against every array or object of the document that gives it.
        checks = [("input_dim", widths[0], "the parameters give"),
                  ("embedding_dim", widths[-2], "the parameters give"),
                  ("embedding_dim", head.shape[0], "the rows of 'classifier.weight' give"),
                  ("class_count", widths[-1], "the parameters give"),
                  ("class_count", len(doc["class_names"]), "field 'class_names' lists")]
        if extractor is not None:
            checks.append(("embedding_dim", extractor.embedding_dim, "the extractor gives"))
            if extractor.kind == "class-orthogonal":
                checks.append(("class_count", extractor.class_count, "the extractor gives"))
            else:
                checks.append(("factor_names", list(extractor.names), "the extractor gives"))
        for key, value, source in checks:
            if json_field(doc, key, type(value)) != value:
                raise ValueError(f"field {key!r} is {doc[key]}, {source} {value}")
    except KeyError as e:
        raise ConfigError(f"{path}: missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from None
    params = np.concatenate([a.ravel() for layer in layers for a in layer] + [head.ravel()])
    return doc, widths, params, extractor


def _load_model_and_data(checkpoint_path, data_path):
    """A checked checkpoint and the data file read against it.

    A data file with factor columns must name the checkpoint's factors in the
    checkpoint's order; one without factor columns is read without factors.
    Returns (doc, widths, params, extractor, dataset).
    """
    doc, widths, params, extractor = _load_checkpoint(checkpoint_path)
    dataset = load_table(data_path, class_names=doc["class_names"])
    if dataset.input_dim != widths[0]:
        raise ConfigError(f"{data_path}: the data has {dataset.input_dim} features, the checkpoint "
                          f"{checkpoint_path} expects input_dim {widths[0]}")
    if dataset.factor_names:
        pairs = itertools.zip_longest(dataset.factor_names, doc["factor_names"])
        for i, (found, expected) in enumerate(pairs):
            if found != expected:
                raise ConfigError(f"{data_path}: factor column {i} is {found!r}, "
                                  f"the checkpoint's is {expected!r}")
    return doc, widths, params, extractor, dataset


def _prototypes(extractor, dataset: Dataset):
    """The fixed prototypes of the dataset's rows; None without an extractor
    or, for a factor-coded one, without factor values."""
    targets = None if extractor is None else extractor.targets(dataset)
    return None if targets is None else extractor.extract_batch(targets)


def _training_run(dataset: Dataset, config: TrainConfig) -> tuple:
    """Split and build the extractor (fitting the coder on the training side):
    the run ``(train_set, extractor, config, val_set)`` that training takes.

    Raises ``DataError`` for a dataset that cannot be split or coded as the
    config asks.
    """
    try:
        if config.train_fraction < 1.0:
            train_set, val_set = split(dataset, config.train_fraction, config.seed)
        else:
            train_set, val_set = dataset, None
        return train_set, _build_extractor(config, train_set), config, val_set
    except ValueError as e:
        raise DataError(str(e)) from None


def cmd_train(args) -> int:
    config = _load_config(args.config, TrainConfig, seed=args.seed, lambda_p=args.lambda_p, loss=args.loss)
    dataset = load_table(args.data)
    _check_model(args.config, config, args.data, dataset)

    # Validate everything before creating any output.
    try:
        train_set, extractor, _, val_set = _training_run(dataset, config)
    except DataError as e:
        raise ConfigError(f"{args.data}: {e}") from None
    widths, params, history = train(train_set, extractor, config, val=val_set)

    files = [("checkpoint.json", _checkpoint_doc(widths, params, extractor, dataset, config)),
             ("history.json", history)]
    _write_run(args.out, files, "train", config_to_doc(config), {"seed": config.seed},
               {"config": str(args.config), "data": str(args.data)})
    final = history["rows"][-1]
    val_part = "" if final["val_accuracy"] is None else f", val_accuracy={final['val_accuracy']:.4f}"
    _say(args, f"trained {config.epochs} epochs: loss={final['total_loss']:.4f}, "
               f"train_accuracy={final['train_accuracy']:.4f}{val_part}")
    _say(args, f"outputs in {args.out}")
    return EXIT_OK


def _eval_doc(widths, params, extractor, dataset: Dataset) -> dict:
    with np.errstate(over="ignore", invalid="ignore"):  # check_explainable reports what overflows
        trace = forward(widths, params, dataset.X)
    check_explainable(param_views(widths, params)[1], trace)
    disentanglement = None
    joint = None
    zero_block = None
    if isinstance(extractor, FactorCodedExtractor) and dataset.factors is not None:
        levels = extractor.coder.level_indices(dataset.factors)
        disentanglement = disentanglement_report(trace.z, levels, extractor)
        joint = joint_probability_table(levels, dataset.Y).tolist()
        if extractor.zero_dim > 0:
            zero_block = zero_block_activity(trace.z, extractor).tolist()
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
    _, widths, params, extractor, dataset = _load_model_and_data(args.checkpoint, args.data)
    for name, count in zip(dataset.class_names, dataset.Y.sum(axis=0)):
        if count == 0:
            raise ConfigError(f"{args.data}: class {name!r} has no rows; eval needs every class "
                              f"of the checkpoint")
    try:
        report = _eval_doc(widths, params, extractor, dataset)
    except ValueError as e:  # a data file the metrics cannot score, such as one too small to probe
        raise ConfigError(f"{args.data}: {e}") from None
    _print_eval(args, report)
    if args.out is not None:
        _write(args.out, report)
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
    doc, widths, params, extractor, dataset = _load_model_and_data(args.checkpoint, args.data)
    ids = list(range(dataset.n)) if args.samples == "all" else _parse_ids("--samples", args.samples)
    for i in ids:
        if not 0 <= i < dataset.n:
            raise ConfigError(f"--samples: sample {i} out of range [0, {dataset.n})")
    # Explained before the output directory exists: explain_sample raises if
    # a sample is beyond the model's range or the relevance identity fails,
    # and then nothing must have been written.
    try:
        expl = explain_sample(
            widths,
            params,
            dataset.X[ids],
            sample_ids=ids,
            layout=extractor if isinstance(extractor, FactorCodedExtractor) else None,
            class_names=dataset.class_names,
        )
    except ValueError as e:
        raise ConfigError(f"{args.data}: {e}") from None
    # A generator: each file is serialized only as it is written, so all of them are never held at once.
    files = ((f"sample_{sample_id:05d}{ext}", serialize(expl, i))
             for i, sample_id in enumerate(expl["sample_ids"])
             for ext, serialize in ((".csv", explanation_to_csv_text), (".json", explanation_to_doc)))
    _write_run(args.out, files, "explain", {"samples": args.samples}, {"seed": doc["seed"]},
               {"checkpoint": str(args.checkpoint), "data": str(args.data)})
    _say(args, f"wrote {len(ids)} explanation(s) to {args.out}")
    return EXIT_OK


def _comparison_runs(dataset: Dataset, configs) -> list:
    """Set up the configs' runs, then train them as one stack; score each on
    its held-out split.

    A run that cannot be set up raises its ``DataError`` before the stack
    trains.  Training scores each run once, after its last epoch, and only on
    its training split: the held-out split is scored here, once.
    """
    runs = [_training_run(dataset, config) for config in configs]
    without_val = [(train_set, extractor, config, None) for train_set, extractor, config, _ in runs]
    results = train_runs(without_val, score_every_epoch=False)
    records = []
    for (_, extractor, config, val_set), (widths, params, history) in zip(runs, results):
        trace = forward(widths, params, val_set.X)
        sep = separation_report(trace.z, val_set.Y, _prototypes(extractor, val_set))
        records.append({
            "seed": config.seed,
            "accuracy": accuracy(trace.probs, val_set.Y),
            "mean_abs_cos": sep["mean_abs_cos"],
            "mean_prototype_dist": sep["mean_prototype_dist"],
            "final_train_accuracy": history["rows"][-1]["train_accuracy"],
        })
    return records


def run_comparison(dataset: Dataset, config: TrainConfig, seeds) -> dict:
    """Train the prototype loss and the CE baseline over the given seeds.

    Each (loss, seed) run is independent and internally deterministic.  Each
    loss's seeds train in order as stacks of up to ``MAX_STACK`` runs
    (``training.train_runs``), fewer where a stack would hold more than
    ``MAX_PARAMETERS`` parameters; the two losses never share a stack.  A
    run is scored once, after its last epoch: its training accuracy, and the
    accuracy and separation of its held-out split.  The results, and any
    divergence, are those of training each run alone in turn; a run that
    cannot be set up raises ``DataError`` before its own stack trains.
    Raises ``ValueError`` for an empty seed list or a repeated seed.
    """
    if config.train_fraction >= 1.0:
        raise ConfigError("compare needs train_fraction < 1 for a held-out split")
    if not seeds:
        raise ValueError("compare needs at least one seed")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValueError(f"seed {seed} is listed twice")
    count = param_count((dataset.input_dim, *config.hidden_dims, config.embedding_dim, dataset.class_count))
    stack = max(1, min(MAX_STACK, MAX_PARAMETERS // count))
    systems = {}
    for loss_kind, name in (("proto", "predefined-prototype"), ("ce", "cross-entropy")):
        configs = [dataclasses.replace(config, loss=loss_kind, seed=seed) for seed in seeds]
        runs = [record for start in range(0, len(configs), stack)
                for record in _comparison_runs(dataset, configs[start:start + stack])]
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
    if config.train_fraction >= 1.0:
        raise ConfigError(f"{args.config}: field 'train_fraction' must be < 1 for compare's held-out split")
    if args.seeds is None:
        seeds = [config.seed, config.seed + 1, config.seed + 2]
    else:
        seeds = _parse_ids("--seeds", args.seeds)
        if min(seeds) < 0:
            raise ConfigError(f"--seeds: seed {min(seeds)} must be >= 0")
    dataset = load_table(args.data)
    # Checked as the proto runs, the ones that build an extractor.
    _check_model(args.config, dataclasses.replace(config, loss="proto"), args.data, dataset)
    try:
        comparison = run_comparison(dataset, config, seeds)
    except DataError as e:
        raise ConfigError(f"{args.data}: {e}") from None
    _write_run(args.out, [("comparison.json", comparison)], "compare", config_to_doc(config),
               {"seeds": seeds}, {"config": str(args.config), "data": str(args.data)})
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
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None, help="override config seed")
    seeds.add_argument("--seeds", default=None,
                       help="comma-separated seed list (default: the config seed and the next two)")
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
    except MemoryError as e:
        print(f"error: out of memory{f' ({e})' if str(e) else ''}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

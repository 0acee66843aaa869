"""The benchmark's workloads: inputs made from a seed, the CLI commands a user
would type, and checks on what those commands wrote.

Each workload has ``setup(run, work, seed)``, which builds its inputs and
returns a state dict, and ``repetition(run, state, out)``, which runs the timed
commands through ``run.command`` and then checks their outputs through
``run.check``.  Only the commands are timed.  The checks use the benchmark's
own parser and forward pass, never fixedproto's, so they are independent of
the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Criterion-5 acceptance fixture: three 3-level factors injected into the inputs.
# The fixture trains for 250 epochs; the benchmark trains for 50 (1,500 steps,
# well under a second), so that a run holds dozens of repetitions and their
# mean is steady on a shared host.
FACTOR_DATA = {"class_count": 4, "input_dim": 20, "samples_per_class": 300, "factor_count": 3,
               "class_separation": 3.0, "noise_scale": 0.05}
FACTOR_TRAIN = {"epochs": 50, "batch_size": 32, "learning_rate": 3e-3, "optimizer": "adam",
                "embedding_dim": 16, "hidden_dims": [64, 64], "train_fraction": 0.8,
                "mixup_alpha": 0.0, "seed": 0, "extractor": {"kind": "factor-coded"}}

# Criterion-4 acceptance fixture: six overlapping classes, mixup on.  The
# fixture trains for 40 epochs; the benchmark for 5, for the same reason.
SEPARATION_DATA = {"class_count": 6, "input_dim": 20, "samples_per_class": 300,
                   "class_separation": 3.0, "noise_scale": 1.0}
SEPARATION_TRAIN = {"epochs": 5, "batch_size": 32, "learning_rate": 1e-3, "embedding_dim": 16,
                    "hidden_dims": [64, 64], "train_fraction": 0.8, "mixup_alpha": 0.2,
                    "seed": 0, "extractor": {"kind": "class-orthogonal"}}
COMPARE_SEEDS = "0,1,2"

# table-io: a 2,500-row file with 64 features and 3 factors, and a small
# factor-coded checkpoint for the same schema, trained during set-up.  At
# 50,000 rows one pass took about 10 s on a 2-vCPU host and at 20,000 rows
# about 7 s, so a 35 s run held too few passes for a steady mean; 2,500 rows
# leaves room for about 30.
TABLE_ROWS_PER_CLASS = 625
TABLE_DATA = {"class_count": 4, "input_dim": 64, "factor_count": 3,
              "class_separation": 3.0, "noise_scale": 0.05}
TABLE_CHECKPOINT_ROWS_PER_CLASS = 300
TABLE_TRAIN = {**FACTOR_TRAIN, "epochs": 10}
EXPLAINED_ROWS = 125

RELEVANCE_TOL = 1e-9


def write_json(path, doc):
    path.write_text(json.dumps({"schema_version": 1, **doc}, indent=2) + "\n", encoding="utf-8")
    return str(path)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def read_table(path):
    """Features and label strings of a dataset file, without fixedproto."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    label_col = header.index("label")
    features = [i for i, name in enumerate(header) if name.startswith("f")]
    X = np.loadtxt(path, delimiter=",", skiprows=1, usecols=features, ndmin=2)
    labels = np.loadtxt(path, delimiter=",", skiprows=1, usecols=[label_col], dtype=str, ndmin=1)
    return X, labels


def reference_logits(checkpoint_path, X):
    """Embeddings and logits from a checkpoint's weights, computed here."""
    with open(checkpoint_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    z = X
    for layer in doc["embedder"]["layers"]:
        z = z @ np.asarray(layer["weight"]).T + np.asarray(layer["bias"])
        if layer["activation"] == "relu":
            z = np.maximum(z, 0.0)
    return z @ np.asarray(doc["classifier"]["weight"]), list(doc["class_names"])


def correct_count(logits, class_names, labels):
    index = {name: i for i, name in enumerate(class_names)}
    truth = np.array([index[str(label)] for label in labels])
    return int(np.sum(np.argmax(logits, axis=1) == truth))


def check_unchanged(run, state, name, path):
    """Check that ``path`` has the bytes it had in the run's first repetition."""
    digest = sha256(path) if path.exists() else None
    first = state.setdefault(name, digest)
    run.check(name, lambda: digest is not None and digest == first)


def gen_data(run, work, label, doc, seed):
    """Write a generator config and run ``gen-data`` on it; returns the data path."""
    config = write_json(work / f"{label}.gen.json", {**doc, "seed": seed})
    data = work / f"{label}.csv"
    run.command("setup", ["gen-data", "--config", config, "--out", str(data), "--quiet"], None)
    return str(data)


class TrainFactor:
    """One factor-coded ``train`` on the criterion-5 fixture: 1,500 tiny steps,
    so per-step work in model, training and prototypes dominates."""

    name = "train-factor"
    default_seed = 200
    batch_size = FACTOR_TRAIN["batch_size"]
    commands = ("train_s",)

    def setup(self, run, work, seed):
        return {"data": gen_data(run, work, "fixture", FACTOR_DATA, seed),
                "config": write_json(work / "train.json", FACTOR_TRAIN)}

    def repetition(self, run, state, out):
        run_dir = out / "train"
        run.command("train_s", ["train", state["data"], "--config", state["config"],
                                "--out", str(run_dir), "--quiet"], run_dir)
        checkpoint = run_dir / "checkpoint.json"
        check_unchanged(run, state, "train-factor: checkpoint equal in every repetition", checkpoint)

        def above_chance():
            if "table" not in state:
                state["table"] = read_table(state["data"])
            X, labels = state["table"]
            logits, names = reference_logits(checkpoint, X)
            return correct_count(logits, names, labels) / len(logits) > 1 / len(names)

        run.check("train-factor: checkpoint accuracy above chance", above_chance)


class CompareSep:
    """One ``compare`` on the criterion-4 fixture with mixup: six short runs, half
    without prototypes, so per-run overhead and the mixup path show."""

    name = "compare-sep"
    default_seed = 100
    batch_size = SEPARATION_TRAIN["batch_size"]
    commands = ("compare_s",)

    def setup(self, run, work, seed):
        return {"data": gen_data(run, work, "fixture", SEPARATION_DATA, seed),
                "config": write_json(work / "compare.json", SEPARATION_TRAIN)}

    def repetition(self, run, state, out):
        run_dir = out / "compare"
        run.command("compare_s", ["compare", state["data"], "--config", state["config"],
                                  "--out", str(run_dir), "--seeds", COMPARE_SEEDS, "--quiet"], run_dir)
        result = run_dir / "comparison.json"

        def accuracies_above_chance():
            doc = json.loads(result.read_text(encoding="utf-8"))
            accs = [r["accuracy"] for s in doc["systems"].values() for r in s["runs"]]
            chance = 1 / SEPARATION_DATA["class_count"]
            return len(accs) == 6 and all(math.isfinite(a) and a > chance for a in accs)

        run.check("compare-sep: every run's accuracy finite and above chance", accuracies_above_chance)
        check_unchanged(run, state, "compare-sep: comparison.json equal in every repetition", result)


class TableIO:
    """``gen-data``, ``eval`` and ``explain`` on a 2,500-row file, no training: text
    write and parse, metrics on 2,500 rows and per-sample explain output dominate."""

    name = "table-io"
    default_seed = 200
    batch_size = TABLE_TRAIN["batch_size"]
    commands = ("gen_data_s", "eval_s", "explain_s")

    def setup(self, run, work, seed):
        small = {**TABLE_DATA, "samples_per_class": TABLE_CHECKPOINT_ROWS_PER_CLASS}
        data = gen_data(run, work, "checkpoint-data", small, seed)
        config = write_json(work / "train.json", TABLE_TRAIN)
        run_dir = work / "checkpoint"
        run.command("setup", ["train", data, "--config", config, "--out", str(run_dir), "--quiet"], None)
        big = write_json(work / "table.gen.json",
                         {**TABLE_DATA, "samples_per_class": TABLE_ROWS_PER_CLASS, "seed": seed})
        return {"gen_config": big, "checkpoint": str(run_dir / "checkpoint.json")}

    @staticmethod
    def _reference(state, data):
        """Reference logits and labels, parsed once; every repetition writes the same file."""
        if "reference" not in state:
            X, labels = read_table(data)
            logits, class_names = reference_logits(state["checkpoint"], X)
            state["reference"] = (logits, class_names, labels)
        return state["reference"]

    def repetition(self, run, state, out):
        gen_dir, eval_dir, explain_dir = out / "gen_data", out / "eval", out / "explain"
        gen_dir.mkdir()
        eval_dir.mkdir()
        data = gen_dir / "data.csv"
        rows = TABLE_DATA["class_count"] * TABLE_ROWS_PER_CLASS
        ids = list(range(0, rows, rows // EXPLAINED_ROWS))
        run.command("gen_data_s", ["gen-data", "--config", state["gen_config"], "--out", str(data),
                                   "--quiet"], gen_dir)
        run.command("eval_s", ["eval", state["checkpoint"], str(data), "--out",
                               str(eval_dir / "report.json"), "--quiet"], eval_dir)
        run.command("explain_s", ["explain", state["checkpoint"], str(data), "--samples",
                                  ",".join(map(str, ids)), "--out", str(explain_dir), "--quiet"],
                    explain_dir)
        check_unchanged(run, state, "table-io: data file equal in every repetition", data)

        def eval_accuracy_matches():
            logits, class_names, labels = self._reference(state, data)
            report = json.loads((eval_dir / "report.json").read_text(encoding="utf-8"))
            return report["accuracy"] == correct_count(logits, class_names, labels) / len(labels)

        run.check("table-io: eval accuracy equals the reference argmax accuracy", eval_accuracy_matches)

        def relevance_sums_match():
            logits = self._reference(state, data)[0]
            worst = 0.0
            for i in ids:
                with open(explain_dir / f"sample_{i:05d}.csv", encoding="utf-8") as fh:
                    next(fh)
                    gamma = np.array([[float(v) for v in line.split(",")[1:]] for line in fh])
                worst = max(worst, float(np.max(np.abs(gamma.sum(axis=0) - logits[i]))))
            return worst <= RELEVANCE_TOL

        run.check("table-io: relevance column sums equal the reference z @ W within 1e-9",
                  relevance_sums_match)


WORKLOADS = {w.name: w for w in (TrainFactor(), CompareSep(), TableIO())}

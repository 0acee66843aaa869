"""Spans recorded around calls into fixedproto's layers, from outside the package.

The wrappers replace the names that fixedproto's callers bind (for example
``fixedproto.cli.load_table`` rather than ``fixedproto.data.load_table``), so
nothing inside ``src/`` changes.  They are installed only for a traced
repetition and removed afterwards, so untraced repetitions run the original
functions.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

# Per-layer metrics reported by a traced run: name -> (unit, source span).
# A ``.s`` metric sums the durations of its span, ``.calls`` counts them and
# ``self_s`` subtracts the time covered by child spans.
SPAN_METRICS = {
    "data.load_table.s": ("s", "data.load_table"),
    "data.save_dataset.s": ("s", "data.save_dataset"),
    "data.generate_synthetic.s": ("s", "data.generate_synthetic"),
    "model.forward_batch.s": ("s", "model.forward_batch"),
    "model.forward_batch.calls": ("count", "model.forward_batch"),
    "model.forward_full.s": ("s", "model.forward_full"),
    "model.forward_full.calls": ("count", "model.forward_full"),
    "model.backward.s": ("s", "model.backward"),
    "model.backward.calls": ("count", "model.backward"),
    "training.optimizer.s": ("s", "training.optimizer"),
    "training.optimizer.calls": ("count", "training.optimizer"),
    "training.loss.s": ("s", "training.loss"),
    "training.train.self_s": ("s", "training.train"),
    "training.train.calls": ("count", "training.train"),
    "training.steps": ("count", "training.optimizer"),
    "prototypes.extract_batch.s": ("s", "prototypes.extract_batch"),
    "prototypes.extract_batch.calls": ("count", "prototypes.extract_batch"),
    "prototypes.code.s": ("s", "prototypes.code"),
    "metrics.accuracy.s": ("s", "metrics.accuracy"),
    "metrics.accuracy.calls": ("count", "metrics.accuracy"),
    "metrics.separation_report.s": ("s", "metrics.separation_report"),
    "metrics.disentanglement_report.s": ("s", "metrics.disentanglement_report"),
    "explain.explain_sample.s": ("s", "explain.explain_sample"),
    "explain.explain_sample.calls": ("count", "explain.explain_sample"),
    "explain.serialize.s": ("s", "explain.serialize"),
    "cli.self_s": ("s", "cli.main"),
}

# Metrics computed from spans and counters in other ways; the second field
# names the wrap target they depend on.
DERIVED_METRICS = {
    "data.load_table.rows": ("count", "data.load_table"),
    "training.step_p50_us": ("us", "training.optimizer"),
    "training.step_p99_us": ("us", "training.optimizer"),
    "training.divergences": ("count", "training.train"),
}


def _full_or_batch(batch_size):
    """Name a ``forward`` span by its row count.

    ``train()`` calls the same ``forward`` for each minibatch and for the
    whole-set accuracy passes at the end of every epoch; only the row count
    tells them apart.
    """

    def classify(args, kwargs):
        x = args[2] if len(args) > 2 else kwargs["x"]
        rows = len(x) if getattr(x, "ndim", 1) > 1 else 1
        return "model.forward_batch" if rows <= batch_size else "model.forward_full"

    return classify


def wrap_targets(batch_size):
    """(owner path, attribute, span name or classifier) for every wrapped call."""
    return [
        ("fixedproto.training", "forward", _full_or_batch(batch_size)),
        ("fixedproto.training", "backward", "model.backward"),
        ("fixedproto.training", "loss", "training.loss"),
        ("fixedproto.training", "accuracy", "metrics.accuracy"),
        ("fixedproto.training.Adam", "step", "training.optimizer"),
        ("fixedproto.prototypes.ClassOrthogonalExtractor", "extract_batch", "prototypes.extract_batch"),
        ("fixedproto.prototypes.FactorCodedExtractor", "extract_batch", "prototypes.extract_batch"),
        ("fixedproto.prototypes.FactorCoder", "code", "prototypes.code"),
        ("fixedproto.cli", "train", "training.train"),
        ("fixedproto.cli", "load_table", "data.load_table"),
        ("fixedproto.cli", "save_dataset", "data.save_dataset"),
        ("fixedproto.cli", "generate_synthetic", "data.generate_synthetic"),
        ("fixedproto.cli", "forward", "model.forward_full"),
        ("fixedproto.cli", "accuracy", "metrics.accuracy"),
        ("fixedproto.cli", "separation_report", "metrics.separation_report"),
        ("fixedproto.cli", "disentanglement_report", "metrics.disentanglement_report"),
        ("fixedproto.cli", "explain_sample", "explain.explain_sample"),
        ("fixedproto.cli", "explanation_to_csv_text", "explain.serialize"),
        ("fixedproto.cli", "explanation_to_doc", "explain.serialize"),
    ]


def _resolve(path):
    """The module or class a dotted path names, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Spans as ``[name, start, end, parent index, error type or None]``."""

    def __init__(self, batch_size):
        self.spans = []
        self._stack = []
        self._saved = []
        self.rows_loaded = 0
        self.targets = wrap_targets(batch_size)
        self.missing = [
            (f"{owner}.{attr}", name) for owner, attr, name in self.targets
            if not callable(getattr(_resolve(owner), attr, None))
        ]

    def absent_metrics(self):
        """Metrics whose wrap target no longer exists; they are not reported."""
        spans = set()
        for _, name in self.missing:
            spans.update(("model.forward_batch", "model.forward_full") if callable(name) else (name,))
        return sorted(
            metric for metric, (_, source) in {**SPAN_METRICS, **DERIVED_METRICS}.items()
            if source in spans and metric != "cli.self_s"
        )

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            record[4] = type(e).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            result = tracer.span(span_name, fn, *args, **kwargs)
            if span_name == "data.load_table":
                tracer.rows_loaded += result.n
            return result

        return wrapper

    def install(self):
        for owner_path, attr, name in self.targets:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None)
            if not callable(original):
                continue
            # Read from __dict__ so a class keeps a plain function, not a bound one.
            raw = vars(owner).get(attr, original) if isinstance(owner, type) else original
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrapper(name, raw))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def summarize(spans):
    """Per-layer values for one repetition's spans (indices local to the list)."""
    total = {}
    calls = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] += end - start
    self_time = {}
    for (name, start, end, _, _), covered in zip(spans, child):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - covered
    out = {}
    for metric, (_, source) in SPAN_METRICS.items():
        if metric.endswith(".calls") or metric == "training.steps":
            out[metric] = calls.get(source, 0)
        elif metric.endswith("self_s"):
            out[metric] = self_time.get(source, 0.0)
        else:
            out[metric] = total.get(source, 0.0)
    out["training.divergences"] = sum(
        1 for s in spans if s[0] == "training.train" and s[4] == "DivergenceError"
    )
    return out


def step_times_us(spans):
    """One training step: from a minibatch forward to the optimizer step after it."""
    steps = []
    last_forward = {}
    for name, start, end, parent, _ in spans:
        if name == "model.forward_batch":
            last_forward[parent] = start
        elif name == "training.optimizer" and parent in last_forward:
            steps.append((end - last_forward.pop(parent)) * 1e6)
    return steps


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]

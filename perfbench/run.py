"""Benchmark of the fixedproto CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload train-factor [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all          # each workload in a fresh process

A run imports fixedproto from ``src/`` of the checkout it sits in, builds the
workload's inputs a few times (set-up), then repeats the workload's commands
through ``fixedproto.cli.main`` for ``--seconds`` seconds and checks every
output.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced
repetitions alternate and it holds the per-layer metrics instead.  The lines
before it give the per-command times, the failed checks and the environment.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The names of workloads.WORKLOADS, listed here so that numpy is first imported
# inside the timed import of a run.
WORKLOAD_NAMES = ("train-factor", "compare-sep", "table-io")
SETUP_REPEATS = 7
EXIT_NO_PROGRAM = 2


class Run:
    """Runs CLI commands and checks, counting each as attempted or failed."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failures = []
        self.times = {}
        self.files_written = 0
        self.bytes_written = 0

    def command(self, label, argv, outputs):
        """Time ``fixedproto.cli.main(argv)``; ``outputs`` is the directory it writes into."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                code = self.cli.main(argv)
            else:
                code = self.tracer.span("cli.main", self.cli.main, argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a crash counts as a failed command; the workload goes on
            code = f"{type(e).__name__}: {e}"
        self.times[label] = self.times.get(label, 0.0) + time.perf_counter() - start
        # Flush what the command wrote, so its write-back does not land in the next timing.
        os.sync()
        if code != 0:
            self.failures.append(f"{argv[0]} exited with {code}")
        if outputs is not None and outputs.exists():
            for path in outputs.rglob("*"):
                if path.is_file():
                    self.files_written += 1
                    self.bytes_written += path.stat().st_size

    def check(self, name, predicate):
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as e:  # an output that cannot be read fails its check
            ok = False
            name = f"{name} ({type(e).__name__}: {e})"
        if not ok:
            self.failures.append(name)


def git_commit():
    """HEAD of the checkout's own git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config = blas.get("openblas configuration", "")
    max_threads = next((w.split("=", 1)[1] for w in config.split() if w.startswith("MAX_THREADS=")), None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "max_threads": max_threads},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def reference_seconds():
    """Time of a fixed piece of work that calls no fixedproto code.

    It does what the workloads spend most of their time on: interpreter
    loops, small matrix products and float text formatted and parsed back.
    Timed after every repetition, it tracks the speed the shared host gives
    the run, so ``wall_rel`` can divide that speed out.  It touches no files
    and little memory: parts that wrote files or streamed a large array
    changed speed in ways the workloads did not follow.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    x, w = np.ones((32, 64)), np.full((64, 64), 0.01)
    for _ in range(4_000):
        x = np.maximum(x @ w + 0.1, 0.0)
    rows = np.linspace(0.0, 1.0, 10_000 * 4).reshape(10_000, 4)
    text = "\n".join(",".join(f"{v:.6f}" for v in row) for row in rows)
    total += sum(float(v) for line in text.splitlines() for v in line.split(","))
    return time.perf_counter() - start


def measure(workload, run, state, work, seconds, traced):
    """Repeat the workload until ``seconds`` would be exceeded; at least once.

    With ``traced`` an untraced and a traced repetition alternate, so the two
    see the same machine state.  Returns one record per repetition.
    """
    import spans

    plan = (None, spans.Tracer(workload.batch_size)) if traced else (None,)
    reps = []
    start = time.perf_counter()
    last = 0.0
    while not reps or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        for tracer in plan:
            out = work / f"rep-{len(reps)}"
            out.mkdir()
            run.times, run.files_written, run.bytes_written = {}, 0, 0
            if tracer is not None:
                tracer.spans, tracer.rows_loaded = [], 0
                tracer.install()
            run.tracer = tracer
            try:
                workload.repetition(run, state, out)
            finally:
                run.tracer = None
                if tracer is not None:
                    tracer.uninstall()
            reps.append({
                "traced": tracer is not None,
                "times": run.times,
                "spans": None if tracer is None else tracer.spans,
                "rows_loaded": None if tracer is None else tracer.rows_loaded,
                "files_written": run.files_written,
                "bytes_written": run.bytes_written,
            })
            shutil.rmtree(out)
            os.sync()
            if tracer is None:
                reps[-1]["reference"] = reference_seconds()
        last = time.perf_counter() - round_start
    return reps, plan[-1]


def per_layer(reps, tracer):
    import spans

    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    per_rep = [spans.summarize(r["spans"]) for r in traced]
    steps = [t for r in traced for t in spans.step_times_us(r["spans"])]
    metrics = {}
    for name, (unit, _) in spans.SPAN_METRICS.items():
        metrics[name] = (statistics.median(v[name] for v in per_rep), unit)
    metrics["training.divergences"] = (statistics.median(v["training.divergences"] for v in per_rep), "count")
    metrics["data.load_table.rows"] = (statistics.median(r["rows_loaded"] for r in traced), "count")
    metrics["training.step_p50_us"] = (spans.percentile(steps, 50) if steps else 0.0, "us")
    metrics["training.step_p99_us"] = (spans.percentile(steps, 99) if steps else 0.0, "us")
    metrics["cli.files_written"] = (statistics.median(r["files_written"] for r in traced), "count")
    metrics["cli.bytes_written"] = (statistics.median(r["bytes_written"] for r in traced), "B")
    metrics["trace_overhead_ratio"] = (trimmed_mean(totals(traced)) / trimmed_mean(totals(untraced)), "ratio")
    for name in tracer.absent_metrics():
        del metrics[name]
    return metrics


def totals(reps):
    """Each repetition's time of all its commands together."""
    return [sum(r["times"].values()) for r in reps]


def trimmed_mean(values):
    """Mean of the values without the highest and the lowest tenth of them."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def write_spans(path, reps):
    """All traced repetitions' spans, one per line: rep, name, start, end, parent, error."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rep,name,start_s,end_s,parent,error\n")
        for i, rep in enumerate(reps):
            for name, start, end, parent, error in rep["spans"] or ():
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{error or ''}\n")


def import_seconds():
    """Time of ``import fixedproto.cli`` in a fresh interpreter."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import fixedproto.cli; print(time.perf_counter() - t)")
    result = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src")],
                            capture_output=True, text=True, check=True, timeout=120)
    return float(result.stdout)


def run_workload(name, seed, seconds, trace):
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fixedproto.cli as cli
    except ImportError as e:
        print(f"error: cannot import fixedproto from {ROOT / 'src'}: {e}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: fixedproto came from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import workloads

    import_times = [time.perf_counter() - start]

    workload = workloads.WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(cli)
    try:
        build_times = []
        for i in range(SETUP_REPEATS):
            setup_dir = work / f"setup-{i}"
            setup_dir.mkdir()
            t = time.perf_counter()
            state = workload.setup(run, setup_dir, seed)
            build_times.append(time.perf_counter() - t)
        import_times += [import_seconds() for _ in range(SETUP_REPEATS - 1)]
        reps, tracer = measure(workload, run, state, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    timed = [r for r in reps if not r["traced"]]
    setup_s = statistics.median(import_times) + statistics.median(build_times)
    wall_s = trimmed_mean(totals(timed))
    reference_s = trimmed_mean(r["reference"] for r in timed)
    if trace:
        metrics = per_layer(reps, tracer)
        write_spans(ROOT / ".perfbench_out" / f"spans-{name}-{seed}.csv", reps)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_rel": (wall_s / reference_s, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    failed = len(run.failures)

    print(f"workload {name}  seed {seed}  repetitions {len(timed)} untraced"
          + (f", {len(reps) - len(timed)} traced" if trace else ""))
    samples = {label: [r["times"][label] for r in timed] for label in workload.commands}
    samples["reference_s"] = [r["reference"] for r in timed]
    for label, values in samples.items():
        print(f"  {label:34s} {trimmed_mean(values):14.6f} s  trimmed mean; median "
              f"{statistics.median(values):.6f} s; samples {' '.join(f'{v:.3f}' for v in values)}")
    printed = {"wall_s": (wall_s, "s"), **metrics,
               "error_rate": (failed / run.attempted, "ratio")}
    for label, (value, unit) in printed.items():
        print(f"  {label:34s} {value:14.6f} {unit}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    if trace and tracer.missing:
        print("  wrap targets gone, their metrics left out: " + ", ".join(path for path, _ in tracer.missing))
    print("environment " + json.dumps(environment(seed), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed, seconds, trace):
    """Each workload in a fresh process, so set-up includes the import and memory is its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seconds", str(seconds), "--trace", str(trace)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="dataset seed (default: the workload's acceptance-fixture seed)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

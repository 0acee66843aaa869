"""Every output of the CLI keeps its bytes: one run of each command on the
benchmark's fixtures, and each output's sha256 against a constant.

The constants were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (DYNAMIC_ARCH,
Haswell kernels) on x86_64 Linux; the train-factor checkpoint has the same
bytes at 1, 2 and 4 BLAS threads (1 and 2 are checked below).  Another numpy,
BLAS or CPU may round differently, and then this test names each output that
moved.  A change that moves an output's bytes on purpose updates its constant
here.  The checkpoint's version marks the training arithmetic: a change that
moves a checkpoint's bytes bumps it.  Version 4 marks mixup's draw order, so
the train-factor checkpoint, trained without mixup, moved by its version
field alone.  The documents derived from checkpoints and training (history,
comparison, report, explanations) keep their versions when only their inputs
move, and change them only with their own layout.
Manifests are hashed without their ``created_utc`` line.
"""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from fixedproto.cli import main

from util import child_env

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

EXPECTED = {
    "compare-sep/comparison.json": "13de3671968c98b646e2fcb68f5d02d9bb72ed9c7b00c18742d04b127370ecaa",
    "compare-sep/manifest.json": "d813fdc9c6f38375c4b7d14099849105baad49ee5702d3dad8b713d4d78d0b1c",
    "compare-sgd/comparison.json": "82952ccf2707fa7912fa903856d260b7e04f964f919995a4fa6ccb86eac173b5",
    "compare-sgd/manifest.json": "f2b97580b049a9fc3c75a23656342c4c88ba924023b4604045a4869be4016c71",
    "explain/explanations.json": "ef5c04f85dc1c23a9d1873927bbaee1426e0ffd721241ffc57585f551c606a61",
    "explain/manifest.json": "48e44f9d30e529eb7478b8b609fc35bca93387b54e8ee24663e5547ad7ae2684",
    "explain/sample_00000.csv": "9100acb5683c82fa42fc11c93ffdd2b59fa3e51b8226fdd24c5e2d417b7a1e96",
    "explain/sample_00007.csv": "14e06a4039c1a1e5354cbc0187f89890da148058da4b9467b4bd3b8b98d16847",
    "explain/sample_00500.csv": "6b5e1a2cee83ec6788f7b35562205f084971705cbbdde0b85adaf411601527b1",
    "factor.csv": "d96dd310e462f36f3c9b954b90b46d58f0bce4594ff138a0ab133339ddf6a6ad",
    "factor.csv.manifest.json": "b81737150f903062d6cbceeace8d2b0d31f9d2f6f3ec7e1ca48e5cf03a3f79ee",
    "report.json": "15915af3b9e16e117902f206f423477f1eef0cc98e6157a6b73c469e39a9b028",
    "sep.csv": "2b280ab04bf94cd506c63cddf85e1f7c30f83c41483f4f709eb335c623bc64b2",
    "sep.csv.manifest.json": "c5c20af2eee5758eb05fe93b1cb49471b3523fa41c5338d0ab6158039a8d4941",
    "train/checkpoint.json": "cd753ac440298b8b82a4c06a506832bf8301ce150adc34b457a27518a88f554b",
    "train/history.json": "02bbf96ad34dc790e3e00106bd320316e8b740b4efb192b5d8f5db4ff94c5988",
    "train/manifest.json": "d95addbc164e595cb467e9eb94a02070ad3bcd3fd58e3d8f6110adcbdeefc570",
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    if path.name.endswith("manifest.json"):
        lines = [line for line in lines if b'"created_utc"' not in line]
    return hashlib.sha256(b"".join(lines)).hexdigest()


def test_every_output_keeps_its_bytes(tmp_path, monkeypatch):
    wl = load_workloads()
    monkeypatch.chdir(tmp_path)  # the manifests record the relative paths given here

    def config(name, doc):
        return wl.write_json(Path(name), doc)

    sgd = {**wl.FACTOR_TRAIN, "optimizer": "sgd", "learning_rate": 1e-2, "mixup_alpha": 0.3, "epochs": 4}
    commands = [
        ["gen-data", "--config", config("factor.gen.json", {**wl.FACTOR_DATA, "seed": 200}),
         "--out", "out/factor.csv"],
        ["gen-data", "--config", config("sep.gen.json", {**wl.SEPARATION_DATA, "seed": 100}),
         "--out", "out/sep.csv"],
        ["train", "out/factor.csv", "--config", config("train.json", wl.FACTOR_TRAIN), "--out", "out/train"],
        ["compare", "out/sep.csv", "--config", config("compare.json", wl.SEPARATION_TRAIN),
         "--out", "out/compare-sep", "--seeds", wl.COMPARE_SEEDS],
        ["compare", "out/factor.csv", "--config", config("sgd.json", sgd),
         "--out", "out/compare-sgd", "--seeds", "0,1,2,3"],
        ["eval", "out/train/checkpoint.json", "out/factor.csv", "--out", "out/report.json"],
        ["explain", "out/train/checkpoint.json", "out/factor.csv", "--samples", "0,7,500",
         "--out", "out/explain"],
    ]
    Path("out").mkdir()
    for argv in commands:
        assert main([*argv, "--quiet"]) == 0, argv
    found = {p.relative_to("out").as_posix(): digest(p) for p in Path("out").rglob("*") if p.is_file()}
    moved = sorted(name for name in EXPECTED.keys() | found.keys() if found.get(name) != EXPECTED.get(name))
    assert not moved, "outputs whose bytes moved: " + ", ".join(
        f"{name} (expected {EXPECTED.get(name)}, got {found.get(name)})" for name in moved)


def test_train_checkpoint_is_the_same_at_1_and_2_blas_threads(tmp_path):
    # Criterion 8 across BLAS thread counts: train-factor's ``train``, each in
    # a child process that reads OPENBLAS_NUM_THREADS as numpy loads.
    wl = load_workloads()
    data = tmp_path / "factor.csv"
    config = wl.write_json(tmp_path / "factor.gen.json", {**wl.FACTOR_DATA, "seed": 200})
    assert main(["gen-data", "--config", config, "--out", str(data), "--quiet"]) == 0
    config = wl.write_json(tmp_path / "train.json", wl.FACTOR_TRAIN)
    digests = {}
    for threads in ("1", "2"):
        out = tmp_path / f"train-{threads}"
        subprocess.run([sys.executable, "-m", "fixedproto.cli", "train", str(data), "--config", config,
                        "--out", str(out), "--quiet"], env=child_env(OPENBLAS_NUM_THREADS=threads),
                       check=True, timeout=300)
        digests[threads] = digest(out / "checkpoint.json")
    assert digests["1"] == digests["2"], digests

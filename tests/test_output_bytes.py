"""Every output of the CLI keeps its bytes: one run of each command on the
benchmark's fixtures, and each output's sha256 against a constant.

The constants were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (DYNAMIC_ARCH,
Haswell kernels) on x86_64 Linux; the train-factor checkpoint has the same
bytes at 1, 2 and 4 BLAS threads.  Another numpy, BLAS or CPU may round
differently, and then this test names each output that moved.  A change that
moves an output's bytes on purpose updates its constant here and bumps that
document's format version.  Manifests are hashed without their
``created_utc`` line.
"""

import hashlib
import importlib.util
from pathlib import Path

from fixedproto.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

EXPECTED = {
    "compare-sep/comparison.json": "0c9f73742f000d1e8b57ca9a750b65e82cae33b274065e0301f9d733a9d4eb47",
    "compare-sep/manifest.json": "d813fdc9c6f38375c4b7d14099849105baad49ee5702d3dad8b713d4d78d0b1c",
    "compare-sgd/comparison.json": "199a796fb614196a772c04d7f4caf666453d4d778b34f95d2de26216f72f66e7",
    "compare-sgd/manifest.json": "f2b97580b049a9fc3c75a23656342c4c88ba924023b4604045a4869be4016c71",
    "explain/explanations.json": "2cda30a14adf1d8f0a8f15cd24aef3675061ecdc405ec89c9018a8b4b0815841",
    "explain/manifest.json": "48e44f9d30e529eb7478b8b609fc35bca93387b54e8ee24663e5547ad7ae2684",
    "explain/sample_00000.csv": "c02f86b99bfac60279b293fa4c94c53f5705efb689c92cc6bb511c4c129c7d1b",
    "explain/sample_00007.csv": "cea691a86928e14e836995662834f46b3d8111c424b8d48490d55fdd55ff87b0",
    "explain/sample_00500.csv": "4c5c0c6b7339890bd12abb280026865f23d6b2fa94afb2702e552276d5ba1bf9",
    "factor.csv": "d96dd310e462f36f3c9b954b90b46d58f0bce4594ff138a0ab133339ddf6a6ad",
    "factor.csv.manifest.json": "b81737150f903062d6cbceeace8d2b0d31f9d2f6f3ec7e1ca48e5cf03a3f79ee",
    "report.json": "949a348d81a2f479fa3811df50d4790314ceb72a0ee7050c4f908853fc075406",
    "sep.csv": "2b280ab04bf94cd506c63cddf85e1f7c30f83c41483f4f709eb335c623bc64b2",
    "sep.csv.manifest.json": "c5c20af2eee5758eb05fe93b1cb49471b3523fa41c5338d0ab6158039a8d4941",
    "train/checkpoint.json": "a7d601cc5bcd309b88491eb2458fdaf007bfc3e2f32d94b6622fbe6571922247",
    "train/history.json": "ac18429b02a3984085c3564855d8e4b77e9ecf2b744a196c25e1db029e977a6c",
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

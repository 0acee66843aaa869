import json
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fixedproto
from fixedproto.cli import (EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, ConfigError, _checkpoint_doc,
                            _explanations_text, _load_checkpoint, _load_config, _write, main, run_comparison)
from fixedproto.data import SynthConfig, generate_synthetic, load_table
from fixedproto.explain import SLICE_ROWS, explain_sample, explanation_to_doc
from fixedproto.model import forward, init_params, param_count
from fixedproto.prototypes import (
    FactorCodedExtractor,
    FactorCoder,
    class_orthogonal_extractor,
    extractor_to_doc,
    fit_factor_coder,
)
from fixedproto.training import TrainConfig, train_runs

from util import child_env, overflowing_loss


DROP = object()  # a test value meaning "delete this entry"


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")


def gen_config(tmp_path, **overrides):
    doc = {
        "schema_version": 1,
        "class_count": 2,
        "input_dim": 6,
        "samples_per_class": 40,
        "factor_count": 0,
        "class_separation": 4.0,
        "noise_scale": 0.3,
        "seed": 0,
    }
    doc.update(overrides)
    path = tmp_path / "gen.json"
    write_json(path, doc)
    return path


def train_config(tmp_path, **overrides):
    doc = {
        "schema_version": 1,
        "epochs": 20,
        "batch_size": 16,
        "learning_rate": 0.001,
        "optimizer": "adam",
        "embedding_dim": 8,
        "hidden_dims": [16],
        "train_fraction": 1.0,
        "seed": 0,
        "extractor": {"kind": "class-orthogonal"},
    }
    doc.update(overrides)
    path = tmp_path / "train.json"
    write_json(path, doc)
    return path


@pytest.fixture
def blob_file(tmp_path):
    config = gen_config(tmp_path)
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    return out


class TestGenData:
    def test_writes_header_and_rows(self, tmp_path):
        config = gen_config(tmp_path)
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join([f"f{j}" for j in range(6)] + ["label"])
        assert len(lines) == 1 + 80
        assert (tmp_path / "data.csv.manifest.json").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        config = gen_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", str(config), "--out", str(out1), "--quiet"])
        main(["gen-data", "--config", str(config), "--out", str(out2), "--quiet"])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_out_that_is_not_a_regular_file_exits_4_and_is_kept(self, tmp_path, capsys, kind):
        config = gen_config(tmp_path)
        out = tmp_path / "target"
        out.mkdir() if kind == "directory" else os.mkfifo(out)
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {out}: not a regular file, so it is not replaced\n"
        assert sorted(os.listdir(tmp_path)) == ["gen.json", "target"]
        assert out.is_dir() if kind == "directory" else stat.S_ISFIFO(out.stat().st_mode)

    def test_out_in_a_missing_directory_exits_4_naming_out_not_its_temporary_file(self, tmp_path, capsys):
        out = tmp_path / "missing" / "data.csv"
        assert main(["gen-data", "--config", str(gen_config(tmp_path)), "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_bad_probability_table_names_factor(self, tmp_path, capsys):
        tables = [[[0.5, 0.5, 0.5], [1.0, 0.0, 0.0]]]
        config = gen_config(tmp_path, factor_count=1, input_dim=8, factor_tables=tables)
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert "factor 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tables", [
        [[["0.2", "0.3", "0.5"], [1.0, 0.0, 0.0]]],
        [[[0.2, 0.3, 0.5], [True, False, 0]]],
        [[[0.2, 0.3, 0.5], [1.0, 0.0]]],
    ], ids=["string", "bool", "ragged"])
    def test_non_number_factor_tables_name_config_and_field(self, tmp_path, capsys, tables):
        config = gen_config(tmp_path, factor_count=1, input_dim=8, factor_tables=tables)
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(config) in err and "'factor_tables'" in err
        assert not out.exists()

    def test_nan_probability_names_config_and_factor(self, tmp_path, capsys):
        tables = [[[0.2, 0.3, 0.5], [1.0, 0.0, float("nan")]]]
        config = gen_config(tmp_path, factor_count=1, input_dim=8, factor_tables=tables)
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(config) in err and "factor 0" in err
        assert not out.exists()

    def test_missing_config_is_io_error(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(["gen-data", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == EXIT_IO

    def test_impossible_allocation_is_one_out_of_memory_line(self, tmp_path, capsys):
        # 2 * 10**15 rows fail at their first array, so nothing is allocated.
        config = gen_config(tmp_path, samples_per_class=10**15)
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: out of memory")
        assert not out.exists()


class TestTrain:
    def test_end_to_end_blobs(self, tmp_path, blob_file):
        config = train_config(tmp_path, epochs=30)
        out = tmp_path / "run"
        assert main(["train", str(blob_file), "--config", str(config),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["checkpoint.json", "history.json", "manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["outputs"] == sorted(os.listdir(out))
        assert json.loads((out / "checkpoint.json").read_text())["extractor"]["kind"] == "class-orthogonal"
        last = json.loads((out / "history.json").read_text())["rows"][-1]
        assert last["train_accuracy"] >= 0.99

    def test_factor_coded_without_factor_columns_leaves_no_outputs(self, tmp_path, blob_file, capsys):
        config = train_config(tmp_path, extractor={"kind": "factor-coded"})
        out = tmp_path / "run"
        code = main(["train", str(blob_file), "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "factor" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_zero_equals_ce_checkpoint(self, tmp_path, blob_file):
        config = train_config(tmp_path)
        out_l0, out_ce = tmp_path / "l0", tmp_path / "ce"
        assert main(["train", str(blob_file), "--config", str(config), "--out", str(out_l0),
                     "--lambda-p", "0", "--quiet"]) == EXIT_OK
        assert main(["train", str(blob_file), "--config", str(config), "--out", str(out_ce),
                     "--loss", "ce", "--quiet"]) == EXIT_OK
        assert (out_l0 / "checkpoint.json").read_bytes() == (out_ce / "checkpoint.json").read_bytes()

    def test_repeat_run_is_bit_identical(self, tmp_path, blob_file):
        config = train_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["train", str(blob_file), "--config", str(config), "--out", str(out1), "--quiet"])
        main(["train", str(blob_file), "--config", str(config), "--out", str(out2), "--quiet"])
        assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()
        assert (out1 / "history.json").read_bytes() == (out2 / "history.json").read_bytes()

    def test_repeat_run_is_bit_identical_across_processes(self, tmp_path, blob_file):
        config = train_config(tmp_path, epochs=8)
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        for out in (out1, out2):
            proc = subprocess.run(
                [sys.executable, "-m", "fixedproto.cli", "train", str(blob_file),
                 "--config", str(config), "--out", str(out), "--quiet"],
                capture_output=True,
                env=child_env(),
            )
            assert proc.returncode == EXIT_OK, proc.stderr.decode()
        assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()

    def test_divergence_exit_code(self, tmp_path, blob_file):
        config = train_config(tmp_path, learning_rate=1e30, optimizer="sgd", epochs=40)
        out = tmp_path / "run"
        code = main(["train", str(blob_file), "--config", str(config), "--out", str(out), "--quiet"])
        assert code == EXIT_DIVERGENCE

    def test_last_step_overflow_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # One epoch of one batch: the only loss is finite, the step after it
        # overflows, and no later loss would show it.
        data = tmp_path / "data.csv"
        config = gen_config(tmp_path, class_count=3, input_dim=5, samples_per_class=10, seed=1)
        assert main(["gen-data", "--config", str(config), "--out", str(data), "--quiet"]) == EXIT_OK
        config = train_config(tmp_path, epochs=1, batch_size=64, learning_rate=1e308, optimizer="sgd",
                              hidden_dims=[4], embedding_dim=4)
        out = tmp_path / "run"
        code = main(["train", str(data), "--config", str(config), "--out", str(out), "--quiet"])
        assert code == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert "parameters went non-finite at epoch 0, batch 0" in err
        assert not out.exists()

    def test_overflowing_epoch_loss_exits_3_and_writes_nothing(self, tmp_path, blob_file, capsys,
                                                               monkeypatch):
        # 80 rows in batches of 16: each batch mean is finite, the epoch's
        # sum is not, and it is placed at the last batch, 4.
        monkeypatch.setattr(fixedproto.training, "loss", overflowing_loss())
        out = tmp_path / "run"
        code = main(["train", str(blob_file), "--config", str(train_config(tmp_path)), "--out", str(out)])
        assert code == EXIT_DIVERGENCE
        assert capsys.readouterr().err == "error: non-finite loss inf at epoch 0, batch 4\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("f0,label,alpha_0,alpha_0\n1,a,0,0\n2,b,0,0\n", "column 'alpha_0' is named twice"),
        ("f0,label,label\n1,a,a\n2,b,b\n", "column 'label' is named twice"),
        ("f0,label,alpah_0\n1,a,0\n2,b,0\n", "column 'alpah_0' is not"),
        ("f0,label\n", "no data rows"),
        ("f0,label\n1,\n2,\n3,b\n4,b\n", "row 2: empty label"),
        ("f0,label\n1,a\n1e400,b\n", "row 3, column 'f0': '1e400' is not finite"),
        ("", "empty file"),
        ("f0,alpha_0\n1,0\n2,0\n", "header has no 'label' column"),
        ("f1,f0,label\n1,2,a\n3,4,b\n", "feature columns must be named f0..f{p-1} in order"),
        ("label,alpha_0\na,0\nb,0\n", "no feature columns found"),
    ], ids=["repeated-factor", "repeated-label", "unknown-column", "header-only", "empty-label",
            "overflowing-feature", "empty-file", "no-label", "features-out-of-order", "no-features"])
    def test_malformed_data_file_exits_2(self, tmp_path, capsys, text, message):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        out = tmp_path / "run"
        code = main(["train", str(data), "--config", str(train_config(tmp_path)), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(data) in err and message in err
        assert not out.exists()

    def test_unknown_config_field_rejected(self, tmp_path, blob_file, capsys):
        config = train_config(tmp_path, epoch=20)
        code = main(["train", str(blob_file), "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "unknown" in capsys.readouterr().err


@pytest.fixture
def trained_run(tmp_path, blob_file):
    config = train_config(tmp_path, epochs=25)
    out = tmp_path / "run"
    assert main(["train", str(blob_file), "--config", str(config),
                 "--out", str(out), "--quiet"]) == EXIT_OK
    return out


class TestEval:
    def test_accuracy_matches_history(self, tmp_path, blob_file, trained_run):
        report_path = tmp_path / "eval.json"
        assert main(["eval", str(trained_run / "checkpoint.json"), str(blob_file),
                     "--out", str(report_path), "--quiet"]) == EXIT_OK
        report = json.loads(report_path.read_text())
        last = json.loads((trained_run / "history.json").read_text())["rows"][-1]
        assert abs(report["accuracy"] - last["train_accuracy"]) < 1e-9
        assert report["separation"]["mean_prototype_dist"] is not None

    def test_eval_twice_identical(self, tmp_path, blob_file, trained_run):
        p1, p2 = tmp_path / "e1.json", tmp_path / "e2.json"
        main(["eval", str(trained_run / "checkpoint.json"), str(blob_file), "--out", str(p1), "--quiet"])
        main(["eval", str(trained_run / "checkpoint.json"), str(blob_file), "--out", str(p2), "--quiet"])
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kind", ["fifo", "directory", "device"])
    def test_out_that_is_not_a_regular_file_exits_4_and_is_kept(self, tmp_path, blob_file, trained_run, kind):
        # In a child with a timeout: a FIFO opened for writing waits for a reader.
        out = "/dev/null" if kind == "device" else tmp_path / "report.json"
        if kind == "directory":
            out.mkdir()
        elif kind == "fifo":
            os.mkfifo(out)
        proc = subprocess.run([sys.executable, "-m", "fixedproto.cli", "eval", str(trained_run / "checkpoint.json"),
                               str(blob_file), "--out", str(out), "--quiet"],
                              capture_output=True, env=child_env(), timeout=60)
        assert proc.returncode == EXIT_IO
        assert proc.stderr.decode() == f"error: {out}: not a regular file, so it is not replaced\n"
        mode = os.stat(out).st_mode
        assert {"fifo": stat.S_ISFIFO, "directory": stat.S_ISDIR, "device": stat.S_ISCHR}[kind](mode)

    def test_absent_class_names_file_and_class(self, tmp_path, blob_file, trained_run, capsys):
        lines = blob_file.read_text().splitlines()
        one_class = tmp_path / "one_class.csv"
        one_class.write_text("\n".join(line for line in lines if not line.endswith(",1")) + "\n")
        assert main(["eval", str(trained_run / "checkpoint.json"), str(one_class), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(one_class) in err and "class '1'" in err

    def test_input_dim_mismatch_names_both(self, tmp_path, trained_run, capsys):
        other = tmp_path / "other.csv"
        other.write_text("f0,f1,label\n1.0,2.0,0\n2.0,1.0,1\n")
        code = main(["eval", str(trained_run / "checkpoint.json"), str(other)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "6" in err and "2" in err

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_input_dim_mismatch_names_data_file_and_checkpoint(self, tmp_path, trained_run, capsys, command):
        other = tmp_path / "other.csv"
        other.write_text("f0,f1,label\n1.0,2.0,0\n2.0,1.0,1\n")
        checkpoint = trained_run / "checkpoint.json"
        out = tmp_path / "out"
        assert main([command, str(checkpoint), str(other), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(other) in err and str(checkpoint) in err
        assert not out.exists()

    def test_nan_factor_value_rejected(self, tmp_path, trained_run, capsys):
        data = tmp_path / "nan.csv"
        header = ",".join([f"f{j}" for j in range(6)] + ["label", "alpha_0", "alpha_1"])
        rows = [",".join(["0.5"] * 6 + [str(i % 2), "0.1", "nan" if i == 3 else "0.2"])
                for i in range(6)]
        data.write_text("\n".join([header] + rows) + "\n")
        code = main(["eval", str(trained_run / "checkpoint.json"), str(data), "--quiet"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(data) in err and "'alpha_1'" in err

    def test_checkpoint_without_classifier_rejected(self, tmp_path, blob_file, trained_run, capsys):
        doc = json.loads((trained_run / "checkpoint.json").read_text())
        del doc["classifier"]
        broken = tmp_path / "broken.json"
        write_json(broken, doc)
        assert main(["eval", str(broken), str(blob_file), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(broken) in err and "classifier" in err

    def test_checkpoint_without_extractor_field_rejected(self, tmp_path, blob_file, trained_run, capsys):
        doc = json.loads((trained_run / "checkpoint.json").read_text())
        del doc["extractor"]
        broken = tmp_path / "broken.json"
        write_json(broken, doc)
        assert main(["eval", str(broken), str(blob_file), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(broken) in err and "'extractor'" in err

    def test_checkpoint_that_is_a_list_rejected(self, tmp_path, blob_file, capsys):
        broken = tmp_path / "list.json"
        write_json(broken, [1, 2, 3])
        assert main(["eval", str(broken), str(blob_file), "--quiet"]) == EXIT_CONFIG
        assert str(broken) in capsys.readouterr().err

    def test_extractor_that_is_a_list_rejected(self, tmp_path, blob_file, trained_run, capsys):
        doc = json.loads((trained_run / "checkpoint.json").read_text())
        doc["extractor"] = [1, 2, 3]
        broken = tmp_path / "list.json"
        write_json(broken, doc)
        assert main(["eval", str(broken), str(blob_file), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(broken) in err and "'extractor'" in err

    @pytest.mark.parametrize(
        "field, extractor",
        [
            ("embedding_dim", class_orthogonal_extractor(2, 4, 0)),
            ("class_count", class_orthogonal_extractor(3, 8, 0)),
            ("factor_names", FactorCodedExtractor(
                FactorCoder(names=("alpha_0",), lower=[0.0], upper=[1.0]), 8)),
        ],
        ids=["embedding_dim", "class_count", "factor_names"],
    )
    def test_mismatched_extractor_names_path_and_field(self, tmp_path, blob_file, trained_run,
                                                       capsys, field, extractor):
        doc = json.loads((trained_run / "checkpoint.json").read_text())
        doc["extractor"] = extractor_to_doc(extractor)
        broken = tmp_path / "mismatch.json"
        write_json(broken, doc)
        assert main(["eval", str(broken), str(blob_file), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(broken) in err and f"{field!r}" in err

    @pytest.mark.parametrize(
        "path, change, field",
        [
            (("class_names", 0), lambda name: 0, "class_names"),
            (("input_dim",), lambda dim: 9, "input_dim"),
            (("class_names",), lambda names: names[:1], "class_names"),
            (("classifier", "weight"), lambda rows: rows + rows[:1], "classifier.weight"),
            (("embedder", "layers", 0), lambda layer: 0, "embedder.layers[0]"),
        ],
        ids=["class-name-not-a-string", "input_dim", "class-names-for-class-count", "classifier-rows",
             "layer-not-an-object"],
    )
    def test_envelope_mismatch_names_path_and_field(self, tmp_path, blob_file, trained_run, capsys,
                                                    path, change, field):
        doc = json.loads((trained_run / "checkpoint.json").read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = change(target[path[-1]])
        broken = tmp_path / "broken.json"
        write_json(broken, doc)
        assert main(["eval", str(broken), str(blob_file), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(broken) in err and f"{field!r}" in err

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("classifier", "weight", 0), ["0.12"] * 2, "classifier.weight"),
            (("embedder", "layers", 0, "bias", 3), True, "embedder.layers[0].bias"),
            (("embedder", "layers", 1, "weight", 0), 0.5, "embedder.layers[1].weight"),
            (("extractor", "table", 1, 0), None, "extractor.table"),
            (("classifier", "weight", 1, 1), 10**400, "classifier.weight"),
            (("embedder", "layers", 0, "weight", 1), [0.5] * 5, "embedder.layers[0].weight"),
        ],
        ids=["string-head-row", "true-bias", "number-for-a-row", "null-in-table", "int-too-large",
             "ragged-weight"],
    )
    def test_non_number_parameters_name_file_and_field(self, tmp_path, blob_file, trained_run, capsys,
                                                       path, value, field):
        doc = json.loads((trained_run / "checkpoint.json").read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        broken = tmp_path / "broken.json"
        write_json(broken, doc)
        assert main(["eval", str(broken), str(blob_file), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(broken) in err and f"field {field!r}" in err

    def test_round_trip_gives_back_the_model_to_the_bit(self, tmp_path):
        dataset = generate_synthetic(SynthConfig(class_count=3, input_dim=5, samples_per_class=4, seed=0))
        widths = (5, 6, 4, 3)
        params = np.random.default_rng(0).standard_normal(param_count(widths))  # biases nonzero too
        path = tmp_path / "checkpoint.json"
        _write(path, _checkpoint_doc(widths, params, None, dataset, TrainConfig(embedding_dim=4)))
        _, loaded_widths, loaded_params, extractor = _load_checkpoint(path)
        assert loaded_widths == widths and extractor is None
        assert loaded_params.tobytes() == params.tobytes()

    def test_version_1_checkpoint_rejected(self, tmp_path, blob_file, trained_run, capsys):
        doc = json.loads((trained_run / "checkpoint.json").read_text())
        doc["version"] = 1
        del doc["extractor"]
        old = tmp_path / "v1.json"
        write_json(old, doc)
        assert main(["eval", str(old), str(blob_file), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(old) in err and "checkpoint version 1 is not supported, only versions 2, 3 and 4" in err

    @pytest.mark.parametrize("version", [0, 1, 5, -1, 2**64], ids=["0", "1", "5", "-1", "2**64"])
    def test_other_checkpoint_versions_exit_2_naming_file_and_version(self, tmp_path, blob_file, trained_run,
                                                                      capsys, version):
        doc = json.loads((trained_run / "checkpoint.json").read_text())
        doc["version"] = version
        other = tmp_path / "other.json"
        write_json(other, doc)
        for command in (["eval", str(other), str(blob_file)],
                        ["explain", str(other), str(blob_file), "--samples", "0", "--out", str(tmp_path / "x")]):
            assert main([*command, "--quiet"]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith(f"error: {other}: "), err
            assert f"field 'version': checkpoint version {version} is not supported" in err

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_eval_and_explain_read_checkpoint_version(self, tmp_path, blob_file, trained_run, version):
        # Versions 3 and 4 moved only the training arithmetic: a version-2 or
        # version-3 checkpoint has the same layout and gives the same report
        # and explanations.
        doc = json.loads((trained_run / "checkpoint.json").read_text())
        assert doc["version"] == 4
        doc["version"] = version
        checkpoint = tmp_path / f"v{version}.json"
        write_json(checkpoint, doc)
        for path, name in ((trained_run / "checkpoint.json", "written"), (checkpoint, "edited")):
            assert main(["eval", str(path), str(blob_file), "--out", str(tmp_path / f"{name}.json"),
                         "--quiet"]) == EXIT_OK
            assert main(["explain", str(path), str(blob_file), "--samples", "0,3",
                         "--out", str(tmp_path / name), "--quiet"]) == EXIT_OK
        assert (tmp_path / "edited.json").read_bytes() == (tmp_path / "written.json").read_bytes()
        explanations = [(tmp_path / name / "explanations.json").read_bytes() for name in ("written", "edited")]
        assert explanations[0] == explanations[1]

    @pytest.mark.parametrize("field, value, message", [
        ("class_names", ["0", "0"], "field 'class_names': class name '0' is given twice"),
        ("factor_names", ["alpha_0", "alpha_0"], "field 'factor_names': factor name 'alpha_0' is given twice"),
        ("seed", -5, "field 'seed' is -5, expected an integer >= 0"),
    ], ids=["class_names", "factor_names", "seed"])
    def test_repeated_names_and_negative_seed_blamed_on_checkpoint(self, tmp_path, blob_file, trained_run,
                                                                   capsys, field, value, message):
        doc = json.loads((trained_run / "checkpoint.json").read_text())
        doc[field] = value
        broken = tmp_path / "broken.json"
        write_json(broken, doc)
        assert main(["eval", str(broken), str(blob_file), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {broken}: {message}\n"

    def test_ce_retrain_into_same_directory_has_no_prototypes(self, tmp_path, blob_file, trained_run):
        config = train_config(tmp_path, epochs=5)
        assert main(["train", str(blob_file), "--config", str(config), "--out", str(trained_run),
                     "--loss", "ce", "--quiet"]) == EXIT_OK
        report_path = tmp_path / "eval.json"
        assert main(["eval", str(trained_run / "checkpoint.json"), str(blob_file),
                     "--out", str(report_path), "--quiet"]) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["separation"]["mean_prototype_dist"] is None

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_extractor_flag_refused(self, tmp_path, blob_file, trained_run, command):
        with pytest.raises(SystemExit) as exc:
            main([command, str(trained_run / "checkpoint.json"), str(blob_file),
                  "--out", str(tmp_path / "x"), "--extractor", str(tmp_path / "e.json")])
        assert exc.value.code == EXIT_CONFIG


@pytest.fixture
def factor_run(tmp_path):
    """A factor-coded checkpoint trained on a file with factors alpha_0 and alpha_1."""
    data = tmp_path / "factors.csv"
    config = gen_config(tmp_path, factor_count=2, input_dim=6)
    assert main(["gen-data", "--config", str(config), "--out", str(data), "--quiet"]) == EXIT_OK
    out = tmp_path / "factor_run"
    config = train_config(tmp_path, epochs=2, extractor={"kind": "factor-coded"})
    assert main(["train", str(data), "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    return out / "checkpoint.json", data


BEYOND_ROUNDING = "its relevance sums miss its logits by up to "


@pytest.mark.parametrize("value, reason", [
    ("1e140", BEYOND_ROUNDING),
    ("1e145", BEYOND_ROUNDING),
    ("1e150", BEYOND_ROUNDING),
    ("1e300", "its logits or its embedding's squared norm are not finite"),
    ("1e308", "its logits or its embedding's squared norm are not finite"),
], ids=["1e140", "1e145", "1e150", "1e300", "1e308"])
@pytest.mark.parametrize("command", ["eval", "explain"])
def test_values_beyond_the_model_name_the_file_and_sample(tmp_path, blob_file, trained_run, capsys, command,
                                                          value, reason):
    # Row 5's first feature is beyond this model: its contributions are so
    # large that rounding alone may break the relevance identity (1e140,
    # 1e145 and 1e150 alike, though only 1e140 and 1e150 break it), or the
    # embedding's squared norm and the logits overflow (1e300, 1e308).
    lines = blob_file.read_text().splitlines()
    lines[1 + 5] = value + "," + lines[1 + 5].split(",", 1)[1]
    blob_file.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = [command, str(trained_run / "checkpoint.json"), str(blob_file), "--out", str(out), "--quiet"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + (["--samples", "2,5,7"] if command == "explain" else []))
    assert code == EXIT_CONFIG
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {blob_file}: sample 5 is beyond the model's range: {reason}")
    assert not out.exists()


def test_a_document_with_a_non_finite_number_is_refused_naming_the_path(tmp_path):
    path = tmp_path / "report.json"
    for number in (float("inf"), float("nan")):
        with pytest.raises(ValueError) as refused:
            _write(path, {"mean_within_class_dist": number})
        assert str(refused.value).startswith(f"{path}: Out of range float values are not JSON compliant")
        assert not path.exists()


class TestFactorColumns:
    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_swapped_factor_headers_rejected(self, tmp_path, factor_run, capsys, command):
        checkpoint, data = factor_run
        lines = data.read_text().splitlines(keepends=True)
        swapped = tmp_path / "swapped.csv"
        swapped.write_text(lines[0].replace("alpha_0", "TMP").replace("alpha_1", "alpha_0")
                           .replace("TMP", "alpha_1") + "".join(lines[1:]))
        out = tmp_path / "out"
        assert main([command, str(checkpoint), str(swapped), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(swapped) in err and "'alpha_1'" in err and "'alpha_0'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("extractor", "factors", 0), 3, "extractor.factors[0]"),
            (("embedder", "layers", 1, "weight"), DROP, "embedder.layers[1].weight"),
            (("extractor", "factors", 0, "name"), DROP, "extractor.factors[0].name"),
            (("embedder", "layers", 1, "weight", 0, 0), float("nan"), "embedder.layers[1].weight"),
            (("embedder", "layers", 0, "activation"), "tanh", "embedder.layers[0].activation"),
            (("embedder", "layers", 0, "activation"), "identity", "embedder.layers[0].activation"),
            (("embedder", "layers", 1, "activation"), "relu", "embedder.layers[1].activation"),
            # The model is 6 -> 16 -> 8 -> 2: layer 1 has 8 rows and takes 16 columns.
            (("embedder", "layers", 1, "bias"), [0.0] * 7, "embedder.layers[1].bias"),
            (("embedder", "layers", 1, "weight"), [[0.0] * 15] * 8, "embedder.layers[1].weight"),
            (("embedder", "layers"), [], "embedder.layers"),
            (("embedder", "layers", 1, "weight"), [], "embedder.layers[1].weight"),
            (("extractor", "factors", 0, "lower"), float("inf"), "extractor.factors[0].lower"),
            (("extractor", "factors", 0, "lower"), 1e9, "extractor.factors"),
            (("extractor",), [1], "extractor"),
            (("extractor", "format"), "prototype-extractors", "extractor.format"),
            (("extractor", "version"), 2, "extractor.version"),
            (("extractor", "kind"), [1], "extractor.kind"),
            (("extractor", "quantile_method"), "linear", "extractor.quantile_method"),
            (("format",), "model-checkpoints", "format"),
            (("version",), 1, "version"),
            (("embedder", "layers"), DROP, "embedder.layers"),
            (("embedder", "layers"), None, "embedder.layers"),
        ],
        ids=["factor-not-an-object", "missing-layer-weight", "missing-factor-name", "nan-in-layer-weight",
             "unknown-activation", "linear-hidden-layer", "relu-last-layer", "short-bias",
             "weight-columns-do-not-chain", "no-layers", "empty-weight", "infinite-threshold",
             "lower-above-upper", "extractor-not-an-object", "wrong-format", "wrong-version", "unknown-kind",
             "unknown-quantile-method", "wrong-checkpoint-format", "wrong-checkpoint-version", "missing-layers",
             "layers-not-a-list"],
    )
    def test_bad_checkpoint_entry_named_by_path(self, tmp_path, factor_run, capsys, path, value, field):
        checkpoint, data = factor_run
        doc = json.loads(checkpoint.read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        broken = tmp_path / "broken.json"
        write_json(broken, doc)
        assert main(["eval", str(broken), str(data), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(broken) in err and f"{field!r}" in err

    @pytest.mark.parametrize(
        "run, key, edit, field, message",
        [
            # The class-orthogonal table is 2 x 8; an edited count gives another shape.
            ("trained_run", "class_count", 3, "extractor.table", "table shape (2, 8) does not match (3, 8)"),
            ("trained_run", "embedding_dim", 9, "extractor.table", "table shape (2, 8) does not match (2, 9)"),
            ("trained_run", "table", "skew", "extractor.table",
             "prototype table rows must be orthonormal when k >= C"),
            # Two factors need 6 coded dimensions.
            ("factor_run", "embedding_dim", 5, "extractor.embedding_dim",
             "embedding_dim 5 is too small for 2 factors (needs >= 6)"),
        ],
        ids=["class-count", "embedding-dim", "not-orthonormal", "factor-coded-embedding-dim"],
    )
    def test_extractor_that_cannot_be_built_named_by_path(self, tmp_path, request, capsys, run, key, edit,
                                                         field, message):
        if run == "factor_run":
            checkpoint, data = request.getfixturevalue("factor_run")
        else:
            checkpoint = request.getfixturevalue("trained_run") / "checkpoint.json"
            data = request.getfixturevalue("blob_file")
        doc = json.loads(checkpoint.read_text())
        if edit == "skew":
            doc["extractor"]["table"][0][0] += 0.5
        else:
            doc["extractor"][key] = edit
        broken = tmp_path / "broken.json"
        write_json(broken, doc)
        assert main(["eval", str(broken), str(data), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {broken}: field {field!r}: {message}\n"

    @pytest.mark.parametrize("name", ["1,x", "1\nx", "1 ", ""],
                             ids=["comma", "line-break", "trailing-whitespace", "empty"])
    @pytest.mark.parametrize("key, what, prefix", [("class_names", "class name", ""),
                                                   ("factor_names", "factor name", "alpha_")],
                             ids=["class", "factor"])
    def test_checkpoint_name_the_text_formats_cannot_carry_refused(self, tmp_path, factor_run, capsys, key, what,
                                                                    prefix, name):
        # explain writes the class names as its CSV header; a comma or a line
        # break there would give rows of another width.
        checkpoint, data = factor_run
        doc = json.loads(checkpoint.read_text())
        doc[key][1] = prefix + name if name else name
        broken = tmp_path / "broken.json"
        write_json(broken, doc)
        out = tmp_path / "out"
        assert main(["explain", str(broken), str(data), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {broken}: field {key!r}: {what} {doc[key][1]!r} cannot be written: it is empty, holds a comma "
            f"or a line break, or has leading or trailing whitespace\n")
        assert not out.exists()

    def test_missing_factor_column_rejected(self, tmp_path, factor_run, capsys):
        checkpoint, data = factor_run
        rows = [line.rsplit(",", 1)[0] for line in data.read_text().splitlines()]
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join(rows) + "\n")
        assert main(["eval", str(checkpoint), str(cut), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(cut) in err and "'alpha_1'" in err

    def test_too_few_rows_to_probe_names_file(self, tmp_path, factor_run, capsys):
        checkpoint, data = factor_run
        lines = data.read_text().splitlines()
        small = tmp_path / "small.csv"
        small.write_text("\n".join([lines[0], lines[1], lines[2], lines[-1]]) + "\n")
        out = tmp_path / "report.json"
        assert main(["eval", str(checkpoint), str(small), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(small) in err and "at least 4 samples" in err
        assert not out.exists()

    def test_summary_tables(self, tmp_path, factor_run, capsys):
        checkpoint, data = factor_run
        report_path = tmp_path / "report.json"
        assert main(["eval", str(checkpoint), str(data), "--out", str(report_path)]) == EXIT_OK
        report = json.loads(report_path.read_text())
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row for row in rows if row[:1] == ["accuracy"]] == [["accuracy", f"{report['accuracy']:.4f}"]]
        factors = report["disentanglement"]["factors"]
        assert [row for row in rows if row[:1] and row[0].startswith("alpha_")] == [
            [f["name"], *(f"{f[key]:.4f}" for key in
                          ("designated_accuracy", "zero_block_accuracy", "other_factors_accuracy"))]
            for f in factors
        ]

    def test_file_without_factor_columns_accepted(self, tmp_path, factor_run):
        checkpoint, data = factor_run
        rows = [line.rsplit(",", 2)[0] for line in data.read_text().splitlines()]
        bare = tmp_path / "bare.csv"
        bare.write_text("\n".join(rows) + "\n")
        report = tmp_path / "report.json"
        assert main(["eval", str(checkpoint), str(bare), "--out", str(report), "--quiet"]) == EXIT_OK
        assert json.loads(report.read_text())["disentanglement"] is None


def key_paths(doc, prefix=""):
    """Every key of a JSON document as a dotted path, in document order; a
    list of objects is read through its first item, as ``name[]``."""
    paths = []
    for key, value in doc.items():
        path = prefix + key
        paths.append(path)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value, path = value[0], path + "[]"
        if isinstance(value, dict):
            paths += key_paths(value, path + ".")
    return paths


def test_document_layouts_are_pinned(tmp_path, factor_run):
    """The nested key order of report.json (factor-coded, with a zero block),
    history.json and comparison.json."""
    checkpoint, data = factor_run
    report = tmp_path / "report.json"
    assert main(["eval", str(checkpoint), str(data), "--out", str(report), "--quiet"]) == EXIT_OK
    assert key_paths(json.loads(report.read_text())) == [
        "format", "version", "n_samples", "accuracy",
        "separation", "separation.mean_abs_cos", "separation.max_abs_cos",
        "separation.mean_within_class_dist", "separation.mean_prototype_dist", "separation.centroids",
        "disentanglement", "disentanglement.factors", "disentanglement.factors[].name",
        "disentanglement.factors[].designated_accuracy", "disentanglement.factors[].zero_block_accuracy",
        "disentanglement.factors[].other_factors_accuracy", "disentanglement.zero_block_mean_abs",
        "zero_block_mean_abs_per_dim", "joint_probabilities",
    ]
    assert key_paths(json.loads((checkpoint.parent / "history.json").read_text())) == [
        "format", "version", "rows", "rows[].epoch", "rows[].total_loss", "rows[].ce_loss",
        "rows[].prototype_loss", "rows[].train_accuracy", "rows[].val_accuracy",
    ]
    config = train_config(tmp_path, epochs=2, train_fraction=0.8, extractor={"kind": "factor-coded"})
    out = tmp_path / "compare"
    assert main(["compare", str(data), "--config", str(config), "--out", str(out),
                 "--seeds", "0", "--quiet"]) == EXIT_OK
    system = ["", ".accuracy_mean", ".accuracy_std", ".mean_abs_cos_mean", ".mean_abs_cos_std", ".runs",
              ".runs[].seed", ".runs[].accuracy", ".runs[].mean_abs_cos", ".runs[].mean_prototype_dist",
              ".runs[].final_train_accuracy"]
    assert key_paths(json.loads((out / "comparison.json").read_text())) == [
        "format", "version", "seeds",
        "config", "config.schema_version", "config.epochs", "config.batch_size", "config.learning_rate",
        "config.optimizer", "config.adam_beta1", "config.adam_beta2", "config.adam_eps",
        "config.mixup_alpha", "config.lambda_p", "config.loss", "config.hidden_dims",
        "config.embedding_dim", "config.train_fraction", "config.seed", "config.extractor",
        "config.extractor.kind",
        "systems",
        *[f"systems.predefined-prototype{key}" for key in system],
        *[f"systems.cross-entropy{key}" for key in system],
    ]


@pytest.fixture
def long_file(tmp_path):
    """A file of ``blob_file``'s schema with more than two of explain's slices of rows."""
    data = tmp_path / "long.csv"
    config = gen_config(tmp_path, samples_per_class=SLICE_ROWS + 1, seed=1)
    assert main(["gen-data", "--config", str(config), "--out", str(data), "--quiet"]) == EXIT_OK
    return data


def with_row_7(tmp_path, data, edit):
    """A copy of ``data`` whose data row 7 (line 9) is ``edit`` of its line."""
    lines = data.read_text().splitlines(keepends=True)
    lines[1 + 7] = edit(lines[1 + 7])
    path = tmp_path / "edited.csv"
    path.write_text("".join(lines))
    return path


class TestExplain:
    def test_document_longer_than_a_slice_has_the_bytes_of_the_whole_batch(self, tmp_path, trained_run,
                                                                          long_file):
        out = tmp_path / "expl"
        assert main(["explain", str(trained_run / "checkpoint.json"), str(long_file), "--samples", "all",
                     "--out", str(out), "--quiet"]) == EXIT_OK
        doc, widths, params, _ = _load_checkpoint(trained_run / "checkpoint.json")
        X = load_table(long_file, class_names=doc["class_names"]).X
        assert len(X) == 2 * SLICE_ROWS + 2
        expl = explain_sample(widths, params, X, class_names=doc["class_names"])
        whole = json.dumps(explanation_to_doc(expl), separators=(",", ":"), allow_nan=False) + "\n"
        assert (out / "explanations.json").read_text(encoding="utf-8") == whole

    def test_document_reads_back_as_the_batch(self, tmp_path):
        widths, n = (4, 6, 5, 3), 2 * SLICE_ROWS + 3
        ids = list(range(n))[::-1]
        expl = explain_sample(widths, init_params(widths, 0, 1), np.random.default_rng(5).standard_normal((n, 4)),
                              sample_ids=ids)
        path = tmp_path / "explanations.json"
        _write(path, _explanations_text(expl))
        rows = [{"sample_id": i, "probabilities": p.tolist(), "logits": l.tolist(), "gamma": g.tolist()}
                for i, p, l, g in zip(ids, expl["probabilities"], expl["logits"], expl["gamma"])]
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "format": "explanations", "version": 2, "class_names": expl["class_names"],
            "row_labels": expl["row_labels"], "rows": rows}

    def test_document_that_cannot_be_encoded_exits_2_and_leaves_no_part(self, tmp_path, trained_run, long_file,
                                                                        capsys, monkeypatch):
        def with_nan(expl):
            doc = explanation_to_doc(expl)
            if doc["rows"][0]["sample_id"] >= SLICE_ROWS:  # a slice after the first, written in part
                doc["rows"][0]["probabilities"][0] = float("nan")
            return doc

        monkeypatch.setattr(fixedproto.cli, "explanation_to_doc", with_nan)
        out = tmp_path / "expl"
        assert main(["explain", str(trained_run / "checkpoint.json"), str(long_file), "--samples", "all",
                     "--out", str(out), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {out / 'explanations.json'}: Out of range float values are not JSON compliant")
        assert not (out / "explanations.json").exists() and not (out / "manifest.json").exists()

    def test_single_sample_csv_layout(self, tmp_path, blob_file, trained_run):
        out = tmp_path / "expl"
        assert main(["explain", str(trained_run / "checkpoint.json"), str(blob_file),
                     "--samples", "0", "--out", str(out), "--quiet"]) == EXIT_OK
        lines = (out / "sample_00000.csv").read_text().strip().splitlines()
        assert lines[0] == "dimension,0,1"
        assert len(lines) == 1 + 8  # embedding_dim rows

    def test_all_selector_writes_every_sample(self, tmp_path, blob_file, trained_run):
        out = tmp_path / "expl_all"
        assert main(["explain", str(trained_run / "checkpoint.json"), str(blob_file),
                     "--samples", "all", "--out", str(out), "--quiet"]) == EXIT_OK
        csvs = [f for f in os.listdir(out) if f.endswith(".csv")]
        assert len(csvs) == 80

    def test_column_sums_match_forward_logits(self, tmp_path, blob_file, trained_run):
        out = tmp_path / "expl0"
        main(["explain", str(trained_run / "checkpoint.json"), str(blob_file),
              "--samples", "0,3", "--out", str(out), "--quiet"])
        doc, widths, params, _ = _load_checkpoint(trained_run / "checkpoint.json")
        dataset = load_table(blob_file, class_names=doc["class_names"])
        for i in (0, 3):
            lines = (out / f"sample_{i:05d}.csv").read_text().strip().splitlines()[1:]
            gamma = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
            logits = forward(widths, params, dataset.X[i : i + 1]).logits[0]
            assert np.max(np.abs(gamma.sum(axis=0) - logits)) < 1e-9

    def test_writes_one_csv_per_sample_the_document_and_the_manifest(self, tmp_path, blob_file, trained_run):
        out = tmp_path / "expl"
        assert main(["explain", str(trained_run / "checkpoint.json"), str(blob_file),
                     "--samples", "0,3", "--out", str(out), "--quiet"]) == EXIT_OK
        written = ["sample_00000.csv", "sample_00003.csv", "explanations.json", "manifest.json"]
        assert sorted(os.listdir(out)) == sorted(written)
        assert json.loads((out / "manifest.json").read_text())["outputs"] == written

    def test_document_gamma_sums_to_reference_logits_and_equals_the_csv(self, tmp_path, blob_file, trained_run):
        # Criterion 7 on the document: the reference logits are z @ W from the
        # checkpoint's own weights, computed as the benchmark does, apart from
        # the package's forward pass.
        out = tmp_path / "expl"
        assert main(["explain", str(trained_run / "checkpoint.json"), str(blob_file),
                     "--samples", "3,0,41", "--out", str(out), "--quiet"]) == EXIT_OK
        checkpoint = json.loads((trained_run / "checkpoint.json").read_text())
        doc = json.loads((out / "explanations.json").read_text())
        ids = [row["sample_id"] for row in doc["rows"]]
        assert ids == [3, 0, 41]
        z = load_table(blob_file, class_names=checkpoint["class_names"]).X[ids]
        for layer in checkpoint["embedder"]["layers"]:
            z = z @ np.asarray(layer["weight"]).T + np.asarray(layer["bias"])
            if layer["activation"] == "relu":
                z = np.maximum(z, 0.0)
        logits = z @ np.asarray(checkpoint["classifier"]["weight"])
        gamma = np.array([row["gamma"] for row in doc["rows"]])
        assert gamma.shape == (3, 8, 2)
        assert np.max(np.abs(gamma.sum(axis=1) - logits)) <= 1e-9
        for row in doc["rows"]:  # the CSV's repr text parses back to the document's numbers
            lines = (out / f"sample_{row['sample_id']:05d}.csv").read_text().splitlines()
            assert lines[0] == "dimension," + ",".join(doc["class_names"])
            assert [line.split(",")[0] for line in lines[1:]] == doc["row_labels"]
            assert [[float(v) for v in line.split(",")[1:]] for line in lines[1:]] == row["gamma"]

    def test_broken_relevance_fails_before_writing(self, tmp_path, blob_file, trained_run,
                                                   monkeypatch, capsys):
        import fixedproto.explain as explain_module

        original = explain_module.relevance

        def off_by_a_little(head, Z):
            return original(head, Z) + 1e-6

        monkeypatch.setattr(explain_module, "relevance", off_by_a_little)
        out = tmp_path / "expl"
        code = main(["explain", str(trained_run / "checkpoint.json"), str(blob_file),
                     "--samples", "0,3", "--out", str(out), "--quiet"])
        assert code == EXIT_CONFIG
        # Each of the 8 dimensions adds 1e-6 to the sums the check compares.
        assert capsys.readouterr().err == (f"error: {blob_file}: sample 0 is beyond the model's range: its relevance "
                                           f"sums miss its logits by 8.000e-06, more than 1e-09\n")
        assert not out.exists()

    def test_selector_out_of_range(self, tmp_path, blob_file, trained_run, capsys):
        # Alone, or after a sample the file has.
        for samples in ("999", "3,999"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # such as np.loadtxt's on a stream without rows
                code = main(["explain", str(trained_run / "checkpoint.json"), str(blob_file),
                             "--samples", samples, "--out", str(tmp_path / "x")])
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == "error: --samples: sample 999 out of range [0, 80)\n"
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cell", ["abc", "nan", "1e400"])
    def test_bad_cell_in_a_row_not_explained_is_not_read(self, tmp_path, blob_file, trained_run, cell):
        bad = with_row_7(tmp_path, blob_file, lambda line: cell + "," + line.split(",", 1)[1])
        written = []
        for data in (blob_file, bad):
            out = tmp_path / f"out_{data.stem}"
            assert main(["explain", str(trained_run / "checkpoint.json"), str(data), "--samples", "0,3",
                         "--out", str(out), "--quiet"]) == EXIT_OK
            written.append({name: (out / name).read_bytes() for name in os.listdir(out) if name != "manifest.json"})
        assert written[0] == written[1]

    @pytest.mark.parametrize("cell, problem", [
        ("abc", "could not parse 'abc' as a number"),
        ("nan", "'nan' is not finite"),
        ("1e400", "'1e400' is not finite"),
    ])
    def test_bad_cell_in_an_explained_row_is_named(self, tmp_path, blob_file, trained_run, capsys, cell, problem):
        bad = with_row_7(tmp_path, blob_file, lambda line: cell + "," + line.split(",", 1)[1])
        out = tmp_path / "x"
        # The bad cell is named before a listed row the file lacks.
        for samples in ("0,7", "7,999"):
            code = main(["explain", str(trained_run / "checkpoint.json"), str(bad), "--samples", samples,
                         "--out", str(out)])
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {bad}: row 9, column 'f0': {problem}\n"
            assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_cell_only_python_reads_is_named_before_writing(self, tmp_path, blob_file, trained_run, capsys,
                                                            command):
        bad = with_row_7(tmp_path, blob_file, lambda line: "1_0," + line.split(",", 1)[1])
        out = tmp_path / "x"
        flags = ["--samples", "0,7"] if command == "explain" else []
        code = main([command, str(trained_run / "checkpoint.json"), str(bad), *flags, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {bad}: row 9, column 'f0': could not parse '1_0' as a number\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, problem", [
        (lambda line: line.rstrip("\n") + ",1\n", "expected 7 cells, got 8"),
        (lambda line: line.rsplit(",", 1)[0] + ", \n", "empty label"),
        (lambda line: line.rsplit(",", 1)[0] + ",z\n", "unknown class name 'z'"),
    ], ids=["cell-count", "empty-label", "unknown-class"])
    def test_row_not_explained_is_still_checked(self, tmp_path, blob_file, trained_run, capsys, edit, problem):
        bad = with_row_7(tmp_path, blob_file, edit)
        out = tmp_path / "x"
        # Also before a listed row the file lacks.
        for samples in ("0,3", "0,999"):
            code = main(["explain", str(trained_run / "checkpoint.json"), str(bad), "--samples", samples,
                         "--out", str(out)])
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {bad}: row 9: {problem}\n"
            assert not out.exists()

    def test_empty_sample_cell_rejected_before_writing(self, tmp_path, blob_file, trained_run, capsys):
        out = tmp_path / "x"
        code = main(["explain", str(trained_run / "checkpoint.json"), str(blob_file),
                     "--samples", "1,,2", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --samples: cell 1 of '1,,2' is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "\uff13", "0x1", "1.0", "+ 1"],
                             ids=["underscore", "arabic-indic-digit", "fullwidth-digit", "hex", "float", "split-sign"])
    def test_sample_not_in_ascii_digits_rejected_before_writing(self, tmp_path, blob_file, trained_run, capsys,
                                                                 cell):
        out = tmp_path / "x"
        code = main(["explain", str(trained_run / "checkpoint.json"), str(blob_file),
                     "--samples", f"2,{cell}", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --samples: {cell!r} is not an integer\n"
        assert not out.exists()

    def test_sample_ids_with_a_sign_and_spaces_accepted(self, tmp_path, blob_file, trained_run):
        out = tmp_path / "x"
        assert main(["explain", str(trained_run / "checkpoint.json"), str(blob_file),
                     "--samples", " 2, +07 ", "--out", str(out), "--quiet"]) == EXIT_OK
        assert [row["sample_id"] for row in json.loads((out / "explanations.json").read_text())["rows"]] == [2, 7]

    def test_repeated_sample_rejected_before_writing(self, tmp_path, blob_file, trained_run, capsys):
        out = tmp_path / "x"
        code = main(["explain", str(trained_run / "checkpoint.json"), str(blob_file),
                     "--samples", "3,3", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--samples: 3 is listed twice" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, train_fraction", [("train", 1.0), ("compare", 0.8)])
def test_divergence_prints_one_error_line_and_no_warning(tmp_path, blob_file, capsys, command, train_fraction):
    # Training's own finiteness checks report the divergence; the numpy
    # overflow on the way to it must not print warnings before that line.
    config = train_config(tmp_path, learning_rate=1e308, optimizer="sgd", train_fraction=train_fraction)
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, str(blob_file), "--config", str(config), "--out", str(out), "--quiet"])
    assert code == EXIT_DIVERGENCE
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "at epoch 0" in err


class TestCompare:
    def test_structure_and_determinism(self, tmp_path, blob_file):
        config = train_config(tmp_path, train_fraction=0.8, epochs=10)
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["compare", str(blob_file), "--config", str(config), "--out", str(out1),
                     "--seeds", "0,1", "--quiet"]) == EXIT_OK
        assert main(["compare", str(blob_file), "--config", str(config), "--out", str(out2),
                     "--seeds", "0,1", "--quiet"]) == EXIT_OK
        doc = json.loads((out1 / "comparison.json").read_text())
        assert set(doc["systems"]) == {"predefined-prototype", "cross-entropy"}
        assert doc["seeds"] == [0, 1]
        for system in doc["systems"].values():
            assert len(system["runs"]) == 2
        assert (out1 / "comparison.json").read_bytes() == (out2 / "comparison.json").read_bytes()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seeds", "0,0"], "--seeds: 0 is listed twice"),
            (["--seeds", "a"], "--seeds: 'a' is not an integer"),
            (["--seeds", ","], "--seeds: empty list"),
            (["--seeds=-1,2"], "--seeds: seed -1 must be >= 0"),
            (["--seeds", "0,1,"], "--seeds: cell 2 of '0,1,' is empty"),
            (["--seeds", "1_0"], "--seeds: '1_0' is not an integer"),
            (["--seeds", "0,\u0663"], "--seeds: '\u0663' is not an integer"),
        ],
        ids=["repeated", "not-an-integer", "empty", "negative", "empty-cell", "underscore", "arabic-indic-digit"],
    )
    def test_bad_seed_list_rejected_before_writing(self, tmp_path, blob_file, capsys, flags, message):
        config = train_config(tmp_path, train_fraction=0.8, epochs=2)
        out = tmp_path / "c"
        code = main(["compare", str(blob_file), "--config", str(config), "--out", str(out), *flags])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "comparison.json").exists()

    def test_seed_and_seeds_together_refused_before_writing(self, tmp_path, blob_file, capsys):
        # The seed list alone decides what trains, so --seed beside it would only be recorded.
        config = train_config(tmp_path, train_fraction=0.8, epochs=2)
        out = tmp_path / "c"
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", str(blob_file), "--config", str(config), "--out", str(out),
                  "--seeds", "0", "--seed", "5"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "argument --seed: not allowed with argument --seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_names_both_systems_with_default_seeds(self, tmp_path, blob_file, capsys):
        config = train_config(tmp_path, train_fraction=0.8, epochs=2)
        out = tmp_path / "c"
        assert main(["compare", str(blob_file), "--config", str(config), "--out", str(out),
                     "--seed", "5"]) == EXIT_OK
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["seeds"] == [5, 6, 7]
        lines = capsys.readouterr().out.splitlines()
        for name, system in doc["systems"].items():
            (line,) = [line for line in lines if line.startswith(f"{name} ")]
            assert f"{system['accuracy_mean']:.4f} ± {system['accuracy_std']:.4f}" in line

    def test_held_out_row_beyond_the_model_names_the_file_and_row(self, tmp_path, capsys):
        # Row 1 is in seed 0's held-out split, so training never sees it:
        # its embedding overflows only when the held-out split is scored.
        config = gen_config(tmp_path, class_count=3, input_dim=5, samples_per_class=20, seed=1)
        data = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(config), "--out", str(data), "--quiet"]) == EXIT_OK
        lines = data.read_text().splitlines()
        lines[1 + 1] = "1e200," + lines[1 + 1].split(",", 1)[1]
        data.write_text("\n".join(lines) + "\n")
        config = train_config(tmp_path, epochs=2, batch_size=8, train_fraction=0.8, hidden_dims=[8],
                              embedding_dim=4)
        out = tmp_path / "c"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["compare", str(data), "--config", str(config), "--out", str(out), "--seeds", "0"])
        assert code == EXIT_CONFIG
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err == (f"error: {data}: sample 1, held out by seed 0, is beyond the model's "
                                           f"range: its logits or its embedding's squared norm are not finite\n")
        assert not out.exists()

    def test_requires_holdout_split(self, tmp_path, blob_file, capsys):
        config = train_config(tmp_path, train_fraction=1.0)
        code = main(["compare", str(blob_file), "--config", str(config),
                     "--out", str(tmp_path / "c")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(config) in err and "'train_fraction'" in err

    def test_stacks_fit_the_parameter_limit_and_give_the_same_bytes(self, tmp_path, blob_file, monkeypatch):
        config = train_config(tmp_path, train_fraction=0.8, epochs=3, optimizer="sgd", learning_rate=0.01,
                              mixup_alpha=0.3)
        stacks = []

        def recording(runs, **kwargs):
            stacks.append(len(runs))
            return train_runs(runs, **kwargs)

        monkeypatch.setattr(fixedproto.cli, "train_runs", recording)
        outputs = []
        for limit in (fixedproto.cli.MAX_PARAMETERS, 2 * param_count((6, 16, 8, 2)) - 1):
            monkeypatch.setattr(fixedproto.cli, "MAX_PARAMETERS", limit)
            out = tmp_path / f"c{limit}"
            assert main(["compare", str(blob_file), "--config", str(config), "--out", str(out),
                         "--seeds", "0,1,2,3", "--quiet"]) == EXIT_OK
            outputs.append((out / "comparison.json").read_bytes())
        assert stacks == [3, 1, 3, 1] + [1] * 8
        assert outputs[0] == outputs[1]

    def test_divergence_exits_3_with_the_message_of_one_by_one_training(self, tmp_path, blob_file, capsys,
                                                                       monkeypatch):
        # At this rate seed 2 diverges at epoch 2 and seed 1 earlier, at
        # epoch 1: trained in that order, seed 2's error comes first.
        config = train_config(tmp_path, train_fraction=0.8, epochs=5, optimizer="sgd", learning_rate=1.0)
        errors = []
        for stack in (fixedproto.cli.MAX_STACK, 1):
            monkeypatch.setattr(fixedproto.cli, "MAX_STACK", stack)
            out = tmp_path / f"c{stack}"
            code = main(["compare", str(blob_file), "--config", str(config), "--out", str(out),
                         "--seeds", "2,1", "--quiet"])
            assert code == EXIT_DIVERGENCE
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert "at epoch 2, batch 0" in errors[0]
        assert errors[0] == errors[1]

    def test_seed_that_cannot_be_set_up_exits_2_before_its_stack_trains(self, tmp_path, blob_file, capsys,
                                                                        monkeypatch):
        build = fixedproto.cli._build_extractor
        stacks = []

        def failing_for_seed_1(config, train_set):
            if config.seed == 1:
                raise ValueError("no extractor for seed 1")
            return build(config, train_set)

        def recording(runs, **kwargs):
            stacks.append(len(runs))
            return train_runs(runs, **kwargs)

        monkeypatch.setattr(fixedproto.cli, "_build_extractor", failing_for_seed_1)
        monkeypatch.setattr(fixedproto.cli, "train_runs", recording)
        out = tmp_path / "c"
        code = main(["compare", str(blob_file), "--config", str(train_config(tmp_path, train_fraction=0.8)),
                     "--out", str(out), "--seeds", "0,1", "--quiet"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {blob_file}: no extractor for seed 1\n"
        assert stacks == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "seeds, train_fraction, message",
        [([], 0.8, "at least one seed"), ([0, 1, 0], 0.8, "seed 0 is listed twice"),
         ([0], 1.0, "compare needs train_fraction < 1 for a held-out split")],
        ids=["empty", "repeated", "no-held-out-split"],
    )
    def test_library_rejects_bad_seed_list(self, blob_file, seeds, train_fraction, message):
        config = TrainConfig(train_fraction=train_fraction, epochs=1, hidden_dims=(4,), embedding_dim=4)
        with pytest.raises(ValueError, match=message):
            run_comparison(load_table(blob_file), config, seeds)


@pytest.mark.parametrize("command", ["gen-data", "train", "explain", "compare"])
def test_manifest_lists_every_file_written(tmp_path, blob_file, trained_run, command):
    out = tmp_path / "out"
    config = train_config(tmp_path, epochs=2, train_fraction=0.8)
    if command == "gen-data":
        out.mkdir()
        argv = ["gen-data", "--config", str(gen_config(tmp_path)), "--out", str(out / "data.csv")]
    elif command == "train":
        argv = ["train", str(blob_file), "--config", str(config), "--out", str(out)]
    elif command == "explain":
        argv = ["explain", str(trained_run / "checkpoint.json"), str(blob_file), "--samples", "0,5", "--out", str(out)]
    else:
        argv = ["compare", str(blob_file), "--config", str(config), "--seeds", "0", "--out", str(out)]
    assert main(argv + ["--quiet"]) == EXIT_OK
    manifest = out / ("data.csv.manifest.json" if command == "gen-data" else "manifest.json")
    outputs = json.loads(manifest.read_text())["outputs"]
    assert sorted(outputs) == sorted(os.listdir(out))


MISTYPED_CONFIGS = [
    ("train", {"epochs": 2.5}, "epochs"),
    ("train", {"batch_size": 2.5}, "batch_size"),
    ("train", {"seed": 1.5}, "seed"),
    ("train", {"seed": True}, "seed"),
    ("train", {"seed": -1}, "seed"),
    ("train", {"embedding_dim": 4.5}, "embedding_dim"),
    ("train", {"learning_rate": True}, "learning_rate"),
    ("train", {"adam_beta1": 1.0}, "adam_beta1 must be in [0, 1)"),
    ("train", {"adam_beta1": 1.5}, "adam_beta1 must be in [0, 1)"),
    ("train", {"adam_beta1": -3.0}, "adam_beta1 must be in [0, 1)"),
    ("train", {"adam_beta2": 2.0}, "adam_beta2 must be in [0, 1)"),
    ("train", {"adam_eps": -1.0}, "adam_eps must be > 0"),
    ("train", {"adam_eps": 0.0}, "adam_eps must be > 0"),
    ("train", {"hidden_dims": [4.7]}, "hidden_dims"),
    ("train", {"extractor": None}, "extractor"),
    ("train", {"extractor": {"kind": "class-orthogonal", "seed": "a"}}, "extractor"),
    ("train", {"extractor": {"kind": "class-orthogonal", "sed": 5}}, "'sed'"),
    ("train", {"extractor": {"kind": "factor-coded", "seed": 7}}, "'seed'"),
    ("train", {"extractor": {"kind": "nope"}}, "'nope'"),
    ("gen-data", {"class_count": 2.5}, "class_count"),
    ("gen-data", {"samples_per_class": 2.5}, "samples_per_class"),
    ("gen-data", {"seed": 2.5}, "seed"),
    ("compare", {"epochs": 2.5}, "epochs"),
]


def run_with_config(tmp_path, blob_file, capsys, command, overrides):
    """Run ``command`` with a small valid config changed by ``overrides``;
    returns (exit code, config path, stderr, the --out path)."""
    out = tmp_path / "out"
    if command == "gen-data":
        config = gen_config(tmp_path, **overrides)
        argv = ["gen-data", "--config", str(config), "--out", str(out)]
    else:
        config = train_config(tmp_path, **{"train_fraction": 0.8, "epochs": 2, **overrides})
        argv = [command, str(blob_file), "--config", str(config), "--out", str(out)]
    capsys.readouterr()
    code = main(argv + ["--quiet"])
    return code, config, capsys.readouterr().err, out


@pytest.mark.parametrize(
    "command, overrides, field",
    MISTYPED_CONFIGS,
    ids=[f"{command}-{json.dumps(overrides, separators=(',', ':'))}" for command, overrides, _ in MISTYPED_CONFIGS],
)
def test_mistyped_config_value_exits_2(tmp_path, blob_file, capsys, command, overrides, field):
    code, config, err, out = run_with_config(tmp_path, blob_file, capsys, command, overrides)
    assert code == EXIT_CONFIG
    assert str(config) in err and field in err
    assert not out.exists()


@pytest.mark.parametrize("command, field", [("train", "learning_rate"), ("gen-data", "noise_scale")])
def test_integer_too_large_for_a_float_exits_2(tmp_path, blob_file, capsys, command, field):
    code, config, err, out = run_with_config(tmp_path, blob_file, capsys, command, {field: 10**400})
    assert code == EXIT_CONFIG
    assert str(config) in err and f"field {field!r} must be a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize(
    "overrides, extra_label, message",
    [
        ({"extractor": {"kind": "factor-coded"}}, None, "factor-coded extractor needs a dataset with factor columns"),
        ({}, "2", "class '2' has fewer than 2 samples"),
    ],
    ids=["no-factor-columns", "one-row-class"],
)
def test_data_file_training_cannot_use_is_named(tmp_path, blob_file, capsys, command, overrides, extra_label,
                                                message):
    if extra_label is not None:
        lines = blob_file.read_text().splitlines()
        blob_file.write_text("\n".join([*lines, lines[1].rsplit(",", 1)[0] + "," + extra_label]) + "\n")
    code, _, err, out = run_with_config(tmp_path, blob_file, capsys, command, overrides)
    assert code == EXIT_CONFIG
    assert f"{blob_file}: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags",
    [("train", ["--seed", "-3"]), ("train", ["--lambda-p", "-1"]), ("train", ["--lambda-p", "nan"]),
     ("gen-data", ["--seed", "-1"])],
    ids=["train-seed", "train-lambda-p", "train-lambda-p-nan", "gen-data-seed"],
)
def test_bad_override_of_a_valid_config_names_the_flag(tmp_path, blob_file, capsys, command, flags):
    out = tmp_path / "out"
    if command == "gen-data":
        config = gen_config(tmp_path)
        argv = ["gen-data", "--config", str(config), "--out", str(out)]
    else:
        config = train_config(tmp_path, epochs=2)
        argv = [command, str(blob_file), "--config", str(config), "--out", str(out)]
    assert main(argv + flags) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {flags[0]} {flags[1]}" in err and str(config) not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [("gen-data", ["--seed", "1_0"], "'1_0' is not an integer"),
     ("gen-data", ["--seed", "４２"], "'４２' is not an integer"),
     ("train", ["--seed", "1_0"], "'1_0' is not an integer"),
     ("compare", ["--seed", "٣"], "'٣' is not an integer"),
     ("train", ["--lambda-p", "1_0"], "could not parse '1_0' as a number"),
     ("train", ["--lambda-p", "０.５"], "could not parse '０.５' as a number"),
     ("train", ["--lambda-p", " "], "could not parse '' as a number")],
    ids=["gen-data-seed-underscore", "gen-data-seed-fullwidth", "train-seed-underscore", "compare-seed-arabic-indic",
         "lambda-p-underscore", "lambda-p-fullwidth", "lambda-p-blank"],
)
def test_override_spelled_as_only_python_reads_it_is_refused(tmp_path, blob_file, capsys, command, flags, message):
    # --seed takes what --seeds takes, and --lambda-p what a data cell takes.
    out = tmp_path / "out"
    if command == "gen-data":
        argv = ["gen-data", "--config", str(gen_config(tmp_path)), "--out", str(out)]
    else:
        argv = [command, str(blob_file), "--config", str(train_config(tmp_path, epochs=2)), "--out", str(out)]
    before = sorted(os.listdir(tmp_path))
    with pytest.raises(SystemExit) as exit_info:
        main(argv + flags)
    assert exit_info.value.code == EXIT_CONFIG
    assert f"argument {flags[0]}: {message}\n" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "explain", "compare"])
def test_empty_out_is_refused_before_any_work(tmp_path, blob_file, trained_run, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    if command == "gen-data":
        argv = ["gen-data", "--config", str(gen_config(tmp_path))]
    elif command in ("eval", "explain"):
        argv = [command, str(trained_run / "checkpoint.json"), str(blob_file)]
    else:
        argv = [command, str(blob_file), "--config", str(train_config(tmp_path, epochs=2))]
    before = sorted(os.walk(tmp_path))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", ""])
    assert exit_info.value.code == EXIT_CONFIG
    assert capsys.readouterr().err.endswith("argument --out: an empty path names no file\n")
    assert sorted(os.walk(tmp_path)) == before


def test_override_is_named_only_when_the_file_alone_is_valid(tmp_path, blob_file, capsys):
    out = tmp_path / "out"
    bad = train_config(tmp_path, epochs=2, learning_rate=-1.0)
    assert main(["train", str(blob_file), "--config", str(bad), "--out", str(out), "--seed", "-3"]) == EXIT_CONFIG
    assert f"{bad}: learning_rate must be > 0" in capsys.readouterr().err
    mended = train_config(tmp_path, epochs=2, seed=-1)
    assert main(["train", str(blob_file), "--config", str(mended), "--out", str(out), "--seed", "3",
                 "--quiet"]) == EXIT_OK


@pytest.mark.parametrize("command", ["train", "compare"])
def test_factor_coded_embedding_too_small_names_config_and_data(tmp_path, capsys, command):
    data = tmp_path / "factors.csv"
    assert main(["gen-data", "--config", str(gen_config(tmp_path, factor_count=3)), "--out", str(data),
                 "--quiet"]) == EXIT_OK
    config = train_config(tmp_path, epochs=2, train_fraction=0.8, embedding_dim=8,
                          extractor={"kind": "factor-coded"})
    out = tmp_path / "out"
    assert main([command, str(data), "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{config}: field 'embedding_dim' is 8" in err and f"3 factors of {data}" in err
    assert not out.exists()


# Parameter counts on the 6-feature, 2-class blob file with the test config's
# hidden_dims [16] and embedding_dim 8: (6 + 1) * h + (h + 1) * 8 + 8 * 2 for
# one hidden layer of width h, and (6 + 1) * 16 + (16 + 1) * k + k * 2 for an
# embedding of width k.  The 10**11 case would ask numpy for terabytes if the
# limit were not checked first.
@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize(
    "field, value, count",
    [
        ("hidden_dims", [10**30], 15 * 10**30 + 24),
        ("hidden_dims", [10**400], 15 * 10**400 + 24),
        ("hidden_dims", [10**11], 15 * 10**11 + 24),
        ("embedding_dim", 10**30, 19 * 10**30 + 112),
    ],
    ids=["hidden-10**30", "hidden-10**400", "hidden-10**11", "embedding-10**30"],
)
def test_model_over_the_parameter_limit_exits_2(tmp_path, blob_file, capsys, command, field, value, count):
    code, config, err, out = run_with_config(tmp_path, blob_file, capsys, command, {field: value})
    assert code == EXIT_CONFIG
    assert str(config) in err and f"field {field!r}" in err and f"{count} parameters" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train"])
@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
def test_schema_version_must_be_the_integer_1(tmp_path, blob_file, capsys, command, version):
    code, config, err, out = run_with_config(tmp_path, blob_file, capsys, command, {"schema_version": version})
    assert code == EXIT_CONFIG
    assert str(config) in err and "schema_version" in err
    assert not out.exists()


class TestNotUtf8:
    """A file that is not UTF-8 text exits 2 naming the file."""

    def corrupt(self, path):
        text = path.read_bytes()
        path.write_bytes(text[:40] + b"\xff" + text[40:])

    def test_data_file(self, tmp_path, blob_file, capsys):
        self.corrupt(blob_file)
        out = tmp_path / "run"
        assert main(["train", str(blob_file), "--config", str(train_config(tmp_path)),
                     "--out", str(out)]) == EXIT_CONFIG
        assert str(blob_file) in capsys.readouterr().err
        assert not out.exists()

    def test_config(self, tmp_path, capsys):
        config = gen_config(tmp_path)
        self.corrupt(config)
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert str(config) in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint(self, tmp_path, blob_file, trained_run, capsys):
        checkpoint = trained_run / "checkpoint.json"
        self.corrupt(checkpoint)
        assert main(["eval", str(checkpoint), str(blob_file)]) == EXIT_CONFIG
        assert str(checkpoint) in capsys.readouterr().err


# One valid document per config kind, every field given, for the property below.
VALID_CONFIGS = {
    SynthConfig: {"schema_version": 1, "class_count": 2, "input_dim": 6, "samples_per_class": 4,
                  "factor_count": 1, "factor_tables": [[[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]]],
                  "class_separation": 4.0, "noise_scale": 0.3, "seed": 0},
    TrainConfig: {"schema_version": 1, "epochs": 2, "batch_size": 16, "learning_rate": 0.001,
                  "optimizer": "adam", "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8,
                  "mixup_alpha": 0.2, "lambda_p": 0.5, "loss": "proto", "hidden_dims": [16],
                  "embedding_dim": 8, "train_fraction": 0.8, "seed": 0,
                  "extractor": {"kind": "class-orthogonal", "seed": 3}},
}

# Any JSON value, with integers too large for a float and negative ones drawn often.
ANY_JSON = st.one_of(
    st.sampled_from([10**400, -10**400, -1]),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    ),
)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_document_loads_or_names_its_file(tmp_path, data):
    """A config with one or two fields replaced by any JSON value loads, or
    raises ConfigError naming the file; nothing else escapes."""
    config_class = data.draw(st.sampled_from(sorted(VALID_CONFIGS, key=lambda c: c.__name__)))
    doc = dict(VALID_CONFIGS[config_class])
    for key in data.draw(st.lists(st.sampled_from(sorted(doc)), min_size=1, max_size=2, unique=True)):
        doc[key] = data.draw(ANY_JSON)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    try:
        config = _load_config(path, config_class)
    except ConfigError as e:
        assert str(e).startswith(f"{path}: ")
    else:
        assert isinstance(config, config_class)


# A checkpoint without its extractor field and two extractor documents (one
# of each kind) that eval accepts embedded in it, for the malformed-document
# property below.
@pytest.fixture(scope="module")
def valid_documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("documents")
    data = root / "data.csv"
    config = gen_config(root, factor_count=1, input_dim=6)
    assert main(["gen-data", "--config", str(config), "--out", str(data), "--quiet"]) == EXIT_OK
    run = root / "run"
    assert main(["train", str(data), "--config", str(train_config(root, epochs=2)),
                 "--out", str(run), "--quiet"]) == EXIT_OK
    checkpoint = json.loads((run / "checkpoint.json").read_text())
    coder = fit_factor_coder(load_table(data))
    return {
        "data": data,
        "class-orthogonal": checkpoint.pop("extractor"),
        "checkpoint": checkpoint,
        "factor-coded": extractor_to_doc(FactorCodedExtractor(coder, 8)),
    }


def eval_with(documents, tmp_dir, checkpoint=None, extractor=None):
    """Exit code of eval on ``checkpoint`` with ``extractor`` embedded in it,
    and the checkpoint's path."""
    doc = dict(documents["checkpoint"] if checkpoint is None else checkpoint)
    doc["extractor"] = documents["class-orthogonal"] if extractor is None else extractor
    ckpt = tmp_dir / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    return main(["eval", str(ckpt), str(documents["data"]), "--quiet"]), ckpt


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=4),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def broken_copies(draw, doc):
    """``(copy, key)``: ``doc`` with one top-level key dropped or given a
    value of another type."""
    key = draw(st.sampled_from(sorted(doc)))
    broken = dict(doc)
    if draw(st.booleans()):
        del broken[key]
    else:
        broken[key] = draw(JSON_VALUES.filter(lambda v: type(v) is not type(doc[key])))
    return broken, key


class TestMalformedDocuments:
    def test_valid_documents_accepted(self, valid_documents, tmp_path):
        assert eval_with(valid_documents, tmp_path)[0] == EXIT_OK
        assert eval_with(valid_documents, tmp_path, extractor=valid_documents["factor-coded"])[0] == EXIT_OK

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_broken_document_exits_2(self, valid_documents, tmp_path, capsys, data):
        which = data.draw(st.sampled_from(["checkpoint", "class-orthogonal", "factor-coded"]))
        broken, key = data.draw(broken_copies(valid_documents[which]))
        if which == "checkpoint":
            code, ckpt = eval_with(valid_documents, tmp_path, checkpoint=broken)
        else:
            code, ckpt = eval_with(valid_documents, tmp_path, extractor=broken)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(ckpt) in err
        if which != "checkpoint":  # an extractor's entries are named at their full path
            assert f"'extractor.{key}" in err, err


@st.composite
def entry_paths(draw, doc):
    """An entry of a JSON document at any depth, as a tuple of keys and
    indices: a walk from the top that stops at each level with even odds, so
    the few top-level entries are drawn as often as the many matrix cells."""
    path, value = (), doc
    while True:
        key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
        path, value = path + (key,), value[key]
        if not isinstance(value, (dict, list)) or not value or draw(st.booleans()):
            return path


def dotted(path):
    """A path tuple as the messages name it, such as ``embedder.layers[1].weight``."""
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path).lstrip(".")


# One value of each JSON type; lists and objects hold numbers and nested lists.
JSON_BY_TYPE = {
    type(None): st.none(),
    bool: st.booleans(),
    float: st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=4),
    list: st.lists(st.integers() | st.lists(st.floats(allow_nan=False), max_size=2), max_size=3),
    dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}
INF_1E400 = "1e400 written as text"  # json.dumps would write Infinity


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_checkpoint_entry_broken_exits_2_naming_its_path(tmp_path, blob_file, trained_run, factor_run, capsys,
                                                            data):
    """Any entry of a checkpoint of either extractor kind, dropped or given a
    value of another JSON type (or, at a number, NaN or 1e400): eval exits 2
    with one line naming the checkpoint and a field that is the entry, one
    of its ancestors or one of its descendants.  Only ``"extractor": null``,
    a model trained without prototypes, is valid."""
    checkpoint, data_file = data.draw(st.sampled_from([(trained_run / "checkpoint.json", blob_file), factor_run]))
    doc = json.loads(checkpoint.read_text())
    path = data.draw(entry_paths(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kind = float if type(parent[path[-1]]) is int else type(parent[path[-1]])
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        others = [strategy for json_type, strategy in JSON_BY_TYPE.items() if json_type is not kind]
        if kind is float:
            others.append(st.sampled_from([float("nan"), INF_1E400]))
        parent[path[-1]] = data.draw(st.one_of(others))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc).replace(json.dumps(INF_1E400), "1e400"))
    code = main(["eval", str(broken), str(data_file), "--quiet"])
    err = capsys.readouterr().err
    if path == ("extractor",) and doc.get("extractor", ...) is None:
        assert (code, err) == (EXIT_OK, "")
        return
    assert code == EXIT_CONFIG
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {broken}: "), err
    entry = dotted(path)
    fields = re.findall(r"field '([^']*)'", err)
    assert any(field == entry or entry.startswith((field + ".", field + "[")) or
               field.startswith((entry + ".", entry + "[")) for field in fields), (entry, err)

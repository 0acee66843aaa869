"""Memory bounds of the table writer and reader, of explain's document
writer, of the forward pass and of eval's relevance check, by tracemalloc's
peak over the call: each handles a chunk (or slice) of rows at a time, or
keeps one array per layer, so its peak stays far below that of holding the
whole table text, its list of lines, the whole document, a hidden layer's
pre-activation next to its activation, or the whole ``(n, k, C)`` relevance.

The bounds are about twice the peaks measured with numpy 2.4.6 on x86_64
Linux: for a 10,000-row table of 64 features and 3 factors, ``save_dataset``
1.0 MB and ``load_table`` 11.0 MB (of which the values and the features'
contiguous copy are 10.5 MB); for 2,000 explained rows, writing
``explanations.json`` 3.3 MB, which one slice's document sets; for
``_eval_doc`` of 10,000 rows of 64 features and 16 classes under widths
``(64, 32, 16)``, 13.8 MB.  Holding
everything at once took 39.9, 25.0, 12.8 and 49.0 MB (the last with its 39.1
MB relevance).  ``forward`` through hidden layers ``(64, 64)`` holds two
``(10000, 64)`` arrays of 4.9 MB each and peaks at 10.9 MB; with each
pre-activation kept it held four and peaked at 20.7 MB, so twice the peak
would not tell them apart, and its bound is three such arrays.  ``load_table``
of 3 listed rows of the 10,000-row table peaks at 0.13 MB; its bound of 1 MB
is under a tenth of the whole read's peak.  With a bad cell in listed row 7
it peaks at 0.05 MB, where a whole-file read of the lines to name the cell
peaked at 13.2 MB.
"""

import re
import tracemalloc

import numpy as np
import pytest

from fixedproto.cli import _eval_doc, _explanations_text, _write
from fixedproto.data import Dataset, load_table, save_dataset
from fixedproto.explain import explain_sample
from fixedproto.model import forward, init_params
from fixedproto.prototypes import class_orthogonal_extractor
from util import pack

MB = 2**20


def traced_peak(call) -> float:
    """The largest memory, in MB, that ``call()`` held at once beyond what was held before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    rng = np.random.default_rng(0)
    n = 10_000
    dataset = Dataset(X=rng.standard_normal((n, 64)), Y=np.identity(4)[np.arange(n) % 4],
                      factors=rng.uniform(-1.5, 1.5, (n, 3)), class_names=("0", "1", "2", "3"),
                      factor_names=("alpha_0", "alpha_1", "alpha_2"))
    return dataset, tmp_path_factory.mktemp("table") / "data.csv"


def test_save_dataset_holds_a_chunk_of_rows(table):
    dataset, path = table
    assert traced_peak(lambda: save_dataset(dataset, path)) < 2.0


def test_load_table_holds_no_list_of_lines(table):
    dataset, path = table
    if not path.exists():
        save_dataset(dataset, path)
    assert traced_peak(lambda: load_table(path)) < 20.0


def test_load_table_of_listed_rows_holds_none_of_the_others(table):
    # explain's read of the rows it explains: every line is checked, but
    # only these rows' cells are parsed and held.
    dataset, path = table
    if not path.exists():
        save_dataset(dataset, path)
    assert traced_peak(lambda: load_table(path, rows=[0, 7, 500])) < 1.0


def test_bad_cell_in_a_listed_row_is_named_without_reading_the_file_whole(table, tmp_path):
    dataset, path = table
    if not path.exists():
        save_dataset(dataset, path)
    bad = tmp_path / "bad.csv"
    with open(path) as src, open(bad, "w") as dst:
        for i, line in enumerate(src):
            dst.write("abc," + line.split(",", 1)[1] if i == 1 + 7 else line)
    message = f"{bad}: row 9, column 'f0': could not parse 'abc' as a number"

    def load():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_table(bad, rows=[0, 7, 500])

    assert traced_peak(load) < 1.0


def test_explanations_document_is_written_a_slice_of_rows_at_a_time(tmp_path):
    rng = np.random.default_rng(0)
    model = pack([(rng.standard_normal((16, 64)) / 8, np.zeros(16))], rng.standard_normal((16, 4)))
    expl = explain_sample(*model, rng.standard_normal((2_000, 64)))
    assert traced_peak(lambda: _write(tmp_path / "explanations.json", _explanations_text(expl))) < 7.0


def test_forward_keeps_one_array_per_hidden_layer():
    X = np.random.default_rng(0).standard_normal((10_000, 64))
    widths = (64, 64, 64, 2, 2)
    params = init_params(widths, 0, 1)
    layer_mb = X.nbytes / MB
    assert traced_peak(lambda: forward(widths, params, X)) < 3 * layer_mb


def test_eval_never_holds_the_whole_relevance():
    rng = np.random.default_rng(0)
    n, widths = 10_000, (64, 32, 16)
    dataset = Dataset(X=rng.standard_normal((n, 64)), Y=np.identity(16)[np.arange(n) % 16], factors=None,
                      class_names=tuple(map(str, range(16))), factor_names=())
    extractor = class_orthogonal_extractor(16, 32, 0)
    assert traced_peak(lambda: _eval_doc(widths, init_params(widths, 0, 1), extractor, dataset)) < 28.0

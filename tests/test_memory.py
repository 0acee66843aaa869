"""Memory bounds of the table writer and reader and of explain's document
writer, by tracemalloc's peak over the call: each handles a chunk (or slice)
of rows at a time, so its peak stays far below that of holding the whole
table text, its list of lines, or the whole document.

The bounds are about twice the peaks measured with numpy 2.4.6 on x86_64
Linux: for a 10,000-row table of 64 features and 3 factors, ``save_dataset``
1.0 MB and ``load_table`` 11.0 MB (of which the values and the features'
contiguous copy are 10.5 MB); for 2,000 explained rows, writing
``explanations.json`` 6.6 MB, which one slice's document sets.  Holding
everything at once took 39.9, 25.0 and 28.0 MB.
"""

import tracemalloc

import numpy as np
import pytest

from fixedproto.cli import _explanations_text, _write
from fixedproto.data import Dataset, load_table, save_dataset
from fixedproto.explain import explain_sample
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


def test_explanations_document_is_written_a_slice_of_rows_at_a_time(tmp_path):
    rng = np.random.default_rng(0)
    model = pack([(rng.standard_normal((16, 64)) / 8, np.zeros(16))], rng.standard_normal((16, 4)))
    expl = explain_sample(*model, rng.standard_normal((2_000, 64)))
    assert traced_peak(lambda: _write(tmp_path / "explanations.json", _explanations_text(expl))) < 13.0

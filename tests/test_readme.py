"""The README's "Library use" section runs as written, and the package root
exports no name that the section leaves undocumented."""

import re
import types
from pathlib import Path

import fixedproto

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_runs_as_written_and_documents_every_export():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library use\n")
    section = text[start:text.index("\n### Removed in this version\n", start)]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:  # in order, each building on the names of the ones before
        exec(compile(block, str(README), "exec"), namespace)
    assert 0.0 <= namespace["history"]["rows"][-1]["val_accuracy"] <= 1.0

    exported = [name for name, value in vars(fixedproto).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    undocumented = [name for name in exported if not re.search(rf"\b{name}\b", section)]
    assert exported and not undocumented

"""Every entry point the bench's traced run times still exists.

``perfbench/tracing.py`` patches the package's layer entry points by
module and attribute path, and skips one it cannot find, so a renamed or
deleted entry point would read as a zero per-layer metric instead of an
error.  This checks each span's path in the package as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name,module,path", [span[:3] for span in tracing.SPANS],
                         ids=[span[0] for span in tracing.SPANS])
def test_every_traced_span_resolves_in_the_package(name, module, path):
    owner, attr = tracing._owner(path, importlib.import_module(module))
    assert owner is not None, "span %s: %s.%s not found" % (name, module, path)
    assert callable(vars(owner)[attr])

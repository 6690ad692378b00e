"""Every dcsh function the traced benchmark run wraps still exists.

`perfbench/run.py --trace 1` wraps the functions named in
`perfbench/spans.py` `TARGETS`; a rename there would only show as a
failed traced run. This test loads that file by path (perfbench is not
a package) and resolves each entry the way its wrapper does: a module
attribute, or an entry in a class's own `__dict__`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, *_ in module.TARGETS]


@pytest.mark.parametrize("module_name, attr", load_targets())
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner, _, leaf = attr.rpartition(".")
    if owner:
        assert leaf in vars(getattr(module, owner)), f"{module_name}.{attr}"
    else:
        assert callable(getattr(module, leaf, None)), f"{module_name}.{attr}"

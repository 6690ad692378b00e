"""The benchmark's split rule agrees with dcsh's.

`perfbench/workloads.py` checks every encode step against ids it takes
from its own tag strings: a row is in `split` when `split in
tag.split("+")`. If dcsh selected other rows, the benchmark's encode
operations would fail. `perfbench/gen.py`, which imports no dcsh, is
loaded by path (perfbench is not a package); the split file it writes
is read back with `formats.read_split`.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dcsh import formats
from dcsh.data import split_indices

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (n_train, n_query, classes, multilabel_p) of the pipeline workloads.
@pytest.mark.parametrize("n_train, n_query, classes, multilabel_p", [
    (5000, 556, 10, 0.0),
    (20000, 400, 20, 0.4),
], ids=["quickstart", "multilabel"])
@pytest.mark.parametrize("seed", [0, 1])
def test_split_ids_agree(tmp_path, n_train, n_query, classes, multilabel_p,
                         seed):
    gen = load_gen()
    _, _, tags = gen.clouds(gen.rng_for(seed, 1), n_train, n_query, 32,
                            classes, 12.0, multilabel_p)
    path = tmp_path / "splits.txt"
    gen.write_splits(path, tags)
    roles = formats.read_split(path)
    for split in ("gallery", "query"):
        np.testing.assert_array_equal(
            split_indices(roles, split),
            [n for n, t in enumerate(tags) if split in t.split("+")],
        )

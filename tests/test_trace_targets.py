"""Every dcsh function the traced benchmark run wraps still exists, and
training and retrieval still reach the ones its per-layer metrics time.

`perfbench/run.py --trace 1` wraps the functions named in
`perfbench/spans.py` `TARGETS`; a rename there would only show as a
failed traced run, and a hot path that stops calling a wrapped name
would only show as a metric that reads zero. These tests load that file
by path (perfbench is not a package), resolve each entry the way its
wrapper does (a module attribute, or an entry in a class's own
`__dict__`), and count the calls of one tiny traced training run and
one tiny traced retrieval run.

The benchmark step `perfbench/step.py` also calls dcsh functions that
no target wraps, such as `retrieval.unpack_codes`. Its source is read
with `ast`, without importing it, and every `cli.*`, `formats.*` and
`retrieval.*` call in it must resolve.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dcsh import formats, network, retrieval
from dcsh.centers import gen_hadamard_centers
from dcsh.data import gen_synthetic

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
STEP = SPANS.with_name("step.py")
STEP_MODULES = ("cli", "formats", "retrieval")

# Spans of the training step that must each see at least one call.
TRAINING_SPANS = (
    "network.forward_batch",
    "network.backward",
    "network.sgd_step",
    "cca.dcsh_loss",
    "numerics.as_matrix",
    "numerics.inv_sqrt_sym",
    "numerics.thin_svd",
    "centers.update_centers",
)

# Spans of the eval and top-k paths that must each see at least one call;
# `retrieval.rank.s` is the self time of `query_topk` plus `map_at_k`.
RETRIEVAL_SPANS = (
    "kernels.scan_distances",
    "retrieval.relevance_mask",
    "retrieval.query_topk",
    "retrieval.map_at_k",
    "retrieval.average_precision",
    "retrieval.pr_curve",
)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", [
    (module_name, attr) for module_name, attr, *_ in load_spans().TARGETS
])
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner, _, leaf = attr.rpartition(".")
    if owner:
        assert leaf in vars(getattr(module, owner)), f"{module_name}.{attr}"
    else:
        assert callable(getattr(module, leaf, None)), f"{module_name}.{attr}"


def step_calls():
    """(module, dotted attribute) of every call in `perfbench/step.py`
    made through a name in STEP_MODULES, e.g. `retrieval.PackedCodeIndex`
    `.from_bits` -> ("retrieval", "PackedCodeIndex.from_bits")."""
    calls = set()
    for node in ast.walk(ast.parse(STEP.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.insert(0, func.attr)
            func = func.value
        if parts and isinstance(func, ast.Name) and func.id in STEP_MODULES:
            calls.add((func.id, ".".join(parts)))
    return sorted(calls)


def test_step_calls_are_found():
    calls = step_calls()
    assert ("retrieval", "unpack_codes") in calls
    assert ("cli", "main") in calls


@pytest.mark.parametrize("module_name, attr", step_calls())
def test_step_call_resolves(module_name, attr):
    obj = importlib.import_module(f"dcsh.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    assert callable(obj), f"dcsh.{module_name}.{attr}"


def test_training_reaches_the_timed_targets():
    spans = load_spans()
    dataset = gen_synthetic(N=220, D=8, C=4, seed=0, query_frac=0.2)
    config = network.TrainConfig(epochs=1, batch_size=44, lr=1e-3)
    model = network.build_model(D=8, C=4, bits=8, hidden=(16,), d_int=20)
    with spans.installed(spans.Tracer()) as tracer:
        # looked up at call time, so the call goes through the wrapper
        network.train(model, config, dataset, gen_hadamard_centers(8, 4))
    for name in TRAINING_SPANS:
        assert tracer.counts[name + ".calls"] > 0, name


def test_load_dataset_builds_the_label_table(tmp_path):
    """Training takes its label table from `load_dataset`, so the
    `data.multi_hot.*` metrics time that one call, over all N rows."""
    spans = load_spans()
    paths = [tmp_path / name for name in ("f.bin", "l.txt", "s.txt")]
    formats.save_dataset(
        gen_synthetic(N=50, D=6, C=3, multilabel_p=0.4, seed=0), *paths
    )
    with spans.installed(spans.Tracer()) as tracer:
        dataset = formats.load_dataset(*paths)
    assert tracer.counts["data.multi_hot.calls"] == 1
    assert tracer.counts["data.multi_hot.rows"] == dataset.N == 50


def test_retrieval_reaches_the_timed_targets():
    spans = load_spans()
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(20, 8), dtype=np.uint8)
    gallery = retrieval.PackedCodeIndex.from_bits(
        bits, np.arange(20), labels=[[i % 2] for i in range(20)]
    )
    queries = retrieval.PackedCodeIndex.from_bits(
        bits[:3], np.arange(100, 103), labels=[[0], [1], [0]]
    )
    with spans.installed(spans.Tracer()) as tracer:
        retrieval.query_topk(gallery, "01100101", 5)
        retrieval.map_at_k(queries, gallery, 5, "same-class")
        retrieval.pr_curve(queries, gallery, "same-class")
    for name in RETRIEVAL_SPANS:
        assert tracer.counts[name + ".calls"] > 0, name

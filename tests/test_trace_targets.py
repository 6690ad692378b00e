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
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dcsh import network, retrieval
from dcsh.centers import gen_hadamard_centers
from dcsh.data import gen_synthetic

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

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

"""The benchmark's retrieval step runs against this dcsh.

`perfbench/step.py` loads a gallery the way `dcsh eval-*` does: it reads
the label file, hands each code id's label set from `read_labels` to
`PackedCodeIndex`, and builds each eval block's index from the query
index's own `labels`. A break in that path would only show as a refused
benchmark run, so this runs the step's retrieval work on a small
gallery and checks it against the brute-force oracles. perfbench is not
a package: `gen.py`, `oracles.py`, `spans.py` and `step.py` are loaded
by path, and none of them is edited.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
K = 100


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def step(monkeypatch):
    # step.py does `import spans`, as it does when run from perfbench/.
    monkeypatch.setitem(sys.modules, "spans", load("spans"))
    return load("step")


@pytest.mark.parametrize("rule, second_p", [
    ("same-class", 0.0),
    ("share-any-label", 0.4),
])
def test_retrieval_step_matches_brute_force(tmp_path, step, rule, second_p):
    gen, oracles = load("gen"), load("oracles")
    n_gallery, n_topk, n_eval, blocks, classes = 2_900, 60, 40, 4, 8
    rng = gen.rng_for(0, 2)
    bits, base = gen.centers_with_flips(rng, n_gallery + n_topk + n_eval,
                                        64, classes, 0.15)
    second = (base + rng.integers(1, classes, size=base.size)) % classes
    labels = [tuple(sorted({int(b), int(s)})) if extra else (int(b),)
              for b, s, extra in zip(base, second,
                                     rng.random(base.size) < second_p)]
    ids = np.arange(bits.shape[0])
    paths = {x: str(tmp_path / f"{x}.txt")
             for x in ("gallery", "queries", "labels")}
    gen.write_codes_text(paths["gallery"], ids[:n_gallery], bits[:n_gallery])
    gen.write_codes_text(paths["queries"], ids[n_gallery:], bits[n_gallery:])
    gen.write_labels(paths["labels"], labels, classes)
    spec = {**paths, "topk_queries": n_topk, "eval_queries": n_eval,
            "eval_blocks": blocks, "passes": 1, "k": K, "rule": rule}

    out, arrays = step._run_retrieval(spec, None)

    g_bits, q_bits = bits[:n_gallery], bits[n_gallery:]
    g_ids, g_labels = ids[:n_gallery], labels[:n_gallery]
    dist = oracles.hamming_matrix(q_bits, g_bits)
    for i in range(n_topk):
        pos = oracles.topk(dist[i], g_ids, K)
        np.testing.assert_array_equal(arrays["topk_ids"][i], g_ids[pos])
        np.testing.assert_array_equal(arrays["topk_dists"][i], dist[i, pos])
    q_labels = labels[n_gallery:]
    rel = oracles.relevance(q_labels, g_labels, rule)
    eval_rows = np.array_split(np.arange(n_topk, n_topk + n_eval), blocks)
    for b, rows in enumerate(eval_rows):
        np.testing.assert_array_equal(arrays["eval_query_ids"][b],
                                      n_gallery + rows)
        want = [oracles.average_precision(
            rel[i][oracles.topk(dist[i], g_ids, K)], rel[i].sum()
        ) for i in rows]
        np.testing.assert_allclose(arrays["aps"][b], want, rtol=0, atol=1e-12)
        assert out["map"][b] == pytest.approx(np.mean(want), abs=1e-12)
        recall, precision = oracles.pr_curve(dist[rows], rel[rows], 64)
        np.testing.assert_allclose(arrays["recall"][b], recall, atol=1e-12)
        np.testing.assert_allclose(arrays["precision"][b], precision,
                                   atol=1e-12)
    np.testing.assert_array_equal(arrays["thresholds"], np.arange(65))

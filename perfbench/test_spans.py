"""Self-time arithmetic and wrapper installation for the traced run.

Run with: python3 -m pytest perfbench -q
"""

import sys
import types

import pytest

import spans


def test_self_time_subtracts_children():
    # parent [0, 100] with children [10, 30] and [40, 70]
    start, end, parent = [0, 10, 40], [100, 30, 70], [-1, 0, 0]
    assert spans.self_times(start, end, parent) == [50, 20, 30]


def test_self_time_counts_overlap_once_and_clips():
    # children [10, 50] and [40, 60] cover [10, 60]; [90, 120] is clipped
    # to [90, 100]
    start, end, parent = [0, 10, 40, 90], [100, 50, 60, 120], [-1, 0, 0, 0]
    assert spans.self_times(start, end, parent)[0] == 100 - 50 - 10


def test_self_time_only_direct_children():
    # grandchild time belongs to the child's total, not twice to the root
    start, end, parent = [0, 10, 20], [100, 60, 30], [-1, 0, 1]
    assert spans.self_times(start, end, parent) == [50, 40, 10]


def _tracer_with(spans_list):
    tracer = spans.Tracer()
    for name, s, e, p in spans_list:
        if name not in tracer.names:
            tracer.names.append(name)
        tracer.name_id.append(tracer.names.index(name))
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
    return tracer


def test_summarize_totals_and_self_times():
    tracer = _tracer_with([
        ("retrieval.query_topk", 0, 1_000_000_000, -1),
        ("retrieval.distances", 100_000_000, 400_000_000, 0),
        ("retrieval.query_topk", 2_000_000_000, 2_500_000_000, -1),
        ("retrieval.distances", 2_000_000_000, 2_100_000_000, 2),
    ])
    out = spans.summarize(tracer)
    assert out["retrieval.query_topk.s"] == pytest.approx(1.5)
    assert out["retrieval.query_topk.self_s"] == pytest.approx(1.1)
    assert out["retrieval.distances.s"] == pytest.approx(0.4)
    assert out["retrieval.distances.self_s"] == pytest.approx(0.4)


@pytest.fixture
def fakepkg():
    """fakepkg.a defines the functions; fakepkg.b imports them by name,
    the way dcsh.network imports from dcsh.centers."""
    a = types.ModuleType("fakepkg.a")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "class Index:\n"
        "    def __init__(self, n):\n        self.n = n\n"
        "    @classmethod\n    def build(cls, n):\n        return cls(n)\n"
        "    def size(self):\n        return self.n\n",
        a.__dict__,
    )
    b = types.ModuleType("fakepkg.b")
    b.leaf = a.leaf
    exec("def outer(x):\n    return leaf(x) * 2\n", b.__dict__)
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        del sys.modules[name]


def test_wrappers_installed_only_inside_block(fakepkg):
    a, b = fakepkg
    original_leaf, original_build = a.leaf, a.Index.__dict__["build"]
    tracer = spans.Tracer()
    targets = (
        ("fakepkg.a", "leaf", "a.leaf", lambda args, r: args[0]),
        ("fakepkg.a", "Index.build", "a.build", None),
        ("fakepkg.a", "Index.size", "a.size", None),
    )
    with spans.installed(tracer, targets, package="fakepkg"):
        assert b.outer(3) == 8
        assert a.Index.build(5).size() == 5
    assert b.leaf is original_leaf and a.leaf is original_leaf
    assert a.Index.__dict__["build"] is original_build
    assert b.outer(3) == 8
    assert tracer.counts == {"a.leaf.calls": 1, "a.leaf.rows": 3,
                             "a.build.calls": 1, "a.size.calls": 1}
    assert tracer.names == ["a.leaf", "a.build", "a.size"]


def test_wrappers_removed_after_an_error(fakepkg):
    a, b = fakepkg
    original = a.leaf
    tracer = spans.Tracer()
    with pytest.raises(TypeError):
        with spans.installed(tracer, (("fakepkg.a", "leaf", "a.leaf", None),),
                             package="fakepkg"):
            b.outer("x")
    assert a.leaf is original and b.leaf is original
    assert tracer.end[0] >= tracer.start[0]


def test_forward_split_by_training_batch(fakepkg):
    a, _ = fakepkg
    exec(
        "class Config:\n    batch_size = 4\n"
        "class Batch:\n    def __init__(self, n):\n        self.shape = (n, 1)\n"
        "def forward(model, batch):\n    return batch.shape[0]\n"
        "def train(model, config):\n"
        "    forward(model, Batch(4))\n    forward(model, Batch(10))\n",
        a.__dict__,
    )
    tracer = spans.Tracer()
    targets = (
        ("fakepkg.a", "train", "network.train", None),
        ("fakepkg.a", "forward", None, lambda args, r: args[1].shape[0]),
    )
    with spans.installed(tracer, targets, package="fakepkg"):
        a.train(None, a.Config())
        a.forward(None, a.Batch(4))   # outside training: a full pass
    assert tracer.counts["network.forward_batch.rows"] == 4
    assert tracer.counts["network.forward_full.rows"] == 14
    assert [tracer.names[i] for i in tracer.name_id] == [
        "network.train", "network.forward_batch", "network.forward_full",
        "network.forward_full"]
    assert list(tracer.parent) == [-1, 0, 0, -1]

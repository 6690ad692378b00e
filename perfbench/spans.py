"""Spans for the traced run: module-level wrappers around dcsh functions.

A span has a name, a start, an end (perf_counter_ns) and the index of
its parent span (-1 at the top). Spans are kept in memory in flat
arrays and written out when the step ends. The wrappers are installed
only for a traced step and removed afterwards: `installed()` replaces
every reference to a wrapped function in every loaded dcsh module,
because `train` and the eval functions look names up in their own
module's globals (`from .centers import assign_target`).
"""

import contextlib
import importlib
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute or Class.attribute, span name or None for forward,
#  rows counter or None). A rows counter maps (args, result) to an int.
TARGETS = (
    ("dcsh.network", "train", "network.train", None),
    ("dcsh.network", "forward", None, lambda a, r: a[1].shape[0]),
    ("dcsh.network", "backward", "network.backward", None),
    ("dcsh.network", "sgd_step", "network.sgd_step", None),
    ("dcsh.cca", "dcsh_loss", "cca.dcsh_loss", None),
    ("dcsh.numerics", "as_matrix", "numerics.as_matrix", None),
    ("dcsh.numerics", "inv_sqrt_sym", "numerics.inv_sqrt_sym", None),
    ("dcsh.numerics", "thin_svd", "numerics.thin_svd", None),
    ("dcsh.centers", "assign_target", "centers.assign_target", None),
    ("dcsh.centers", "update_centers", "centers.update_centers", None),
    ("dcsh.data", "multi_hot", "data.multi_hot", lambda a, r: len(a[0])),
    ("dcsh.formats", "read_codes_text", "formats.read_codes_text",
     lambda a, r: len(r[0])),
    ("dcsh.formats", "read_labels", "formats.read_labels", None),
    ("dcsh.retrieval", "PackedCodeIndex.from_bits", "retrieval.from_bits", None),
    ("dcsh.retrieval", "PackedCodeIndex.distances", "retrieval.distances", None),
    ("dcsh.kernels", "scan_distances", "kernels.scan_distances",
     lambda a, r: a[0].shape[0]),
    ("dcsh.retrieval", "relevance_mask", "retrieval.relevance_mask",
     lambda a, r: a[1].N),
    ("dcsh.retrieval", "query_topk", "retrieval.query_topk", None),
    ("dcsh.retrieval", "map_at_k", "retrieval.map_at_k", None),
    ("dcsh.retrieval", "average_precision", "retrieval.average_precision", None),
    ("dcsh.retrieval", "pr_curve", "retrieval.pr_curve", None),
)


class Tracer:
    """In-memory span store with per-name call and row counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = []
        self.counts = defaultdict(int)
        # Set by the `network.train` wrapper while a training run is open.
        self.batch_size = None
        self.target_keys = set()

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)


def _wrap(tracer, fn, name, rows):
    def call(*args, **kwargs):
        span = name
        if span is None:
            span = (
                "network.forward_batch"
                if tracer.batch_size == args[1].shape[0]
                else "network.forward_full"
            )
        if span == "network.train":
            tracer.batch_size = args[1].batch_size
        elif span == "centers.assign_target":
            tracer.target_keys.add((tuple(args[0]), args[1].epoch))
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            if span == "network.train":
                tracer.batch_size = None
        tracer.counts[span + ".calls"] += 1
        if rows is not None:
            tracer.counts[span + ".rows"] += int(rows(args, result))
        return result

    call.__wrapped__ = fn
    return call


@contextlib.contextmanager
def installed(tracer, targets=TARGETS, package="dcsh"):
    """Wrap every target for the duration of the block, then restore the
    original objects exactly."""
    undo = []
    try:
        for module_name, attr, name, rows in targets:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                raw = cls.__dict__[leaf]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, raw.__func__, name, rows))
                else:
                    new = _wrap(tracer, raw, name, rows)
                undo.append((cls, leaf, raw))
                setattr(cls, leaf, new)
                continue
            original = getattr(module, leaf)
            wrapped = _wrap(tracer, original, name, rows)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == package or mod_name.startswith(package + ".")
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)


# ------------------------------------------------------------------ summary

def self_times(start, end, parent):
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and merged before
    subtracting, so overlapping or out-of-range children count once.
    """
    n = len(start)
    children = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = []
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def summarize(tracer):
    """Per-name totals in seconds: inclusive (`<name>.s`) and self
    (`<name>.self_s`), plus the call and row counters."""
    total = defaultdict(int)
    own = defaultdict(int)
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    for nid, s, e, st in zip(tracer.name_id, tracer.start, tracer.end, selfs):
        name = tracer.names[nid]
        total[name] += e - s
        own[name] += st
    out = {}
    for name in total:
        out[name + ".s"] = total[name] / 1e9
        out[name + ".self_s"] = own[name] / 1e9
    out.update(tracer.counts)
    out["centers.target_keys"] = len(tracer.target_keys)
    return out

"""One benchmark step in its own process: `python3 perfbench/step.py SPEC`.

SPEC is a JSON file naming the step. The step imports dcsh from the
checkout's `src/`, optionally installs the tracing wrappers, does its
work, and writes what it measured to SPEC's `out` path (JSON) plus, for
retrieval steps, the results to check to `arrays` (npz). Its peak RSS is
this process's own, so every step reports its own peak.

Step kinds:
  cli        `dcsh.cli.main(argv)`, timed as one span `cli.<subcommand>`.
  retrieval  load a gallery code file into a PackedCodeIndex, then a
             closed loop of `query_topk` calls, one query at a time, over
             the query file `passes` times; optionally `map_at_k` and
             `pr_curve` over `eval_blocks` blocks of the last
             `eval_queries` queries, alternating with the top-k calls.
"""

import json
import os
import resource
import sys
import time

import numpy as np

import spans


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_cli(spec, tracer):
    from dcsh import cli

    argv = spec["argv"]
    start = time.perf_counter()
    if tracer is None:
        rc = cli.main(argv)
    else:
        with tracer.span(f"cli.{argv[0]}"):
            rc = cli.main(argv)
    return {"rc": rc, "seconds": time.perf_counter() - start}, {}


def _load(formats, retrieval, code_path, by_id):
    """What `dcsh eval-*` and `dcsh query` do to load a code file."""
    ids, bits = formats.read_codes_text(code_path)
    labels = None if by_id is None else [by_id[int(i)] for i in ids]
    return retrieval.PackedCodeIndex.from_bits(bits, ids, labels=labels)


def _run_retrieval(spec, tracer):
    from dcsh import formats, retrieval

    start = time.perf_counter()
    by_id = None
    if spec.get("labels"):
        by_id, _ = formats.read_labels(spec["labels"])
    gallery = _load(formats, retrieval, spec["gallery"], by_id)
    queries = _load(formats, retrieval, spec["queries"], by_id)
    load_s = time.perf_counter() - start

    q_bits = retrieval.unpack_codes(queries.words, queries.B)
    n_topk = min(spec["topk_queries"], queries.N)
    codes = ["".join("1" if b else "0" for b in row) for row in q_bits[:n_topk]]
    codes *= spec["passes"]
    k = spec["k"]
    latency = np.empty(len(codes))
    topk_ids = np.empty((len(codes), min(k, gallery.N)), dtype=np.int64)
    topk_dists = np.empty_like(topk_ids)
    n_eval = spec.get("eval_queries", 0)
    blocks = spec.get("eval_blocks", 1)
    chunks = np.array_split(np.arange(len(codes)), blocks)
    eval_ids = np.array_split(np.arange(queries.N - n_eval, queries.N), blocks)
    out = {"rc": 0, "load_s": load_s, "topk_s": 0.0, "map_s": [], "pr_s": [],
           "map": []}
    arrays = {"aps": [], "eval_query_ids": [], "recall": [], "precision": []}
    # Top-k chunks alternate with eval blocks so both spread over the step.
    for chunk, rows in zip(chunks, eval_ids):
        loop_start = time.perf_counter()
        for i in chunk:
            start = time.perf_counter()
            result = retrieval.query_topk(gallery, codes[i], k)
            latency[i] = time.perf_counter() - start
            topk_ids[i] = result.ids
            topk_dists[i] = result.distances
        out["topk_s"] += time.perf_counter() - loop_start
        if not n_eval:
            continue
        block = retrieval.PackedCodeIndex(
            queries.words[rows], queries.B, queries.ids[rows],
            labels=[queries.labels[i] for i in rows],
        )
        start = time.perf_counter()
        mapped = retrieval.map_at_k(block, gallery, k, spec["rule"])
        out["map_s"].append(time.perf_counter() - start)
        start = time.perf_counter()
        thresholds, recall, precision = retrieval.pr_curve(
            block, gallery, spec["rule"]
        )
        out["pr_s"].append(time.perf_counter() - start)
        out["map"].append(mapped.map)
        arrays["aps"].append(mapped.aps)
        arrays["eval_query_ids"].append(mapped.query_ids)
        arrays["recall"].append(recall)
        arrays["precision"].append(precision)
        arrays["thresholds"] = thresholds
    arrays = {key: np.array(value) for key, value in arrays.items()}
    arrays.update(
        latency=latency,
        topk_query_ids=np.tile(queries.ids[:n_topk], spec["passes"]),
        topk_ids=topk_ids, topk_dists=topk_dists,
    )
    return out, arrays


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import dcsh

    src = os.path.realpath(os.path.join(spec["root"], "src", "dcsh"))
    if os.path.dirname(os.path.realpath(dcsh.__file__)) != src:
        raise SystemExit(f"dcsh imported from {dcsh.__file__}, not {src}")

    work = _run_cli if spec["kind"] == "cli" else _run_retrieval
    tracer = spans.Tracer() if spec["trace"] else None
    if tracer is None:
        out, arrays = work(spec, None)
    else:
        with spans.installed(tracer):
            out, arrays = work(spec, tracer)
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        out["modules"] = spans.summarize(tracer)
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump({"names": tracer.names, "spans": [
                list(s) for s in zip(tracer.name_id, tracer.start,
                                     tracer.end, tracer.parent)
            ]}, fh)
    if arrays:
        np.savez(spec["arrays"], **arrays)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])

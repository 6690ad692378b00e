"""Benchmark for dcsh: end to end with tracing off, per module with it on.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 10 --trace 0

The benchmark generates its inputs from --seed, runs whole rounds of the
workload until --seconds have passed (at least one), checks every output
against oracles computed apart from the program, and prints one JSON
object as the last line of standard output:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

--trace 0 reports the end-to-end metrics. --trace 1 runs one round
untraced and one round with the tracing wrappers installed, reports the
per-module metrics, and writes them with every span to
.perfbench/trace-<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

import numpy as np

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
# A run must end within 180 s; no round starts that would end after this.
BUDGET_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "eval_queries_per_s": "1/s",
    "topk_ms_p50": "ms",
    "topk_ms_p90": "ms",
    "map_at_100": "map",
}

# Per-module metric -> unit. `.s` is inclusive time of a function's spans,
# except the two self times named in `SELF_TIMES`.
PER_LAYER = {
    "network.forward_batch.s": "s",
    "network.backward.s": "s",
    "network.sgd_step.s": "s",
    "cca.dcsh_loss.s": "s",
    "numerics.inv_sqrt_sym.s": "s",
    "numerics.thin_svd.s": "s",
    "numerics.as_matrix.s": "s",
    "numerics.as_matrix.calls": "count",
    "centers.assign_target.s": "s",
    "centers.assign_target.calls": "count",
    "data.multi_hot.s": "s",
    "data.multi_hot.calls": "count",
    "centers.update_centers.s": "s",
    "centers.target_reuse": "ratio",
    "network.forward_full.s": "s",
    "network.forward_full.rows": "rows",
    "cli.train.peak_rss_mb": "MB",
    "cli.encode.peak_rss_mb": "MB",
    "formats.read_codes_text.s": "s",
    "formats.read_codes_text.rows": "rows",
    "formats.read_labels.s": "s",
    "retrieval.from_bits.s": "s",
    "retrieval.relevance_mask.s": "s",
    "retrieval.relevance_mask.calls": "count",
    "retrieval.relevance_mask.rows": "rows",
    "kernels.scan_distances.s": "s",
    "kernels.scan_distances.calls": "count",
    "kernels.scan_distances.rows": "rows",
    "retrieval.distances.s": "s",
    "retrieval.rank.s": "s",
    "retrieval.average_precision.s": "s",
    "retrieval.pr_counts.s": "s",
    "cli.train.s": "s",
    "cli.encode.s": "s",
    "cli.eval-map.s": "s",
    "cli.eval-pr.s": "s",
    "cli.train.samples_per_s": "1/s",
    "cli.encode.rows_per_s": "1/s",
    "cli.train.loss_gap": "loss",
    "trace.overhead_s": "s",
}
SELF_TIMES = {
    "retrieval.rank.s": ("retrieval.query_topk", "retrieval.map_at_k"),
    "retrieval.pr_counts.s": ("retrieval.pr_curve",),
}
# Taken from the untraced round of a traced run, so the wrappers do not
# inflate them.
UNTRACED_FIGURES = {
    "cli.train.samples_per_s": "train_samples_per_s",
    "cli.encode.rows_per_s": "encode_rows_per_s",
    "cli.train.loss_gap": "loss_gap",
}


def end_to_end(rounds):
    latency_ms = 1e3 * np.concatenate([r.latency for r in rounds])
    values = {
        "setup_s": statistics.median(s for r in rounds for s in r.setup_s),
        "peak_rss_mb": max(max(r.step_rss.values()) for r in rounds),
        "topk_ms_p50": float(np.percentile(latency_ms, 50)),
        "topk_ms_p90": float(np.percentile(latency_ms, 90)),
    }
    for name in ("wall_s", "eval_queries_per_s", "map_at_100"):
        values[name] = statistics.median(r.figures[name] for r in rounds)
    return values


def per_layer(plain, traced):
    m = traced.modules
    values = {name: m.get(name, 0) for name in PER_LAYER}
    for name, parts in SELF_TIMES.items():
        values[name] = sum(m.get(p + ".self_s", 0.0) for p in parts)
    calls = m.get("centers.assign_target.calls", 0)
    values["centers.target_reuse"] = m.get("centers.target_keys", 0) / calls if calls else 0.0
    values["cli.train.peak_rss_mb"] = plain.step_rss.get("train", 0.0)
    values["cli.encode.peak_rss_mb"] = max(
        (v for k, v in plain.step_rss.items() if k.startswith("encode-")), default=0.0)
    for name, figure in UNTRACED_FIGURES.items():
        values[name] = plain.figures.get(figure, 0.0)
    values["trace.overhead_s"] = traced.figures["wall_s"] - plain.figures["wall_s"]
    return values


def write_trace(path, workload, seed, values, traced):
    steps = []
    for label, spans_path in traced.spans:
        with open(spans_path, encoding="utf-8") as fh:
            steps.append(dict(json.load(fh), step=label))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": values,
                   "span_fields": ["name index", "start ns", "end ns", "parent"],
                   "steps": steps}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dcsh", "__init__.py")):
        print(f"error: no dcsh sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit, so a running step is killed and waited
    # for, and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload.generate(args.seed, work)
        runner = workloads.Runner(ROOT, work, started + BUDGET_S + 20)
        if args.trace:
            rounds = [workload.round(runner, False, repeats=1),
                      workload.round(runner, True, repeats=1)]
        else:
            rounds = []
            measure_start = time.monotonic()
            while True:
                round_start = time.monotonic()
                rounds.append(workload.round(runner, False))
                now = time.monotonic()
                if (now - measure_start >= args.seconds
                        or now + (now - round_start) > started + BUDGET_S):
                    break
        ops = [ok for r in rounds for _, ok in r.ops]
        problems = [p for r in rounds for p in r.problems]
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        for e in (e for r in rounds for e in r.errors):
            print(f"step failed: {e}", file=sys.stderr)
        usable = all(r.figures for r in rounds)
        if not usable:
            values = {}
        elif args.trace:
            values = per_layer(*rounds)
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            write_trace(trace_path, args.workload, args.seed, values, rounds[1])
            print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
        else:
            values = end_to_end(rounds)
        units = PER_LAYER if args.trace else END_TO_END
        report = {
            "correct": not problems,
            "attempted": len(ops),
            "failed": ops.count(False),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items() if name in values},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

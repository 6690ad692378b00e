"""Interleaved A/B of the retrieval path against a base commit, in one process.

Usage, from the root of a checkout:

    python3 experiments/bench_retrieval.py --base REF [--queries 200] [--out BENCH_retrieval.json]

`git archive` exports REF's `src/dcsh` into a temporary directory, where
it is imported as the package `dcsh_base`, next to the working tree's
`src/dcsh` imported as `dcsh`. Both get the same seeded gallery of 10^6
single-label 64-bit codes: 32 random class centers, each bit flipped
with probability 1/8. For every query the script checks that the
two sides give identical scan, top-k, AP and PR results, and times, in
alternating order (base first on even queries):

- `scan`: `kernels.scan_distances` over the gallery alone;
- `topk`: `query_topk` at k = 100;
- `eval`: `map_at_k` at k = 100 plus `pr_curve`, for an index of one
  query, the unit of perfbench's gallery-1m eval blocks.

It writes, per side and measure, the median and interquartile range in
ms, the ratio of the medians (change / base) and the number of queries
on which the change was faster, with the machine (nproc, Python, numpy,
BLAS) and both commits. The change side is the working tree:
`src_tree` is the git tree id of its `src/dcsh`, so a later commit can
be matched to the figures.
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_GALLERY = 1_000_000
BITS = 64
CLASSES = 32
K = 100
RULE = "same-class"
SEED = 14


def git(*args, env=None):
    return subprocess.run(
        ("git", *args), cwd=ROOT, check=True, capture_output=True, text=True,
        env=env,
    ).stdout.strip()


def working_src_tree():
    """Tree id of the working tree's src/dcsh, from a throwaway index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", "src/dcsh", env=env)
        return git("write-tree", "--prefix=src/dcsh/", env=env)


def import_package(name, src):
    """Import the package in `src`/dcsh under the top-level name `name`."""
    pkg = os.path.join(src, "dcsh")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg],
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".retrieval"), importlib.import_module(
        name + ".kernels")


def export_base(ref, dest):
    """Write `ref`'s src/dcsh under `dest` with `git archive`."""
    tar = os.path.join(dest, "src.tar")
    git("archive", "--format=tar", "-o", tar, ref, "src/dcsh")
    with tarfile.open(tar) as fh:
        fh.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def make_codes(rng, n):
    """(n x 1 uint64 words, labels): a random class center per row, each
    bit flipped where three random words all have a 1 (p = 1/8)."""
    centers = rng.integers(0, 2**64, size=CLASSES, dtype=np.uint64)
    labels = rng.integers(0, CLASSES, size=n)
    flips = np.bitwise_and.reduce(
        rng.integers(0, 2**64, size=(3, n), dtype=np.uint64), axis=0)
    return (centers[labels] ^ flips)[:, None], labels


def stats(seconds):
    q25, q50, q75 = np.percentile(1e3 * np.asarray(seconds), [25, 50, 75])
    return {"median_ms": float(q50), "iqr_ms": [float(q25), float(q75)]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare with")
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_retrieval.json"))
    args = parser.parse_args(argv)

    base_commit = git("rev-parse", "--verify", args.base + "^{commit}")
    rng = np.random.default_rng(SEED)
    words, labels = make_codes(rng, N_GALLERY + args.queries)
    label_sets = [(int(c),) for c in labels]
    g_words, q_words = words[:N_GALLERY], words[N_GALLERY:]
    ids = np.arange(words.shape[0])

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": import_package("dcsh_base", export_base(base_commit, tmp)),
                 "change": import_package("dcsh", os.path.join(ROOT, "src"))}
    setups = {}
    for side, (retrieval, kernels) in sides.items():
        gallery = retrieval.PackedCodeIndex(
            g_words, BITS, ids[:N_GALLERY], label_sets[:N_GALLERY])
        queries = [retrieval.PackedCodeIndex(
            q_words[i:i + 1], BITS, ids[N_GALLERY + i:N_GALLERY + i + 1],
            label_sets[N_GALLERY + i:N_GALLERY + i + 1])
            for i in range(args.queries)]
        setups[side] = (retrieval, kernels, gallery, queries)
    q_bits = np.unpackbits(q_words.view(np.uint8), axis=1, bitorder="little")

    def ops(side, i):
        retrieval, kernels, gallery, queries = setups[side]
        return {
            "scan": lambda: kernels.scan_distances(gallery.words, q_words[i]),
            "topk": lambda: retrieval.query_topk(gallery, q_bits[i], K),
            "eval": lambda: (
                retrieval.map_at_k(queries[i], gallery, K, RULE),
                retrieval.pr_curve(queries[i], gallery, RULE)),
        }

    times = {side: {op: [] for op in ("scan", "topk", "eval")} for side in sides}
    for i in range(args.queries):
        results = {}
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            out = results[side] = {}
            for op, fn in ops(side, i).items():
                t0 = time.perf_counter()
                out[op] = fn()
                times[side][op].append(time.perf_counter() - t0)
        b, c = results["base"], results["change"]
        for what, x, y in (
            ("scan", b["scan"], c["scan"]),
            ("top-k ids", b["topk"].ids, c["topk"].ids),
            ("top-k distances", b["topk"].distances, c["topk"].distances),
            ("AP", b["eval"][0].aps, c["eval"][0].aps),
            *(("PR", u, v) for u, v in zip(b["eval"][1], c["eval"][1])),
        ):
            if not (np.array_equal(x, y) and x.dtype == y.dtype):
                raise SystemExit(f"{what} differs between the sides at query {i}")

    report = {
        "what": "in-process interleaved A/B of scan, top-k and one-query "
                "eval over 10^6 x 64-bit codes; results checked identical",
        "gallery": {"rows": N_GALLERY, "bits": BITS, "classes": CLASSES,
                    "flip_p": 0.125, "seed": SEED},
        "queries": args.queries, "k": K, "rule": RULE,
        "machine": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        },
        "base": {"ref": args.base, "commit": base_commit,
                 "src_tree": git("rev-parse", base_commit + ":src/dcsh")},
        "change": {"head": git("rev-parse", "HEAD"), "src_tree": working_src_tree()},
        "results": {},
    }
    for op in ("scan", "topk", "eval"):
        base, change = (np.asarray(times[s][op]) for s in ("base", "change"))
        report["results"][op] = {
            "base": stats(base), "change": stats(change),
            "median_ratio": float(np.median(change) / np.median(base)),
            "change_faster": f"{int((change < base).sum())}/{base.size}",
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for op, r in report["results"].items():
        print(f"{op}: {r['base']['median_ms']:.3f} -> {r['change']['median_ms']:.3f} ms "
              f"(x{r['median_ratio']:.3f}, faster on {r['change_faster']})")


if __name__ == "__main__":
    main()

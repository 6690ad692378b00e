"""The three workloads: their inputs, one round of operations, the
checks on every output, and the figures each round yields.

An operation is a pipeline step, a `query_topk` call, or an eval block.
Every round attempts the same operations, so the share of failed ones
does not depend on the seed or on how many rounds a run makes.
"""

import glob
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
STEP = os.path.join(HERE, "step.py")
K = 100
TOL = 1e-12
ORACLE_BLOCK = 16


class StepFailed(Exception):
    """A step process exited non-zero or wrote no result."""


class Round:
    """What one round measured and which of its operations failed."""

    def __init__(self):
        self.ops = []        # (operation, ok)
        self.problems = []   # output checks that failed, as messages
        self.errors = []     # steps that exited non-zero or timed out
        self.setup_s = []
        self.step_rss = {}   # step label -> peak RSS in MB
        self.figures = {}
        self.latency = np.empty(0)
        self.modules = {}
        self.spans = []      # (step label, spans file)

    def op(self, name, problems=()):
        problems = list(problems)
        self.ops.append((name, not problems))
        self.problems.extend(f"{name}: {p}" for p in problems)

    def add_modules(self, modules):
        for key, value in modules.items():
            self.modules[key] = self.modules.get(key, 0) + value


class Runner:
    """Starts step processes in the checkout and collects their results."""

    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.count = 0

    def step(self, rnd, label, spec, trace):
        """Run one step; returns (result dict, arrays or None, seconds
        from spawn to exit)."""
        self.count += 1
        base = os.path.join(self.work, f"step{self.count:03d}")
        spec = dict(spec, root=self.root, trace=trace, out=base + ".json",
                    arrays=base + ".npz", spans=base + "-spans.json")
        with open(base + "-spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise StepFailed(f"{label}: no time left before the run's deadline")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, STEP, base + "-spec.json"], cwd=self.root,
                env=self.env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise StepFailed(f"{label}: timed out") from None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not os.path.exists(spec["out"]):
            raise StepFailed(
                f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        with open(spec["out"], encoding="utf-8") as fh:
            result = json.load(fh)
        if result.get("rc", 0) != 0:
            raise StepFailed(
                f"{label}: dcsh exit {result['rc']}: {proc.stderr.strip()[-500:]}"
            )
        rnd.step_rss[label] = max(rnd.step_rss.get(label, 0.0), result["peak_rss_mb"])
        if trace:
            rnd.add_modules(result["modules"])
            rnd.spans.append((label, spec["spans"]))
        arrays = None
        if os.path.exists(spec["arrays"]):
            with np.load(spec["arrays"]) as data:
                arrays = {key: data[key] for key in data.files}
        return result, arrays, elapsed


# ------------------------------------------------------------------ checks

def _check_topk(got_ids, got_dists, dist_rows, gallery_ids):
    """Problems for each query: top-k ids and distances against the oracle."""
    out = []
    for ids, dists, d in zip(got_ids, got_dists, dist_rows):
        pos = oracles.topk(d, gallery_ids, K)
        problems = []
        if not (np.array_equal(ids, gallery_ids[pos])
                and np.array_equal(dists, d[pos])):
            problems.append(f"top-{K} differs from brute force")
        out.append(problems)
    return out


def _oracle_aps(dist_rows, rel_rows, gallery_ids):
    aps = []
    for d, rel in zip(dist_rows, rel_rows):
        pos = oracles.topk(d, gallery_ids, K)
        aps.append(oracles.average_precision(rel[pos], rel.sum()))
    return np.array(aps)


def _check_pr(thresholds, recall, precision, want_recall, want_precision, B):
    problems = []
    if not np.array_equal(thresholds, np.arange(B + 1)):
        problems.append("thresholds are not 0..B")
    elif not (np.allclose(recall, want_recall, rtol=0, atol=TOL)
              and np.allclose(precision, want_precision, rtol=0, atol=TOL)):
        problems.append("PR differs from brute force")
    if np.any(np.diff(recall) < 0):
        problems.append("recall decreases with the threshold")
    if abs(recall[-1] - 1.0) > TOL:
        problems.append(f"recall at threshold B is {recall[-1]!r}, not 1")
    return problems


def _read_csv(path):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# --------------------------------------------------------------- workloads

class Pipeline:
    """The README pipeline as separate `dcsh` steps: gen-centers (set-up),
    train, encode gallery and query, eval-map, eval-pr, then a closed
    loop of `query_topk` calls over the query split (`dcsh query`)."""

    def __init__(self, name, n_train, n_query, dim, classes, bits, separation,
                 multilabel_p, epochs, rule, passes, topk_passes, batch=200,
                 max_final_loss=None, min_map=None):
        self.name = name
        self.n_train, self.n_query = n_train, n_query
        self.dim, self.classes, self.bits = dim, classes, bits
        self.separation, self.multilabel_p = separation, multilabel_p
        self.epochs, self.batch, self.rule = epochs, batch, rule
        self.passes, self.topk_passes = passes, topk_passes
        self.max_final_loss, self.min_map = max_final_loss, min_map

    def generate(self, seed, work):
        self.seed = seed
        self.work = work
        X, self.labels, tags = gen.clouds(
            gen.rng_for(seed, 1), self.n_train, self.n_query, self.dim,
            self.classes, self.separation, self.multilabel_p,
        )
        self.data = os.path.join(work, "data")
        os.makedirs(self.data)
        gen.write_features(os.path.join(self.data, "features.bin"), X)
        gen.write_labels(os.path.join(self.data, "labels.txt"), self.labels,
                         self.classes)
        gen.write_splits(os.path.join(self.data, "splits.txt"), tags)
        self.split_ids = {
            split: np.array([n for n, t in enumerate(tags) if split in t.split("+")])
            for split in ("gallery", "query")
        }

    def round(self, runner, trace, repeats=None):
        """Set-up before training and before encoding, then `passes` eval
        passes (set-up, eval-map, eval-pr, query loop). Repeated steps are
        spread over the round, so a burst on the host moves their median
        little."""
        passes = repeats or self.passes
        rnd = Round()
        d = os.path.join(self.work, f"round{runner.count:03d}")
        run_dir, codes, evals = (os.path.join(d, x) for x in ("run", "codes", "eval"))
        data = {x: os.path.join(self.data, x)
                for x in ("features.bin", "labels.txt", "splits.txt")}
        centers = os.path.join(d, "centers.txt")
        pair = ["--gallery-codes", os.path.join(codes, "codes-gallery.txt"),
                "--query-codes", os.path.join(codes, "codes-query.txt"),
                "--labels", data["labels.txt"], "--rule", self.rule,
                "--out", evals]
        argv = {
            "gen-centers": ["gen-centers", "--bits", str(self.bits),
                            "--classes", str(self.classes), "--out", centers],
            "train": [
                "train", "--features", data["features.bin"],
                "--labels", data["labels.txt"], "--splits", data["splits.txt"],
                "--centers", centers, "--out", run_dir, "--bits", str(self.bits),
                "--batch", str(self.batch), "--lr", "3e-4",
                "--epochs", str(self.epochs), "--seed", str(self.seed),
            ],
            "eval-map": ["eval-map", *pair, "--k", str(K)],
            "eval-pr": ["eval-pr", *pair],
        }
        for split in ("gallery", "query"):
            argv[f"encode-{split}"] = [
                "encode", "--model", os.path.join(run_dir, "model.bin"),
                "--features", data["features.bin"],
                "--splits", data["splits.txt"], "--split", split, "--out", codes,
            ]
        topk_spec = {
            "kind": "retrieval", "gallery": pair[1], "queries": pair[3],
            "topk_queries": self.n_query, "passes": self.topk_passes,
            "k": K,
        }
        schedule = ["gen-centers", "train", "gen-centers", "encode-gallery",
                    "encode-query"]
        schedule += ["gen-centers", "eval-map", "eval-pr", "query"] * passes
        n_ops = len(schedule) + passes * (self.n_query * self.topk_passes - 1)

        seconds = {label: [] for label in schedule if label != "gen-centers"}
        latency = []
        cache = {}
        try:
            for label in schedule:
                if label == "gen-centers":
                    _, _, elapsed = runner.step(
                        rnd, label, {"kind": "cli", "argv": argv[label]}, False)
                    rnd.setup_s.append(elapsed)
                    rnd.op(label)
                elif label == "query":
                    result, arrays, _ = runner.step(rnd, label, topk_spec, trace)
                    seconds[label].append(
                        result["load_s"] + result["topk_s"] / self.topk_passes)
                    latency.append(arrays["latency"])
                    g_ids, q_ids, dist, _ = self._oracle(codes, cache)
                    rows = np.tile(np.arange(len(q_ids)), self.topk_passes)
                    for qid, problems in zip(arrays["topk_query_ids"], _check_topk(
                            arrays["topk_ids"], arrays["topk_dists"], dist[rows], g_ids)):
                        rnd.op(f"query {int(qid)}", problems)
                else:
                    result, _, _ = runner.step(
                        rnd, label, {"kind": "cli", "argv": argv[label]}, trace)
                    seconds[label].append(result["seconds"])
                    rnd.op(label, self._check(label, run_dir, codes, evals, cache))
        except StepFailed as exc:
            rnd.errors.append(str(exc))
            rnd.ops += [("not run", False)] * (n_ops - len(rnd.ops))
            return rnd
        rnd.latency = np.concatenate(latency)

        _, rows = _read_csv(os.path.join(run_dir, "loss.csv"))
        final = float(rows[-1][1])
        _, mrows = _read_csv(os.path.join(evals, "map.csv"))
        one = {label: statistics.median(v) for label, v in seconds.items()}
        rnd.figures = {
            "wall_s": sum(one.values()),
            "eval_queries_per_s": statistics.median(
                self.n_query / (m + p)
                for m, p in zip(seconds["eval-map"], seconds["eval-pr"])),
            "map_at_100": float(mrows[0][1]),
            "train_samples_per_s": self.epochs * self.n_train / one["train"],
            "encode_rows_per_s": (self.n_train + self.n_query)
            / (one["encode-gallery"] + one["encode-query"]),
            "loss_gap": final - oracles.loss_lower_bound(self.bits, self.classes),
        }
        return rnd

    def _oracle(self, codes, cache):
        """Gallery ids, query ids, brute-force distances and relevance
        from the encoded code files, computed once per round."""
        if not cache:
            g_ids, g_bits = oracles.read_text_codes(os.path.join(codes, "codes-gallery.txt"))
            q_ids, q_bits = oracles.read_text_codes(os.path.join(codes, "codes-query.txt"))
            cache["oracle"] = (
                g_ids, q_ids, oracles.hamming_matrix(q_bits, g_bits),
                oracles.relevance([self.labels[i] for i in q_ids],
                                  [self.labels[i] for i in g_ids], self.rule),
            )
        return cache["oracle"]

    def _check(self, label, run_dir, codes, evals, cache):
        """Problems with the outputs of one pipeline step."""
        B, C = self.bits, self.classes
        problems = []
        if label == "train":
            head, rows = _read_csv(os.path.join(run_dir, "loss.csv"))
            if head != "epoch,train_loss,test_loss" or len(rows) != self.epochs:
                return [f"loss.csv has {len(rows)} rows, expected {self.epochs}"]
            final = float(rows[-1][1])
            bound = oracles.loss_lower_bound(B, C)
            if not final > bound:
                problems.append(f"final loss {final!r} not above the bound {bound}")
            if self.max_final_loss is not None and final > self.max_final_loss:
                problems.append(f"final loss {final!r} above {self.max_final_loss}")
            files = sorted(glob.glob(os.path.join(run_dir, "centers-e*.txt")))
            if len(files) != self.epochs + 1:
                problems.append(f"{len(files)} center files, expected {self.epochs + 1}")
            for path in files:
                with open(path, encoding="ascii") as fh:
                    lines = fh.read().splitlines()
                epoch = int(os.path.basename(path)[len("centers-e"):-len(".txt")])
                rows = lines[1:]
                if (lines[0] != f"B={B} C={C} epoch={epoch}" or len(rows) != C
                        or any(len(r) != B or set(r) - {"0", "1"} for r in rows)):
                    problems.append(f"{os.path.basename(path)} is not {C} rows of {B} bits")
            return problems
        if label.startswith("encode-"):
            split = label[len("encode-"):]
            ids, bits = oracles.read_text_codes(os.path.join(codes, f"codes-{split}.txt"))
            packed = oracles.read_packed_codes(os.path.join(codes, f"codes-{split}.bin"))
            if not np.array_equal(ids, self.split_ids[split]):
                problems.append(f"codes-{split}.txt ids are not the {split} split")
            if bits.shape[1] != B or not np.array_equal(packed, bits):
                problems.append(f"codes-{split}.bin does not decode to codes-{split}.txt")
            return problems
        g_ids, q_ids, dist, rel = self._oracle(codes, cache)
        if label == "eval-map":
            _, mrows = _read_csv(os.path.join(evals, "map.csv"))
            _, arows = _read_csv(os.path.join(evals, "ap.csv"))
            want = _oracle_aps(dist, rel, g_ids)
            got = np.array([float(r[1]) for r in arows])
            got_map = float(mrows[0][1])
            if [int(r[0]) for r in arows] != q_ids.tolist() or int(mrows[0][0]) != K:
                problems.append("ap.csv ids or map.csv k do not match the queries")
            elif not np.allclose(got, want, rtol=0, atol=TOL):
                problems.append("AP differs from brute force")
            if abs(got_map - want.mean()) > TOL:
                problems.append(
                    f"MAP {got_map!r} differs from brute force {float(want.mean())!r}")
            if self.min_map is not None and got_map < self.min_map:
                problems.append(f"MAP@{K} {got_map!r} below {self.min_map}")
            return problems
        _, prows = _read_csv(os.path.join(evals, "pr.csv"))
        pr = np.array([[float(x) for x in r] for r in prows])
        want_r, want_p = oracles.pr_curve(dist, rel, B)
        return _check_pr(pr[:, 0].astype(int), pr[:, 1], pr[:, 2], want_r, want_p, B)


class Gallery:
    """Retrieval alone over 10^6 single-label codes: set-up loads the code
    and label files into a PackedCodeIndex, then a
    closed loop of `query_topk` calls in chunks, each chunk followed by
    `map_at_k` and `pr_curve` over one eval block."""

    rule = "same-class"

    def __init__(self, name, n_gallery, bits, classes, flip_p, topk_queries,
                 eval_queries, eval_blocks):
        self.name = name
        self.n_gallery, self.bits, self.classes = n_gallery, bits, classes
        self.flip_p = flip_p
        self.topk_queries, self.eval_queries = topk_queries, eval_queries
        self.eval_blocks = eval_blocks

    def generate(self, seed, work):
        n_query = self.topk_queries + self.eval_queries
        bits, labels = gen.centers_with_flips(
            gen.rng_for(seed, 2), self.n_gallery + n_query, self.bits,
            self.classes, self.flip_p,
        )
        ids = np.arange(bits.shape[0])
        self.g_bits, self.q_bits = bits[:self.n_gallery], bits[self.n_gallery:]
        self.g_labels, self.q_labels = labels[:self.n_gallery], labels[self.n_gallery:]
        self.g_ids, self.q_ids = ids[:self.n_gallery], ids[self.n_gallery:]
        self.paths = {x: os.path.join(work, x)
                      for x in ("codes-gallery.txt", "codes-query.txt", "labels.txt")}
        gen.write_codes_text(self.paths["codes-gallery.txt"], self.g_ids, self.g_bits)
        gen.write_codes_text(self.paths["codes-query.txt"], self.q_ids, self.q_bits)
        gen.write_labels(self.paths["labels.txt"], labels, self.classes)

    def round(self, runner, trace, repeats=None):
        """One index load (the set-up; one load takes about as long as the
        timed part), then the top-k chunks and eval blocks. `repeats` is
        accepted for the common round signature and has nothing to repeat."""
        rnd = Round()
        spec = {
            "kind": "retrieval", "gallery": self.paths["codes-gallery.txt"],
            "queries": self.paths["codes-query.txt"],
            "labels": self.paths["labels.txt"],
            "topk_queries": self.topk_queries, "eval_queries": self.eval_queries,
            "eval_blocks": self.eval_blocks, "passes": 1, "k": K, "rule": self.rule,
        }
        try:
            result, arrays, _ = runner.step(rnd, "retrieval", spec, trace)
        except StepFailed as exc:
            rnd.errors.append(str(exc))
            rnd.ops = [("not run", False)] * (
                1 + self.topk_queries + 2 * self.eval_blocks)
            return rnd
        rnd.setup_s = [result["load_s"]]
        rnd.op("load")
        rnd.latency = arrays["latency"]

        n = self.topk_queries
        for start in range(0, n, ORACLE_BLOCK):
            sl = slice(start, min(start + ORACLE_BLOCK, n))
            dist = oracles.hamming_matrix(self.q_bits[sl], self.g_bits)
            for qid, problems in zip(self.q_ids[sl], _check_topk(
                    arrays["topk_ids"][sl], arrays["topk_dists"][sl], dist, self.g_ids)):
                rnd.op(f"query {int(qid)}", problems)

        ev = np.array_split(np.arange(n, n + self.eval_queries), self.eval_blocks)
        for b, rows in enumerate(ev):
            dist = oracles.hamming_matrix(self.q_bits[rows], self.g_bits)
            rel = oracles.relevance(self.q_labels[rows], self.g_labels, self.rule)
            want = _oracle_aps(dist, rel, self.g_ids)
            problems = []
            if not np.array_equal(arrays["eval_query_ids"][b], self.q_ids[rows]):
                problems.append("AP rows are not the block's queries")
            elif not np.allclose(arrays["aps"][b], want, rtol=0, atol=TOL):
                problems.append("AP differs from brute force")
            if abs(result["map"][b] - want.mean()) > TOL:
                problems.append("MAP differs from brute force")
            rnd.op(f"map block {b}", problems)
            want_r, want_p = oracles.pr_curve(dist, rel, self.bits)
            rnd.op(f"pr block {b}", _check_pr(
                arrays["thresholds"], arrays["recall"][b],
                arrays["precision"][b], want_r, want_p, self.bits))

        block_s = np.add(result["map_s"], result["pr_s"])
        rnd.figures = {
            "wall_s": result["topk_s"] + block_s.sum(),
            "eval_queries_per_s": statistics.median(
                len(rows) / s for rows, s in zip(ev, block_s)),
            "map_at_100": float(np.mean(arrays["aps"])),
        }
        return rnd


WORKLOADS = {
    "quickstart": Pipeline(
        "quickstart", n_train=5000, n_query=556, dim=32, classes=10, bits=32,
        separation=12.0, multilabel_p=0.0, epochs=50, rule="same-class",
        passes=5, topk_passes=1, max_final_loss=-38.0, min_map=0.95,
    ),
    "multilabel": Pipeline(
        "multilabel", n_train=20000, n_query=400, dim=32, classes=20, bits=32,
        separation=12.0, multilabel_p=0.4, epochs=5, rule="share-any-label",
        passes=3, topk_passes=2,
    ),
    "gallery-1m": Gallery(
        "gallery-1m", n_gallery=1_000_000, bits=64, classes=32, flip_p=0.15,
        topk_queries=200, eval_queries=12, eval_blocks=12,
    ),
}

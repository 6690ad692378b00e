"""End-to-end acceptance checks.

Nine checks, one printed pass/fail line each: bound attainment on a
separable run, the multi-label bound gap, gradient accuracy, the exact
rank/balance/bound formulas, Hadamard center spacing, the center-update
oracle, the retrieval metric oracles, end-to-end retrieval quality, and
byte-identical reproduction from a manifest.
"""

import time

import numpy as np
import pytest

from dcsh.cca import alpha, dcsh_lower_bound, k_max
from dcsh.centers import gen_hadamard_centers, update_centers
from dcsh.cli import main
from dcsh.data import label_classes, multi_hot
from dcsh.network import finite_difference_report
from dcsh.retrieval import PackedCodeIndex, average_precision


def check(ok, line):
    print(("PASS  " if ok else "FAIL  ") + line)
    assert ok, line


@pytest.fixture(scope="module")
def separable_run(tmp_path_factory):
    """Separable single-label pipeline: 5000 training samples, D=32,
    C=10, B=32, batch 200, lr 3e-4 decaying 0.7x every 10 epochs."""
    root = tmp_path_factory.mktemp("separable")
    data = root / "data"
    run = root / "run"
    assert main([
        "synth", "--out", str(data), "--n", "5556", "--dim", "32",
        "--classes", "10", "--separation", "12.0", "--query-frac", "0.1",
        "--seed", "0",
    ]) == 0
    assert main([
        "gen-centers", "--bits", "32", "--classes", "10",
        "--out", str(root / "centers.txt"),
    ]) == 0
    start = time.perf_counter()
    assert main([
        "train", "--features", str(data / "features.bin"),
        "--labels", str(data / "labels.txt"),
        "--splits", str(data / "splits.txt"),
        "--centers", str(root / "centers.txt"),
        "--out", str(run), "--bits", "32", "--batch", "200",
        "--lr", "0.0003", "--lr-decay", "0.7", "--decay-every", "10",
        "--epochs", "50", "--alpha", "emphasized", "--seed", "0",
    ]) == 0
    elapsed = time.perf_counter() - start
    rows = np.genfromtxt(run / "loss.csv", delimiter=",", names=True)
    return {"root": root, "data": data, "run": run,
            "elapsed": elapsed, "rows": rows}


def test_lower_bound_attainment(separable_run):
    rows = separable_run["rows"]
    elapsed = separable_run["elapsed"]
    final = rows["train_loss"][-1]
    ok = final <= -38.0 and len(rows) <= 50 and elapsed < 180.0
    check(ok, f"separable run reaches {final:.6f} (target <= -38) in "
              f"{len(rows)} epochs, {elapsed:.1f} s (limit 180 s)")


def test_multilabel_bound_gap(tmp_path_factory):
    root = tmp_path_factory.mktemp("multilabel")
    data = root / "data"
    run = root / "run"
    assert main([
        "synth", "--out", str(data), "--n", "2222", "--dim", "32",
        "--classes", "20", "--separation", "16.0", "--multilabel-p", "0.4",
        "--query-frac", "0.1", "--seed", "0",
    ]) == 0
    assert main([
        "train", "--features", str(data / "features.bin"),
        "--labels", str(data / "labels.txt"),
        "--splits", str(data / "splits.txt"),
        "--out", str(run), "--bits", "32", "--batch", "200",
        "--lr", "0.0003", "--epochs", "50", "--seed", "0",
    ]) == 0
    final = np.genfromtxt(run / "loss.csv", delimiter=",",
                          names=True)["train_loss"][-1]
    bound = dcsh_lower_bound(32, 20)
    ok = -62.0 < final <= -40.0 and final >= bound - 1e-3
    check(ok, f"multi-label run settles at {final:.6f}, inside (-62, -40] "
              f"and above its own bound {bound}")


def test_gradient_accuracy():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        for _, err in finite_difference_report(seed=seed):
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 30.0
    check(ok, f"gradients vs finite differences: max relative error "
              f"{worst:.3e} over 10 seeds (threshold 1e-3), {elapsed:.1f} s")


def test_rank_balance_and_bound_formulas():
    ok = (
        k_max(32, 10, 200) == 9
        and k_max(10, 10, 200) == 9
        and alpha(32, 10, "emphasized") == 31 / 9
        and dcsh_lower_bound(32, 10) == -40
        and dcsh_lower_bound(32, 32) == -62
        and dcsh_lower_bound(32, 80) == -62
    )
    check(ok, "exact formulas: k_max=9, alpha=31/9, bounds -40 and -62")


def test_hadamard_center_distances():
    worst = None
    for B in (16, 32, 64):
        cs = gen_hadamard_centers(B, B)
        packed = cs.codes
        for i in range(B):
            for j in range(i + 1, B):
                d = int((packed[i] != packed[j]).sum())
                if d != B // 2:
                    worst = (B, i, j, d)
    check(worst is None,
          "Hadamard centers: every pair at exactly B/2 for B in {16, 32, 64}"
          + ("" if worst is None else f", first violation {worst}"))


def test_center_update_matches_oracle():
    def oracle(hashes, label_sets, C, normalized):
        B = hashes.shape[1]
        out = np.zeros((C, B), dtype=np.uint8)
        for c in range(C):
            acc = np.zeros(B, dtype=np.float64)
            wsum = 0.0
            members = 0
            for h, ls in zip(hashes, label_sets):
                if c not in ls:
                    continue
                f = 2.0 * h - 1.0
                acc = acc + f / len(ls)
                wsum += 1.0 / len(ls)
                members += 1
            mean = acc / (wsum if normalized else members)
            for j in range(B):
                out[c, j] = 1 if mean[j] >= 0.0 else 0
        return out

    rng = np.random.default_rng(2024)
    mismatches = 0
    for case in range(100):
        C = int(rng.integers(2, 6))
        B = int(rng.integers(2, 17))
        N = int(rng.integers(C, 21))
        hashes = rng.random((N, B))
        if case % 3 == 0:
            # exact-tie fodder: 0.5 maps to 0, the threshold keeps bit 1
            mask = rng.random((N, B)) < 0.3
            hashes[mask] = 0.5
        if case % 5 == 0:
            # fixed point: binary rows grouped by class
            hashes = rng.integers(0, 2, size=(N, B)).astype(np.float64)
        labels = [label_classes([c]) for c in range(C)]
        for _ in range(N - C):
            size = int(rng.integers(1, min(C, 3) + 1))
            labels.append(
                label_classes(rng.choice(C, size=size, replace=False))
            )
        # The mean's divisor is positive, so both must give the same bits.
        got = update_centers(hashes, multi_hot(labels, C))
        if not (np.array_equal(got.codes, oracle(hashes, labels, C, False))
                and np.array_equal(got.codes, oracle(hashes, labels, C, True))):
            mismatches += 1
    # planted fixed point: per-class binary rows reproduce the centers
    base = rng.integers(0, 2, size=(4, 12), dtype=np.uint8)
    rep = np.repeat(base, 3, axis=0).astype(np.float64)
    rep_labels = [label_classes([c]) for c in np.repeat(np.arange(4), 3)]
    fixed = update_centers(rep, multi_hot(rep_labels, 4))
    fixed_ok = np.array_equal(fixed.codes, base)
    # planted tie: means of exactly zero must come out as bit 1
    tie = update_centers(np.array([[0.5, 1.0], [0.5, 0.0]]),
                         multi_hot([label_classes([0])] * 2, 1))
    tie_ok = np.array_equal(tie.codes, [[1, 1]])
    ok = mismatches == 0 and fixed_ok and tie_ok
    check(ok, f"center update vs brute-force oracle: {100 - mismatches}/100 "
              "instances bit-exact, tie and fixed-point edges hold")


def test_retrieval_metric_oracles():
    rng = np.random.default_rng(7)
    pair_count = 0
    hamming_ok = True
    for B in (12, 16, 24, 32, 48, 64, 67):
        n = 1429
        A = rng.integers(0, 2, size=(n, B), dtype=np.uint8)
        Bv = rng.integers(0, 2, size=(n, B), dtype=np.uint8)
        index = PackedCodeIndex.from_bits(Bv, ids=np.arange(n))
        for a in A[:100]:
            slow = (Bv != a).sum(axis=1)
            hamming_ok &= bool(np.array_equal(index.distances(a), slow))
        pair_count += 100 * n
    ap_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        rel = rng.integers(0, 2, size=n)
        R_total = int(rng.integers(0, 60))
        hits, acc = 0, 0.0
        for rank, r in enumerate(rel, start=1):
            if r:
                hits += 1
                acc += hits / rank
        denom = min(R_total, n)
        want = acc / denom if denom else 0.0
        ap_ok &= abs(average_precision(rel, R_total) - want) < 1e-12
    exact = abs(average_precision([1, 0, 1], 2) - (1.0 + 2.0 / 3.0) / 2.0)
    ok = hamming_ok and ap_ok and exact < 1e-12
    check(ok, f"distances vs bit loop on {pair_count} pairs (incl. B=67), "
              f"AP vs oracle on 1000 vectors, [1,0,1]/R=2 off by {exact:.1e}")


def test_end_to_end_retrieval_quality(separable_run):
    data = separable_run["data"]
    run = separable_run["run"]
    enc = separable_run["root"] / "enc"
    ev = separable_run["root"] / "eval"
    for split in ("gallery", "query"):
        assert main([
            "encode", "--model", str(run / "model.bin"),
            "--features", str(data / "features.bin"),
            "--splits", str(data / "splits.txt"),
            "--split", split, "--out", str(enc),
        ]) == 0
    common = [
        "--gallery-codes", str(enc / "codes-gallery.txt"),
        "--query-codes", str(enc / "codes-query.txt"),
        "--labels", str(data / "labels.txt"),
    ]
    assert main(["eval-map", *common, "--k", "100", "--out", str(ev)]) == 0
    assert main(["eval-pr", *common, "--out", str(ev)]) == 0
    map_value = float((ev / "map.csv").read_text().splitlines()[1].split(",")[1])
    low_recall_precisions = []
    for line in (ev / "pr.csv").read_text().splitlines()[1:]:
        _, recall, precision = line.split(",")
        if float(recall) <= 0.8:
            low_recall_precisions.append(float(precision))
    floor = min(low_recall_precisions) if low_recall_precisions else 1.0
    ok = map_value >= 0.95 and floor >= 0.9
    check(ok, f"retrieval quality: MAP@100 = {map_value:.4f} (target >= 0.95), "
              f"precision at recall <= 0.8 never below {floor:.4f} "
              "(target >= 0.9)")


def test_manifest_rerun_byte_identical(separable_run):
    run = separable_run["run"]
    rerun = separable_run["root"] / "rerun"
    assert main([
        "train", "--config", str(run / "manifest-train.txt"),
        "--out", str(rerun),
    ]) == 0
    names = ["model.bin", "loss.csv"]
    names += sorted(p.name for p in run.glob("centers-e*.txt"))
    diffs = [
        name for name in names
        if (run / name).read_bytes() != (rerun / name).read_bytes()
    ]
    check(not diffs,
          f"manifest re-run: {len(names)} artifacts byte-identical"
          + ("" if not diffs else f", differing: {diffs}"))

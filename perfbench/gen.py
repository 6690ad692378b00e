"""Seeded benchmark inputs, written in the file formats of the dcsh README.

Nothing here imports dcsh: the generator writes `features.bin`,
`labels.txt`, `splits.txt` and `codes-*.txt` itself, so a change to the
program's own synthetic generator (`dcsh.data.gen_synthetic`) cannot
change what the benchmark measures.
"""

import struct

import numpy as np

FEATURE_MAGIC = b"DCSHFEAT"
FORMAT_VERSION = 1
WRITE_CHUNK = 100_000


def rng_for(seed, stream):
    """Independent generator per (seed, stream) so inputs never share draws."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def clouds(rng, n_train, n_query, dim, classes, separation, multilabel_p):
    """Gaussian clouds, the distribution `dcsh synth` documents.

    Class prototypes lie on a sphere of radius `separation`; each sample
    is the mean of its labels' prototypes plus unit Gaussian noise. Base
    labels go round robin so every class is covered; a sample gains a
    second distinct label with probability `multilabel_p`. The first
    `n_query` rows are queries and the rest gallery+train, before a final
    seeded shuffle of row order.

    Returns (features N x D, labels as sorted tuples, split tags).
    """
    n = n_train + n_query
    protos = rng.standard_normal((classes, dim))
    protos *= separation / np.linalg.norm(protos, axis=1, keepdims=True)
    base = np.arange(n) % classes
    second = (base + rng.integers(1, classes, size=n)) % classes
    has_second = rng.random(n) < multilabel_p
    means = protos[base]
    means[has_second] = (protos[base[has_second]] + protos[second[has_second]]) / 2
    features = means + rng.standard_normal((n, dim))
    labels = [
        tuple(sorted((int(b), int(s)))) if h else (int(b),)
        for b, s, h in zip(base, second, has_second)
    ]
    tags = ["query"] * n_query + ["gallery+train"] * n_train
    perm = rng.permutation(n)
    return (
        features[perm],
        [labels[i] for i in perm],
        [tags[i] for i in perm],
    )


def centers_with_flips(rng, n, bits, classes, flip_p):
    """Single-label codes: a random class center per row, each bit
    flipped with probability `flip_p`. Returns (bits N x B uint8, labels)."""
    centers = rng.integers(0, 2, size=(classes, bits), dtype=np.uint8)
    labels = rng.integers(0, classes, size=n)
    flips = (rng.random((n, bits)) < flip_p).astype(np.uint8)
    return centers[labels] ^ flips, labels


def write_features(path, X):
    A = np.ascontiguousarray(X, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IQI", FORMAT_VERSION, A.shape[0], A.shape[1]))
        fh.write(A.tobytes(order="C"))


def write_labels(path, labels, classes):
    """`classes=<C>` header, then one comma-separated label set per line."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"classes={classes}\n")
        for start in range(0, len(labels), WRITE_CHUNK):
            chunk = labels[start:start + WRITE_CHUNK]
            fh.write("".join(
                (",".join(str(c) for c in ls) if isinstance(ls, tuple) else str(ls))
                + "\n"
                for ls in chunk
            ))


def write_splits(path, tags):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(tags) + "\n")


def write_codes_text(path, ids, bits):
    """`<id>\\t<bits>` per row, bits as `0`/`1` characters."""
    B = bits.shape[1]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for start in range(0, bits.shape[0], WRITE_CHUNK):
            rows = (bits[start:start + WRITE_CHUNK] + ord("0")).astype(np.uint8)
            words = rows.view(f"S{B}").ravel()
            fh.write("".join(
                f"{int(i)}\t{w.decode('ascii')}\n"
                for i, w in zip(ids[start:start + WRITE_CHUNK], words)
            ))

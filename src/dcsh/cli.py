"""Command-line surface tying the pipeline together.

Subcommands: synth, gen-centers, train, encode, eval-map, eval-pr,
query, check-grad. Exit codes: 0 success, 1 usage error, 2 data or
validation error, 3 numeric abort. Every file-producing subcommand
drops a manifest of its resolved configuration next to its outputs;
feeding that manifest back through --config reproduces the run, with
explicit flags taking precedence over config values.
"""

import argparse
import os
import sys

from . import __version__, formats
from .centers import (
    gen_bernoulli_centers,
    gen_hadamard_centers,
    min_pairwise_distance,
)
from .data import gen_synthetic, split_indices
from .errors import (
    ConfigurationError,
    CoverageError,
    DimensionError,
    LabelError,
    NumericError,
    ParseError,
    StaleCacheError,
)
from .network import (
    DcshModel,
    TrainConfig,
    binarize,
    build_model,
    finite_difference_report,
    predict,
    train,
)
from .retrieval import (
    PackedCodeIndex,
    map_at_k,
    pack_codes,
    pr_curve,
    query_topk,
)

GRAD_THRESHOLD = 1e-3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigurationError."""

    def error(self, message):
        raise ConfigurationError(message)


def _parse_hidden(text):
    if isinstance(text, tuple):
        return text
    parts = [p for p in str(text).split(",") if p.strip()]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigurationError(
            f"hidden widths must be comma-separated integers, got {text!r}"
        ) from None


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _write_manifest(out_dir, command, args, dests):
    mapping = {"command": command, "version": __version__}
    for dest in dests:
        value = getattr(args, dest)
        if value is None:
            continue
        mapping[dest] = _format_value(value)
    formats.write_manifest(
        os.path.join(out_dir, f"manifest-{command}.txt"), mapping
    )


def _build_parser():
    top = _Parser(prog="dcsh", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    tables = {}

    def command(name, help_text):
        parser = sub.add_parser(name, help=help_text)
        types = {"config": str}
        required = {}
        tables[name] = (parser, types, required)
        parser.add_argument(
            "--config", type=str, default=None,
            help="key=value file supplying flag defaults",
        )

        def opt(flag, converter, default=None, required_flag=False, help=""):
            dest = flag.lstrip("-").replace("-", "_")
            types[dest] = converter
            # Required options stay optional to argparse so a --config
            # file can supply them; _run checks for gaps after merging.
            if required_flag:
                required[dest] = flag
            parser.add_argument(
                flag, dest=dest, type=converter, default=default, help=help,
            )
        return parser, opt

    _, opt = command("synth", "generate a synthetic dataset")
    opt("--out", str, required_flag=True, help="output directory")
    opt("--n", int, default=1000, help="sample count")
    opt("--dim", int, default=32, help="feature dimension")
    opt("--classes", int, default=10, help="class count")
    opt("--separation", float, default=6.0, help="prototype norm")
    opt("--multilabel-p", float, default=0.0, help="second-label probability")
    opt("--query-frac", float, default=0.1, help="query split fraction")
    opt("--seed", int, default=0)

    _, opt = command("gen-centers", "generate initial hash centers")
    opt("--bits", int, required_flag=True)
    opt("--classes", int, required_flag=True)
    opt("--seed", int, default=0)
    opt("--trials", int, default=100, help="Bernoulli candidate sets")
    opt("--out", str, required_flag=True, help="center file path")

    _, opt = command("train", "train a model on a dataset")
    opt("--features", str, required_flag=True)
    opt("--labels", str, required_flag=True)
    opt("--splits", str, required_flag=True)
    opt("--centers", str, help="initial center file; generated when omitted")
    opt("--out", str, required_flag=True, help="output directory")
    opt("--bits", int, default=32)
    opt("--batch", int, default=200)
    opt("--lr", float, default=3e-4)
    opt("--lr-decay", float, default=0.7)
    opt("--decay-every", int, default=10)
    opt("--epochs", int, default=50)
    opt("--alpha-mode", str, default="emphasized")
    opt("--alpha-override", float,
        help="fixed alpha value, bypassing the mode formula")
    opt("--reg", float, default=1e-4)
    opt("--clamp", float, default=1e-8)
    opt("--momentum", float, default=0.0)
    opt("--seed", int, default=0)
    opt("--hidden", _parse_hidden, default=(256, 256),
        help="extractor widths, comma separated")
    opt("--d-int", int, help="intermediate width, default max(4C, 128)")
    opt("--trials", int, default=100, help="Bernoulli trials when generating")

    _, opt = command("encode", "binarize a split to code files")
    opt("--model", str, required_flag=True)
    opt("--features", str, required_flag=True)
    opt("--splits", str, required_flag=True)
    opt("--split", str, default="all",
        help="train, gallery, query, or all")
    opt("--out", str, required_flag=True, help="output directory")

    _, opt = command("eval-map", "mean average precision at k")
    opt("--gallery-codes", str, required_flag=True, help="text code file")
    opt("--query-codes", str, required_flag=True, help="text code file")
    opt("--labels", str, required_flag=True)
    opt("--k", int, default=5000)
    opt("--rule", str, default="same-class",
        help="same-class or share-any-label")
    opt("--out", str, required_flag=True, help="output directory")

    _, opt = command("eval-pr", "precision-recall over Hamming thresholds")
    opt("--gallery-codes", str, required_flag=True)
    opt("--query-codes", str, required_flag=True)
    opt("--labels", str, required_flag=True)
    opt("--rule", str, default="same-class")
    opt("--out", str, required_flag=True)

    _, opt = command("query", "rank a gallery against one code")
    opt("--gallery-codes", str, required_flag=True)
    opt("--code", str, required_flag=True, help="query bitstring")
    opt("--topk", int, default=10)

    _, opt = command("check-grad", "finite-difference gradient suite")
    opt("--seed", int, default=1)

    return top, tables


def _apply_config(tables, argv):
    if not argv or argv[0].startswith("-"):
        return
    name = argv[0]
    if name not in tables:
        return
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token[len("--config="):]
    if path is None:
        return
    parser, types, _ = tables[name]
    raw = formats.read_config(path)
    defaults = {}
    for key, value in raw.items():
        if key in ("command", "version"):
            continue
        if key not in types:
            raise ConfigurationError(
                f"unknown config key {key!r} for command {name!r}"
            )
        converter = types[key]
        try:
            defaults[key] = converter(value)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"bad value {value!r} for config key {key!r}"
            ) from None
    parser.set_defaults(**defaults)


def _cmd_synth(args):
    dataset = gen_synthetic(
        N=args.n, D=args.dim, C=args.classes,
        B_separation=args.separation, multilabel_p=args.multilabel_p,
        seed=args.seed, query_frac=args.query_frac,
    )
    os.makedirs(args.out, exist_ok=True)
    formats.save_dataset(
        dataset,
        os.path.join(args.out, "features.bin"),
        os.path.join(args.out, "labels.txt"),
        os.path.join(args.out, "splits.txt"),
    )
    _write_manifest(
        args.out, "synth", args,
        ("n", "dim", "classes", "separation", "multilabel_p",
         "query_frac", "seed", "out"),
    )
    print(
        f"wrote {dataset.N} samples ({len(dataset.query_indices)} query, "
        f"{len(dataset.gallery_indices)} gallery) to {args.out}"
    )
    return 0


def _make_centers(bits, classes, seed, trials):
    if bits >= 1 and (bits & (bits - 1)) == 0 and classes <= bits:
        return gen_hadamard_centers(bits, classes), "hadamard"
    return gen_bernoulli_centers(bits, classes, seed, trials), "bernoulli"


def _cmd_gen_centers(args):
    centers, kind = _make_centers(args.bits, args.classes, args.seed, args.trials)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    formats.write_centers(args.out, centers)
    _write_manifest(
        out_dir, "gen-centers", args,
        ("bits", "classes", "seed", "trials", "out"),
    )
    spread = (
        min_pairwise_distance(centers) if centers.C > 1 else centers.B
    )
    print(f"{kind} centers: C={centers.C} B={centers.B} min distance {spread}")
    return 0


def _cmd_train(args):
    dataset = formats.load_dataset(args.features, args.labels, args.splits)
    config = TrainConfig(
        bits=args.bits, epochs=args.epochs, batch_size=args.batch,
        lr=args.lr, lr_decay=args.lr_decay, decay_every=args.decay_every,
        alpha_mode=args.alpha_mode, alpha_override=args.alpha_override,
        reg=args.reg, clamp=args.clamp, momentum=args.momentum,
        seed=args.seed, hidden=args.hidden, d_int=args.d_int,
    )
    if args.centers is not None:
        centers0 = formats.read_centers(args.centers)
    else:
        centers0, _ = _make_centers(
            args.bits, dataset.C, args.seed, args.trials
        )
    model = build_model(
        D=dataset.D, C=dataset.C, bits=config.bits,
        hidden=config.hidden, d_int=config.d_int, seed=config.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    model, history, curves = train(model, config, dataset, centers0)
    formats.write_model(os.path.join(args.out, "model.bin"), model.layers)
    for centers in history:
        formats.write_centers(
            os.path.join(args.out, f"centers-e{centers.epoch:04d}.txt"),
            centers,
        )
    formats.write_loss_csv(os.path.join(args.out, "loss.csv"), curves)
    _write_manifest(
        args.out, "train", args,
        ("features", "labels", "splits", "centers", "out", "bits", "batch",
         "lr", "lr_decay", "decay_every", "epochs", "alpha_mode",
         "alpha_override", "reg", "clamp", "momentum", "seed", "hidden",
         "d_int", "trials"),
    )
    for epoch, train_loss, test_loss in curves:
        tail = "" if test_loss is None else f"  test {test_loss:.6f}"
        print(f"epoch {epoch:3d}  train {train_loss:.6f}{tail}")
    final = curves[-1][1]
    print(f"final train loss {final:.6f} -> {args.out}")
    return 0


def _cmd_encode(args):
    layers = formats.read_model(args.model)
    model = DcshModel(layers, n_extractor=len(layers) - 3)
    X = formats.read_features(args.features)
    tags = formats.read_split(args.splits)
    if len(tags) != X.shape[0]:
        raise ParseError(
            args.splits, f"{len(tags)} split lines vs {X.shape[0]} feature rows"
        )
    ids = split_indices(tags, args.split)
    if ids.shape[0] == 0:
        raise ConfigurationError(f"split {args.split!r} selects no samples")
    x_h, _ = predict(model, X[ids])
    bits = binarize(x_h)
    os.makedirs(args.out, exist_ok=True)
    text_path = os.path.join(args.out, f"codes-{args.split}.txt")
    packed_path = os.path.join(args.out, f"codes-{args.split}.bin")
    formats.write_codes_text(text_path, ids, bits)
    formats.write_codes_packed(packed_path, pack_codes(bits), model.B)
    _write_manifest(
        args.out, "encode", args,
        ("model", "features", "splits", "split", "out"),
    )
    print(f"encoded {ids.shape[0]} samples at {model.B} bits -> {text_path}")
    return 0


def _load_index(code_path, labels):
    ids, bits = formats.read_codes_text(code_path)
    if ids.max(initial=-1) >= len(labels) or ids.min(initial=0) < 0:
        raise ParseError(code_path, "code id outside the label file's range")
    return PackedCodeIndex.from_bits(
        bits, ids, labels=[labels[int(i)] for i in ids]
    )


def _cmd_eval_map(args):
    labels, _ = formats.read_labels(args.labels)
    gallery = _load_index(args.gallery_codes, labels)
    queries = _load_index(args.query_codes, labels)
    result = map_at_k(queries, gallery, args.k, args.rule)
    os.makedirs(args.out, exist_ok=True)
    formats.write_map_csv(os.path.join(args.out, "map.csv"), args.k, result.map)
    formats.write_ap_csv(
        os.path.join(args.out, "ap.csv"), result.query_ids, result.aps
    )
    _write_manifest(
        args.out, "eval-map", args,
        ("gallery_codes", "query_codes", "labels", "k", "rule", "out"),
    )
    print(f"MAP@{args.k} = {result.map:.6f} over {queries.N} queries")
    return 0


def _cmd_eval_pr(args):
    labels, _ = formats.read_labels(args.labels)
    gallery = _load_index(args.gallery_codes, labels)
    queries = _load_index(args.query_codes, labels)
    thresholds, recalls, precisions = pr_curve(queries, gallery, args.rule)
    os.makedirs(args.out, exist_ok=True)
    formats.write_pr_csv(
        os.path.join(args.out, "pr.csv"), thresholds, recalls, precisions
    )
    _write_manifest(
        args.out, "eval-pr", args,
        ("gallery_codes", "query_codes", "labels", "rule", "out"),
    )
    print(f"wrote {len(thresholds)} PR points to {args.out}")
    return 0


def _cmd_query(args):
    ids, bits = formats.read_codes_text(args.gallery_codes)
    index = PackedCodeIndex.from_bits(bits, ids)
    result = query_topk(index, args.code, args.topk)
    for i, d in zip(result.ids, result.distances):
        print(f"{int(i)}\t{int(d)}")
    if result.clipped:
        print(
            f"note: k clipped to gallery size {index.N}", file=sys.stderr
        )
    return 0


def _cmd_check_grad(args):
    rows = finite_difference_report(seed=args.seed)
    width = max(len(name) for name, _ in rows)
    for name, err in rows:
        print(f"{name:<{width}}  {err:.3e}")
    worst = max(err for _, err in rows)
    print(f"max relative error {worst:.3e} (threshold {GRAD_THRESHOLD:.0e})")
    if worst >= GRAD_THRESHOLD:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "gen-centers": _cmd_gen_centers,
    "train": _cmd_train,
    "encode": _cmd_encode,
    "eval-map": _cmd_eval_map,
    "eval-pr": _cmd_eval_pr,
    "query": _cmd_query,
    "check-grad": _cmd_check_grad,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    argv = [str(a) for a in argv]
    try:
        top, tables = _build_parser()
        _apply_config(tables, argv)
        args = top.parse_args(argv)
        _, _, required = tables[args.command]
        missing = [
            flag for dest, flag in required.items()
            if getattr(args, dest) is None
        ]
        if missing:
            raise ConfigurationError(
                f"missing required arguments: {', '.join(sorted(missing))}"
            )
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, DimensionError, LabelError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, StaleCacheError) as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

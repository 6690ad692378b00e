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
from .cca import ALPHA_MODES
from .centers import (
    gen_bernoulli_centers,
    gen_hadamard_centers,
    min_pairwise_distance,
)
from .data import gen_synthetic, split_indices
from .errors import ConfigurationError, DcshError, DimensionError, ParseError
from .network import (
    DEFAULT_HIDDEN,
    DcshModel,
    TrainConfig,
    binarize,
    build_model,
    finite_difference_report,
    predict,
    train,
)
from .numerics import check_seed
from .retrieval import (
    SAME_CLASS,
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
    parts = [p for p in text.split(",") if p.strip()]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"hidden widths must be comma-separated integers, got {text!r}"
        ) from None


def _parse_seed(text):
    try:
        return check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_alpha(text):
    """A mode name as itself, anything else as the factor itself."""
    if text in ALPHA_MODES:
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {', '.join(ALPHA_MODES)} or a number, got {text!r}"
        ) from None


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _write_manifest(out_dir, args):
    """manifest-<command>.txt: every option of the subcommand that is
    not None. The parsed namespace holds exactly the subcommand's own
    options, plus `command` and `config`."""
    mapping = {"command": args.command, "version": __version__}
    for dest, value in vars(args).items():
        if dest in ("command", "config") or value is None:
            continue
        mapping[dest] = _format_value(value)
    formats.write_manifest(
        os.path.join(out_dir, f"manifest-{args.command}.txt"), mapping
    )


def _build_parser():
    top = _Parser(prog="dcsh", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    tables = {}

    def command(name, help_text, handler):
        parser = sub.add_parser(name, help=help_text)
        required = {}
        tables[name] = (parser, required, handler)
        parser.add_argument(
            "--config", type=str, default=None,
            help="key=value file supplying flag defaults",
        )

        def opt(flag, converter, default=None, required_flag=False, help=""):
            dest = flag.lstrip("-").replace("-", "_")
            # Required options stay optional to argparse so a --config
            # file can supply them; main checks for gaps after merging.
            if required_flag:
                required[dest] = flag
            parser.add_argument(
                flag, dest=dest, type=converter, default=default, help=help,
            )
        return opt

    opt = command("synth", "generate a synthetic dataset", _cmd_synth)
    opt("--out", str, required_flag=True, help="output directory")
    opt("--n", int, default=1000, help="sample count")
    opt("--dim", int, default=32, help="feature dimension")
    opt("--classes", int, default=10, help="class count")
    opt("--separation", float, default=6.0, help="prototype norm")
    opt("--multilabel-p", float, default=0.0, help="second-label probability")
    opt("--query-frac", float, default=0.1, help="query split fraction")
    opt("--seed", _parse_seed, default=0)

    opt = command(
        "gen-centers", "generate initial hash centers", _cmd_gen_centers
    )
    opt("--bits", int, required_flag=True)
    opt("--classes", int, required_flag=True)
    opt("--seed", _parse_seed, default=0)
    opt("--out", str, required_flag=True, help="center file path")

    opt = command("train", "train a model on a dataset", _cmd_train)
    opt("--features", str, required_flag=True)
    opt("--labels", str, required_flag=True)
    opt("--splits", str, required_flag=True)
    opt("--centers", str, help="initial center file; generated when omitted")
    opt("--out", str, required_flag=True, help="output directory")
    opt("--bits", int, default=32)
    opt("--batch", int, default=TrainConfig.batch_size)
    opt("--lr", float, default=TrainConfig.lr)
    opt("--lr-decay", float, default=TrainConfig.lr_decay)
    opt("--decay-every", int, default=TrainConfig.decay_every)
    opt("--epochs", int, default=50)
    opt("--alpha", _parse_alpha, default=TrainConfig.alpha,
        help="equalized, emphasized, or a fixed value >= 0")
    opt("--reg", float, default=TrainConfig.reg)
    opt("--seed", _parse_seed, default=TrainConfig.seed)
    opt("--hidden", _parse_hidden, default=DEFAULT_HIDDEN,
        help="extractor widths, comma separated")
    opt("--d-int", int, help="intermediate width, default max(4C, 128)")

    opt = command("encode", "binarize a split to code files", _cmd_encode)
    opt("--model", str, required_flag=True)
    opt("--features", str, required_flag=True)
    opt("--splits", str, required_flag=True)
    opt("--split", str, default="all",
        help="train, gallery, query, or all")
    opt("--out", str, required_flag=True, help="output directory")

    opt = command("eval-map", "mean average precision at k", _cmd_eval_map)
    opt("--gallery-codes", str, required_flag=True, help="text code file")
    opt("--query-codes", str, required_flag=True, help="text code file")
    opt("--labels", str, required_flag=True)
    opt("--k", int, default=5000)
    opt("--rule", str, default=SAME_CLASS,
        help="same-class or share-any-label")
    opt("--out", str, required_flag=True, help="output directory")

    opt = command(
        "eval-pr", "precision-recall over Hamming thresholds", _cmd_eval_pr
    )
    opt("--gallery-codes", str, required_flag=True)
    opt("--query-codes", str, required_flag=True)
    opt("--labels", str, required_flag=True)
    opt("--rule", str, default=SAME_CLASS)
    opt("--out", str, required_flag=True)

    opt = command("query", "rank a gallery against one code", _cmd_query)
    opt("--gallery-codes", str, required_flag=True)
    opt("--code", str, required_flag=True, help="query bitstring")
    opt("--topk", int, default=10)

    opt = command(
        "check-grad", "finite-difference gradient suite", _cmd_check_grad
    )
    opt("--seed", _parse_seed, default=1)

    return top, tables


def _apply_config(parser, args):
    """Install the --config file's raw strings as the subcommand's
    defaults; argparse converts each with its option's own type, and
    only where the command line leaves the option unset."""
    raw = formats.read_config(args.config)
    for key in ("command", "version"):
        raw.pop(key, None)
    unknown = sorted(set(raw) - set(vars(args)))
    if unknown:
        plural = "s" if len(unknown) > 1 else ""
        raise ConfigurationError(
            f"unknown config key{plural} {', '.join(map(repr, unknown))} "
            f"for command {args.command!r}"
        )
    parser.set_defaults(**raw)


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
    _write_manifest(args.out, args)
    print(
        f"wrote {dataset.N} samples ({len(dataset.query_indices)} query, "
        f"{len(dataset.gallery_indices)} gallery) to {args.out}"
    )
    return 0


def _make_centers(bits, classes, seed):
    if bits >= 1 and (bits & (bits - 1)) == 0 and classes <= bits:
        return gen_hadamard_centers(bits, classes), "hadamard"
    return gen_bernoulli_centers(bits, classes, seed), "bernoulli"


def _cmd_gen_centers(args):
    centers, kind = _make_centers(args.bits, args.classes, args.seed)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    formats.write_centers(args.out, centers)
    _write_manifest(out_dir, args)
    spread = (
        min_pairwise_distance(centers) if centers.C > 1 else centers.B
    )
    print(f"{kind} centers: C={centers.C} B={centers.B} min distance {spread}")
    return 0


def _cmd_train(args):
    dataset = formats.load_dataset(args.features, args.labels, args.splits)
    config = TrainConfig(
        epochs=args.epochs, batch_size=args.batch,
        lr=args.lr, lr_decay=args.lr_decay, decay_every=args.decay_every,
        alpha=args.alpha, reg=args.reg, seed=args.seed,
    )
    if args.centers is not None:
        centers0 = formats.read_centers(args.centers)
    else:
        centers0, _ = _make_centers(args.bits, dataset.C, args.seed)
    model = build_model(
        D=dataset.D, C=dataset.C, bits=args.bits,
        hidden=args.hidden, d_int=args.d_int, seed=config.seed,
    )
    model, history, curves = train(model, config, dataset, centers0)
    os.makedirs(args.out, exist_ok=True)
    formats.write_model(os.path.join(args.out, "model.bin"), model.layers)
    for centers in history:
        formats.write_centers(
            os.path.join(args.out, f"centers-e{centers.epoch:04d}.txt"),
            centers,
        )
    formats.write_loss_csv(os.path.join(args.out, "loss.csv"), curves)
    _write_manifest(args.out, args)
    for epoch, train_loss, test_loss in curves:
        tail = "" if test_loss is None else f"  test {test_loss:.6f}"
        print(f"epoch {epoch:3d}  train {train_loss:.6f}{tail}")
    final = curves[-1][1]
    print(f"final train loss {final:.6f} -> {args.out}")
    return 0


def _cmd_encode(args):
    try:
        model = DcshModel(formats.read_model(args.model))
    except (ConfigurationError, DimensionError) as exc:
        raise ParseError(args.model, str(exc)) from None
    X = formats.read_features(args.features)
    tags = formats.read_split(args.splits)
    formats.check_row_count(args.splits, "split", len(tags), X.shape[0])
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
    _write_manifest(args.out, args)
    print(f"encoded {ids.shape[0]} samples at {model.B} bits -> {text_path}")
    return 0


def _load_index(code_path, labels):
    ids, bits = formats.read_codes_text(code_path)
    if ids.max(initial=-1) >= len(labels):
        raise ParseError(code_path, "code id outside the label file's range")
    return PackedCodeIndex.from_bits(
        bits, ids, labels=[labels[int(i)] for i in ids]
    )


def _load_eval(args):
    """(gallery, queries) of eval-map and eval-pr, read in that order."""
    labels, _ = formats.read_labels(args.labels)
    return (_load_index(args.gallery_codes, labels),
            _load_index(args.query_codes, labels))


def _cmd_eval_map(args):
    gallery, queries = _load_eval(args)
    result = map_at_k(queries, gallery, args.k, args.rule)
    os.makedirs(args.out, exist_ok=True)
    formats.write_map_csv(os.path.join(args.out, "map.csv"), args.k, result.map)
    formats.write_ap_csv(
        os.path.join(args.out, "ap.csv"), result.query_ids, result.aps
    )
    _write_manifest(args.out, args)
    print(f"MAP@{args.k} = {result.map:.6f} over {queries.N} queries")
    return 0


def _cmd_eval_pr(args):
    gallery, queries = _load_eval(args)
    thresholds, recalls, precisions = pr_curve(queries, gallery, args.rule)
    os.makedirs(args.out, exist_ok=True)
    formats.write_pr_csv(
        os.path.join(args.out, "pr.csv"), thresholds, recalls, precisions
    )
    _write_manifest(args.out, args)
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


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    argv = [str(a) for a in argv]
    try:
        top, tables = _build_parser()
        args = top.parse_args(argv)
        parser, required, handler = tables[args.command]
        if args.config is not None:
            _apply_config(parser, args)
            args = top.parse_args(argv)
        missing = [
            flag for dest, flag in required.items()
            if getattr(args, dest) is None
        ]
        if missing:
            raise ConfigurationError(
                f"missing required arguments: {', '.join(sorted(missing))}"
            )
        return handler(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except DcshError as exc:
        kind = "numeric abort" if exc.exit_code == 3 else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory", *exc.args, sep=": ", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

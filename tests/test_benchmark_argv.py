"""The benchmark's `dcsh` command lines name only options that exist.

`perfbench/workloads.py` builds the argv of every pipeline step from
list literals. Its source is read with `ast`, without importing it. In
a list headed by a subcommand name, each `--flag` must be an option of
that subcommand. Any other `--flag` literal, such as those in the eval
steps' shared `pair` list, must be an option of some subcommand. So an
option the benchmark passes cannot be removed without this failing;
otherwise it would show only as a failed benchmark run.
"""

import ast
from pathlib import Path

from dcsh.cli import _build_parser

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def options_by_subcommand():
    _, tables = _build_parser()
    return {name: set(parser._option_string_actions)
            for name, (parser, _, _) in tables.items()}


def is_str(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def flag_literals(options):
    """(subcommand or None, flag) for every `--flag` string literal of
    workloads.py; the subcommand is the head of the list literal that
    holds the flag as one of its own elements."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    head = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.List) and node.elts and is_str(node.elts[0])
                and node.elts[0].value in options):
            for elt in node.elts[1:]:
                head[id(elt)] = node.elts[0].value
    return [(head.get(id(node)), node.value) for node in ast.walk(tree)
            if is_str(node) and node.value.startswith("--")]


def test_flags_in_a_subcommand_list_are_its_options():
    options = options_by_subcommand()
    headed = [(cmd, flag) for cmd, flag in flag_literals(options) if cmd]
    # Every pipeline step the benchmark runs through the CLI is seen.
    assert {cmd for cmd, _ in headed} == {"gen-centers", "train", "encode",
                                          "eval-map"}
    assert [(cmd, flag) for cmd, flag in headed
            if flag not in options[cmd]] == []


def test_other_flags_are_options_of_some_subcommand():
    options = options_by_subcommand()
    loose = [flag for cmd, flag in flag_literals(options) if cmd is None]
    assert "--gallery-codes" in loose  # the shared eval arguments
    known = set().union(*options.values())
    assert [flag for flag in loose if flag not in known] == []

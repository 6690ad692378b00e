"""README claims checked against the package they describe."""

import builtins
import importlib
import pathlib
import re

import numpy as np

import dcsh
from dcsh.cli import _build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def flags_by_command():
    """{subcommand: its flags}; each flag is its option's dest spelled
    the way `cli` derives the dest from the flag."""
    top, tables = _build_parser()
    return {
        command: {"--" + dest.replace("_", "-")
                  for dest in vars(top.parse_args([command]))
                  if dest != "command"}
        for command in tables
    }


def shell_commands():
    """(subcommand, flags) for every `dcsh <cmd>` line of the README's
    sh blocks, with continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            match = re.match(r"\s*dcsh (\S+)(.*)", line)
            if match:
                yield match[1], re.findall(r"--[\w-]+", match[2])


def test_shell_lines_use_their_commands_flags():
    known = flags_by_command()
    shown = set()
    for command, flags in shell_commands():
        assert command in known, f"dcsh {command}"
        for flag in flags:
            assert flag in known[command], f"dcsh {command} {flag}"
        shown.add(command)
    assert shown == set(known)


def test_exit_code_table_flags_exist():
    rows = [line for line in section("Exit codes").splitlines()
            if line.startswith("|")]
    flags = re.findall(r"`(--[\w-]+)", "\n".join(rows))
    assert flags
    every = set().union(*flags_by_command().values())
    assert set(flags) <= every, sorted(set(flags) - every)


def test_library_layout_names_every_module():
    listed = re.findall(r"^\| `dcsh\.(\w+)` \|", section("Library layout"),
                        flags=re.M)
    package = pathlib.Path(dcsh.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert len(listed) == len(set(listed)), "a module is listed twice"
    assert set(listed) == modules


def test_library_layout_states_each_exit_code():
    row = re.search(r"^\| `dcsh\.errors` \|(.*)\|$", section("Library layout"),
                    flags=re.M)
    # "`ConfigurationError` 1; `ParseError`, `DimensionError`, ... 2; ..."
    stated = {}
    for names, code in re.findall(r"((?:`\w+`(?:, )?)+) (\d)\b", row[1]):
        for name in re.findall(r"`(\w+)`", names):
            assert name not in stated, f"{name} is listed twice"
            stated[name] = int(code)
    exported = {
        obj.__name__: obj.exit_code for obj in vars(dcsh).values()
        if isinstance(obj, type) and issubclass(obj, dcsh.DcshError)
        and obj is not dcsh.DcshError
    }
    assert stated == exported


def layout_names():
    """(module, identifier) for every backticked identifier, dotted or
    not, in each "Library layout" row."""
    for line in section("Library layout").splitlines():
        row = re.match(r"^\| `dcsh\.(\w+)` \|(.*)\|$", line)
        if row:
            for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", row[2]):
                yield importlib.import_module(f"dcsh.{row[1]}"), name


def resolves(module, name):
    """Whether `name` is found in the row's module, the dcsh package,
    builtins or numpy, with each dotted part an attribute of the one
    before; a bare name may also be an attribute of a class the module
    defines (`exit_code`)."""
    head, *rest = name.split(".")
    for space in (module, dcsh, builtins, np):
        if hasattr(space, head):
            obj = getattr(space, head)
            break
    else:
        return not rest and any(
            isinstance(cls, type) and cls.__module__ == module.__name__
            and hasattr(cls, head) for cls in vars(module).values()
        )
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_library_layout_names_resolve():
    names = list(layout_names())
    assert names
    stale = [f"dcsh.{m.__name__.split('.')[-1]}: {n}" for m, n in names
             if not resolves(m, n)]
    assert not stale, stale

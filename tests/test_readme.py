"""README claims checked against the package they describe."""

import pathlib
import re

import dcsh

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def layout_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]


def test_library_layout_names_every_module():
    listed = re.findall(r"^\| `dcsh\.(\w+)` \|", layout_section(), flags=re.M)
    package = pathlib.Path(dcsh.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert len(listed) == len(set(listed)), "a module is listed twice"
    assert set(listed) == modules


def test_library_layout_states_each_exit_code():
    row = re.search(r"^\| `dcsh\.errors` \|(.*)\|$", layout_section(),
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

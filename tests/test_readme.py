"""README claims checked against the package they describe."""

import pathlib
import re

import dcsh

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `dcsh\.(\w+)` \|", section, flags=re.M)
    package = pathlib.Path(dcsh.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert len(listed) == len(set(listed)), "a module is listed twice"
    assert set(listed) == modules

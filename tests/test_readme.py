"""The README's library sketch imports only names the package exports."""

import re
from pathlib import Path

import mwspoilers

README = Path(__file__).resolve().parent.parent / "README.md"


def sketch_imports() -> list[str]:
    """The names in the README's ``from mwspoilers import (...)`` block."""
    block = re.search(r"^from mwspoilers import \((.*?)^\)", README.read_text(), re.M | re.S)
    assert block, "README has no `from mwspoilers import (...)` block"
    return [name.strip() for name in block.group(1).split(",") if name.strip()]


def test_readme_sketch_imports_only_exported_names():
    names = sketch_imports()
    assert {"run_simulation", "analyze_spoilers", "condorcet_committee"} <= set(names)
    assert sorted(set(names) - set(mwspoilers.__all__)) == []

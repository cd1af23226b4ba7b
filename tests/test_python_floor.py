"""The package's source parses at the Python floor ``pyproject.toml`` declares.

The tests run on one interpreter, which may be newer than the floor, so
syntax the floor lacks (``except*``, ``type`` statements, ...) would pass
them unnoticed; ``ast.parse`` with ``feature_version`` rejects it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py"))


def declared_floor() -> tuple[int, int]:
    pyproject = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    return int(major), int(minor)


def test_the_floor_is_read_from_pyproject():
    assert declared_floor() == (3, 10)
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT / "src").as_posix())
def test_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())


def test_the_floor_check_rejects_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=declared_floor())

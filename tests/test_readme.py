"""The Python examples of README.md run as written.

Each ```python block is executed in a namespace of its own, as in a fresh
interpreter, so a missing import or a name the package root no longer
exports fails here.
"""

import ast
import re
from pathlib import Path

import pytest

import anticentrifugal

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.S | re.M)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 6


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_imports_only_exported_names():
    imported = {
        alias.name
        for block in BLOCKS
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "anticentrifugal"
        for alias in node.names
    }
    assert len(imported) >= 20
    assert imported <= set(anticentrifugal.__all__)


def test_readme_names_every_export():
    # as code: in a python block, or in backticks in the prose
    code = "\n".join(BLOCKS + re.findall(r"`([^`\n]+)`", README))
    missing = [
        name
        for name in anticentrifugal.__all__
        if name != "__version__" and not re.search(rf"\b{name}\b", code)
    ]
    assert missing == []

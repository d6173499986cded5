"""The private names that the package's modules reach across each other.

Each module's underscore imports from its siblings are pinned here, so a
new one is a deliberate change of this file.  specfun keeps its dispatch to
itself: no other module names its family table, a route table, a switch
tuple or the dispatcher, whether by import or as an attribute.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anticentrifugal"
MODULES = sorted(PACKAGE.glob("*.py"))

#: Per module, the underscore names it imports from sibling modules.
PRIVATE_IMPORTS = {
    "boundstate": {"_besselk_float", "_k0_at", "_k0_of"},
    "cli": {"_phi2_and_k0", "_ring_weight"},
    "radial": {"_besselk_float"},
    "verify": {"_crossover_mismatch", "_integrate_runs", "_reduction_check", "_slope"},
}

#: specfun's family table, route tables, switch tuples and dispatcher (with
#: its array path).
DISPATCH = re.compile(r"^_FAMILIES$|_ROUTES$|_SWITCHES$|^_regimes$|^_on_lanes$")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_private_imports_between_modules_are_pinned():
    got = {}
    for path in MODULES:
        names = {
            alias.name
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if alias.name.startswith("_")
        }
        if names:
            got[path.stem] = names
    assert got == PRIVATE_IMPORTS


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "specfun"], ids=lambda p: p.stem)
def test_only_specfun_names_its_dispatch(path):
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    assert not {n for n in names if DISPATCH.search(n)}


def test_the_dispatch_pattern_finds_specfuns_own_names():
    # the pattern above is not vacuous: specfun itself names all four kinds
    from anticentrifugal import specfun

    names = {n for n in vars(specfun) if DISPATCH.search(n)}
    assert {"_FAMILIES", "_K_ROUTES", "_K_SWITCHES", "_regimes", "_on_lanes"} <= names

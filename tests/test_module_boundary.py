"""No module of the package reaches a private name of a sibling.

A module neither imports an underscore name from a sibling module nor
reads one as an attribute of a sibling it imported, so each module's
private names are free to change with the module alone.  specfun keeps
its dispatch to itself: no other module names its family table, a route
table, a switch tuple or the dispatcher, whether by import or as an
attribute.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anticentrifugal"
MODULES = sorted(PACKAGE.glob("*.py"))

#: Per module, the underscore names it reaches in its siblings: none.
PRIVATE_IMPORTS = {}

#: specfun's family table, route tables, switch tuples and dispatcher (with
#: its array path).
DISPATCH = re.compile(r"^_FAMILIES$|_ROUTES$|_SWITCHES$|^_regimes$|^_on_lanes$")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _sibling_private_names(tree: ast.Module) -> set[str]:
    """The underscore names a module imports from its siblings, and those
    it reads as attributes of a sibling module it imported, as
    ``module._name``."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import sibling [as name]
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    names.add(alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            names.add(f"{node.value.id}.{node.attr}")
    return names


def test_no_module_imports_a_private_name_from_a_sibling():
    got = {path.stem: names for path in MODULES if (names := _sibling_private_names(_tree(path)))}
    assert got == PRIVATE_IMPORTS


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .radial import _k0_of, RadialGrid", {"_k0_of"}),
        ("from .specfun import besselk as _k", set()),
        ("from . import radial\nradial._k0_of(1.0, 2.0)", {"radial._k0_of"}),
        ("from . import radial as r\nr._march", {"r._march"}),
        ("from . import radial\nradial.integrate_radial", set()),
        ("import numpy as np\nnp._NoValue", set()),
    ],
)
def test_the_check_sees_imports_and_attribute_reads(source, found):
    # the check above is not vacuous: it finds both forms of reaching across
    assert _sibling_private_names(ast.parse(source)) == found


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

"""No module of the package reaches a private name of a sibling, and no
public name lacks a caller.

A module neither imports an underscore name from a sibling module nor
reads one as an attribute of a sibling it imported, so each module's
private names are free to change with the module alone.  specfun keeps
its dispatch to itself: no other module names its family table or the
dispatcher, whether by import or as an attribute.  Every module-level
public function and class is exported, read by code of the package
outside its own definition, or the console script's target.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anticentrifugal"
MODULES = sorted(PACKAGE.glob("*.py"))

#: Per module, the underscore names it reaches in its siblings: none.
PRIVATE_IMPORTS = {}

#: specfun's family table and dispatcher.
DISPATCH = re.compile(r"^_FAMILIES$|^_regimes$")


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
    # the pattern above is not vacuous: specfun itself names both
    from anticentrifugal import specfun

    names = {n for n in vars(specfun) if DISPATCH.search(n)}
    assert {"_FAMILIES", "_regimes"} <= names


def _names_read(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _uncalled(trees: dict[str, ast.Module], kept: set[str]) -> list[str]:
    """``module.name`` of each module-level public function or class that
    is not in ``kept`` and that no code outside its own definition reads,
    as a name or an attribute."""
    tops = [(top, _names_read(top)) for tree in trees.values() for top in tree.body]
    return [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in kept
        and not any(node.name in names for top, names in tops if top is not node)
    ]


def test_every_public_function_and_class_has_a_caller():
    import anticentrifugal

    scripts = re.findall(r'^\w+ = "anticentrifugal\.\w+:(\w+)"$',
                         (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert scripts == ["entry"]
    trees = {path.stem: _tree(path) for path in MODULES}
    assert _uncalled(trees, {*anticentrifugal.__all__, *scripts}) == []


def test_the_caller_check_sees_uncalled_names():
    # the check above is not vacuous: a name read only inside its own
    # definition, or nowhere, has no caller
    trees = {
        "a": ast.parse("def used(): pass\ndef alone(): used()\ndef loop(): loop()\n"
                       "class Kept: pass\n_private = 1\ndef _hidden(): pass"),
        "b": ast.parse("from . import a\na.Kept"),
    }
    assert _uncalled(trees, set()) == ["a.alone", "a.loop"]
    assert _uncalled(trees, {"alone"}) == ["a.loop"]

"""The package root resolves its exports on first access (PEP 562).

``import anticentrifugal`` loads no submodule; each name of ``__all__``
is imported from the module that defines it when it is first read, so the
root must still offer exactly what an eager root did: the same objects,
``dir()``, ``from anticentrifugal import *`` and the standard error for a
name it lacks.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anticentrifugal

SRC = str(Path(anticentrifugal.__file__).resolve().parents[1])


def _fresh_process(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    ).stdout


@pytest.mark.parametrize("name", [n for n in anticentrifugal.__all__ if n != "__version__"])
def test_each_export_is_the_object_its_home_module_defines(name):
    home = importlib.import_module(f"anticentrifugal.{anticentrifugal._HOME[name]}")
    value = getattr(anticentrifugal, name)
    assert value is getattr(home, name)
    # defined there, not imported there from a sibling
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_an_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError) as exc:
        anticentrifugal.no_such_name
    assert str(exc.value) == "module 'anticentrifugal' has no attribute 'no_such_name'"
    assert not hasattr(anticentrifugal, "_ring_weight")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from anticentrifugal import no_such_name", {})


def test_dir_and_star_import_list_every_export_in_a_fresh_process():
    # in a fresh process no name is cached yet, so dir() must list the
    # exports before any is read, and each comes through the hook; a
    # submodule read as an attribute is imported on demand too
    code = (
        "import anticentrifugal, sys\n"
        "names = dir(anticentrifugal)\n"
        "print(set(anticentrifugal.__all__) <= set(names), names == sorted(names))\n"
        "print(anticentrifugal.verify is sys.modules['anticentrifugal.verify'])\n"
        "namespace = {}\n"
        "exec('from anticentrifugal import *', namespace)\n"
        "del namespace['__builtins__']\n"
        "print(len(namespace), sorted(namespace) == sorted(anticentrifugal.__all__))\n"
        "print(all(namespace[n] is getattr(anticentrifugal, n) for n in namespace))\n"
    )
    assert _fresh_process(code) == "True True\nTrue\n44 True\nTrue\n"

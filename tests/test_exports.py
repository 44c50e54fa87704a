"""Every exported name resolves: each module's ``__all__`` and the package namespace.

The package imports nothing beyond numpy and the standard library.
"""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import digcrowd

MODULES = sorted(m.name for m in pkgutil.iter_modules(digcrowd.__path__, "digcrowd."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _public(namespace):
    return {n for n, v in vars(namespace).items()
            if not n.startswith("_") and not isinstance(v, type(digcrowd))}


def test_package_namespace_is_module_exports():
    """Each public name of the package is one a module exports: in ``__all__`` if it has one."""
    exported = set()
    for name in MODULES:
        module = importlib.import_module(name)
        exported.update(getattr(module, "__all__", None) or _public(module))
    assert _public(digcrowd) - exported == set()


def test_package_import_loads_no_scipy():
    """scipy is a test oracle only; the package and its CLI run on numpy alone."""
    code = ("import sys, digcrowd, digcrowd.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(digcrowd.__path__[0]).parent)
    assert out.stdout.strip() == "[]"

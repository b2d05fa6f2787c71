"""Module boundaries inside the package: no module reads another module's
underscore names, and every ``__all__`` entry resolves to an attribute of its
module."""

import ast
import importlib
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "oddmsim"


def _modules():
    return sorted(PKG.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_reads(path):
    """(line, text) of every read of a sibling module's underscore name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = {p.stem for p in _modules()}
    aliases = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        # the package imports its siblings relatively: "from . import x" binds
        # a module, "from .x import y" binds names
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in siblings:
                    aliases.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((node.lineno, f"import {alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_reads_another_modules_private_names():
    bad = {
        p.name: reads for p in _modules() if (reads := _foreign_private_reads(p))
    }
    assert bad == {}


def test_every_all_entry_resolves():
    missing = {}
    for path in _modules():
        mod = importlib.import_module(f"oddmsim.{path.stem}")
        names = getattr(mod, "__all__", ())
        unresolved = [n for n in names if not hasattr(mod, n)]
        if unresolved:
            missing[path.name] = unresolved
    assert missing == {}


def _imports_pocketfft_gufuncs(path):
    """Whether the module imports numpy.fft._pocketfft_umath in any form."""
    target = "numpy.fft._pocketfft_umath"
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            if any(a.name == target or a.name.startswith(target + ".") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == target or node.module.startswith(target + "."):
                return True
            if any(f"{node.module}.{a.name}" == target for a in node.names):
                return True
    return False


def test_one_module_calls_the_pocketfft_gufuncs():
    # numpy's private DFT gufuncs bypass np.fft's checks: one call site keeps
    # that contract (kernel, factor, out= buffer) in one place
    users = [p.name for p in _modules() if _imports_pocketfft_gufuncs(p)]
    assert users == ["detectors.py"]

"""The runtime dependencies declared in pyproject.toml are exactly the
third-party modules the package imports, their floors admit no version
lacking an API the package calls, and every Python source parses at the
declared Python floor."""

import ast
import re
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; tomli is the package tomllib came from
    import tomli as tomllib

ROOT = Path(__file__).resolve().parents[1]


def _project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _requirements():
    return _project()["dependencies"]


def _declared():
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in _requirements()}


def _imported():
    mods = set()
    for path in (ROOT / "src" / "oddmsim").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                mods.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods.add(node.module.split(".")[0])
    return {m for m in mods if m not in sys.stdlib_module_names and m != "oddmsim"}


def test_declared_dependencies_match_imports():
    assert _imported() == {"numpy"}
    assert _declared() == _imported()


def test_numpy_floor_excludes_1x():
    # the engine counts bits with bitwise_count, a numpy 2.0 addition, and
    # calls the DFT gufuncs of numpy.fft._pocketfft_umath directly: numpy 2.0
    # moved np.fft onto C++ pocketfft, exposed as those gufuncs (fft, ifft,
    # each taking the array and its normalization factor, with out=), which
    # np.fft._pocketfft._raw_fft calls; numpy 1.x has no such module
    (numpy,) = [d for d in _requirements() if d.lower().startswith("numpy")]
    floor = re.fullmatch(r"numpy\s*>=\s*(\d+)(\.\d+)*", numpy.strip())
    assert floor is not None and int(floor.group(1)) >= 2, numpy


def test_sources_parse_at_the_python_floor():
    # CI runs the floor too, but a syntax error there shows only when CI runs;
    # ast checks the grammar of requires-python's version here (except*, say,
    # is 3.11 syntax)
    spec = _project()["requires-python"]
    floor = re.fullmatch(r">=\s*(\d+)\.(\d+)", spec.strip())
    assert floor is not None, spec
    version = (int(floor.group(1)), int(floor.group(2)))
    paths = [
        path
        for top in ("src", "tests", "tools", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)

"""The package declares every third-party module it imports, and
importing it stays lean.

``pip install -e .[test]`` builds an environment from ``pyproject.toml``
alone, so an import that no declared dependency provides fails there
even when the developer's own environment happens to have it.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def declared_dependencies():
    """Import names of the ``[project] dependencies`` in pyproject.toml.

    Read with a regex rather than ``tomllib``, which Python 3.10 lacks.
    """
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    names = re.findall(r'"\s*([A-Za-z0-9_.\-]+)', block.group(1))
    return {name.lower().replace("-", "_") for name in names}


def imported_top_level_modules():
    """Top-level module of every absolute import under ``src/repro``."""
    modules = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+"
)
def test_every_third_party_import_is_declared():
    third_party = (
        imported_top_level_modules() - set(sys.stdlib_module_names) - {"repro"}
    )
    missing = sorted(third_party - declared_dependencies())
    assert not missing, f"missing: {missing}"


def test_import_leaves_scipy_stats_unloaded():
    # numpy is the only runtime dependency: calibration synthesis ports
    # the scipy calls it used to make (``ndtri`` included) and the
    # coupling maps are in-repo graphs, so no fresh process (a CLI call,
    # a worker) loads scipy or networkx, which cost about 0.3 s and 30 MB
    # of the import.  Every batch evaluates in-process, so nothing loads
    # multiprocessing either.
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.service.tier\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('scipy', 'networkx', 'multiprocessing'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"

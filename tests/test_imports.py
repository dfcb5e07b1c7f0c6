"""The demos and the benchmark import only names twistpf still has.

Each script is parsed, not run: every ``from twistpf[.module] import name``
and ``import twistpf.module`` must resolve against the package as it is.
"""

import ast
import glob
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))
                 + glob.glob(os.path.join(ROOT, "bench", "*.py")))


def _twistpf_imports(path):
    """``(module, name)`` for each name a script imports from twistpf; name
    is None for a plain ``import twistpf.module``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "twistpf" or node.module.startswith("twistpf.")):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "twistpf" or alias.name.startswith("twistpf."):
                    yield alias.name, None


def test_scripts_are_found():
    names = {os.path.relpath(p, ROOT) for p in SCRIPTS}
    assert "bench/run.py" in names and "demos/sis_vs_bootstrap.py" in names


@pytest.mark.parametrize("path", SCRIPTS, ids=[os.path.relpath(p, ROOT) for p in SCRIPTS])
def test_script_imports_resolve(path):
    missing = []
    for module, name in _twistpf_imports(path):
        mod = importlib.import_module(module)
        if name is not None and name != "*" and not hasattr(mod, name):
            try:  # a submodule: from twistpf import filters
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert not missing, f"{os.path.relpath(path, ROOT)} imports names twistpf lacks: {missing}"

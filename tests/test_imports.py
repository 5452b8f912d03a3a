"""Every name a module imports is used in that module.

No linter runs on this code base, so an import that outlives its last use
stays unnoticed.  Package ``__init__.py`` files are exempt, since their
imports are the re-exported API, and so is ``from __future__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = [
        path
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(paths) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "print(os.path.sep, tau)\n"
    )
    assert unused_imports(source) == [(3, "np"), (4, "pi")]


def test_package_and_command_line_need_only_numpy():
    # the test extra (scipy, hypothesis) is blocked in a fresh interpreter:
    # importing the package and running "python -m gridrecover.cli --help"
    # must not reach for either
    code = (
        "import runpy, sys\n"
        "sys.modules.update(scipy=None, hypothesis=None)\n"
        "try:\n"
        "    import scipy.optimize\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('scipy is not blocked')\n"
        "import gridrecover\n"
        "sys.argv = ['gridrecover', '--help']\n"
        "runpy.run_module('gridrecover.cli', run_name='__main__', alter_sys=True)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: gridrecover") and run.stderr == ""

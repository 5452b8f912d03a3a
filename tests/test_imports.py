"""Every name a module imports is used in that module, every name a
module defines is read somewhere in the package, only ``io`` touches
files, and no module reaches for a private name of numpy.

No linter runs on this code base, so an import that outlives its last use
stays unnoticed, and so does a function or constant that outlives its last
caller.  Package ``__init__.py`` files are exempt, since their imports are
the re-exported API, and so is ``from __future__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

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


def defined_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level function, class and assigned name."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (node.lineno, leaf.id)
                for target in targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            ]
    return found


def read_names(source: str) -> set[str]:
    """Every name that an expression reads, an attribute names or an import takes."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_names(sources: dict[str, str]) -> list[str]:
    """"file:line: name" of each name that a module of ``sources`` (file
    name to source) defines and no module reads.  What ``__init__.py``
    binds is the package's API, and what it imports counts as read."""
    read = set().union(*map(read_names, sources.values()))
    return [
        f"{name}:{line}: {defined}"
        for name, source in sources.items()
        if name != "__init__.py"
        for line, defined in defined_names(source)
        if defined not in read
    ]


def test_no_dead_names():
    paths = sorted((ROOT / "src" / "gridrecover").glob("*.py"))
    assert len(paths) > 5 and paths[0].name == "__init__.py"
    dead = dead_names({path.name: path.read_text() for path in paths})
    assert not dead, "defined but never read:\n" + "\n".join(dead)


def test_dead_names_are_found():
    sources = {
        "a.py": (
            "import math\n"
            "LIMIT = 3\n"
            "_cache, SIZE = {}, 2\n"
            "def used(): return math.pi\n"
            "def unused(): return LIMIT\n"
            "class Gone: pass\n"
            "shadowed: int = 0\n"
            "shadowed = 1\n"
        ),
        "b.py": "from .a import used\nfrom . import a\nprint(used(), a._cache)\n",
        "__init__.py": "from .a import SIZE\n__version__ = '0'\n",
    }
    assert dead_names(sources) == [
        "a.py:5: unused", "a.py:6: Gone", "a.py:7: shadowed", "a.py:8: shadowed",
    ]


def test_package_and_command_line_need_only_numpy():
    # the test extra (scipy, hypothesis) is blocked in a fresh interpreter:
    # importing the package and running "python -m gridrecover.cli --help"
    # must not reach for either.
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


def spawn_calls(source: str) -> list[int]:
    """Lines of each call of an attribute named ``spawn``, such as numpy's
    ``SeedSequence.spawn``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "spawn"
    ]


def test_no_spawn_calls():
    # spawn advances the SeedSequence it is called on, so a given one would
    # draw differently on its next call; the command line builds its two
    # children by spawn key instead, and every other draw takes default_rng
    paths = sorted((ROOT / "src" / "gridrecover").glob("*.py"))
    assert len(paths) > 5
    found = [f"{path.name}:{line}" for path in paths for line in spawn_calls(path.read_text())]
    assert not found, "spawn called:\n" + "\n".join(found)


def test_spawn_calls_are_found():
    source = (
        '"""Children as ss.spawn(2) would make them."""\n'
        "import numpy as np\n"
        "a, b = np.random.SeedSequence(0).spawn(2)\n"
        "# ss.spawn(1)\n"
        "kids = ss.spawn\n"
        "print(spawn(3), rng.spawn(\n    1))\n"
    )
    assert spawn_calls(source) == [3, 6]


def width_reads(source: str) -> list[int]:
    """Lines of each spelling of the real (c, s) form's width, the real
    numbers per edge: a call of a function named ``iscomplexobj``, which
    tells an AC system's complex triangle from a DC one, and an import of
    ``vandermonde._WIDTH``, the width itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")) == "iscomplexobj":
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(alias.name == "_WIDTH" for alias in node.names):
            found.append(node.lineno)
    return sorted(found)


def test_only_vandermonde_decodes_the_column_layout():
    # an edge's columns are laid out, restricted, compressed and read back
    # by gridrecover.vandermonde alone; no other module needs their width
    paths = sorted((ROOT / "src" / "gridrecover").glob("*.py"))
    assert len(paths) > 5 and paths[0].parent / "vandermonde.py" in paths
    found = [
        f"{path.name}:{line}"
        for path in paths
        if path.name != "vandermonde.py"
        for line in width_reads(path.read_text())
    ]
    assert not found, "column layout read outside gridrecover.vandermonde:\n" + "\n".join(found)


def test_width_reads_are_found():
    source = (
        '"""Columns as np.iscomplexobj(R) gives them."""\n'
        "r = 2 if np.iscomplexobj(kept.matrix) else 1\n"
        "# from .vandermonde import _WIDTH\n"
        "from .vandermonde import _WIDTH as width, assemble\n"
        "print(iscomplexobj(\n    R), numpy.iscomplexobj)\n"
        "import _WIDTH\n"
    )
    assert width_reads(source) == [2, 4, 5]


def test_code_lines_count_code_alone():
    source = (
        '"""A module docstring,\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "X = (1,  # a trailing comment\n"
        "     2)\n"
        "def f():\n"
        '    """A function docstring."""\n'
        '    return """a string\n'
        "\n"
        'over three lines"""\n'
    )
    assert code_lines(source) == 6  # lines 6, 7, 8, 10, 11 and 12


FILE_MODULES = {"json", "csv"}
FILE_CALLS = {"open", "read_text", "write_text"}


def file_access(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import of json or csv and each call of open,
    read_text or write_text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module.partition(".")[0]]
        elif isinstance(node, ast.Call):
            func = node.func
            names = [func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in FILE_MODULES | FILE_CALLS]
    return found


def test_only_io_reads_and_writes_files():
    # every file format has one reader and one writer, in gridrecover.io
    paths = sorted((ROOT / "src" / "gridrecover").glob("*.py"))
    assert len(paths) > 5 and paths[0].parent / "io.py" in paths
    found = [
        f"{path.name}:{line}: {name}"
        for path in paths
        if path.name != "io.py"
        for line, name in file_access(path.read_text())
    ]
    assert not found, "file access outside gridrecover.io:\n" + "\n".join(found)


def test_file_access_is_found():
    source = (
        "import csv\n"
        "from json import dumps\n"
        "from . import io\n"
        "from .io import save_json\n"
        "with open('x') as fh:\n"
        "    Path('y').write_text(fh.read())\n"
        "print(Path('z').read_text())\n"
    )
    assert sorted(file_access(source)) == [
        (1, "csv"), (2, "json"), (5, "open"), (6, "write_text"), (7, "read_text"),
    ]


def _private(dotted: str) -> bool:
    """Whether a part of the dotted name starts with an underscore and is
    not a dunder such as ``__version__``."""
    return any(p.startswith("_") and not p.endswith("__") for p in dotted.split("."))


def numpy_private_names(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of each private name reached in numpy: imported
    from a numpy module, or read as an attribute of a numpy module or
    object under whatever name it was imported as."""
    tree = ast.parse(source)
    bound = {}  # local name -> dotted numpy name
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "numpy":
                    # "import numpy.random" binds numpy, "import numpy.random as r" binds r
                    bound[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
                    if _private(alias.name):
                        found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] == "numpy":
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = dotted
                if _private(dotted):
                    found.append((node.lineno, dotted))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            chain, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                found.append((node.lineno, ".".join([bound[base.id], *reversed(chain)])))
    return sorted(found)


def test_no_numpy_private_names():
    # numpy's streams are recomputed in gridrecover.states from numpy's
    # published algorithms, not borrowed from its internals
    paths = sorted((ROOT / "src" / "gridrecover").glob("*.py"))
    assert len(paths) > 5
    found = [
        f"{path.name}:{line}: {name}"
        for path in paths
        for line, name in numpy_private_names(path.read_text())
    ]
    assert not found, "private numpy names:\n" + "\n".join(found)


def test_numpy_private_names_are_found():
    source = (
        "import os\n"
        "import numpy as np\n"
        "import numpy.random._pcg64\n"
        "from numpy.random.bit_generator import _coerce_to_uint32_array, SeedSequence\n"
        "from numpy.random import bit_generator as bg\n"
        "from numpy._core import multiarray\n"
        "from ._local import _helper\n"
        "print(np.__version__, np.random._pickle.x, bg._int_to_uint32_array(1))\n"
        "print(os._exit, _helper._x, SeedSequence.pool)\n"
    )
    assert numpy_private_names(source) == [
        (3, "numpy.random._pcg64"),
        (4, "numpy.random.bit_generator._coerce_to_uint32_array"),
        (6, "numpy._core.multiarray"),
        (8, "numpy.random._pickle"),
        (8, "numpy.random.bit_generator._int_to_uint32_array"),
    ]

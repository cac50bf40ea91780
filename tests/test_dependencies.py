"""Every third-party import in the package is a declared dependency.

An undeclared import works on a developer machine that happens to have
the package installed and breaks a clean ``pip install``.  Two checks
read the ``[project].dependencies`` list of ``pyproject.toml``:

* a static one parses every module under ``src/repro``;
* a runtime one imports every module in a fresh interpreter and looks
  at what actually got loaded, which also catches modules a dependency
  (or an import hidden from the parser) pulls in transitively.

The TOML is read with a small regex rather than :mod:`tomllib`, which
Python 3.10 lacks.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def declared_dependencies() -> set[str]:
    """Import names of ``[project].dependencies`` in ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project, "pyproject.toml has no [project] table"
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1),
                     re.M | re.S)
    assert deps, "[project] declares no dependencies list"
    names = set()
    for spec in re.findall(r"[\"']([^\"']+)[\"']", deps.group(1)):
        name = re.match(r"[A-Za-z0-9_.-]+", spec.strip()).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def imported_top_level_modules() -> dict[str, set[str]]:
    """Top-level module name -> the package files that import it."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                found.setdefault(module.split(".")[0], set()).add(
                    str(path.relative_to(ROOT))
                )
    return found


def test_declared_dependencies_parse():
    assert "numpy" in declared_dependencies()


def test_every_import_is_stdlib_repro_or_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    allowed |= declared_dependencies()
    undeclared = {
        module: sorted(files)
        for module, files in imported_top_level_modules().items()
        if module not in allowed
    }
    assert not undeclared, (
        f"imported but not in [project].dependencies: {undeclared}"
    )


#: Imports every ``repro`` module and prints the top-level names added to
#: ``sys.modules`` since start-up, so whatever the site hooks (``.pth``
#: files) loaded into the bare interpreter does not count.
_IMPORT_ALL = """
import sys
bare = {name.partition(".")[0] for name in sys.modules}
import importlib, json, pkgutil
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(loaded - bare)))
"""


def test_importing_every_module_loads_only_declared_dependencies():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert "repro" in loaded
    allowed = set(sys.stdlib_module_names) | {"repro"}
    allowed |= declared_dependencies()
    # ``__mp_main__`` is multiprocessing's alias of the main module.
    undeclared = [
        name for name in loaded
        if name not in allowed and not name.startswith("__")
    ]
    assert not undeclared, (
        f"importing repro loaded undeclared modules: {undeclared}"
    )

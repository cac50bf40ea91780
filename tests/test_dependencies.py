"""Every third-party import in the package is a declared dependency.

An undeclared import works on a developer machine that happens to have
the package installed and breaks a clean ``pip install``.  The check is
static: it parses every module under ``src/repro`` and the
``[project].dependencies`` list of ``pyproject.toml``.  The TOML is read
with a small regex rather than :mod:`tomllib`, which Python 3.10 lacks.
"""

from __future__ import annotations

import ast
import re
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

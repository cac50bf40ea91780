"""Tier-1 marker audit: keep the fast/slow test split trustworthy.

The tier-1 suite is ``pytest -q`` with the ``addopts`` default
``-m 'not slow'`` — its usefulness depends entirely on markers being
applied and declared consistently.  This script verifies, without
running a single test:

1. every ``pytest.mark.<name>`` used under ``tests/`` is declared
   (checked against ``pytest --markers``, so typos like
   ``@pytest.mark.slwo`` cannot silently drop a test from the slow
   set);
2. strict-marker collection of the *full* suite (``-m ""``) succeeds;
3. the tier-1 selection actually deselects something (the ``slow``
   tier exists) and still selects a non-empty fast tier;
4. every expected suite directory (``_EXPECTED_SUITES``) exists and
   contains at least one test module — a suite that is deleted,
   emptied, or never lands (e.g. ``tests/campaign``) cannot silently
   vanish from "tier-1 passed".

Exit status is non-zero on any violation, so CI can run it as a gate.

Usage::

    PYTHONPATH=src python benchmarks/marker_audit.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_MARK_USE = re.compile(r"pytest\.mark\.([A-Za-z_]\w*)")
_MARK_DECL = re.compile(r"^@pytest\.mark\.([A-Za-z_]\w*)", re.MULTILINE)

#: Built-in / structural marks that are legitimate without declaration.
_ALWAYS_OK = {"parametrize", "skip", "skipif", "xfail", "usefixtures",
              "filterwarnings"}

#: Suite directories the tier-1 run is expected to cover; each must
#: exist and contain at least one ``test_*.py`` module.
_EXPECTED_SUITES = (
    "tests/audit",
    "tests/campaign",
    "tests/core",
    "tests/experiments",
    "tests/grid",
    "tests/montage",
    "tests/service",
    "tests/sim",
    "tests/sweep",
    "tests/workflow",
)


def _pytest(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "pytest", *args],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )


def declared_markers() -> set[str]:
    proc = _pytest("--markers")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("pytest --markers failed")
    return set(_MARK_DECL.findall(proc.stdout))


def used_markers() -> dict[str, set[str]]:
    """Marker name -> set of files using it."""
    uses: dict[str, set[str]] = {}
    for path in (REPO_ROOT / "tests").rglob("*.py"):
        for name in _MARK_USE.findall(path.read_text(encoding="utf-8")):
            uses.setdefault(name, set()).add(
                str(path.relative_to(REPO_ROOT))
            )
    return uses


def collected_counts(*select: str) -> tuple[int, int]:
    """(selected, deselected) for a collect-only run."""
    proc = _pytest("--collect-only", "-q", "--strict-markers", *select)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(
            f"strict-marker collection failed for {select or 'tier-1'}"
        )
    selected = deselected = 0
    summary = re.search(
        r"(\d+)(?:/(\d+))? tests? collected"
        r"(?:.*?(\d+) deselected)?",
        proc.stdout,
    )
    if summary is None:
        raise SystemExit(
            f"could not parse collection summary:\n{proc.stdout[-500:]}"
        )
    selected = int(summary.group(1))
    if summary.group(3):
        deselected = int(summary.group(3))
    return selected, deselected


def main() -> int:
    failures: list[str] = []

    declared = declared_markers() | _ALWAYS_OK
    uses = used_markers()
    for name, files in sorted(uses.items()):
        if name not in declared:
            failures.append(
                f"undeclared marker 'pytest.mark.{name}' used in: "
                + ", ".join(sorted(files))
            )
    print(
        f"markers used: {', '.join(sorted(uses)) or '(none)'} "
        f"({len(declared)} declared)"
    )

    for suite in _EXPECTED_SUITES:
        suite_dir = REPO_ROOT / suite
        if not any(suite_dir.glob("test_*.py")):
            failures.append(
                f"expected suite {suite} is missing or has no test "
                "modules"
            )

    full, _ = collected_counts("-m", "")
    tier1, tier1_deselected = collected_counts()
    print(
        f"collection: full={full} tier1={tier1} "
        f"(deselected {tier1_deselected})"
    )
    if tier1 == 0:
        failures.append("tier-1 selection is empty")
    if tier1_deselected == 0:
        failures.append(
            "tier-1 deselects nothing — no test carries the slow marker, "
            "so the fast/slow split is vacuous"
        )
    if tier1 + tier1_deselected != full:
        failures.append(
            f"tier-1 selected+deselected ({tier1}+{tier1_deselected}) "
            f"!= full collection ({full})"
        )

    if failures:
        print("== marker audit failures ==")
        for line in failures:
            print(f"  {line}")
        return 1
    print("marker audit ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

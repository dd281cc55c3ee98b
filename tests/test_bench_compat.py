"""The benchmark workloads still fit the library's names.

perfbench/workloads.py drives dyadosc through ``import dyadosc as d`` and
``from dyadosc import cli``, so a deletion that keeps every other test
green can still break a benchmark run.  This reads the workloads file
without importing or running it.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _library_uses():
    """(module, attribute) for each ``alias.attribute`` of the workloads
    file whose alias names a dyadosc module."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names
                            if a.name.split(".")[0] == "dyadosc"})
        elif isinstance(node, ast.ImportFrom) and node.module == "dyadosc":
            modules.update({a.asname or a.name: f"dyadosc.{a.name}" for a in node.names})
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_every_name_the_workloads_use_exists():
    uses = _library_uses()
    assert ("dyadosc", "assemble_martingale") in uses and ("dyadosc.cli", "main") in uses
    missing = sorted(f"{mod}.{attr}" for mod, attr in uses
                     if not hasattr(importlib.import_module(mod), attr))
    assert missing == []

"""The boundary of `stopset.reference`: the slow routes tests check the
production ones against live there, and no command can load them."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stopset
from stopset import reference

PACKAGE = Path(stopset.__file__).resolve().parent

MOVED = [
    ("groupcount", "dp_count"),
    ("groupcount", "all_groups_of_order"),
    ("stoptheory", "enumerate_S_m1"),
    ("stoptheory", "enumerate_S_m1_direct"),
    ("stoptheory", "recover_S_m"),
    ("agcode", "support_masks"),
    ("agcode", "stopping_distribution_from_rows"),
    ("agcode", "rs_code"),
    ("agcode", "scale_columns"),
    ("decoder", "residual_is_stopping"),
    ("agcode", "dual_rows"),
]

# oracles the benchmark traces under their own modules' names
TRACED = [
    ("curve", "point_order"),
    ("groupcount", "subset_sum_table"),
    ("agcode", "min_distance_bruteforce"),
]

COMMANDS = """
import contextlib, io, json, sys
from stopset import cli
codes = []
for argv in (
    ["report", "--p", "5", "--a", "1", "--b", "1", "--m", "3"],
    ["decode", "--p", "13", "--a", "1", "--b", "1", "--m", "4", "--erased", "1,2,3,4,5"],
    ["verify", "--max-q", "5", "--max-m", "2", "--corrupt", "0"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "modules": sorted(m for m in sys.modules if m.startswith("stopset"))}))
"""


def test_commands_never_load_the_reference_module():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", COMMANDS], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # the corrupted sweep exits 1 through the oracle's sampled fallback
    assert out["codes"] == [0, 0, 1]
    assert "stopset.cli" in out["modules"]
    assert "stopset.reference" not in out["modules"]


def _imports_reference(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["stopset", "reference"] for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level:
            if not module:
                return any(a.name == "reference" for a in node.names)
            return module.split(".")[0] == "reference"
        if module == "stopset":
            return any(a.name == "reference" for a in node.names)
        return module.split(".")[:2] == ["stopset", "reference"]
    return False


def test_no_production_module_imports_reference():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "reference.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders = [node.lineno for node in ast.walk(tree) if _imports_reference(node)]
        assert not offenders, f"{path.name} imports stopset.reference at lines {offenders}"


def test_reference_uses_public_names_only():
    tree = ast.parse((PACKAGE / "reference.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                assert not alias.name.startswith("_"), f"imports {alias.name}"
                if isinstance(node, ast.Import) or node.module is None:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            assert not node.attr.startswith("_"), f"reads {node.value.id}.{node.attr}"


@pytest.mark.parametrize("module, name", MOVED)
def test_moved_name_resolves_from_reference_only(module, name):
    assert callable(getattr(reference, name))
    assert not hasattr(importlib.import_module(f"stopset.{module}"), name)
    assert not hasattr(stopset, name)


@pytest.mark.parametrize("module, name", TRACED)
def test_traced_oracle_stays_in_its_module(module, name):
    assert getattr(importlib.import_module(f"stopset.{module}"), name).__module__ == f"stopset.{module}"

"""Checks on the package source and its metadata, read as text rather than imported."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rabi_ent"


def private_module_names(tree: ast.Module):
    """The single-underscore names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_module_name_is_used_in_the_package():
    # a private helper that only tests reach is dead code: each one must be read,
    # called or imported somewhere in src/
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dead = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in private_module_names(tree)
        if name not in used
    ]
    assert not dead


def package_names(requirements) -> list[str]:
    """The normalized package names of ``requirements``, version specifiers stripped."""
    names = (re.match(r"[A-Za-z0-9._-]+", r.strip()).group(0) for r in requirements)
    return sorted(re.sub(r"[-_.]+", "-", name).lower() for name in names)


def test_readme_install_lines_match_pyproject():
    # the README's *Install and test* names the runtime and the test-only dependencies
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    readme = (ROOT / "README.md").read_text()
    runtime = re.search(r"^pip install -e \..*# runtime deps?: (.+)$", readme, re.M).group(1)
    test_only = re.search(r"^pip install ([\w\s.-]+?)\s+# test-only deps$", readme, re.M).group(1)
    assert package_names(project["dependencies"]) == package_names(runtime.split(","))
    assert package_names(project["optional-dependencies"]["test"]) == package_names(test_only.split())

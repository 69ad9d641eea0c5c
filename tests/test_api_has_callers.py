"""Every public function, class and method has a caller outside the tests.

A public name in the six program modules must be used, as a name, an
attribute or a `from` import, somewhere in those modules, the demos or the
benchmark.  A name only the tests reach is either dead or belongs in the
tests, so it fails here unless the allowlist below says why it stays.
Every name has one home, its module: the package `__init__` binds none.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nestrec"
MODULES = ("tree", "recursion", "families", "frequency", "pruning", "cli")

ALLOWED = {
    "cell_count_split": "the tree lemma C(n) = sum of the per-child counts; test_split_shift_identity is its only check",
    "left_leaf_correspondence": "the leaf-cell bijection a prune must keep: the acceptance suite's second check of each prune",
}


def public_definitions() -> set[str]:
    names = set()
    for short in MODULES:
        for node in ast.parse((PACKAGE / f"{short}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(item.name for item in node.body
                             if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return names


def used_names() -> set[str]:
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_public_api_has_callers_outside_tests():
    uncalled = public_definitions() - used_names()
    assert sorted(uncalled - ALLOWED.keys()) == [], "public names only the tests use"
    assert sorted(ALLOWED.keys() - uncalled) == [], "allowlisted names that now have a caller, or are gone"


def test_package_init_binds_no_name():
    """Only the docstring: a name imported into `__init__` would be a second home."""
    module = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(module)
    assert len(module.body) == 1

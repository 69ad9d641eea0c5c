"""Every public function, class and method has a caller outside the tests.

A public name in the six program modules must be used somewhere in those
modules, the demos or the benchmark.  A name only the tests reach is either
dead or belongs in the tests, so it fails here unless the allowlist below
says why it stays.  Every name has one home, its module: the package
`__init__` binds none.

A use is matched to the module that defines the name.  `fam.to_document`
counts for `families` only where `fam` is `families` in that file's
imports, `from .tree import TreeSpec` counts for `tree`, and a bare name
counts for the module it appears in.  A method is called on an object
whose class the source does not name, so any attribute of its name counts.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nestrec"
MODULES = ("tree", "recursion", "families", "frequency", "pruning", "cli")

ALLOWED = {
    "tree.cell_count_split": "the tree lemma, summand by summand: test_summand_counts_leaves_at_its_child_position holds "
                             "each per-child count to its summand of the recursion",
    "pruning.left_leaf_correspondence": "the leaf-cell bijection a prune must keep: the acceptance suite's second check of each prune",
}


def public_definitions() -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """(module, name) of each public function and class, and (`module.Class`, name) of each public method."""
    names, methods = set(), set()
    for short in MODULES:
        for node in ast.parse((PACKAGE / f"{short}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add((short, node.name))
            if isinstance(node, ast.ClassDef):
                methods.update((f"{short}.{node.name}", item.name) for item in node.body
                               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return names, methods


def imported_module(node: ast.ImportFrom) -> str | None:
    """The nestrec module a `from` import takes names from: '' for the package itself, None if not nestrec."""
    if node.level:
        return node.module or ""
    if node.module == "nestrec" or (node.module or "").startswith("nestrec."):
        return node.module.removeprefix("nestrec").removeprefix(".")
    return None


def uses(path: Path) -> tuple[set[tuple[str, str]], set[str]]:
    """(module, name) pairs one file uses, and the attribute names it reads off anything else."""
    home = path.stem if path.parent == PACKAGE else None
    tree = ast.parse(path.read_text())
    aliases, pairs, attributes = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := imported_module(node)) is not None:
            for alias in node.names:
                if module:
                    pairs.add((module, alias.name))
                else:  # `from nestrec import families as fam`: a module under a local name
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                pairs.add((aliases[node.value.id], node.attr))
            else:
                attributes.add(node.attr)
        elif isinstance(node, ast.Name) and home:
            pairs.add((home, node.id))
    return pairs, attributes


def uncalled_names() -> set[str]:
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used, attributes = set(), set()
    for path in sources:
        pairs, names = uses(path)
        used |= pairs
        attributes |= names
    names, methods = public_definitions()
    return ({f"{module}.{name}" for module, name in names - used}
            | {f"{owner}.{name}" for owner, name in methods if name not in attributes})


def test_public_api_has_callers_outside_tests():
    uncalled = uncalled_names()
    assert sorted(uncalled - ALLOWED.keys()) == [], "public names only the tests use"
    assert sorted(ALLOWED.keys() - uncalled) == [], "allowlisted names that now have a caller, or are gone"


def test_package_init_binds_no_name():
    """Only the docstring: a name imported into `__init__` would be a second home."""
    module = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(module)
    assert len(module.body) == 1

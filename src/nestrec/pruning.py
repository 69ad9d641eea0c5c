"""Finite label prefixes and the four pruning operations.

A prune is a five-step rewrite of T(n): fix up the first supernode, delete
labels against smaller copies of the tree, lift what is left out of the
leaves, trim the largest stragglers, and renumber.  Done right, the result
is T(n - removed) again, which is what ties the trees to the recursions.
Every label movement is logged so a prune can be audited step by step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import families as fam
from .tree import LEAF, REGULAR, SUPERNODE, TreeSpec, cell_count, node_stream


class PruneRefused(ValueError):
    """The tree is too small for the requested pruning operation."""


class TreeNode:
    """One materialized node: cells of sorted labels plus placeholder slots."""

    __slots__ = ("kind", "index", "cells", "first_labels", "placeholders")

    def __init__(self, kind, index, cells, first_labels, placeholders=0):
        self.kind = kind
        self.index = index
        self.cells = cells
        self.first_labels = first_labels
        self.placeholders = placeholders

    def label_count(self) -> int:
        return self.placeholders + sum(len(cell) for cell in self.cells)

    def __repr__(self):
        return f"TreeNode({self.kind}, {self.index}, {self.cells})"

    def __eq__(self, other):
        if not isinstance(other, TreeNode):
            return NotImplemented
        return (self.kind, self.index, self.cells, self.placeholders) == (
            other.kind,
            other.index,
            other.cells,
            other.placeholders,
        )


@dataclass
class LabelledTree:
    spec: TreeSpec
    n: int
    nodes: list[TreeNode]


@dataclass
class PruneReport:
    removed: int
    result: LabelledTree
    steps: list[dict] = field(default_factory=list)
    anomalies: list[str] = field(default_factory=list)


def build_prefix(spec: TreeSpec, n: int) -> LabelledTree:
    """Materialize the nodes of T(n), up to and including the one holding label n."""
    if n < 1:
        raise ValueError("n must be positive")
    sizes = spec.cell_sizes()
    nodes: list[TreeNode] = []
    next_label = 1
    remaining = n
    for kind, index in node_stream(spec.arity):
        if remaining == 0:
            break
        if kind == LEAF:
            cells = []
            firsts = []
            for size in sizes:
                take = min(size, remaining)
                cells.append(list(range(next_label, next_label + take)))
                firsts.append(next_label if take else None)
                next_label += take
                remaining -= take
        else:
            capacity = spec.supernode_labels if kind == SUPERNODE else spec.regular_labels
            take = min(capacity, remaining)
            cells = [list(range(next_label, next_label + take))]
            firsts = [next_label if take else None]
            next_label += take
            remaining -= take
        nodes.append(TreeNode(kind, index, cells, tuple(firsts)))
    return LabelledTree(spec, n, nodes)


def trees_equal(a: LabelledTree, b: LabelledTree) -> bool:
    return first_difference(a, b) is None


def first_difference(a: LabelledTree, b: LabelledTree) -> Optional[str]:
    """Human-readable description of the first node-level mismatch, or None."""
    if a.spec != b.spec:
        return f"specs differ: {a.spec} vs {b.spec}"
    if a.n != b.n:
        return f"label totals differ: {a.n} vs {b.n}"
    for pos, (na, nb) in enumerate(zip(a.nodes, b.nodes), 1):
        if na.kind != nb.kind or na.index != nb.index:
            return f"node {pos}: {na.kind}({na.index}) vs {nb.kind}({nb.index})"
        if na.cells != nb.cells:
            return f"node {pos} ({na.kind} {na.index}): cells {na.cells} vs {nb.cells}"
    if len(a.nodes) != len(b.nodes):
        return f"node counts differ: {len(a.nodes)} vs {len(b.nodes)}"
    return None


# -- shared steps -------------------------------------------------------------


def _fits(t: LabelledTree, family) -> None:
    """Refuse a tree built for another shape, or one too small for the family's operation."""
    expected = fam.tree_of(family)
    if t.spec != expected:
        raise ValueError(f"tree was built for {t.spec}, not {expected}")
    threshold = fam.prune_threshold(family)
    if t.n < threshold:
        raise PruneRefused(f"need n >= {threshold}, got {t.n}")


def _first_supernode(t: LabelledTree) -> TreeNode:
    if len(t.nodes) < 2 or t.nodes[1].kind != SUPERNODE:
        raise PruneRefused("tree is too small to hold its first supernode")
    return t.nodes[1]


def _drop_supernode_labels(t: LabelledTree, steps: list[dict]) -> int:
    node = _first_supernode(t)
    dropped = len(node.cells[0])
    for label in node.cells[0]:
        steps.append({"step": "initial correction", "label": label, "from": 2, "to": None})
    node.cells[0].clear()
    return dropped


def _insert_placeholders(t: LabelledTree, count: int, steps: list[dict]) -> None:
    node = _first_supernode(t)
    node.placeholders += count
    for i in range(1, count + 1):
        steps.append({"step": "initial correction", "label": f"placeholder-{i}", "from": None, "to": 2})


Leaf = tuple[int, TreeNode, int, TreeNode]  # (ordinal, leaf, parent ordinal, parent)


def _leaves(t: LabelledTree) -> list[Leaf]:
    """Every leaf of t with its parent, in node order; ordinals are 1-based positions in t.nodes.

    Leaves 1..k hang off the first supernode, node 2; every later leaf hangs
    off the level-1 regular node last seen before it.  Call it once the
    first supernode is known to exist.
    """
    out = []
    parent_ordinal = 2
    for ordinal, node in enumerate(t.nodes, 1):
        if node.kind == LEAF:
            out.append((ordinal, node, parent_ordinal, t.nodes[parent_ordinal - 1]))
        elif node.kind == REGULAR and node.index == 1:
            parent_ordinal = ordinal
    return out


def _lift(leaves: list[Leaf], steps: list[dict]) -> None:
    for ordinal, leaf, parent_ordinal, parent in leaves:
        for cell in leaf.cells:
            for label in cell:
                steps.append({"step": "lifting", "label": label, "from": ordinal, "to": parent_ordinal})
            parent.cells[0].extend(cell)
            cell.clear()
    for _, _, _, parent in leaves:
        parent.cells[0].sort()


def _end_correction(t: LabelledTree, quota: int, steps: list[dict], anomalies: list[str]) -> None:
    """Remove the `quota` largest labels left anywhere in the tree."""
    left = quota
    for ordinal, node in zip(range(len(t.nodes), 0, -1), reversed(t.nodes)):
        if node.kind == LEAF:
            continue  # leaves are empty after lifting
        cell = node.cells[0]
        while left and cell:
            label = cell.pop()
            steps.append({"step": "end correction", "label": label, "from": ordinal, "to": None})
            left -= 1
        if not left:
            return
    if left:
        anomalies.append(f"end correction ran out of labels with {left} of {quota} still to remove")


def _relabel(t: LabelledTree, steps: list[dict], anomalies: list[str]) -> LabelledTree:
    """Drop the old leaves, shift every survivor down a level, renumber in order."""
    sizes = t.spec.cell_sizes()
    new_nodes: list[TreeNode] = []
    leaf_index = 0
    next_label = 1
    for old_ordinal, node in enumerate(t.nodes, 1):
        if node.kind == LEAF:
            if any(node.cells):
                anomalies.append(f"leaf {node.index} still held labels at relabelling")
            continue
        total = node.label_count()
        old_labels = [f"placeholder-{i}" for i in range(1, node.placeholders + 1)]
        old_labels += node.cells[0]
        becomes_leaf = node.index == 1  # first supernode or level-1 regular
        if becomes_leaf:
            leaf_index += 1
            cells = []
            firsts = []
            rest = total
            for slot, size in enumerate(sizes):
                take = rest if slot == len(sizes) - 1 else min(size, rest)
                cells.append(list(range(next_label, next_label + take)))
                firsts.append(next_label if take else None)
                next_label += take
                rest -= take
            if len(cells[-1]) > sizes[-1]:
                anomalies.append(f"new leaf {leaf_index} holds {total} labels, over its capacity")
            new = TreeNode(LEAF, leaf_index, cells, tuple(firsts))
        else:
            labels = list(range(next_label, next_label + total))
            new = TreeNode(
                node.kind,
                node.index - 1,
                [labels],
                (next_label if total else None,),
            )
            next_label += total
        for old, fresh in zip(old_labels, range(next_label - total, next_label)):
            steps.append({"step": "relabelling", "label": old, "from": old_ordinal, "to": fresh})
        new_nodes.append(new)
    while new_nodes and new_nodes[-1].label_count() == 0:
        new_nodes.pop()
    return LabelledTree(t.spec, next_label - 1, new_nodes)


def _finish(t: LabelledTree, leaves: list[Leaf], quota: int, steps: list[dict], anomalies: list[str]) -> PruneReport:
    """The tail every prune shares: lift the leaves, remove the `quota` largest labels, renumber."""
    _lift(leaves, steps)
    _end_correction(t, quota, steps, anomalies)
    result = _relabel(t, steps, anomalies)
    return PruneReport(t.n - result.n, result, steps, anomalies)


# -- the four pruning operations ----------------------------------------------


def prune_order2(t: LabelledTree, s: int, j: int, m: int) -> PruneReport:
    """Prune for the order-one binary family: move-in correction, no end correction."""
    _fits(t, fam.OrderOne(s, j, m))
    n = t.n
    steps: list[dict] = []
    anomalies: list[str] = []

    # initial correction: empty the first supernode, refill it with the
    # j - m largest labels of the tree
    _drop_supernode_labels(t, steps)
    target = _first_supernode(t)
    moving = set(range(n - (j - m) + 1, n + 1))
    for ordinal, node in zip(range(len(t.nodes), 0, -1), reversed(t.nodes)):
        if not moving:
            break
        for cell in node.cells:
            for label in [lab for lab in cell if lab in moving]:
                cell.remove(label)
                target.cells[0].append(label)
                steps.append({"step": "initial correction", "label": label, "from": ordinal, "to": 2})
                moving.discard(label)
    target.cells[0].sort()

    # deletion: every cell reaching back to T(n - j) loses its first label
    leaves = _leaves(t)
    threshold = n - j
    for ordinal, leaf, _, _ in leaves:
        for cell, first in zip(leaf.cells, leaf.first_labels):
            if first is not None and first <= threshold:
                label = cell.pop(0)
                steps.append({"step": "deletion", "label": label, "from": ordinal, "to": None})

    return _finish(t, leaves, 0, steps, anomalies)


def _delete_with_fallback(leaf, cell_slot, parent, parent_ordinal, leaf_ordinal, steps, anomalies):
    """Order-p deletion chain: the cell, then the leaf's last cell, then the parent."""
    cell = leaf.cells[cell_slot]
    if cell:
        label = cell.pop(0)
        steps.append({"step": "deletion", "label": label, "from": leaf_ordinal, "to": None})
        return
    last = leaf.cells[-1]
    if last:
        label = last.pop(0)
        steps.append({"step": "deletion", "label": label, "from": leaf_ordinal, "to": None})
        return
    if parent.cells[0]:
        label = parent.cells[0].pop(0)
        steps.append({"step": "deletion", "label": label, "from": parent_ordinal, "to": None})
        return
    if parent.placeholders:
        parent.placeholders -= 1
        steps.append({"step": "deletion", "label": "placeholder", "from": parent_ordinal, "to": None})
        return
    anomalies.append(f"nothing left to delete for leaf {leaf.index} cell {cell_slot + 1}")


def prune_orderp(t: LabelledTree, s: int, j: int, m: int, p: int) -> PruneReport:
    """Prune for the order-p binary family, deleting against p nested subtrees."""
    _fits(t, fam.HigherOrder(s, j, m, p))
    n, x = t.n, t.spec.regular_labels
    steps: list[dict] = []
    anomalies: list[str] = []

    _drop_supernode_labels(t, steps)
    _insert_placeholders(t, x, steps)

    leaves = _leaves(t)
    for i in range(1, p + 1):
        reach = n - (2 * i - 1) * j
        for ordinal, leaf, parent_ordinal, parent in leaves:
            for slot, first in enumerate(leaf.first_labels):
                if first is not None and first <= reach:
                    _delete_with_fallback(leaf, slot, parent, parent_ordinal, ordinal, steps, anomalies)

    return _finish(t, leaves, x, steps, anomalies)


def prune_superposed(t: LabelledTree, s: int, j: int, m: int, p: int) -> PruneReport:
    """Prune for the superposed family; exploratory m < 0 shapes may come up short."""
    _fits(t, fam.Superposed(s, j, m, p))
    n, x = t.n, t.spec.regular_labels
    steps: list[dict] = []
    anomalies: list[str] = []
    # exploratory m < 0 shapes run from a lower threshold, so flag them below the full one
    full_bound = 5 * p * j + 3 * m + 2 * s
    if n <= full_bound:
        anomalies.append(f"n = {n} is below the full-shape bound {full_bound}")

    _drop_supernode_labels(t, steps)
    _insert_placeholders(t, x, steps)

    leaves = _leaves(t)
    for i in range(1, p + 1):
        reach = n - (2 * i - 1) - p * (j - 1)
        for ordinal, leaf, _, _ in leaves:
            for slot, first in enumerate(leaf.first_labels):
                if first is not None and first <= reach:
                    cell = leaf.cells[slot]
                    if cell:
                        label = cell.pop()  # the largest label in the cell
                        steps.append({"step": "deletion", "label": label, "from": ordinal, "to": None})
                    else:
                        anomalies.append(f"cell {slot + 1} of leaf {leaf.index} was already empty in pass {i}")

    return _finish(t, leaves, x, steps, anomalies)


def prune_kary(t: LabelledTree, m: int, p: int, k: int) -> PruneReport:
    """Prune for the k-ary family: single-cell leaves, placeholder-only correction."""
    _fits(t, fam.KaryOrderP(k, m, p))
    n, x = t.n, t.spec.regular_labels
    steps: list[dict] = []
    anomalies: list[str] = []

    _insert_placeholders(t, x, steps)

    leaves = _leaves(t)
    for ordinal, leaf, _, _ in leaves:
        first = leaf.first_labels[0]
        if first is None:
            continue
        demand = min(p, n - first)
        for _ in range(demand):
            cell = leaf.cells[0]
            if cell:
                label = cell.pop(0)
                steps.append({"step": "deletion", "label": label, "from": ordinal, "to": None})
            else:
                anomalies.append(f"leaf {leaf.index} ran out of labels during deletion")

    return _finish(t, leaves, x, steps, anomalies)


# -- family-facing wrappers ---------------------------------------------------


_OPS = {  # names resolve at call time, so a prune_* replaced on the module is the one run
    "order_one": lambda f, t: prune_order2(t, f.s, f.j, f.m),
    "higher_order": lambda f, t: prune_orderp(t, f.s, f.j, f.m, f.p),
    "superposed": lambda f, t: prune_superposed(t, f.s, f.j, f.m, f.p),
    "kary": lambda f, t: prune_kary(t, f.m, f.p, f.k),
}


def prune_family(family, t: LabelledTree) -> PruneReport:
    """Dispatch to the pruning operation matching the family's shape."""
    try:
        op = _OPS[family.name]
    except KeyError:
        raise fam.NoTreeKnown(f"no pruning operation for {family}") from None
    return op(family, t)


def left_leaf_correspondence(spec: TreeSpec, n: int, family) -> bool:
    """Check the cell bijection between the pruned tree and the left leaves of T(n).

    True iff every leaf of the pruned tree has as many nonempty cells as the
    first child of the matching penultimate node of T(n), and the total
    first-child cell count equals cell_count(spec, n - removed).
    """
    if spec != fam.tree_of(family):
        raise ValueError(f"{family} does not build trees of shape {spec}")
    t = build_prefix(spec, n)
    k = spec.arity
    original = {
        node.index: sum(1 for cell in node.cells if cell)
        for node in t.nodes
        if node.kind == LEAF
    }
    left_total = sum(count for index, count in original.items() if (index - 1) % k == 0)
    report = prune_family(family, t)
    for node in report.result.nodes:
        if node.kind != LEAF:
            continue
        want = original.get((node.index - 1) * k + 1, 0)
        have = sum(1 for cell in node.cells if cell)
        if want != have:
            return False
    return left_total == cell_count(spec, n - report.removed)

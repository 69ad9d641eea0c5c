"""Finite label prefixes and the four pruning operations.

A prune is a five-step rewrite of T(n): fix up the first supernode, delete
labels against smaller copies of the tree, lift what is left out of the
leaves, trim the largest stragglers, and renumber.  Done right, the result
is T(n - removed) again, which is what ties the trees to the recursions.

Labels are held as runs, not one by one.  A cell is a `range` of
consecutive labels: every operation takes labels off one end of a cell, so
a cell stays a run, and after lifting an interior node's cells are the
sorted runs it gathered from its leaves.  A node's cells are a tuple, so a
log record can hold them without a copy, and the cyclic garbage collector
stops tracking them once it has seen them.

Each operation takes T(n) and the family record whose tree it is, and
refuses a tree of another shape or one below the record's threshold.
Deletion reads only the tree and the record's recursion.  A cell's `start`
is its first label, kept when a slice empties it; cells past n start at
n + 1.  Each deletion pass is a nested term R(n - b) of the first summand:
for b in the record's first inner offset row, every leaf cell opening at
or below n - b gives up a label.  Order one and order p take it off the
front, with a fallback for an empty cell; superposed takes it off the
back, and the k-ary op logs one record per leaf.

Every label movement is logged, one record per moved block.
PruneReport.steps expands the records into one dict per label on first
read, so a prune can be audited step by step, and a caller that only wants
the result never pays for the expansion.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import attrgetter
from typing import Optional, Sequence, Union

from . import families as fam
from .tree import LEAF, REGULAR, SUPERNODE, TreeSpec, cell_count, node_stream


class PruneRefused(ValueError):
    """The tree is too small for the requested pruning operation."""


class TreeNode:
    """One materialized node: a tuple of cells, each a range of labels, plus placeholder slots.

    A leaf has one cell per leaf cell of the spec and an interior node one
    cell, until lifting hands a parent its leaves' runs as further cells.
    A cell's first label is its `start`, which an empty cell keeps too.
    """

    __slots__ = ("kind", "index", "cells", "placeholders")

    def __init__(self, kind, index, cells):
        self.kind = kind
        self.index = index
        self.cells = cells
        self.placeholders = 0

    def label_count(self) -> int:
        return self.placeholders + sum(map(len, self.cells))

    def __repr__(self):
        return f"TreeNode({self.kind}, {self.index}, {_label_lists(self.cells)})"


def _label_lists(cells: tuple[range, ...]) -> list[list[int]]:
    return [list(cell) for cell in cells]


@dataclass
class LabelledTree:
    spec: TreeSpec
    n: int
    nodes: list[TreeNode]


# One record per moved block: (step, runs, from, to).  `runs` holds the
# moved labels as runs, in the order they moved; `to` is a node ordinal or
# None, or for relabelling the range of fresh labels they become.
Move = tuple[str, Sequence[Sequence[Union[int, str]]], Optional[int], Union[int, range, None]]


@dataclass
class PruneReport:
    removed: int
    result: LabelledTree
    moves: list[Move]
    anomalies: list[str]

    @cached_property
    def steps(self) -> list[dict]:
        """The move log with one dict per label, expanded from `moves` on first read."""
        return [
            {"step": step, "label": label, "from": source, "to": to}
            for step, runs, source, target in self.moves
            for label, to in zip(chain.from_iterable(runs), target if isinstance(target, range) else repeat(target))
        ]


def build_prefix(spec: TreeSpec, n: int) -> LabelledTree:
    """Materialize the nodes of T(n), up to and including the one holding label n."""
    if n < 1:
        raise ValueError("n must be positive")
    offsets = tuple(accumulate(spec.cell_sizes(), initial=0))
    spans, leaf_labels = tuple(zip(offsets, offsets[1:])), offsets[-1]
    capacity = {SUPERNODE: spec.supernode_labels, REGULAR: spec.regular_labels}
    nodes: list[TreeNode] = []
    append = nodes.append
    next_label = 1
    for kind, index in node_stream(spec.arity):
        if next_label > n:
            break
        if kind == LEAF:
            cells = tuple([range(next_label + lo, next_label + hi) for lo, hi in spans])
            next_label += leaf_labels
        else:
            end = next_label + capacity[kind]
            cells = (range(next_label, end),)
            next_label = end
        append(TreeNode(kind, index, cells))
    # every node was filled to capacity, so the last may run past n: cut it
    # back, and a cell that lies wholly past n starts at n + 1
    last = nodes[-1]
    stop = n + 1
    last.cells = tuple([range(min(cell.start, stop), min(cell.stop, stop)) for cell in last.cells])
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
        if na.cells != nb.cells:  # ranges compare as the label sequences they hold
            return f"node {pos} ({na.kind} {na.index}): cells {_label_lists(na.cells)} vs {_label_lists(nb.cells)}"
    if len(a.nodes) != len(b.nodes):
        return f"node counts differ: {len(a.nodes)} vs {len(b.nodes)}"
    return None


# -- shared steps -------------------------------------------------------------


def _fits(t: LabelledTree, family) -> tuple[int, ...]:
    """Refuse a tree built for another shape, or one too small for the family's operation.

    Give the first summand's inner offsets b: one deletion pass each, reaching n - b.
    """
    expected = fam.tree_of(family)
    if t.spec != expected:
        raise ValueError(f"tree was built for {t.spec}, not {expected}")
    threshold = fam.prune_threshold(family)
    if t.n < threshold:
        raise PruneRefused(f"need n >= {threshold}, got {t.n}")
    return family.offsets().inner_offsets[0]


def _first_supernode(t: LabelledTree) -> TreeNode:
    if len(t.nodes) < 2 or t.nodes[1].kind != SUPERNODE:
        raise PruneRefused("tree is too small to hold its first supernode")
    return t.nodes[1]


def _placeholders(count: int) -> tuple[str, ...]:
    return tuple(f"placeholder-{i}" for i in range(1, count + 1))


def _drop_supernode_labels(t: LabelledTree, moves: list[Move]) -> None:
    node = _first_supernode(t)
    moves.append(("initial correction", node.cells, 2, None))
    node.cells = (range(0),)


def _insert_placeholders(t: LabelledTree, count: int, moves: list[Move]) -> None:
    node = _first_supernode(t)
    node.placeholders += count
    moves.append(("initial correction", (_placeholders(count),), None, 2))


_start = attrgetter("start")

Leaf = tuple[int, TreeNode, int, TreeNode]  # (ordinal, leaf, parent ordinal, parent)


def _leaves(t: LabelledTree) -> list[Leaf]:
    """Every leaf of t with its parent, in node order; ordinals are 1-based positions in t.nodes.

    Leaves 1..k hang off the first supernode, node 2; every later leaf hangs
    off the level-1 regular node last seen before it.  Call it once the
    first supernode is known to exist.
    """
    out = []
    parent_ordinal, parent = 2, t.nodes[1]
    for ordinal, node in enumerate(t.nodes, 1):
        if node.kind == LEAF:
            out.append((ordinal, node, parent_ordinal, parent))
        elif node.kind == REGULAR and node.index == 1:
            parent_ordinal, parent = ordinal, node
    return out


def _lift(leaves: list[Leaf], moves: list[Move]) -> None:
    """Hand every leaf's runs to its parent, which keeps them as further cells, sorted."""
    moves += [("lifting", leaf.cells, ordinal, parent_ordinal) for ordinal, leaf, parent_ordinal, _ in leaves]
    emptied = (range(0),) * len(leaves[0][1].cells)
    for _, leaf, _, parent in leaves:
        parent.cells += leaf.cells
        leaf.cells = emptied
    # a level-1 regular node comes before its leaves; only the first
    # supernode has one, leaf 1, before it
    first_supernode = leaves[0][3]
    first_supernode.cells = tuple(sorted(first_supernode.cells, key=_start))


def _end_correction(t: LabelledTree, quota: int, moves: list[Move], anomalies: list[str]) -> None:
    """Remove the `quota` largest labels left anywhere in the tree, trimming each node's last runs."""
    left = quota
    if not left:
        return
    for ordinal, node in zip(range(len(t.nodes), 0, -1), reversed(t.nodes)):
        if node.kind == LEAF:
            continue  # leaves are empty after lifting
        cells = list(node.cells)
        for slot in range(len(cells) - 1, -1, -1):
            run = cells[slot]
            keep = max(len(run) - left, 0)
            if keep < len(run):
                moves.append(("end correction", (run[keep:][::-1],), ordinal, None))
                left -= len(run) - keep
                cells[slot] = run[:keep]
            if not left:
                break
        node.cells = tuple(cells)
        if not left:
            return
    anomalies.append(f"end correction ran out of labels with {left} of {quota} still to remove")


def _relabel(t: LabelledTree, moves: list[Move], anomalies: list[str]) -> LabelledTree:
    """Drop the old leaves, shift every survivor down a level, renumber in order."""
    sizes = t.spec.cell_sizes()
    new_nodes: list[TreeNode] = []
    leaf_index = 0
    next_label = 1
    for old_ordinal, node in enumerate(t.nodes, 1):
        if node.kind == LEAF:  # emptied by lifting
            continue
        first = next_label
        next_label += node.label_count()
        fresh = range(first, next_label)
        runs = (_placeholders(node.placeholders), *node.cells) if node.placeholders else node.cells
        moves.append(("relabelling", runs, old_ordinal, fresh))
        if node.index == 1:  # first supernode or level-1 regular: it becomes a leaf
            leaf_index += 1
            cells = []
            start = first
            for size in sizes[:-1]:  # cells fill in order ...
                end = min(start + size, next_label)
                cells.append(range(start, end))
                start = end
            cells.append(range(start, next_label))  # ... and the last takes whatever is left
            if next_label - start > sizes[-1]:
                anomalies.append(f"new leaf {leaf_index} holds {next_label - first} labels, over its capacity")
            new_nodes.append(TreeNode(LEAF, leaf_index, tuple(cells)))
        else:
            new_nodes.append(TreeNode(node.kind, node.index - 1, (fresh,)))
    while new_nodes and new_nodes[-1].label_count() == 0:
        new_nodes.pop()
    return LabelledTree(t.spec, next_label - 1, new_nodes)


def _finish(t: LabelledTree, leaves: list[Leaf], quota: int, moves: list[Move], anomalies: list[str]) -> PruneReport:
    """The tail every prune shares: lift the leaves, remove the `quota` largest labels, renumber."""
    _lift(leaves, moves)
    _end_correction(t, quota, moves, anomalies)
    result = _relabel(t, moves, anomalies)
    return PruneReport(t.n - result.n, result, moves, anomalies)


def _delete_fronts(leaves: list[Leaf], row: tuple[int, ...], n: int, moves: list[Move], anomalies: list[str]) -> None:
    """One pass per b in `row`: each leaf cell opening at or below n - b gives up its first label.

    A leaf's labels in one pass are logged as one block, up to an empty cell,
    which falls back to the leaf's last cell, then the parent, then a
    placeholder.  The opening labels are read before the first pass moves
    any cell's start.
    """
    openings = [tuple([cell.start for cell in leaf.cells]) for _, leaf, _, _ in leaves]
    for b in row:
        reach = n - b
        for (ordinal, leaf, parent_ordinal, parent), starts in zip(leaves, openings):
            opened = bisect_right(starts, reach)
            if not opened:
                continue
            cells = list(leaf.cells)
            labels = []
            for slot in range(opened):
                cell = cells[slot]
                if cell:
                    labels.append(cell.start)
                    cells[slot] = range(cell.start + 1, cell.stop)
                    continue
                if labels:
                    moves.append(("deletion", (tuple(labels),), ordinal, None))
                    labels = []
                last, own = cells[-1], parent.cells[0]
                if last:
                    moves.append(("deletion", (last[:1],), ordinal, None))
                    cells[-1] = last[1:]
                elif own:
                    moves.append(("deletion", (own[:1],), parent_ordinal, None))
                    parent.cells = (own[1:], *parent.cells[1:])
                elif parent.placeholders:
                    parent.placeholders -= 1
                    moves.append(("deletion", (("placeholder",),), parent_ordinal, None))
                else:
                    anomalies.append(f"nothing left to delete for leaf {leaf.index} cell {slot + 1}")
            if labels:
                moves.append(("deletion", (tuple(labels),), ordinal, None))
            leaf.cells = tuple(cells)


# -- the four pruning operations ----------------------------------------------


def prune_order2(t: LabelledTree, family: fam.OrderOne) -> PruneReport:
    """Prune T(n) of an order-one binary family: move-in correction, no end correction."""
    row = _fits(t, family)
    n, wanted = t.n, t.spec.regular_labels
    moves: list[Move] = []
    anomalies: list[str] = []

    # initial correction: empty the first supernode, refill it with the
    # j - m largest labels of the tree (as many as a regular node holds),
    # a suffix of the last cells
    _drop_supernode_labels(t, moves)
    target = _first_supernode(t)
    lowest = n - wanted + 1
    for ordinal, node in zip(range(len(t.nodes), 0, -1), reversed(t.nodes)):
        if not wanted:
            break
        kept = []
        for cell in node.cells:
            cut = max(lowest - cell.start, 0)
            if cut < len(cell):
                moves.append(("initial correction", (cell[cut:],), ordinal, 2))
                wanted -= len(cell) - cut
            kept.append(cell[:cut])
        node.cells = tuple(kept)
    # n is past the threshold, so all of them lie beyond the first supernode
    target.cells = (range(lowest, n + 1),)

    # deletion: the move-in took only labels past n - j, so every cell in
    # reach still holds its first label and none falls back
    leaves = _leaves(t)
    _delete_fronts(leaves, row, n, moves, anomalies)
    return _finish(t, leaves, 0, moves, anomalies)


def prune_orderp(t: LabelledTree, family: fam.HigherOrder) -> PruneReport:
    """Prune T(n) of an order-p binary family, deleting against p nested subtrees."""
    row = _fits(t, family)
    n, x = t.n, t.spec.regular_labels
    moves: list[Move] = []
    anomalies: list[str] = []

    _drop_supernode_labels(t, moves)
    _insert_placeholders(t, x, moves)

    leaves = _leaves(t)
    _delete_fronts(leaves, row, n, moves, anomalies)
    return _finish(t, leaves, x, moves, anomalies)


def prune_superposed(t: LabelledTree, family: fam.Superposed) -> PruneReport:
    """Prune T(n) of a superposed family; exploratory m < 0 shapes may come up short.

    Each cell in reach gives up its last label, not its first, so the cells
    keep their starts and no fallback is needed.
    """
    row = _fits(t, family)
    n, x = t.n, t.spec.regular_labels
    moves: list[Move] = []
    anomalies: list[str] = []
    # exploratory m < 0 shapes run from a lower threshold, so flag them at or below the IC length
    bound = family.ic_length()
    if n <= bound:
        anomalies.append(f"n = {n} is at or below the full-shape bound {bound}")

    _drop_supernode_labels(t, moves)
    _insert_placeholders(t, x, moves)

    leaves = _leaves(t)
    for i, b in enumerate(row, 1):
        reach = n - b
        for ordinal, leaf, _, _ in leaves:
            opened = bisect_right(leaf.cells, reach, key=_start)
            if not opened:
                continue
            cells = list(leaf.cells)
            labels = []
            for slot in range(opened):
                cell = cells[slot]
                if cell:
                    labels.append(cell.stop - 1)
                    cells[slot] = range(cell.start, cell.stop - 1)
                else:
                    anomalies.append(f"cell {slot + 1} of leaf {leaf.index} was already empty in pass {i}")
            moves.append(("deletion", (tuple(labels),), ordinal, None))
            leaf.cells = tuple(cells)

    return _finish(t, leaves, x, moves, anomalies)


def prune_kary(t: LabelledTree, family: fam.KaryOrderP) -> PruneReport:
    """Prune T(n) of a k-ary family: single-cell leaves, placeholder-only correction.

    A leaf opening at `first` is in reach of every pass with b <= n - first,
    and gives up that many labels off its front in one record.
    """
    row = _fits(t, family)
    n, x = t.n, t.spec.regular_labels
    moves: list[Move] = []
    anomalies: list[str] = []

    _insert_placeholders(t, x, moves)

    leaves = _leaves(t)
    for ordinal, leaf, _, _ in leaves:
        cell = leaf.cells[0]
        if not cell:  # it lies past n
            continue
        demand = bisect_right(row, n - cell.start)
        taken = min(demand, len(cell))
        moves.append(("deletion", (range(cell.start, cell.start + taken),), ordinal, None))
        leaf.cells = (range(cell.start + taken, cell.stop),)
        if taken < demand:
            anomalies.extend([f"leaf {leaf.index} ran out of labels during deletion"] * (demand - taken))

    return _finish(t, leaves, x, moves, anomalies)


# -- family-facing wrappers ---------------------------------------------------


_OPS = {  # names resolve at call time, so a prune_* replaced on the module is the one run
    "order_one": lambda t, f: prune_order2(t, f),
    "higher_order": lambda t, f: prune_orderp(t, f),
    "superposed": lambda t, f: prune_superposed(t, f),
    "kary": lambda t, f: prune_kary(t, f),
}


def prune_family(family, t: LabelledTree) -> PruneReport:
    """Dispatch to the pruning operation matching the family's shape."""
    try:
        op = _OPS[family.name]
    except KeyError:
        raise fam.NoTreeKnown(f"no pruning operation for {family}") from None
    return op(t, family)


def left_leaf_correspondence(family, n: int) -> bool:
    """Check the cell bijection between the family's pruned T(n) and the left leaves of T(n).

    True iff every leaf of the pruned tree has as many nonempty cells as the
    first child of the matching penultimate node of T(n), and the total
    first-child cell count equals cell_count(spec, n - removed).
    """
    spec = fam.tree_of(family)
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

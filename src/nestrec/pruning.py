"""Finite label prefixes and the four pruning operations.

A prune is a five-step rewrite of T(n): fix up the first supernode, delete
labels against smaller copies of the tree, lift what is left out of the
leaves, trim the largest stragglers, and renumber.  Done right, the result
is T(n - removed) again, which is what ties the trees to the recursions.
The three binary families share one prune: the fix-up swaps the first
supernode's labels for x placeholders, x a regular node's labels, and the
trim takes the x largest, so order one is order p at p = 1.  The k-ary op
keeps the supernode's labels beside its placeholders.

A tree is held as columns, not as one object per node: parallel lists of
kinds, indices and cells, where node ordinal o (1-based, as the move log
counts nodes) is entry o - 1 of each.  Building, comparing and renumbering
work a whole column at a time, through `map`, `zip` and list equality.

Labels are held as runs, not one by one.  A cell is a `range` of
consecutive labels: every operation takes labels off one end of a cell, so
a cell stays a run, and after lifting an interior node's cells are the
sorted runs it gathered from its leaves.

Each operation takes T(n) and the family record whose tree it is, and
refuses a tree of another shape or one below the record's threshold.
Deletion reads only the tree and the record's recursion.  A cell's `start`
is its first label, kept when a slice empties it; cells past n start at
n + 1.  Each deletion pass is a nested term R(n - b) of the first summand:
for b in the record's first inner offset row, every leaf cell opening at
or below n - b gives up a label.  Order one and order p take it off the
front, with a fallback for an empty cell; superposed takes it off the
back, and the k-ary op logs one block per leaf.  The first three write
what one leaf does in one pass as a rule on its cells alone, and run it
once per group of leaves: the leaves that every pass opens whole make
leaf 1's moves shifted by their first labels, so they form one group,
and each leaf near n is a group of its own.  A group's blocks and cells
are stamped over its leaves with `map` and `zip`.  A fill, the label an
emptied cell takes from outside its leaf, reads what leaves share: order
p's come off the parent's front or node 2's placeholders, and
superposed's only name anomalies.  So every fill runs leaf by leaf, in
leaf order.

Every label movement is logged, one block per moved run or runs, in
columns like the tree's: each block's step, source and target, and all
blocks' runs in one flat list, so the log holds no record tuple for the
cyclic garbage collector to chase.  PruneReport.moves rebuilds the records
and PruneReport.steps one dict per label, each on first read, so a caller
that only wants the result never pays for either.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, attrgetter, getitem, itemgetter
from typing import Iterable, Optional, Sequence, Union

from . import families as fam
from .tree import LEAF, REGULAR, SUPERNODE, TreeSpec, cell_count, node_stream


class PruneRefused(ValueError):
    """The tree is too small for the requested pruning operation."""


@dataclass
class LabelledTree:
    """T(n) as parallel columns, one entry per node in insertion order.

    `kinds` and `indices` are node_stream's column blocks joined.  `cells`
    holds each node's tuple of cells, each a range of labels: a leaf has one
    per leaf cell of the spec and an interior node one, until lifting hands
    a parent its leaves' runs as further cells.  A cell's first label is its
    `start`, which an empty cell keeps too.  `placeholders` counts the slots
    of the first supernode, node 2, the only node that ever holds any.
    """

    spec: TreeSpec
    n: int
    kinds: list[str]
    indices: list[int]
    cells: list[tuple[range, ...]]
    placeholders: int = 0


# A block as PruneReport.moves rebuilds it: (step, runs, from, to).  `runs` holds the moved labels as runs,
# in the order they moved; `to` is a node ordinal or None, or for relabelling the range of fresh labels.
Move = tuple[str, Sequence[Sequence[Union[int, str]]], Optional[int], Union[int, range, None]]


@dataclass
class _MoveLog:
    """The move log as columns: block b moved runs[ends[b - 1]:ends[b]] (from 0 for b = 0) in steps[b],
    from sources[b] to targets[b]."""

    steps: list[str] = field(default_factory=list)
    sources: list[Optional[int]] = field(default_factory=list)
    targets: list[Union[int, range, None]] = field(default_factory=list)
    runs: list[Sequence[Union[int, str]]] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)

    def add(self, step: str, runs: Iterable, sizes: Iterable[int], sources: Iterable, targets: Iterable) -> None:
        """Log one block per item of `sizes`, taking that many of `runs` in turn, from its source to its target."""
        self.ends += islice(accumulate(sizes, initial=len(self.runs)), 1, None)
        self.runs += runs
        self.steps += repeat(step, len(self.ends) - len(self.steps))
        self.sources += sources
        self.targets += targets


@dataclass
class PruneReport:
    """How many labels a prune removed, the tree it left, its move log and any anomalies."""

    removed: int
    result: LabelledTree
    log: _MoveLog
    anomalies: list[str]

    @cached_property
    def moves(self) -> list[Move]:
        """The move log as records, rebuilt from its columns on first read."""
        log = self.log
        runs = map(tuple, map(log.runs.__getitem__, map(slice, chain((0,), log.ends), log.ends)))
        return list(zip(log.steps, runs, log.sources, log.targets))

    @cached_property
    def steps(self) -> list[dict]:
        """The move log with one dict per label, expanded from `moves` on first read."""
        return [
            {"step": step, "label": label, "from": source, "to": to}
            for step, runs, source, target in self.moves
            for label, to in zip(chain.from_iterable(runs), target if isinstance(target, range) else repeat(target))
        ]


def build_prefix(spec: TreeSpec, n: int) -> LabelledTree:
    """Materialize the nodes of T(n), up to and including the one holding label n.

    The nodes come from one node_stream walk, one block of columns at a time.
    Each distinct block, a subtree template or a lone spine node, has its
    shape read once per call: its cells' sizes in node order, which of its
    nodes are leaves, and its label total.  A block that ends at or below n
    is taken whole; in the one that crosses n, the columns are cut after the
    last node that opens at or below n.  Every node is filled to capacity,
    and the last one cut back at n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    sizes = {LEAF: spec.cell_sizes(), SUPERNODE: (spec.supernode_labels,), REGULAR: (spec.regular_labels,)}
    capacity = {kind: sum(cells) for kind, cells in sizes.items()}
    shapes = {}  # a block's kinds -> its cell sizes, leaf flags and label total
    kinds, indices, flat, leaf, end = [], [], [], [], 1  # end: the first label after the nodes taken
    for block_kinds, block_indices in node_stream(spec.arity):
        shape = shapes.get(block_kinds)
        if shape is None:
            block_sizes = tuple(chain.from_iterable(map(sizes.__getitem__, block_kinds)))
            shape = shapes[block_kinds] = block_sizes, tuple(map(LEAF.__eq__, block_kinds)), sum(block_sizes)
        block_sizes, block_leaf, labels = shape
        if end + labels > n:
            break
        kinds += block_kinds
        indices += block_indices
        flat += block_sizes
        leaf += block_leaf
        end += labels
    # the block holding label n: keep its nodes that open at or below n
    cut = bisect_right(list(accumulate(map(capacity.__getitem__, block_kinds), initial=end)), n)
    kinds += block_kinds[:cut]
    indices += block_indices[:cut]
    flat += chain.from_iterable(map(sizes.__getitem__, block_kinds[:cut]))
    leaf += block_leaf[:cut]
    # the cells in node order are one run of label ranges: a leaf draws j, an interior node one
    bounds = list(accumulate(flat, initial=1))
    runs = map(range, bounds, islice(bounds, 1, None))
    draws = (zip(runs), zip(*[runs] * spec.leaf_cells))
    cells = list(map(next, map(draws.__getitem__, leaf)))
    # the last node may run past n: cut it back; a cell wholly past n starts at n + 1
    stop = n + 1
    cells[-1] = tuple([range(min(cell.start, stop), min(cell.stop, stop)) for cell in cells[-1]])
    return LabelledTree(spec, n, kinds, indices, cells)


def trees_equal(a: LabelledTree, b: LabelledTree) -> bool:
    return first_difference(a, b) is None


def first_difference(a: LabelledTree, b: LabelledTree) -> Optional[str]:
    """Human-readable description of the first node-level mismatch, or None."""
    if a.spec != b.spec:
        return f"specs differ: {a.spec} vs {b.spec}"
    if a.n != b.n:
        return f"label totals differ: {a.n} vs {b.n}"
    if a.kinds == b.kinds and a.indices == b.indices and a.cells == b.cells:
        return None  # C-level list equality; ranges compare as the label sequences they hold
    for pos, (kind, index, cells, other_kind, other_index, other_cells) in enumerate(
            zip(a.kinds, a.indices, a.cells, b.kinds, b.indices, b.cells), 1):
        if kind != other_kind or index != other_index:
            return f"node {pos}: {kind}({index}) vs {other_kind}({other_index})"
        if cells != other_cells:
            return f"node {pos} ({kind} {index}): cells {list(map(list, cells))} vs {list(map(list, other_cells))}"
    return f"node counts differ: {len(a.kinds)} vs {len(b.kinds)}"


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
    if len(t.kinds) < 2 or t.kinds[1] != SUPERNODE:
        raise PruneRefused("tree is too small to hold its first supernode")
    return family.offsets().inner_offsets[0]


def _placeholders(count: int) -> tuple[str, ...]:
    return tuple(f"placeholder-{i}" for i in range(1, count + 1))


def _insert_placeholders(t: LabelledTree, count: int, log: _MoveLog) -> None:
    t.placeholders += count
    log.add("initial correction", [_placeholders(count)], [1], [None], [2])


def _cell_offsets(spec: TreeSpec) -> tuple[int, ...]:
    """Where each cell of a full leaf opens, counted from the leaf's first label."""
    return tuple(accumulate(spec.cell_sizes()[:-1], initial=0))


Leaf = tuple[int, int]  # (leaf ordinal, parent ordinal)


def _leaves(t: LabelledTree) -> list[Leaf]:
    """Every leaf of t with its parent, in node order, as 1-based node ordinals.

    Leaves 1..k hang off node 2, the first supernode, and every later leaf off the last level-1 regular node before it.
    """
    out = []
    parent = 2
    for ordinal, kind, index in zip(count(1), t.kinds, t.indices):
        if kind == LEAF:
            out.append((ordinal, parent))
        elif index == 1:  # node 2 itself, or a level-1 regular node
            parent = ordinal
    return out


def _lift(t: LabelledTree, leaves: list[Leaf], log: _MoveLog) -> None:
    """Hand every leaf's runs to its parent, which keeps them as further cells, sorted."""
    cells = t.cells
    emptied = (range(0),) * len(cells[0])
    lifted = [cells[ordinal - 1] for ordinal, _ in leaves]
    log.add("lifting", chain.from_iterable(lifted), map(len, lifted),
            map(itemgetter(0), leaves), map(itemgetter(1), leaves))
    for (ordinal, parent), runs in zip(leaves, lifted):
        cells[parent - 1] += runs
        cells[ordinal - 1] = emptied
    # a level-1 regular node comes before its leaves; only the first
    # supernode has one, leaf 1, before it
    cells[1] = tuple(sorted(cells[1], key=attrgetter("start")))


def _end_correction(t: LabelledTree, quota: int, log: _MoveLog, anomalies: list[str]) -> None:
    """Remove the `quota` largest labels left anywhere in the tree, trimming each node's last runs."""
    left = quota
    if not left:
        return
    for pos in range(len(t.cells) - 1, -1, -1):
        if t.kinds[pos] == LEAF:
            continue  # leaves are empty after lifting
        cells = list(t.cells[pos])
        for slot in range(len(cells) - 1, -1, -1):
            run = cells[slot]
            keep = max(len(run) - left, 0)
            if keep < len(run):
                log.add("end correction", [run[keep:][::-1]], [1], [pos + 1], [None])
                left -= len(run) - keep
                cells[slot] = run[:keep]
            if not left:
                break
        t.cells[pos] = tuple(cells)
        if not left:
            return
    anomalies.append(f"end correction ran out of labels with {left} of {quota} still to remove")


def _relabel(t: LabelledTree, log: _MoveLog, anomalies: list[str]) -> LabelledTree:
    """Drop the old leaves, shift every survivor down a level, renumber in order.

    The fresh ranges are a running sum of the survivors' label counts, and
    a level-1 node, which becomes a leaf, takes its cells as slices of its
    fresh range: the cells fill in order, and the last takes what is left.
    """
    offsets = _cell_offsets(t.spec)
    cuts = [*map(slice, offsets, offsets[1:]), slice(offsets[-1], None)]
    capacity = sum(t.spec.cell_sizes())
    inner = [kind != LEAF for kind in t.kinds]
    runs = list(compress(t.cells, inner))
    counts = [sum(map(len, cells)) for cells in runs]
    if t.placeholders:  # node 2, the first survivor, holds them
        counts[0] += t.placeholders
        runs[0] = (_placeholders(t.placeholders), *runs[0])
    bounds = list(accumulate(counts, initial=1))
    fresh = list(map(range, bounds, islice(bounds, 1, None)))
    log.add("relabelling", chain.from_iterable(runs), map(len, runs), compress(count(1), inner), fresh)

    kinds = list(compress(t.kinds, inner))
    indices = [index - 1 for index in compress(t.indices, inner)]
    cells = list(zip(fresh))
    level_one = [pos for pos, index in enumerate(indices) if not index]  # the first supernode and level-1 regulars
    new_leaves = [fresh[pos] for pos in level_one]
    leaf_cells = zip(*[map(getitem, new_leaves, repeat(cut)) for cut in cuts])
    for leaf_index, pos, leaf in zip(count(1), level_one, leaf_cells):
        kinds[pos], indices[pos], cells[pos] = LEAF, leaf_index, leaf
    anomalies += [f"new leaf {leaf_index} holds {labels} labels, over its capacity"
                  for leaf_index, labels in enumerate(map(len, new_leaves), 1) if labels > capacity]
    size = len(counts)
    while size and not counts[size - 1]:
        size -= 1
    del kinds[size:], indices[size:], cells[size:]
    return LabelledTree(t.spec, bounds[-1] - 1, kinds, indices, cells)


def _finish(t: LabelledTree, leaves: list[Leaf], quota: int, log: _MoveLog, anomalies: list[str]) -> PruneReport:
    """The tail every prune shares: lift the leaves, remove the `quota` largest labels, renumber."""
    _lift(t, leaves, log)
    _end_correction(t, quota, log, anomalies)
    result = _relabel(t, log, anomalies)
    return PruneReport(t.n - result.n, result, log, anomalies)


def _take_fronts(cells: tuple[range, ...], opened: int) -> tuple[list, tuple[range, ...]]:
    """Front deletion's rule for one leaf in one pass: each of its first `opened` cells gives up its first label.

    The labels go as one block, up to an empty cell, which takes its label
    from the leaf's last cell instead; when that is empty too, the block is
    the slot's number, for the parent or a placeholder to fill.  Give the
    blocks and the leaf's new cells.
    """
    cells = list(cells)
    blocks, labels = [], []
    for slot in range(opened):
        cell = cells[slot]
        if cell:
            labels.append(cell.start)
            cells[slot] = cell[1:]
            continue
        if labels:
            blocks.append(tuple(labels))
            labels = []
        last = cells[-1]
        if last:
            blocks.append(last[:1])
            cells[-1] = last[1:]
        else:
            blocks.append(slot)
    if labels:
        blocks.append(tuple(labels))
    return blocks, tuple(cells)


def _fill_front(t: LabelledTree, ordinal: int, parent: int, slot: int, _pass: int) -> Union[tuple, str]:
    """An emptied slot's label from outside its leaf: the parent's first label, else a placeholder.

    Give the block and its source, or the anomaly when neither is left.
    """
    own = t.cells[parent - 1]
    if own[0]:
        t.cells[parent - 1] = (own[0][1:], *own[1:])
        return own[0][:1], parent
    if parent == 2 and t.placeholders:
        t.placeholders -= 1
        return ("placeholder",), parent
    return f"nothing left to delete for leaf {t.indices[ordinal - 1]} cell {slot + 1}"


def _take_backs(cells: tuple[range, ...], opened: int) -> tuple[list, tuple[range, ...]]:
    """Back deletion's rule for one leaf in one pass: each of its first `opened` cells gives up its last label.

    The labels go as one block, after the number of each slot found empty.
    """
    cells = list(cells)
    blocks, labels = [], []
    for slot in range(opened):
        cell = cells[slot]
        if cell:
            labels.append(cell[-1])
            cells[slot] = cell[:-1]
        else:
            blocks.append(slot)
    blocks.append(tuple(labels))
    return blocks, tuple(cells)


def _fill_back(t: LabelledTree, ordinal: int, _parent: int, slot: int, i: int) -> str:
    """Back deletion has nothing to stand in for an empty cell: the anomaly."""
    return f"cell {slot + 1} of leaf {t.indices[ordinal - 1]} was already empty in pass {i}"


def _shifted(run: Union[range, tuple, int], firsts: list[int], origin: int) -> Iterable:
    """One copy of `run` per first label, its labels moved from `origin` to that label.

    A range stays a range and a tuple of labels a tuple.
    """
    if isinstance(run, range):
        starts, stops = map(add, firsts, repeat(run.start - origin)), map(add, firsts, repeat(run.stop - origin))
        return map(range, starts, stops, repeat(run.step))
    if type(run) is int or not run:  # a slot number for a fill, or no labels
        return repeat(run, len(firsts))
    return zip(*[map(add, firsts, repeat(label - origin)) for label in run])


def _interleave(streams: list[Iterable]) -> Iterable:
    """The streams' first items, then their second items, and so on."""
    return streams[0] if len(streams) == 1 else chain.from_iterable(zip(*streams))


def _whole_open(t: LabelledTree, firsts: list[int], row: tuple[int, ...]) -> int:
    """How many leaves, from leaf 1 on, every pass opens whole.

    `firsts` are the leaves' first labels in node order.  A leaf is open
    whole in every pass when its last cell opens at or below n - max(row).
    """
    return bisect_right(firsts, t.n - max(row) - _cell_offsets(t.spec)[-1])


def _delete(t: LabelledTree, leaves: list[Leaf], row: tuple[int, ...], take, fill, log: _MoveLog,
            anomalies: list[str]) -> None:
    """One pass per b in `row`: every leaf cell opening at or below n - b gives up a label, by the rule `take`.

    A cell opens at a fixed offset from its leaf's first label, however many
    labels earlier passes took from it.  `take` sees one leaf's cells and how
    many of them the pass opens, and gives the pass's blocks and the leaf's
    new cells; a block that is a slot number `fill` must serve from outside
    the leaf.

    The leaves run in groups: those _whole_open counts form one (leaf 1
    alone when it counts none), and each later leaf is a group of its own.
    Each pass runs `take` once per group, on its first leaf's cells, and
    stamps the blocks over the group, each leaf's shifted by the difference
    of first labels; at the end the group's cells are stamped the same way.
    This is exact: every pass opens every cell of a whole-open leaf, and a
    whole-open leaf ends at or below n, so it holds its build-time cells,
    which are leaf 1's shifted.  `take` sees only how a leaf's labels lie
    relative to each other, so it makes leaf 1's moves, shifted, with fills
    at the same slots.  Fills read the parent and the placeholders, which
    leaves share, so they run leaf by leaf in leaf order.  A pass stops at
    the first group that opens past n - b, and logs the groups in leaf
    order: the log of running the rule on every leaf.
    """
    n, all_cells = t.n, t.cells
    offsets = _cell_offsets(t.spec)
    ordinals = [ordinal for ordinal, _ in leaves]
    firsts = [all_cells[ordinal - 1][0].start for ordinal in ordinals]
    bounds = [0, *range(max(_whole_open(t, firsts, row), 1), len(leaves) + 1)]
    groups = list(map(slice, bounds, islice(bounds, 1, None)))
    models = [all_cells[ordinals[group.start] - 1] for group in groups]
    runs, sources = [], []
    for i, b in enumerate(row, 1):
        for g, group in enumerate(groups):
            first = firsts[group.start]
            if first > n - b:
                break
            blocks, models[g] = take(models[g], bisect_right(offsets, n - b - first))
            copies = [_shifted(block, firsts[group], first) for block in blocks]
            if int not in map(type, blocks):
                runs += _interleave(copies)
                sources += _interleave([ordinals[group]] * len(copies))
                continue
            for (ordinal, parent), copy in zip(leaves[group], zip(*copies)):
                for block in copy:
                    filled = fill(t, ordinal, parent, block, i) if type(block) is int else (block, ordinal)
                    if isinstance(filled, str):
                        anomalies.append(filled)
                    else:
                        runs.append(filled[0])
                        sources.append(filled[1])
    for group, model in zip(groups, models):
        stamped = zip(*[_shifted(cell, firsts[group], firsts[group.start]) for cell in model])
        for ordinal, cells in zip(ordinals[group], stamped):
            all_cells[ordinal - 1] = cells
    log.add("deletion", runs, repeat(1, len(runs)), sources, repeat(None, len(runs)))


# -- the four pruning operations ----------------------------------------------


def _prune_binary(t: LabelledTree, family, take, fill, bound: int) -> PruneReport:
    """The prune of the binary families: placeholder correction, deletion by `take` and `fill`, quota x.

    The initial correction empties the first supernode and puts x
    placeholders in it, x the labels of a regular node, and the end
    correction removes the x largest labels left.  An n at or below `bound`
    is flagged first as below the full shape.
    """
    row = _fits(t, family)
    x = t.spec.regular_labels
    log = _MoveLog()
    anomalies = [f"n = {t.n} is at or below the full-shape bound {bound}"] if t.n <= bound else []
    log.add("initial correction", t.cells[1], [len(t.cells[1])], [2], [None])
    t.cells[1] = (range(0),)
    _insert_placeholders(t, x, log)
    leaves = _leaves(t)
    _delete(t, leaves, row, take, fill, log, anomalies)
    return _finish(t, leaves, x, log, anomalies)


def prune_order2(t: LabelledTree, family: fam.OrderOne) -> PruneReport:
    """Prune T(n) of an order-one binary family, which is order p's prune at p = 1."""
    # a name of its own, as perfbench/tracing.py times each prune operation by its function
    return prune_orderp(t, family)


def prune_orderp(t: LabelledTree, family: Union[fam.OrderOne, fam.HigherOrder]) -> PruneReport:
    """Prune T(n) of an order-p binary family, deleting against p nested subtrees."""
    return _prune_binary(t, family, _take_fronts, _fill_front, 0)


def prune_superposed(t: LabelledTree, family: fam.Superposed) -> PruneReport:
    """Prune T(n) of a superposed family; exploratory m < 0 shapes may come up short.

    Each cell in reach gives up its last label, not its first, so the cells
    keep their starts and no fallback is needed.  Exploratory m < 0 shapes
    run from a lower threshold, so an n at or below the IC length is flagged.
    """
    return _prune_binary(t, family, _take_backs, _fill_back, family.ic_length())


def prune_kary(t: LabelledTree, family: fam.KaryOrderP) -> PruneReport:
    """Prune T(n) of a k-ary family: single-cell leaves, placeholder-only correction.

    A leaf opening at `first` is in reach of every pass with b <= n - first,
    and gives up that many labels off its front in one record.
    """
    row = _fits(t, family)
    n, x, all_cells = t.n, t.spec.regular_labels, t.cells
    log = _MoveLog()
    anomalies: list[str] = []

    _insert_placeholders(t, x, log)

    leaves = _leaves(t)
    runs, sources = [], []
    for ordinal, _ in leaves:
        cell = all_cells[ordinal - 1][0]
        if not cell:  # it lies past n
            continue
        demand = bisect_right(row, n - cell.start)
        runs.append(cell[:demand])
        sources.append(ordinal)
        all_cells[ordinal - 1] = (cell[demand:],)
        if demand > len(cell):
            anomalies += [f"leaf {t.indices[ordinal - 1]} ran out of labels during deletion"] * (demand - len(cell))
    log.add("deletion", runs, repeat(1, len(runs)), sources, repeat(None, len(runs)))

    return _finish(t, leaves, x, log, anomalies)


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
    original = {index: sum(map(bool, cells)) for kind, index, cells in zip(t.kinds, t.indices, t.cells) if kind == LEAF}
    left_total = sum(cells for index, cells in original.items() if (index - 1) % k == 0)
    report = prune_family(family, t)
    result = report.result
    for kind, index, cells in zip(result.kinds, result.indices, result.cells):
        if kind == LEAF and original.get((index - 1) * k + 1, 0) != sum(map(bool, cells)):
            return False
    return left_total == cell_count(spec, n - report.removed)

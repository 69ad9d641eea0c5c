"""Lazily enumerated labelled k-ary trees and their cell counting functions.

The tree has an infinite spine of supernodes on the extreme left.  The first
supernode has k leaf children; every later supernode has the previous
supernode plus k-1 regular subtrees for its k children.  Labels are poured
into the nodes in insertion order: each supernode takes s labels, each
regular node x labels, and each leaf is split into j cells taking c labels
apiece except the last cell, which takes l.  The cell counting function
C_T(n) is the number of cells whose first label is among 1..n.

C_T is computed two ways from the tree's shape.  The template walk writes
the labels as bytes, 1 where a cell opens and 0 elsewhere.  A full regular
subtree of height h is the bytes of its root followed by k copies of the
subtree of height h - 1, so each subtree is built once from the one below it
and the labels 1..n come out of C-level bytes calls.  cell_starts joins those
bytes up to n, and C_T(1..n) is their running sum; cell_count_sequence
writes it as each cell's number repeated over its labels, with no Python
step per label.  cell_positions picks the first labels out of the same bytes
at C level; C_T and the frequency gaps read only those.  The descent,
cell_count, reads C_T at one n in O(log n): it climbs the spine to the
subtree that holds label n and goes down it one level per divmod, so
single-point counts stay cheap at n = 10^18.  The frequency formula checks
both from outside: summed, it gives the first label of every cell, and the
tests hold the walk and the descent to it and to each other.  node_stream
gives pruning the nodes in column blocks copied from subtree templates; the
tests check it against a node walk.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, compress, count, islice, repeat, tee
from operator import add, mul, sub
from typing import Iterator

SUPERNODE = "supernode"
REGULAR = "regular"
LEAF = "leaf"


@dataclass(frozen=True)
class TreeSpec:
    """Shape and label allocation of one labelled k-ary tree.

    Field order matches the running example TreeSpec(2, 1, 3, 1, 2, 2):
    arity 2, one label per supernode, leaves of three cells holding one
    label each except two in the last, and two labels per regular node.
    """

    arity: int
    supernode_labels: int
    leaf_cells: int
    per_cell: int
    last_cell: int
    regular_labels: int

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("arity must be at least 2")
        if self.leaf_cells < 1:
            raise ValueError("leaves need at least one cell")
        if self.per_cell < 1 or self.last_cell < 1:
            raise ValueError("every cell must hold at least one label")
        if self.supernode_labels < 0 or self.regular_labels < 0:
            raise ValueError("internal label counts cannot be negative")

    def cell_sizes(self) -> tuple[int, ...]:
        return (self.per_cell,) * (self.leaf_cells - 1) + (self.last_cell,)


# The most nodes one template block of node_stream holds.
_BLOCK = 1024


@cache
def _template(k: int, h: int) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """Kinds and indices of the regular subtree of height h with leaves numbered from 1, and 1 at each leaf."""
    if not h:
        return (LEAF,), (1,), (1,)
    kinds, first, mask = _template(k, h - 1)
    copies = (map(add, first, map(mul, mask, repeat(c * k ** (h - 1)))) for c in range(k))
    return (REGULAR, *kinds * k), (h, *chain.from_iterable(copies)), (0, *mask * k)


def node_stream(k: int) -> Iterator[tuple[tuple[str, ...], tuple[int, ...]]]:
    """Every node in insertion order, as blocks of (kinds, indices) columns.

    First the first supernode's family, leaf 1 first; then supernode i alone
    and its k-1 complete k-ary subtrees of height i-1, each in
    node-before-children order.  A subtree of at most _BLOCK nodes is one
    block, its height's template with the leaf indices shifted past the
    leaves before it; a larger one is its root, then its k children.
    """
    if k < 2:
        raise ValueError("arity must be at least 2")
    yield (LEAF, SUPERNODE, *(LEAF,) * (k - 1)), (1, 1, *range(2, k + 1))
    # the greatest height whose subtree holds at most _BLOCK nodes
    fits = next(h for h in count() if (k ** (h + 2) - 1) // (k - 1) > _BLOCK)
    leaves = k
    for i in count(2):
        yield (SUPERNODE,), (i,)
        stack = [i - 1] * (k - 1)
        while stack:
            h = stack.pop()
            if h > fits:
                yield (REGULAR,), (h,)
                stack += (h - 1,) * k
            else:
                kinds, first, mask = _template(k, h)
                yield kinds, tuple(map(add, first, map(mul, mask, repeat(leaves))))
                leaves += k ** h


def _start_chunks(spec: TreeSpec) -> Iterator[bytes]:
    """The labels in insertion order, node by node or subtree by subtree.

    One byte per label, 1 where a cell opens.  Leaf 1, supernode 1 and
    leaves 2..k come first; then each supernode i is followed by k - 1
    copies of the regular subtree of height i - 1.  Each subtree is built
    only when asked for, so a caller that stops once it has n labels never
    holds a template much longer than n.
    """
    leaf = b"".join(b"\1" + bytes(size - 1) for size in spec.cell_sizes())
    supernode = bytes(spec.supernode_labels)
    regular = bytes(spec.regular_labels)
    yield leaf
    yield supernode
    for _ in range(spec.arity - 1):
        yield leaf
    subtree = leaf
    while True:
        yield supernode
        subtree = b"".join([regular] + [subtree] * spec.arity)
        for _ in range(spec.arity - 1):
            yield subtree


def _cut_chunks(spec: TreeSpec, n_max: int) -> Iterator[bytes]:
    """The template chunks of _start_chunks, the last one cut so they hold n_max labels."""
    pos = 0
    chunks = _start_chunks(spec)
    while pos < n_max:
        chunk = next(chunks)
        yield chunk[: n_max - pos]
        pos += len(chunk)


def cell_starts(spec: TreeSpec, n_max: int) -> bytes:
    """One byte per label 1..n_max, 1 where a cell opens: C_T is their running sum."""
    return b"".join(_cut_chunks(spec, n_max))


def cell_positions(spec: TreeSpec, n_max: int) -> Iterator[int]:
    """The first label of each cell that opens by n_max: the 1 bytes of cell_starts, picked at C level.

    Cell i, counted from 0, is slot i % j + 1 of leaf i // j + 1.
    """
    return compress(count(1), cell_starts(spec, n_max))


def cell_count(spec: TreeSpec, n: int) -> int:
    """Number of nonempty cells among the first n labels, by one descent of the tree's shape: O(log n).

    A regular subtree of height h holds T(h) = x + k*T(h - 1) labels and
    j*k^h cells, with T(0) a leaf's labels.  Past leaf 1 the descent skips
    supernodes and whole subtrees up the spine until n falls inside one,
    then the root and whole children one level down per divmod, and counts
    the cell openings of the leaf that holds label n.
    """
    if n < 0:
        raise ValueError("n cannot be negative")
    k, s, x = spec.arity, spec.supernode_labels, spec.regular_labels
    sizes = spec.cell_sizes()
    levels = [(sum(sizes), spec.leaf_cells)]  # (labels, cells) of a regular subtree, by height
    rest, cells = n, 0
    if n >= levels[0][0]:  # past leaf 1
        rest, cells = n - levels[0][0], levels[0][1]
        while True:  # supernode i, then k - 1 subtrees of height i - 1
            labels, held = levels[-1]
            if rest <= s:
                return cells
            whole, part = divmod(rest - s, labels)
            if whole < k - 1:
                rest, cells = part, cells + whole * held
                break
            rest, cells = rest - s - (k - 1) * labels, cells + (k - 1) * held
            levels.append((x + k * labels, k * held))
    for labels, held in reversed(levels[:-1]):
        if rest <= x:
            return cells
        whole, rest = divmod(rest - x, labels)
        cells += whole * held
    return cells + bisect_right(list(accumulate(sizes[:-1], initial=1)), rest)


def cell_count_sequence(spec: TreeSpec, n_max: int) -> list[int]:
    """C_T(1), ..., C_T(n_max) in one pass over the first labels of cell_positions.

    C_T stays at c from the first label of cell c to the label before the
    next cell's, or to n_max for the last cell, so the list repeats one int
    object per cell over that run rather than making one per label.
    """
    firsts, nexts = tee(cell_positions(spec, n_max))
    runs = map(sub, chain(islice(nexts, 1, None), (n_max + 1,)), firsts)
    return list(chain.from_iterable(map(repeat, count(1), runs)))


def initial_conditions(spec: TreeSpec, count: int) -> list[int]:
    """The first `count` cell counts, the ICs that follow the tree."""
    return cell_count_sequence(spec, count)


def cell_count_split(spec: TreeSpec, n: int) -> tuple[int, ...]:
    """Nonempty cells among labels 1..n, grouped by leaf child position.

    Cell c, counted from 0, sits in leaf c // j at child position c // j % k,
    so each run of j*k cells gives every position j, and the last, partial
    run fills the positions in order.
    """
    j, k = spec.leaf_cells, spec.arity
    q, r = divmod(cell_count(spec, n), j * k)
    return tuple(q * j + min(max(r - i * j, 0), j) for i in range(k))


_SHAPES = ("an integer", "an array of integers", "an array of arrays of integers")


def document_fields(doc: object, kind: str, depths: dict[str, int]) -> list:
    """The fields of a `kind` spec document, in the order of `depths`.

    A field of depth 0 must be a JSON integer, not a bool, float or string;
    of depth 1 an array of them, and of depth 2 an array of such arrays.
    Anything else, a missing field, or a document that is not an object is
    a ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {kind} document: not an object")
    fields = []
    for field, depth in depths.items():
        if field not in doc:
            raise ValueError(f"{kind} document is missing field '{field}'")
        if not _nested_integers(doc[field], depth):
            raise ValueError(f"malformed {kind} document: field '{field}' is not {_SHAPES[depth]}")
        fields.append(doc[field])
    return fields


def _nested_integers(value: object, depth: int) -> bool:
    if depth == 0:
        return type(value) is int  # bool is a subclass of int
    return type(value) is list and all(_nested_integers(item, depth - 1) for item in value)


def from_document(doc: dict) -> TreeSpec:
    k, s, j, per_cell, last_cell, regular = document_fields(
        doc, "tree", dict.fromkeys(("k", "s", "j", "per_cell", "last_cell", "regular"), 0))
    return TreeSpec(k, s, j, per_cell, last_cell, regular)

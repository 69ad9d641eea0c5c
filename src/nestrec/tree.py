"""Lazily enumerated labelled k-ary trees and their cell counting functions.

The tree has an infinite spine of supernodes on the extreme left.  The first
supernode has k leaf children; every later supernode has the previous
supernode plus k-1 regular subtrees for its k children.  Labels are poured
into the nodes in insertion order: each supernode takes s labels, each
regular node x labels, and each leaf is split into j cells taking c labels
apiece except the last cell, which takes l.  The cell counting function
C_T(n) is the number of cells whose first label is among 1..n.

C_T is computed two independent ways.  The template walk (cell_positions
and everything built on it) writes the labels as bytes, 1 where a cell
opens and 0 elsewhere.  A full regular subtree of height h is the bytes of
its root followed by k copies of the subtree of height h - 1, so each
subtree is built once from the one below it and the labels 1..n come out
of C-level bytes and itertools calls, in O(n) transient bytes.  The closed
form (first_label, and cell_count on top of it) sums the frequency formula
to get the first label of any cell in O(log n) and finds C_T(n) by binary
search in O(log^2 n), so single-point counts stay cheap at n = 10^18.  The
one node-by-node walk, node_stream, feeds pruning and is a third,
independent oracle.  The tests check each against the others.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, compress, count, repeat, tee
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

    def leaf_labels(self) -> int:
        """Labels held by one full leaf."""
        return self.per_cell * (self.leaf_cells - 1) + self.last_cell

    def cell_sizes(self) -> tuple[int, ...]:
        return (self.per_cell,) * (self.leaf_cells - 1) + (self.last_cell,)


def node_stream(k: int) -> Iterator[tuple[str, int]]:
    """Yield (kind, index) for every node in insertion order.

    The stream opens with the first supernode's family, leaf 1 first, and
    then emits supernode i followed by its k-1 complete k-ary subtrees of
    height i-1, each in node-before-children order.
    """
    if k < 2:
        raise ValueError("arity must be at least 2")
    yield (LEAF, 1)
    yield (SUPERNODE, 1)
    leaf = 1
    for _ in range(k - 1):
        leaf += 1
        yield (LEAF, leaf)
    i = 2
    while True:
        yield (SUPERNODE, i)
        for _ in range(k - 1):
            stack = [i - 1]
            while stack:
                level = stack.pop()
                if level == 0:
                    leaf += 1
                    yield (LEAF, leaf)
                else:
                    yield (REGULAR, level)
                    stack.extend((level - 1,) * k)
        i += 1


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


def _first_label_runs(spec: TreeSpec, n_max: int) -> Iterator[Iterator[int]]:
    """One iterator per template chunk over the first labels of its cells, up to n_max."""
    pos = 0
    chunks = _start_chunks(spec)
    while pos < n_max:
        chunk = next(chunks)
        yield compress(count(pos + 1), chunk[: n_max - pos])
        pos += len(chunk)


def cell_positions(spec: TreeSpec, n_max: int) -> Iterator[tuple[int, int, int]]:
    """Yield (first_label, leaf_index, cell_index) for cells starting by n_max.

    First labels come from the byte templates of _start_chunks; every leaf
    has j cells, so the c-th cell (from 0) is cell c % j + 1 of leaf
    c // j + 1.
    """
    j = spec.leaf_cells
    for c, first in enumerate(chain.from_iterable(_first_label_runs(spec, n_max))):
        leaf, cell = divmod(c, j)
        yield (first, leaf + 1, cell + 1)


def first_label(spec: TreeSpec, v: int) -> int:
    """First label of cell v: 1 + phi(1) + ... + phi(v - 1), in closed form.

    With V = v - 1 and Q = V // j, the cells before cell v hold
    (V - Q) * per_cell + Q * last_cell labels.  Between them sit
    nu_k(1) + ... + nu_k(Q) regular nodes, which Legendre's formula sums to
    (Q - s_k(Q)) / (k - 1) with s_k the base-k digit sum, and one supernode
    per power of k up to Q, that is one per base-k digit of Q.
    """
    if v < 1:
        raise ValueError("cells are numbered from 1")
    k = spec.arity
    before = v - 1
    q = before // spec.leaf_cells
    digit_sum = digits = 0
    rest = q
    while rest:
        digit_sum += rest % k
        rest //= k
        digits += 1
    return (
        1
        + (before - q) * spec.per_cell
        + q * spec.last_cell
        + spec.regular_labels * ((q - digit_sum) // (k - 1))
        + spec.supernode_labels * digits
    )


def cell_count(spec: TreeSpec, n: int) -> int:
    """Number of nonempty cells among the first n labels.

    Binary search for the last cell whose first_label is at most n: O(log^2 n)
    from the closed form, with no tree walk.  cell_count_sequence walks the
    tree and is the oracle the tests hold this against.
    """
    if n < 0:
        raise ValueError("n cannot be negative")
    if n == 0:
        return 0
    # cell 1 starts at label 1, and every cell holds a label, so cell n + 1
    # starts past n
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if first_label(spec, mid) <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def cell_count_sequence(spec: TreeSpec, n_max: int) -> list[int]:
    """C_T(1), ..., C_T(n_max) in one pass.

    C_T is v from the first label of cell v up to the label before cell
    v + 1, and cell 1 opens at label 1; every repeat of v is the same int
    object.
    """
    firsts, nexts = tee(chain.from_iterable(_first_label_runs(spec, n_max)))
    next(nexts, None)
    gaps = map(operator.sub, chain(nexts, (n_max + 1,)), firsts)
    return list(chain.from_iterable(map(repeat, count(1), gaps)))


def initial_conditions(spec: TreeSpec, count: int) -> list[int]:
    """The first `count` cell counts, the ICs that follow the tree."""
    return cell_count_sequence(spec, count)


def cell_count_split(spec: TreeSpec, n: int) -> tuple[int, ...]:
    """Nonempty cells among labels 1..n, grouped by leaf child position."""
    counts = [0] * spec.arity
    for _, leaf, _ in cell_positions(spec, n):
        counts[(leaf - 1) % spec.arity] += 1
    return tuple(counts)


def to_document(spec: TreeSpec) -> dict:
    return {
        "k": spec.arity,
        "s": spec.supernode_labels,
        "j": spec.leaf_cells,
        "per_cell": spec.per_cell,
        "last_cell": spec.last_cell,
        "regular": spec.regular_labels,
    }


def from_document(doc: dict) -> TreeSpec:
    try:
        return TreeSpec(
            arity=int(doc["k"]),
            supernode_labels=int(doc["s"]),
            leaf_cells=int(doc["j"]),
            per_cell=int(doc["per_cell"]),
            last_cell=int(doc["last_cell"]),
            regular_labels=int(doc["regular"]),
        )
    except KeyError as missing:
        raise ValueError(f"tree document is missing field {missing}") from None

"""Reference walks and closed forms: the oracles for tree.node_stream's blocks, pruning's deletion and tree's counts.

It is not named test_*, so pytest does not collect it; the test files import it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain
from typing import Iterator

from nestrec import tree
from nestrec.pruning import LabelledTree, _singles
from nestrec.tree import LEAF, REGULAR, SUPERNODE, TreeSpec


def reference_node_stream(k: int) -> Iterator[tuple[str, int]]:
    """Yield (kind, index) for every node in insertion order, one Python step per node.

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


def flat_node_stream(k: int) -> Iterator[tuple[str, int]]:
    """tree.node_stream's column blocks read as (kind, index) pairs."""
    return chain.from_iterable(zip(*block) for block in tree.node_stream(k))


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


def searched_count(spec: TreeSpec, n: int) -> int:
    """C_T(n) by binary search for the last cell whose first_label is at most n: O(log^2 n), no tree read."""
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


def walking_split(spec: TreeSpec, n: int) -> tuple[int, ...]:
    """Nonempty cells among labels 1..n grouped by leaf child position, one Python step per cell."""
    counts = [0] * spec.arity
    for cell in range(sum(tree.cell_starts(spec, n))):
        counts[cell // spec.leaf_cells % spec.arity] += 1
    return tuple(counts)


def reference_delete(t: LabelledTree, leaves: list[tuple[int, int]], row: tuple[int, ...], side: str, log,
                     anomalies: list[str]) -> None:
    """Deletion one leaf and one cell at a time: the oracle for pruning._delete's stamped passes.

    One pass per b in `row`: each leaf cell opening at or below n - b gives
    up its first label (side "front", as order one and order p delete) or
    its last (side "back", as superposed deletes).  At the front a leaf's
    labels in one pass are one block, up to an empty cell, which falls back
    to the leaf's last cell, then the parent, then a placeholder; at the
    back they are one block, and an empty cell is an anomaly.
    """
    n, all_cells = t.n, t.cells
    offsets = tuple(accumulate(t.spec.cell_sizes()[:-1], initial=0))
    firsts = [all_cells[ordinal - 1][0].start for ordinal, _ in leaves]
    runs, sources = [], []
    for i, b in enumerate(row, 1):
        reach = n - b
        for (ordinal, parent), first in zip(leaves, firsts):
            opened = bisect_right(offsets, reach - first)
            if not opened:
                continue
            cells = list(all_cells[ordinal - 1])
            labels = []
            for slot in range(opened):
                cell = cells[slot]
                if side == "back":
                    if cell:
                        labels.append(cell[-1])
                        cells[slot] = cell[:-1]
                    else:
                        anomalies.append(f"cell {slot + 1} of leaf {t.indices[ordinal - 1]} was already empty in pass {i}")
                    continue
                if cell:
                    labels.append(cell.start)
                    cells[slot] = cell[1:]
                    continue
                if labels:
                    runs.append(tuple(labels))
                    sources.append(ordinal)
                    labels = []
                last, own = cells[-1], all_cells[parent - 1][0]
                if last:
                    runs.append(last[:1])
                    sources.append(ordinal)
                    cells[-1] = last[1:]
                elif own:
                    runs.append(own[:1])
                    sources.append(parent)
                    all_cells[parent - 1] = (own[1:], *all_cells[parent - 1][1:])
                elif parent == 2 and t.placeholders:
                    t.placeholders -= 1
                    runs.append(("placeholder",))
                    sources.append(parent)
                else:
                    anomalies.append(f"nothing left to delete for leaf {t.indices[ordinal - 1]} cell {slot + 1}")
            if labels or side == "back":
                runs.append(tuple(labels))
                sources.append(ordinal)
            all_cells[ordinal - 1] = tuple(cells)
    log.add("deletion", _singles, runs, sources)

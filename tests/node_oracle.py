"""The node-by-node walk of a labelled k-ary tree, the oracle for tree.node_stream's blocks.

It is not named test_*, so pytest does not collect it; the test files import it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from nestrec import tree
from nestrec.tree import LEAF, REGULAR, SUPERNODE


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

from __future__ import annotations

import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from nestrec import families as fam
from nestrec import pruning, tree
from nestrec.tree import TreeSpec


RUNNING = TreeSpec(2, 1, 3, 1, 2, 2)


def test_build_prefix_materializes_through_last_label():
    t = pruning.build_prefix(RUNNING, 13)
    # label 13 opens leaf 3; the regular node before it holds labels 11 and 12
    kinds = [(node.kind, node.index) for node in t.nodes]
    assert kinds[-1] == (tree.LEAF, 3)
    assert (tree.REGULAR, 1) in kinds
    assert sum(node.label_count() for node in t.nodes) == 13


def test_build_prefix_keeps_empty_interior_nodes():
    spec = TreeSpec(2, 0, 1, 1, 1, 0)  # supernodes and regulars hold nothing
    t = pruning.build_prefix(spec, 3)
    kinds = [node.kind for node in t.nodes]
    assert tree.SUPERNODE in kinds
    assert kinds[-1] == tree.LEAF


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_leaf_parents_follow_node_stream(k):
    """Pruning's (ordinal, leaf, parent ordinal, parent) list, rebuilt from node_stream.

    A leaf's parent is supernode 1 (node 2) for leaves 1..k and otherwise
    the latest level-1 regular node before it; equivalently, leaf L hangs
    off the ((L - 1) // k + 1)-th of supernode 1 and the level-1 regulars.
    """
    t = pruning.build_prefix(TreeSpec(k, 1, 2, 1, 1, 1), 2000)
    nodes = list(enumerate(islice(tree.node_stream(k), len(t.nodes)), 1))
    want = []
    latest = None
    for ordinal, (kind, index) in nodes:
        if kind == tree.LEAF:
            want.append((ordinal, index, 2 if index <= k else latest))
        elif kind == tree.REGULAR and index == 1:
            latest = ordinal
    leaves = pruning._leaves(t)
    assert [(ordinal, leaf.index, parent_ordinal) for ordinal, leaf, parent_ordinal, _ in leaves] == want
    penultimates = [ordinal for ordinal, (kind, index) in nodes if kind != tree.LEAF and index == 1]
    for ordinal, leaf, parent_ordinal, parent in leaves:
        assert leaf is t.nodes[ordinal - 1] and parent is t.nodes[parent_ordinal - 1]
        assert parent_ordinal == penultimates[(leaf.index - 1) // k]


def test_trees_equal_and_first_difference():
    a = pruning.build_prefix(RUNNING, 15)
    b = pruning.build_prefix(RUNNING, 15)
    assert pruning.trees_equal(a, b)
    c = pruning.build_prefix(RUNNING, 14)
    assert not pruning.trees_equal(a, c)
    assert pruning.first_difference(a, c) is not None


def test_first_difference_and_repr_print_label_lists():
    a = pruning.build_prefix(RUNNING, 15)
    b = pruning.build_prefix(RUNNING, 14)
    assert pruning.first_difference(a, b) == "label totals differ: 15 vs 14"
    same_total = pruning.LabelledTree(RUNNING, 15, b.nodes)
    assert pruning.first_difference(a, same_total) == "node 6 (leaf 3): cells [[13], [14], [15]] vs [[13], [14], []]"
    assert repr(a.nodes) == (
        "[TreeNode(leaf, 1, [[1], [2], [3, 4]]), TreeNode(supernode, 1, [[5]]), "
        "TreeNode(leaf, 2, [[6], [7], [8, 9]]), TreeNode(supernode, 2, [[10]]), "
        "TreeNode(regular, 1, [[11, 12]]), TreeNode(leaf, 3, [[13], [14], [15]])]"
    )


def test_running_example_prune():
    """Pruning the 31-label tree gives exactly the 15-label tree."""
    t = pruning.build_prefix(RUNNING, 31)
    report = pruning.prune_order2(t, 1, 3, 1)
    assert report.removed == 16
    assert report.removed == 1 + tree.cell_count(RUNNING, 28)
    assert pruning.trees_equal(report.result, pruning.build_prefix(RUNNING, 15))
    assert report.anomalies == []


def test_running_example_moved_labels():
    t = pruning.build_prefix(RUNNING, 31)
    report = pruning.prune_order2(t, 1, 3, 1)
    moved = sorted(s["label"] for s in report.steps
                   if s["step"] == "initial correction" and s["to"] == 2
                   and isinstance(s["label"], int))
    assert moved == [30, 31]


def test_order2_removed_formula():
    for s, j, m in [(0, 1, 0), (0, 1, 1), (1, 3, 1), (2, 4, 3), (0, 2, 2)]:
        f = fam.OrderOne(s, j, m)
        spec = fam.tree_of(f)
        for n in range(fam.prune_threshold(f), fam.prune_threshold(f) + 60):
            t = pruning.build_prefix(spec, n)
            report = pruning.prune_order2(t, s, j, m)
            assert report.removed == s + tree.cell_count(spec, n - j), (s, j, m, n)


def test_order2_refuses_small_trees():
    with pytest.raises(pruning.PruneRefused):
        pruning.prune_order2(pruning.build_prefix(RUNNING, 15), 1, 3, 1)
    with pytest.raises(ValueError):
        # parameters disagree with the spec the tree was built for
        pruning.prune_order2(pruning.build_prefix(RUNNING, 31), 0, 3, 1)


def test_orderp_removed_formula():
    f = fam.HigherOrder(0, 3, 2, 2)
    spec = fam.tree_of(f)
    for n in range(fam.prune_threshold(f), fam.prune_threshold(f) + 40):
        t = pruning.build_prefix(spec, n)
        report = pruning.prune_orderp(t, 0, 3, 2, 2)
        want = 0 + tree.cell_count(spec, n - 3) + tree.cell_count(spec, n - 9)
        assert report.removed == want, n
        assert pruning.trees_equal(report.result, pruning.build_prefix(spec, n - want))


def test_orderp_p1_equals_order2():
    """The placeholder construction and the label move agree exactly at p=1."""
    for s, j, m in [(0, 1, 0), (1, 3, 1), (0, 2, 1), (1, 2, 2)]:
        f = fam.OrderOne(s, j, m)
        spec = fam.tree_of(f)
        # the order-p precondition is strict, so it kicks in one label later
        for n in range(fam.prune_threshold(f) + 1, fam.prune_threshold(f) + 30):
            a = pruning.prune_order2(pruning.build_prefix(spec, n), s, j, m)
            b = pruning.prune_orderp(pruning.build_prefix(spec, n), s, j, m, 1)
            assert a.removed == b.removed, (s, j, m, n)
            assert pruning.trees_equal(a.result, b.result), (s, j, m, n)


def test_superposed_removed_formula():
    f = fam.Superposed(0, 3, 3, 2)
    spec = fam.tree_of(f)
    t = pruning.build_prefix(spec, 82)
    report = pruning.prune_superposed(t, 0, 3, 3, 2)
    assert report.removed == tree.cell_count(spec, 77) + tree.cell_count(spec, 75)
    assert pruning.trees_equal(report.result, pruning.build_prefix(spec, 82 - report.removed))


def test_superposed_j1_collapses_offsets():
    f = fam.Superposed(1, 1, 2, 3)
    spec = fam.tree_of(f)
    for n in range(fam.prune_threshold(f), fam.prune_threshold(f) + 25):
        t = pruning.build_prefix(spec, n)
        report = pruning.prune_superposed(t, 1, 1, 2, 3)
        want = 1 + sum(tree.cell_count(spec, n - (2 * i - 1)) for i in (1, 2, 3))
        assert report.removed == want, n
        assert pruning.trees_equal(report.result, pruning.build_prefix(spec, n - want))


def test_superposed_exploratory_negative_m():
    """Below the full-shape bound the operation still runs but is flagged."""
    f = fam.Superposed(0, 4, -2, 9)
    spec = fam.tree_of(f)
    t = pruning.build_prefix(spec, 168)
    report = pruning.prune_superposed(t, 0, 4, -2, 9)
    assert any("full-shape bound" in note for note in report.anomalies)
    rebuilt = pruning.build_prefix(spec, 168 - report.removed)
    assert not pruning.trees_equal(report.result, rebuilt)


def test_kary_removed_formula():
    for k, m, p in [(3, 0, 1), (3, 1, 2), (4, 3, 3), (5, 3, 4)]:
        f = fam.KaryOrderP(k, m, p)
        spec = fam.tree_of(f)
        for n in range(fam.prune_threshold(f), fam.prune_threshold(f) + 30):
            t = pruning.build_prefix(spec, n)
            report = pruning.prune_kary(t, m, p, k)
            want = sum(tree.cell_count(spec, n - tt) for tt in range(1, p + 1))
            assert report.removed == want, (k, m, p, n)
            assert pruning.trees_equal(report.result, pruning.build_prefix(spec, n - want))


def test_prune_family_dispatch():
    f = fam.OrderOne(1, 3, 1)
    t = pruning.build_prefix(fam.tree_of(f), 31)
    assert pruning.prune_family(f, t).removed == 16
    with pytest.raises(fam.NoTreeKnown):
        pruning.prune_family(fam.QFamily(0, 2, 1), t)


def test_left_leaf_correspondence_examples():
    f = fam.OrderOne(1, 3, 1)
    assert pruning.left_leaf_correspondence(fam.tree_of(f), 31, f)
    g = fam.Superposed(0, 3, 3, 2)
    assert pruning.left_leaf_correspondence(fam.tree_of(g), 82, g)
    with pytest.raises(ValueError):
        pruning.left_leaf_correspondence(fam.tree_of(f), 31, g)


def assert_log_replays(before: pruning.LabelledTree, report: pruning.PruneReport) -> None:
    """Replay the movement log on `before`, the tree that was pruned.

    Every label taken "from" a node ordinal must sit there at that moment;
    at the end every label is gone, and the survivors were renumbered
    1..result.n in order.
    """
    held = {ordinal: {label for cell in node.cells for label in cell} for ordinal, node in enumerate(before.nodes, 1)}
    placeholders = Counter()
    fresh = []
    for step in report.steps:
        label, source, target = step["label"], step["from"], step["to"]
        if source is not None:
            if isinstance(label, str):
                assert placeholders[source] > 0, step
                placeholders[source] -= 1
            else:
                assert label in held[source], step
                held[source].remove(label)
        if step["step"] == "relabelling":
            fresh.append(target)
        elif target is not None:
            if isinstance(label, str):
                placeholders[target] += 1
            else:
                held[target].add(label)
    assert not any(held.values()) and not any(placeholders.values())
    assert fresh == list(range(1, report.result.n + 1))


def test_no_anomalies_in_range():
    rng = random.Random(11)
    kinds = [
        fam.OrderOne(1, 2, 1),
        fam.HigherOrder(1, 2, 3, 2),
        fam.Superposed(1, 2, 2, 2),
        fam.KaryOrderP(4, 2, 3),
    ]
    for f in kinds:
        spec = fam.tree_of(f)
        lo = fam.prune_threshold(f)
        for _ in range(25):
            n = rng.randint(lo, lo + 300)
            report = pruning.prune_family(f, pruning.build_prefix(spec, n))
            assert report.anomalies == [], (f, n)
            assert pruning.trees_equal(report.result, pruning.build_prefix(spec, n - report.removed))
            assert_log_replays(pruning.build_prefix(spec, n), report)


@st.composite
def prunable_families(draw):
    """Any of the four prune shapes, superposed with m < 0 included."""
    kind = draw(st.sampled_from(["order_one", "higher_order", "superposed", "kary"]))
    if kind == "kary":
        k, p = draw(st.integers(2, 5)), draw(st.integers(1, 3))
        # valid m run from p - 1 while (m + 1)(k - 1) <= kp
        return fam.KaryOrderP(k, draw(st.integers(p - 1, k * p // (k - 1) - 1)), p)
    s, j = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    if kind == "order_one":
        return fam.OrderOne(s, j, draw(st.integers(0, j)))
    p = draw(st.integers(1, 4))
    if kind == "higher_order":
        return fam.HigherOrder(s, j, draw(st.integers(0, (2 * p - 1) * j)), p)
    return fam.Superposed(s, j, draw(st.integers(-p + 1, p * j)), p)


@settings(max_examples=100, deadline=None)
@given(prunable_families(), st.data())
def test_prune_identity_everywhere(f, data):
    """Pruned tree equals the rebuilt smaller prefix, node for node, and the log replays.

    In range, the prune removes s labels and one nested term C_T(n - b) for
    each inner offset b of the first summand, counted in closed form.
    Exploratory shapes (superposed with m < 0) may break the identity, so
    for them only the log and the label total are checked.
    """
    verdict = fam.validate(f)
    assert verdict.ok, f
    spec = fam.tree_of(f)
    n = data.draw(st.integers(fam.prune_threshold(f), fam.prune_threshold(f) + 400))
    report = pruning.prune_family(f, pruning.build_prefix(spec, n))
    assert report.result.n == n - report.removed
    if not verdict.exploratory:
        assert pruning.trees_equal(report.result, pruning.build_prefix(spec, n - report.removed))
        row = fam.recursion_of(f).inner_offsets[0]
        assert report.removed == spec.supernode_labels + sum(tree.cell_count(spec, n - b) for b in row)
    steps = report.steps
    assert_log_replays(pruning.build_prefix(spec, n), report)
    assert report.steps == steps
    # expanding the same run records again gives the same per-label log
    again = pruning.PruneReport(report.removed, report.result, report.moves, report.anomalies)
    assert again.steps == steps


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("s, j, c, last, x", [(1, 3, 1, 2, 2), (0, 1, 1, 3, 0), (2, 2, 2, 1, 1), (0, 4, 1, 1, 3)])
def test_leaf_runs_match_cell_positions(k, s, j, c, last, x):
    """build_prefix's leaf cells against the byte-template walk, which uses no node_stream.

    tree.cell_positions gives each cell's first label, leaf and cell index;
    its size is the spec's, cut at n.  Every nonempty leaf cell must be that
    run, starting at that first label, and every empty one, lying past n,
    must start at n + 1: pruning reads the opening labels off the starts.
    """
    spec = TreeSpec(k, s, j, c, last, x)
    sizes = spec.cell_sizes()
    for n in (1, 2, 7, 64, 999, 5000):
        t = pruning.build_prefix(spec, n)
        built = []
        for node in t.nodes:
            if node.kind != tree.LEAF:
                continue
            for slot, cell in enumerate(node.cells, 1):
                if cell:
                    built.append((cell.start, node.index, slot, cell))
                else:
                    assert cell.start == n + 1, (node, slot)
        expected = [
            (first, leaf, slot, range(first, first + min(sizes[slot - 1], n + 1 - first)))
            for first, leaf, slot in tree.cell_positions(spec, n)
        ]
        assert built == expected, (spec, n)


def test_movement_log_is_json_clean():
    import json

    t = pruning.build_prefix(RUNNING, 31)
    report = pruning.prune_order2(t, 1, 3, 1)
    text = json.dumps(report.steps)
    assert "initial correction" in text and "relabelling" in text

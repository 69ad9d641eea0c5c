from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from itertools import accumulate, chain, islice

import pytest
from hypothesis import given, settings, strategies as st

from nestrec import families as fam
from nestrec import pruning, tree
from nestrec.tree import TreeSpec
from differential import prune_points
from node_oracle import reference_delete, reference_node_stream


RUNNING = TreeSpec(2, 1, 3, 1, 2, 2)


def test_build_prefix_materializes_through_last_label():
    t = pruning.build_prefix(RUNNING, 13)
    # label 13 opens leaf 3; the regular node before it holds labels 11 and 12
    kinds = list(zip(t.kinds, t.indices))
    assert kinds[-1] == (tree.LEAF, 3)
    assert (tree.REGULAR, 1) in kinds
    assert t.placeholders + sum(len(cell) for cells in t.cells for cell in cells) == 13


def test_build_prefix_keeps_empty_interior_nodes():
    spec = TreeSpec(2, 0, 1, 1, 1, 0)  # supernodes and regulars hold nothing
    t = pruning.build_prefix(spec, 3)
    assert tree.SUPERNODE in t.kinds
    assert t.kinds[-1] == tree.LEAF


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_leaf_parents_follow_node_stream(k):
    """Pruning's (leaf ordinal, parent ordinal) pairs, rebuilt from the node-by-node reference walk.

    A leaf's parent is supernode 1 (node 2) for leaves 1..k and otherwise
    the latest level-1 regular node before it; equivalently, leaf L hangs
    off the ((L - 1) // k + 1)-th of supernode 1 and the level-1 regulars.
    """
    t = pruning.build_prefix(TreeSpec(k, 1, 2, 1, 1, 1), 2000)
    nodes = list(enumerate(islice(reference_node_stream(k), len(t.kinds)), 1))
    want = []
    latest = None
    for ordinal, (kind, index) in nodes:
        if kind == tree.LEAF:
            want.append((ordinal, index, 2 if index <= k else latest))
        elif kind == tree.REGULAR and index == 1:
            latest = ordinal
    leaves = pruning._leaves(t)
    assert [(ordinal, t.indices[ordinal - 1], parent_ordinal) for ordinal, parent_ordinal in leaves] == want
    penultimates = [ordinal for ordinal, (kind, index) in nodes if kind != tree.LEAF and index == 1]
    for ordinal, parent_ordinal in leaves:
        assert t.kinds[ordinal - 1] == tree.LEAF and t.kinds[parent_ordinal - 1] != tree.LEAF
        assert parent_ordinal == penultimates[(t.indices[ordinal - 1] - 1) // k]


def test_trees_equal_and_first_difference():
    a = pruning.build_prefix(RUNNING, 15)
    b = pruning.build_prefix(RUNNING, 15)
    assert pruning.trees_equal(a, b)
    c = pruning.build_prefix(RUNNING, 14)
    assert not pruning.trees_equal(a, c)
    assert pruning.first_difference(a, c) is not None


def test_first_difference_names_each_kind_of_mismatch():
    """One message per check, in the order they run: spec, label total, node, cells, node count."""
    a = pruning.build_prefix(RUNNING, 15)
    ternary = TreeSpec(3, 1, 3, 1, 2, 2)
    sparse = TreeSpec(2, 0, 1, 1, 1, 0)  # interior nodes hold nothing
    pairs = [
        (a, pruning.build_prefix(ternary, 15), f"specs differ: {RUNNING} vs {ternary}"),
        (a, pruning.build_prefix(RUNNING, 14), "label totals differ: 15 vs 14"),
        # nodes 1-3 agree; the binary tree's node 4 is supernode 2, the ternary's leaf 3
        (a, replace(pruning.build_prefix(ternary, 15), spec=RUNNING), "node 4: supernode(2) vs leaf(3)"),
        (a, replace(a, indices=[*a.indices[:-1], 9]), "node 6: leaf(3) vs leaf(9)"),  # same kinds and cells
        (a, replace(pruning.build_prefix(RUNNING, 14), n=15),
         "node 6 (leaf 3): cells [[13], [14], [15]] vs [[13], [14], []]"),
        # T(2) is the first three nodes of T(3), which ends with two empty interior nodes and leaf 3
        (pruning.build_prefix(sparse, 3), replace(pruning.build_prefix(sparse, 2), n=3), "node counts differ: 6 vs 3"),
    ]
    for first, second, message in pairs:
        assert pruning.first_difference(first, second) == message
        assert not pruning.trees_equal(first, second)
        assert pruning.first_difference(first, first) is None and pruning.trees_equal(first, first)


def test_build_prefix_columns_of_the_running_example():
    t = pruning.build_prefix(RUNNING, 15)
    assert t.kinds == [tree.LEAF, tree.SUPERNODE, tree.LEAF, tree.SUPERNODE, tree.REGULAR, tree.LEAF]
    assert t.indices == [1, 1, 2, 2, 1, 3]
    assert [[list(cell) for cell in cells] for cells in t.cells] == [
        [[1], [2], [3, 4]], [[5]], [[6], [7], [8, 9]], [[10]], [[11, 12]], [[13], [14], [15]]
    ]
    assert t.placeholders == 0


def test_running_example_prune():
    """Pruning the 31-label tree gives exactly the 15-label tree."""
    t = pruning.build_prefix(RUNNING, 31)
    report = pruning.prune_order2(t, fam.OrderOne(1, 3, 1))
    assert report.removed == 16
    assert report.removed == 1 + tree.cell_count(RUNNING, 28)
    assert pruning.trees_equal(report.result, pruning.build_prefix(RUNNING, 15))
    assert report.anomalies == []


def test_running_example_moved_labels():
    """The initial correction moves label 5 out of the first supernode and x = j - m = 2 placeholders in.

    The end correction then removes the two largest labels, 30 and 31, from node 10, their leaf's parent.
    """
    t = pruning.build_prefix(RUNNING, 31)
    report = pruning.prune_order2(t, fam.OrderOne(1, 3, 1))
    moved = [(s["label"], s["from"], s["to"]) for s in report.steps if s["step"] == "initial correction"]
    assert moved == [(5, 2, None), ("placeholder-1", None, 2), ("placeholder-2", None, 2)]
    trimmed = [(s["label"], s["from"]) for s in report.steps if s["step"] == "end correction"]
    assert trimmed == [(31, 10), (30, 10)]


PINNED_MOVES = [  # the four golden --trace cases, then a leaf's last cell standing in for an emptied one
    (fam.OrderOne(1, 3, 1), 31, [
        ('initial correction', (range(5, 6),), 2, None),
        ('initial correction', (('placeholder-1', 'placeholder-2'),), None, 2),
        ('deletion', ((1, 2, 3),), 1, None),
        ('deletion', ((6, 7, 8),), 3, None),
        ('deletion', ((13, 14, 15),), 6, None),
        ('deletion', ((17, 18, 19),), 7, None),
        ('deletion', ((26, 27, 28),), 11, None),
        ('lifting', (range(2, 2), range(3, 3), range(4, 5)), 1, 2),
        ('lifting', (range(7, 7), range(8, 8), range(9, 10)), 3, 2),
        ('lifting', (range(14, 14), range(15, 15), range(16, 17)), 6, 5),
        ('lifting', (range(18, 18), range(19, 19), range(20, 21)), 7, 5),
        ('lifting', (range(27, 27), range(28, 28), range(29, 30)), 11, 10),
        ('lifting', (range(30, 31), range(31, 32), range(32, 32)), 12, 10),
        ('end correction', (range(31, 30, -1),), 10, None),
        ('end correction', (range(30, 29, -1),), 10, None),
        ('relabelling', (
            ('placeholder-1', 'placeholder-2'), range(0, 0), range(2, 2), range(3, 3), range(4, 5), range(7, 7),
            range(8, 8), range(9, 10),
        ), 2, range(1, 5)),
        ('relabelling', (range(10, 11),), 4, range(5, 6)),
        ('relabelling', (
            range(11, 13), range(14, 14), range(15, 15), range(16, 17), range(18, 18), range(19, 19), range(20, 21),
        ), 5, range(6, 10)),
        ('relabelling', (range(21, 22),), 8, range(10, 11)),
        ('relabelling', (range(22, 24),), 9, range(11, 13)),
        ('relabelling', (
            range(24, 26), range(27, 27), range(28, 28), range(29, 30), range(30, 30), range(31, 31), range(32, 32),
        ), 10, range(13, 16)),
    ]),
    (fam.KaryOrderP(3, 1, 2), 10, [
        ('initial correction', (('placeholder-1', 'placeholder-2'),), None, 2),
        ('deletion', (range(1, 3),), 1, None),
        ('deletion', (range(3, 5),), 3, None),
        ('deletion', (range(5, 7),), 4, None),
        ('deletion', (range(9, 10),), 7, None),
        ('lifting', (range(3, 3),), 1, 2),
        ('lifting', (range(5, 5),), 3, 2),
        ('lifting', (range(7, 7),), 4, 2),
        ('lifting', (range(10, 11),), 7, 6),
        ('end correction', (range(10, 9, -1),), 6, None),
        ('end correction', (range(8, 7, -1),), 6, None),
        ('relabelling', (
            ('placeholder-1', 'placeholder-2'), range(3, 3), range(3, 3), range(5, 5), range(7, 7),
        ), 2, range(1, 3)),
        ('relabelling', (range(7, 7),), 5, range(3, 3)),
        ('relabelling', (range(7, 8), range(10, 10)), 6, range(3, 4)),
    ]),
    (fam.Superposed(0, 1, 0, 2), 11, [
        ('initial correction', (range(3, 3),), 2, None),
        ('initial correction', (('placeholder-1', 'placeholder-2'),), None, 2),
        ('deletion', ((2,),), 1, None),
        ('deletion', ((4,),), 3, None),
        ('deletion', ((8,),), 6, None),
        ('deletion', ((10,),), 7, None),
        ('deletion', ((1,),), 1, None),
        ('deletion', ((3,),), 3, None),
        ('deletion', ((7,),), 6, None),
        ('lifting', (range(1, 1),), 1, 2),
        ('lifting', (range(3, 3),), 3, 2),
        ('lifting', (range(7, 7),), 6, 5),
        ('lifting', (range(9, 10),), 7, 5),
        ('end correction', (range(11, 10, -1),), 9, None),
        ('end correction', (range(9, 8, -1),), 5, None),
        ('relabelling', (('placeholder-1', 'placeholder-2'), range(0, 0), range(1, 1), range(3, 3)), 2, range(1, 3)),
        ('relabelling', (range(5, 5),), 4, range(3, 3)),
        ('relabelling', (range(5, 7), range(7, 7), range(9, 9)), 5, range(3, 5)),
        ('relabelling', (range(11, 11),), 8, range(5, 5)),
        ('relabelling', (range(11, 11),), 9, range(5, 5)),
    ]),
    (fam.HigherOrder(0, 1, 0, 2), 9, [
        ('initial correction', (range(2, 2),), 2, None),
        ('initial correction', (('placeholder-1', 'placeholder-2', 'placeholder-3'),), None, 2),
        ('deletion', ((1,),), 1, None),
        ('deletion', ((2,),), 3, None),
        ('deletion', ((6,),), 6, None),
        ('deletion', ((7,),), 7, None),
        ('deletion', (('placeholder',),), 2, None),
        ('deletion', (('placeholder',),), 2, None),
        ('deletion', (range(3, 4),), 5, None),
        ('lifting', (range(2, 2),), 1, 2),
        ('lifting', (range(3, 3),), 3, 2),
        ('lifting', (range(7, 7),), 6, 5),
        ('lifting', (range(8, 8),), 7, 5),
        ('end correction', (range(9, 7, -1),), 9, None),
        ('end correction', (range(5, 4, -1),), 5, None),
        ('relabelling', (('placeholder-1',), range(0, 0), range(2, 2), range(3, 3)), 2, range(1, 2)),
        ('relabelling', (range(3, 3),), 4, range(2, 2)),
        ('relabelling', (range(4, 5), range(7, 7), range(8, 8)), 5, range(2, 3)),
        ('relabelling', (range(8, 8),), 8, range(3, 3)),
        ('relabelling', (range(8, 8),), 9, range(3, 3)),
    ]),
    (fam.HigherOrder(0, 2, 1, 2), 15, [
        ('initial correction', (range(4, 4),), 2, None),
        ('initial correction', (
            ('placeholder-1', 'placeholder-2', 'placeholder-3', 'placeholder-4', 'placeholder-5'),
        ), None, 2),
        ('deletion', ((1, 2),), 1, None),
        ('deletion', ((4, 5),), 3, None),
        ('deletion', ((12, 13),), 6, None),
        ('deletion', (range(3, 4),), 1, None),
        ('deletion', (('placeholder',),), 2, None),
        ('deletion', (range(6, 7),), 3, None),
        ('deletion', (('placeholder',),), 2, None),
        ('lifting', (range(2, 2), range(4, 4)), 1, 2),
        ('lifting', (range(5, 5), range(7, 7)), 3, 2),
        ('lifting', (range(13, 13), range(14, 15)), 6, 5),
        ('lifting', (range(15, 16), range(16, 16)), 7, 5),
        ('end correction', (range(15, 14, -1),), 5, None),
        ('end correction', (range(14, 13, -1),), 5, None),
        ('end correction', (range(11, 8, -1),), 5, None),
        ('relabelling', (
            ('placeholder-1', 'placeholder-2', 'placeholder-3'), range(0, 0), range(2, 2), range(4, 4), range(5, 5),
            range(7, 7),
        ), 2, range(1, 4)),
        ('relabelling', (range(7, 7),), 4, range(4, 4)),
        ('relabelling', (range(7, 9), range(13, 13), range(14, 14), range(15, 15), range(16, 16)), 5, range(4, 6)),
    ]),
]


@pytest.mark.parametrize("family, n, moves", PINNED_MOVES)
def test_move_log_record_for_record(family, n, moves):
    """Every record of the move log: its runs, placeholder runs and relabelling ranges.

    Ranges compare as the labels they hold, so the reprs are compared too:
    they pin the start an emptied cell keeps and an end-correction run's direction.
    """
    report = pruning.prune_family(family, pruning.build_prefix(fam.tree_of(family), n))
    assert report.moves == moves
    assert list(map(repr, report.moves)) == list(map(repr, moves))


def test_front_deletion_takes_the_leaf_last_cell_before_the_parent():
    """An emptied cell's label comes from its leaf's last cell first, and only then from the parent.

    Both orders give the round trip here; taking from the parent first would
    delete label 7 from node 5 instead of label 14 from leaf node 6.
    """
    family = fam.HigherOrder(0, 2, 1, 2)
    report = pruning.prune_family(family, pruning.build_prefix(fam.tree_of(family), 18))
    last = [move for move in report.moves if move[0] == "deletion"][-1]
    assert last == ("deletion", (range(14, 15),), 6, None)


def test_order2_removed_formula():
    for s, j, m in [(0, 1, 0), (0, 1, 1), (1, 3, 1), (2, 4, 3), (0, 2, 2)]:
        f = fam.OrderOne(s, j, m)
        spec = fam.tree_of(f)
        for n in range(fam.prune_threshold(f), fam.prune_threshold(f) + 60):
            t = pruning.build_prefix(spec, n)
            report = pruning.prune_order2(t, f)
            assert report.removed == s + tree.cell_count(spec, n - j), (s, j, m, n)


def test_order2_refuses_small_trees():
    with pytest.raises(pruning.PruneRefused):
        pruning.prune_order2(pruning.build_prefix(RUNNING, 15), fam.OrderOne(1, 3, 1))
    with pytest.raises(ValueError):
        # parameters disagree with the spec the tree was built for
        pruning.prune_order2(pruning.build_prefix(RUNNING, 31), fam.OrderOne(0, 3, 1))


def test_orderp_removed_formula():
    f = fam.HigherOrder(0, 3, 2, 2)
    spec = fam.tree_of(f)
    for n in range(fam.prune_threshold(f), fam.prune_threshold(f) + 40):
        t = pruning.build_prefix(spec, n)
        report = pruning.prune_orderp(t, f)
        want = 0 + tree.cell_count(spec, n - 3) + tree.cell_count(spec, n - 9)
        assert report.removed == want, n
        assert pruning.trees_equal(report.result, pruning.build_prefix(spec, n - want))


def test_orderp_p1_equals_order2():
    """HigherOrder(s, j, m, 1) prunes like OrderOne(s, j, m), whose threshold is one lower.

    The two records have one tree and one offset row, so from the higher
    threshold on both prune to the same removed count, result, move log and
    anomalies (none), on s 0..3, j 1..4, m 0..j.
    """
    for f in [fam.OrderOne(s, j, m) for s in range(4) for j in range(1, 5) for m in range(j + 1)]:
        p1 = fam.HigherOrder(f.s, f.j, f.m, 1)
        spec, lo = fam.tree_of(f), fam.prune_threshold(f)
        assert fam.tree_of(p1) == spec and fam.recursion_of(p1) == fam.recursion_of(f), f
        assert fam.prune_threshold(p1) == lo + 1
        with pytest.raises(pruning.PruneRefused):
            pruning.prune_orderp(pruning.build_prefix(spec, lo), p1)
        for n in range(lo + 1, lo + 11):
            a = pruning.prune_order2(pruning.build_prefix(spec, n), f)
            b = pruning.prune_orderp(pruning.build_prefix(spec, n), p1)
            assert (a.removed, a.anomalies, a.moves) == (b.removed, b.anomalies, b.moves), (f, n)
            assert a.anomalies == [] and pruning.trees_equal(a.result, b.result), (f, n)


def test_superposed_removed_formula():
    f = fam.Superposed(0, 3, 3, 2)
    spec = fam.tree_of(f)
    t = pruning.build_prefix(spec, 82)
    report = pruning.prune_superposed(t, f)
    assert report.removed == tree.cell_count(spec, 77) + tree.cell_count(spec, 75)
    assert pruning.trees_equal(report.result, pruning.build_prefix(spec, 82 - report.removed))


def test_superposed_j1_collapses_offsets():
    f = fam.Superposed(1, 1, 2, 3)
    spec = fam.tree_of(f)
    for n in range(fam.prune_threshold(f), fam.prune_threshold(f) + 25):
        t = pruning.build_prefix(spec, n)
        report = pruning.prune_superposed(t, f)
        want = 1 + sum(tree.cell_count(spec, n - (2 * i - 1)) for i in (1, 2, 3))
        assert report.removed == want, n
        assert pruning.trees_equal(report.result, pruning.build_prefix(spec, n - want))


def test_superposed_exploratory_negative_m():
    """Below the full-shape bound the operation still runs but is flagged."""
    f = fam.Superposed(0, 4, -2, 9)
    spec = fam.tree_of(f)
    t = pruning.build_prefix(spec, 168)
    report = pruning.prune_superposed(t, f)
    assert any("full-shape bound" in note for note in report.anomalies)
    rebuilt = pruning.build_prefix(spec, 168 - report.removed)
    assert not pruning.trees_equal(report.result, rebuilt)


def test_superposed_full_shape_anomaly_fires_up_to_the_ic_length():
    """At an exploratory m < 0 point the anomaly fires at n = ic_length() and not one past it."""
    f = fam.Superposed(0, 2, -1, 2)
    bound = f.ic_length()
    assert fam.prune_threshold(f) < bound
    spec = fam.tree_of(f)

    def flagged(n):
        report = pruning.prune_superposed(pruning.build_prefix(spec, n), f)
        return [note for note in report.anomalies if "full-shape bound" in note]

    assert flagged(bound) == [f"n = {bound} is at or below the full-shape bound {bound}"]
    assert flagged(bound + 1) == []


def test_kary_removed_formula():
    for k, m, p in [(3, 0, 1), (3, 1, 2), (4, 3, 3), (5, 3, 4)]:
        f = fam.KaryOrderP(k, m, p)
        spec = fam.tree_of(f)
        for n in range(fam.prune_threshold(f), fam.prune_threshold(f) + 30):
            t = pruning.build_prefix(spec, n)
            report = pruning.prune_kary(t, f)
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
    assert pruning.left_leaf_correspondence(f, 31)
    assert pruning.left_leaf_correspondence(fam.Superposed(0, 3, 3, 2), 82)


def assert_log_replays(before: pruning.LabelledTree, report: pruning.PruneReport) -> None:
    """Replay the movement log on `before`, the tree that was pruned.

    Every label taken "from" a node ordinal must sit there at that moment;
    at the end every label is gone, and the survivors were renumbered
    1..result.n in order.
    """
    held = {ordinal: {label for cell in cells for label in cell} for ordinal, cells in enumerate(before.cells, 1)}
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
    verdict = f.check()
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
    # a report rebuilt from the same log columns gives the same records and per-label log
    again = pruning.PruneReport(report.removed, report.result, report.log, report.anomalies)
    assert again.moves == report.moves
    assert again.steps == steps


SPEC_GRID = [(1, 3, 1, 2, 2), (0, 1, 1, 3, 0), (2, 2, 2, 1, 1), (0, 4, 1, 1, 3)]  # (s, j, c, last, x)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("s, j, c, last, x", SPEC_GRID)
def test_leaf_runs_match_cell_positions(k, s, j, c, last, x):
    """build_prefix's leaf cells against the byte-template walk, which reads no node stream.

    tree.cell_positions gives each cell's first label; cell i, counted from
    0, is slot i % j + 1 of leaf i // j + 1, and its size is the spec's, cut
    at n.  Every nonempty leaf cell must be that run, starting at that first
    label, and every empty one, lying past n, must start at n + 1: pruning
    reads the opening labels off the starts.
    """
    spec = TreeSpec(k, s, j, c, last, x)
    sizes = spec.cell_sizes()
    for n in (1, 2, 7, 64, 999, 5000):
        t = pruning.build_prefix(spec, n)
        built = []
        for kind, index, cells in zip(t.kinds, t.indices, t.cells):
            if kind != tree.LEAF:
                continue
            for slot, cell in enumerate(cells, 1):
                if cell:
                    built.append((cell.start, index, slot, cell))
                else:
                    assert cell.start == n + 1, (index, slot)
        expected = [
            (first, i // j + 1, i % j + 1, range(first, first + min(sizes[i % j], n + 1 - first)))
            for i, first in enumerate(tree.cell_positions(spec, n))
        ]
        assert built == expected, (spec, n)


def block_edges(spec):
    """The first and last label of the first node_stream block of each kind, with a label either side.

    The kinds are the first supernode's family, a spine supernode, a regular
    root taller than the template, and a template copy.
    """
    capacity = {tree.LEAF: sum(spec.cell_sizes()), tree.SUPERNODE: spec.supernode_labels,
                tree.REGULAR: spec.regular_labels}
    first_of_kind, end = {}, 1
    for position, (block_kinds, _) in enumerate(tree.node_stream(spec.arity)):
        kind = ("family" if not position else "spine" if block_kinds == (tree.SUPERNODE,)
                else "root" if block_kinds == (tree.REGULAR,) else "template")
        labels = sum(map(capacity.__getitem__, block_kinds))
        first_of_kind.setdefault(kind, (end, end + labels - 1))
        if len(first_of_kind) == 4:
            break
        end += labels
    edges = chain.from_iterable(first_of_kind.values())
    return sorted({n for edge in edges for n in range(edge - 1, edge + 2) if n >= 1})


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("s, j, c, last, x", SPEC_GRID)
def test_build_prefix_fills_every_node_to_capacity(k, s, j, c, last, x):
    """Every cell of build_prefix, interior nodes included, against the spec alone.

    The nodes are the reference walk's, and the cells hold labels 1..n once each,
    in node order.  Every node but the last holds its kind's capacity: a
    leaf the spec's cell sizes, a supernode s labels and a regular node x,
    in one cell.  The last node holds label n, cut back from its capacity.
    Each cell starts where the one before it stopped, so an empty cell
    starts at the next label, which is n + 1 past n.  The n include a label
    either side of where each kind of node_stream block starts and ends, so
    the cut inside the block that holds n meets every kind of edge.
    """
    spec = TreeSpec(k, s, j, c, last, x)
    capacity = {tree.LEAF: spec.cell_sizes(), tree.SUPERNODE: (s,), tree.REGULAR: (x,)}
    trees = [pruning.build_prefix(spec, n) for n in sorted({1, 2, 3, 7, 64, 999, 20_000, *block_edges(spec)})]
    reference = list(islice(reference_node_stream(k), max(len(t.kinds) for t in trees)))
    for t in trees:
        n = t.n
        assert list(zip(t.kinds, t.indices)) == reference[:len(t.kinds)], (spec, n)
        assert len(t.indices) == len(t.cells) == len(t.kinds) and t.placeholders == 0
        sizes = [tuple(map(len, cells)) for cells in t.cells]
        assert sizes[:-1] == [capacity[kind] for kind in t.kinds[:-1]], (spec, n)
        full = capacity[t.kinds[-1]]
        assert len(sizes[-1]) == len(full) and all(map(int.__le__, sizes[-1], full)), (spec, n)
        assert any(n in cell for cell in t.cells[-1]), (spec, n)
        cells = list(chain.from_iterable(t.cells))
        assert list(chain.from_iterable(cells)) == list(range(1, n + 1)), (spec, n)
        assert [cell.start for cell in cells] == list(accumulate(map(len, cells[:-1]), initial=1)), (spec, n)


def test_movement_log_is_json_clean():
    import json

    t = pruning.build_prefix(RUNNING, 31)
    report = pruning.prune_order2(t, fam.OrderOne(1, 3, 1))
    text = json.dumps(report.steps)
    assert "initial correction" in text and "relabelling" in text


# -- stamped deletion against the leaf-by-leaf reference ----------------------

SIDES = {pruning._take_fronts: "front", pruning._take_backs: "back"}


def reference_step(t, leaves, row, take, fill, log, anomalies):
    """pruning._delete's signature over the leaf-by-leaf reference."""
    reference_delete(t, leaves, row, SIDES[take], log, anomalies)


def deletion_outcome(monkeypatch, family, n, delete):
    """Prune T(n) with `delete` as the deletion step: what the step leaves behind, and the whole report.

    The step's part is the log's record count, the anomalies, the placeholders and
    the cells' reprs; the report's is the moves' reprs, the anomalies and the result.
    """
    after = []

    def step(t, leaves, row, take, fill, log, anomalies):
        delete(t, leaves, row, take, fill, log, anomalies)
        after.append((len(log.steps), list(anomalies), t.placeholders, repr(t.cells)))

    monkeypatch.setattr(pruning, "_delete", step)
    try:
        report = pruning.prune_family(family, pruning.build_prefix(fam.tree_of(family), n))
    except pruning.PruneRefused as err:
        return f"refused: {err}"
    finally:
        monkeypatch.undo()
    return after, list(map(repr, report.moves)), report.anomalies, repr(report.result), report.removed


def assert_matches_reference(monkeypatch, family, n):
    stamped = deletion_outcome(monkeypatch, family, n, pruning._delete)
    assert stamped == deletion_outcome(monkeypatch, family, n, reference_step), (family, n)


DRIVEN = ["order_one", "higher_order", "superposed"]  # the operations whose deletion pruning._delete runs


@pytest.mark.parametrize("name", DRIVEN)
def test_stamped_deletion_matches_the_reference_on_the_prune_grid(monkeypatch, name):
    """Every in-range point of the differential prune grid, from one below its threshold to 11 past it."""
    for family in [point for point in prune_points() if point.name == name]:
        threshold = fam.prune_threshold(family)
        for n in range(threshold - 1, threshold + 12):
            assert_matches_reference(monkeypatch, family, n)


@pytest.mark.parametrize("name", DRIVEN)
def test_stamped_deletion_matches_the_reference_on_large_trees(monkeypatch, name):
    rng = random.Random(f"stamp:{name}")
    points = [point for point in prune_points() if point.name == name]
    for family in rng.sample(points, 2):
        assert_matches_reference(monkeypatch, family, rng.randint(10_000, 60_000))


def last_cell_opens_at_reach(family, leaf):
    """The n at which the last cell of the leaf with that index opens at n - max b, the deepest pass's reach."""
    spec = fam.tree_of(family)
    t = pruning.build_prefix(spec, 100 * leaf)
    ordinal, _ = pruning._leaves(t)[leaf - 1]
    reach = max(fam.recursion_of(family).inner_offsets[0])
    return t.cells[ordinal - 1][0].start + pruning._cell_offsets(spec)[-1] + reach


def whole_open_cells(spec, row, n):
    """T(n)'s leaves that every pass opens whole, as their cells, and the cells of the first leaf after them."""
    t = pruning.build_prefix(spec, n)
    cells = [t.cells[ordinal - 1] for ordinal, _ in pruning._leaves(t)]
    stamped = pruning._whole_open(t, [leaf[0].start for leaf in cells], row)
    return cells[:stamped], cells[stamped:stamped + 1]


def stamp_size(family, n):
    whole, _ = whole_open_cells(fam.tree_of(family), fam.recursion_of(family).inner_offsets[0], n)
    return len(whole)


@pytest.mark.parametrize("family", [fam.HigherOrder(0, 2, 4, 2), fam.Superposed(1, 2, 2, 2), fam.HigherOrder(0, 2, 1, 2),
                                    fam.OrderOne(1, 3, 1)])
def test_stamp_ends_at_the_leaf_whose_last_cell_opens_at_n_minus_max_b(monkeypatch, family):
    """Leaf 20 is the last stamped leaf when its last cell opens at n - max b, and takes the rule one label later."""
    n = last_cell_opens_at_reach(family, 20)
    assert stamp_size(family, n) == 20 and stamp_size(family, n - 1) == 19
    for at in (n, n - 1):
        assert_matches_reference(monkeypatch, family, at)


@pytest.mark.parametrize("name", DRIVEN)
def test_whole_open_leaves_end_at_or_below_n(name):
    """A whole-open leaf of order one, order p or superposed, m < 0 included, is full and ends at or below n.

    Its last cell opens at or below n - max b and holds at most max b + 1
    labels on every in-range point, so the build's cut at n never reaches it.
    """
    for family in [point for point in prune_points() if point.name == name]:
        spec, row = fam.tree_of(family), fam.recursion_of(family).inner_offsets[0]
        assert spec.cell_sizes()[-1] <= max(row) + 1, family
        threshold = fam.prune_threshold(family)
        for n in range(threshold - 1, threshold + 40):
            whole, _ = whole_open_cells(spec, row, n)
            for cells in whole:
                assert tuple(map(len, cells)) == spec.cell_sizes() and cells[-1].stop <= n + 1, (family, n)


def run_directly(delete, t, row, take, fill):
    """One deletion step run on t by itself: its moves' reprs, anomalies, placeholders and cells' reprs."""
    log, anomalies = pruning._MoveLog(), []
    delete(t, pruning._leaves(t), row, take, fill, log, anomalies)
    return repr(pruning.PruneReport(0, t, log, anomalies).moves), anomalies, t.placeholders, repr(t.cells)


@pytest.mark.parametrize("family", [fam.HigherOrder(0, 2, 4, 2), fam.Superposed(0, 1, 0, 2), fam.OrderOne(1, 3, 1)])
def test_fewer_than_two_whole_open_leaves(family):
    """Trees too small to prune, run through _delete and the reference directly: no leaf or leaf 1 alone whole-open.

    With none whole-open, leaf 1 forms a group alone.
    """
    spec, row = fam.tree_of(family), fam.recursion_of(family).inner_offsets[0]
    back = family.name == "superposed"
    take, fill = (pruning._take_backs, pruning._fill_back) if back else (pruning._take_fronts, pruning._fill_front)
    sizes = set()
    for n in range(3, fam.prune_threshold(family) + 1):
        if len(pruning.build_prefix(spec, n).kinds) < 2:
            continue
        outcomes = []
        for delete in (pruning._delete, reference_step):
            t = pruning.build_prefix(spec, n)
            t.placeholders = spec.regular_labels
            outcomes.append(run_directly(delete, t, row, take, fill))
        assert outcomes[0] == outcomes[1], (family, n)
        sizes.add(min(stamp_size(family, n), 2))
    assert sizes >= {0, 1}


@pytest.mark.parametrize("family, n", [(fam.HigherOrder(0, 2, 1, 2), 300), (fam.HigherOrder(0, 1, 0, 3), 300),
                                       (fam.HigherOrder(1, 2, 0, 2), 2000)])
def test_model_leaf_that_needs_its_parent_or_a_placeholder(monkeypatch, family, n):
    """Leaf 1 asks for a fill, so every stamped leaf's slot is filled from its parent or a placeholder, in leaf order."""
    spec, row = fam.tree_of(family), fam.recursion_of(family).inner_offsets[0]
    cells, outside = pruning.build_prefix(spec, n).cells[0], []
    for _ in row:
        blocks, cells = pruning._take_fronts(cells, spec.leaf_cells)
        outside.append(int in map(type, blocks))
    stamped = stamp_size(family, n)
    assert any(outside) and stamped >= 20
    assert_matches_reference(monkeypatch, family, n)
    t = pruning.build_prefix(spec, n)
    interior = [kind != tree.LEAF for kind in t.kinds]
    report = pruning.prune_family(family, t)
    filled = [move for move in report.moves if move[0] == "deletion" and interior[move[2] - 1]]
    assert len(filled) >= stamped


def fills_over_all_passes(family):
    """How many of a whole-open leaf's slots its parent fills over all passes: the model leaf's fills."""
    spec, row = fam.tree_of(family), fam.recursion_of(family).inner_offsets[0]
    cells, fills = pruning.build_prefix(spec, sum(spec.cell_sizes())).cells[0], 0
    for _ in row:
        blocks, cells = pruning._take_fronts(cells, spec.leaf_cells)
        fills += sum(type(block) is int for block in blocks)
    return fills


def test_regular_parent_outlasts_its_leaves_fills():
    """Where leaves need fills, a regular parent holds at least k F + 1 labels, F a leaf's fills over all passes.

    _fill_front serves a leaf of a regular parent from that parent's front,
    and only node 2 has placeholders to fall back on.  A regular parent's
    k leaves take at most k F of its labels, so it never runs out, and
    the "nothing left to delete" anomaly never comes from a regular parent.
    Checked on the digest's higher_order prune grid and on p 1..4, j 1..4,
    s 0..3 with every m.  The slack, x - k F, is j + m, so it is least, 1,
    at m = 0, j = 1.
    """
    grid = [fam.HigherOrder(s, j, m, p) for p in range(1, 5) for j in range(1, 5) for s in range(4)
            for m in range((2 * p - 1) * j + 1)]
    for family in grid + [point for point in prune_points() if point.name == "higher_order"]:
        spec, fills = fam.tree_of(family), fills_over_all_passes(family)
        if fills:
            assert spec.regular_labels >= spec.arity * fills + 1, (family, fills)
            assert spec.regular_labels - spec.arity * fills == family.j + family.m, (family, fills)
    assert len(grid) == 704 and sum(map(bool, map(fills_over_all_passes, grid))) == 240

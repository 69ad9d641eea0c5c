from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from nestrec import families as fam
from nestrec import frequency, recursion, tree
from nestrec.tree import LEAF, REGULAR, SUPERNODE, TreeSpec


RUNNING = TreeSpec(2, 1, 3, 1, 2, 2)


def brute_nu(k: int, h: int) -> int:
    count = 0
    while h % k == 0:
        h //= k
        count += 1
    return count


def test_spec_validation():
    with pytest.raises(ValueError):
        TreeSpec(1, 0, 1, 1, 1, 0)
    with pytest.raises(ValueError):
        TreeSpec(2, 0, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        TreeSpec(2, 0, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        TreeSpec(2, -1, 1, 1, 1, 0)


def test_cell_sizes():
    assert RUNNING.cell_sizes() == (1, 1, 2)
    assert RUNNING.leaf_labels() == 4
    assert TreeSpec(2, 0, 1, 1, 3, 0).cell_sizes() == (3,)


def test_node_order_prefix():
    """First nodes: leaf, supernode, leaf, supernode, regular, two leaves."""
    kinds = list(islice(tree.node_stream(2), 8))
    assert kinds == [
        (LEAF, 1),
        (SUPERNODE, 1),
        (LEAF, 2),
        (SUPERNODE, 2),
        (REGULAR, 1),
        (LEAF, 3),
        (LEAF, 4),
        (SUPERNODE, 3),
    ]


@pytest.mark.parametrize("k,spine", [(2, 12), (3, 8), (4, 6), (5, 5)])
def test_supernode_follows_leaf_power(k, spine):
    """The i-th supernode comes right after leaf k^(i-1)."""
    leaf_seen = 0
    super_seen = 0
    last_leaf_at_super = {}
    for kind, idx in tree.node_stream(k):
        if kind == LEAF:
            leaf_seen = idx
        elif kind == SUPERNODE:
            super_seen = idx
            last_leaf_at_super[idx] = leaf_seen
            if idx == spine:
                break
    assert super_seen == spine
    for i, leaf in last_leaf_at_super.items():
        assert leaf == k ** (i - 1)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_regulars_between_leaves(k):
    """Regular count between consecutive leaves is the k-adic valuation."""
    for h in range(1, 2001):
        assert frequency.nu(k, h) == brute_nu(k, h)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_regulars_in_stream_match(k):
    run = 0
    prev_leaf = 0
    count = 0
    for kind, idx in tree.node_stream(k):
        if kind == REGULAR:
            run += 1
        elif kind == LEAF:
            if prev_leaf:
                assert run == brute_nu(k, prev_leaf), prev_leaf
            prev_leaf = idx
            run = 0
            count += 1
            if count > 700:
                break
        else:
            assert run == 0, "supernode interrupts a regular run"


def test_running_example_counts():
    assert tree.cell_count(RUNNING, 16) == 9
    assert tree.cell_count(RUNNING, 31) == 17
    assert tree.cell_count(RUNNING, 28) == 15


def test_running_example_initial_conditions():
    assert tree.initial_conditions(RUNNING, 9) == [1, 2, 3, 3, 3, 4, 5, 6, 6]


def test_count_sequence_matches_pointwise():
    seq = tree.cell_count_sequence(RUNNING, 600)
    for n in (1, 5, 16, 31, 100, 355, 600):
        assert seq[n - 1] == tree.cell_count(RUNNING, n)


def test_cell_positions_are_label_sorted():
    positions = [first for first, _, _ in tree.cell_positions(RUNNING, 4000)]
    assert positions == sorted(positions)
    assert len(positions) == tree.cell_count(RUNNING, 4000)


@settings(max_examples=60)
@given(
    st.integers(2, 5),
    st.integers(0, 3),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(0, 1500),
)
def test_cell_positions_match_node_stream(k, s, j, c, last, x, n):
    """The byte-template walk against cells rebuilt node by node from node_stream."""
    spec = TreeSpec(k, s, j, c, last, x)
    expected = []
    pos = 0
    for kind, index in tree.node_stream(k):
        if pos >= n:
            break
        if kind == LEAF:
            for cell, size in enumerate(spec.cell_sizes(), 1):
                if pos < n:
                    expected.append((pos + 1, index, cell))
                pos += size
        else:
            pos += s if kind == SUPERNODE else x
    assert list(tree.cell_positions(spec, n)) == expected


@settings(max_examples=60)
@given(
    st.integers(2, 4),
    st.integers(0, 2),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(1, 800),
)
def test_count_is_slow(k, s, j, c, last, x, n):
    """Cell counts climb by 0 or 1 per label, and the closed form matches the walk."""
    spec = TreeSpec(k, s, j, c, last, x)
    seq = tree.cell_count_sequence(spec, n)
    assert len(seq) == n
    prev = 0
    for value in seq:
        assert value - prev in (0, 1)
        prev = value
    assert tree.cell_count(spec, 0) == 0
    for i in range(1, n + 1):
        assert tree.cell_count(spec, i) == seq[i - 1], i


HUGE_SEED = 20131
HUGE = 10**18


def test_closed_form_count_at_huge_n():
    """Cell boundaries, slowness and the recursion identity far beyond any walk."""
    print(f"seed = {HUGE_SEED}")
    rng = random.Random(HUGE_SEED)
    for spec in (RUNNING, TreeSpec(3, 2, 2, 1, 3, 1), TreeSpec(4, 0, 1, 2, 1, 0)):
        for _ in range(40):
            v = rng.randint(2, 10**17)
            first = tree.first_label(spec, v)
            assert tree.cell_count(spec, first) == v, (HUGE_SEED, spec, v)
            assert tree.cell_count(spec, first - 1) == v - 1, (HUGE_SEED, spec, v)
            n = rng.randint(1, HUGE)
            assert tree.cell_count(spec, n + 1) - tree.cell_count(spec, n) in (0, 1), (HUGE_SEED, spec, n)
    for family in (fam.OrderOne(1, 3, 1), fam.HigherOrder(1, 2, 3, 2), fam.Superposed(1, 2, 2, 2),
                   fam.KaryOrderP(3, 1, 2), fam.kary_ceiling(3, 2)):
        spec = fam.tree_of(family)
        rspec = fam.recursion_of(family)

        def count(n):
            return tree.cell_count(spec, n)

        for _ in range(50):
            n = rng.randint(fam.ic_length(family) + 1, HUGE)
            assert count(n) == recursion.right_side(rspec, count, n), (HUGE_SEED, family, n)


def test_split_counts_sum():
    for n in (1, 7, 16, 31, 64, 200, 999):
        split = tree.cell_count_split(RUNNING, n)
        assert sum(split) == tree.cell_count(RUNNING, n)


def test_split_shift_identity():
    """Right-subtree counts lag the left by the full-leaf label weight."""
    spec = TreeSpec(2, 0, 3, 1, 2, 2)  # j + m = 4 labels per leaf
    for n in range(5, 400):
        left, right = tree.cell_count_split(spec, n)
        shifted, _ = tree.cell_count_split(spec, n - 4)
        assert right == shifted


def test_document_round_trip():
    doc = tree.to_document(RUNNING)
    assert tree.from_document(doc) == RUNNING
    assert doc["k"] == 2 and doc["j"] == 3

from __future__ import annotations

import random
from itertools import accumulate, islice

import pytest
from hypothesis import example, given, settings, strategies as st

from nestrec import families as fam
from nestrec import frequency, recursion, tree
from nestrec.tree import LEAF, REGULAR, SUPERNODE, TreeSpec
from node_oracle import first_label, flat_node_stream, reference_node_stream, searched_count, walking_split


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
    assert TreeSpec(2, 0, 1, 1, 3, 0).cell_sizes() == (3,)


def test_node_order_prefix():
    """First nodes: leaf, supernode, leaf, supernode, regular, two leaves."""
    want = [
        (LEAF, 1),
        (SUPERNODE, 1),
        (LEAF, 2),
        (SUPERNODE, 2),
        (REGULAR, 1),
        (LEAF, 3),
        (LEAF, 4),
        (SUPERNODE, 3),
    ]
    assert list(islice(reference_node_stream(2), 8)) == want
    assert list(islice(flat_node_stream(2), 8)) == want
    with pytest.raises(ValueError, match="arity must be at least 2"):
        next(tree.node_stream(1))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_node_stream_blocks_flatten_to_the_reference_walk(k):
    """The column blocks, read pair by pair, are the node-by-node walk for 60,000 nodes."""
    assert list(islice(flat_node_stream(k), 60_000)) == list(islice(reference_node_stream(k), 60_000))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 40, 1100])
def test_node_stream_template_blocks_fit(k):
    """Every block after the head holds at most _BLOCK nodes, and the largest regular subtree that fits is one block.

    A subtree of height h holds (k^(h+1) - 1) / (k - 1) nodes; the head is
    leaf 1, supernode 1 and leaves 2..k.
    """
    blocks = tree.node_stream(k)
    head = next(blocks)
    assert head == ((LEAF, SUPERNODE, *(LEAF,) * (k - 1)), (1, 1, *range(2, k + 1)))
    sizes, nodes = [], 0
    for kinds, indices in blocks:
        assert len(kinds) == len(indices)
        sizes.append(len(kinds))
        nodes += len(kinds)
        if nodes > 60_000:
            break
    subtree = [(k ** (h + 1) - 1) // (k - 1) for h in range(12)]
    assert max(sizes) == max(size for size in subtree if size <= tree._BLOCK)


@pytest.mark.parametrize("k,spine", [(2, 12), (3, 8), (4, 6), (5, 5)])
def test_supernode_follows_leaf_power(k, spine):
    """The i-th supernode comes right after leaf k^(i-1)."""
    leaf_seen = 0
    super_seen = 0
    last_leaf_at_super = {}
    for kind, idx in reference_node_stream(k):
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
    for kind, idx in reference_node_stream(k):
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


@settings(max_examples=40)
@given(
    st.integers(2, 5),
    st.integers(0, 3),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(-3, 3000),
)
@example(2, 1, 3, 1, 2, 2, -3)
@example(3, 0, 1, 1, 1, 0, -1)
@example(2, 1, 3, 1, 2, 2, 0)
@example(2, 1, 3, 1, 2, 2, 21)
@example(2, 1, 3, 1, 2, 2, 22)
def test_cell_starts_sum_to_closed_form(k, s, j, c, last, x, n):
    """One byte per label, whose running sum is the descent's count; nothing for n <= 0.

    For the running example, n = 21 ends supernode 3's chunk and n = 22 is
    the first label of the height-2 subtree's chunk after it.
    """
    spec = TreeSpec(k, s, j, c, last, x)
    starts = tree.cell_starts(spec, n)
    assert len(starts) == max(n, 0)
    assert list(accumulate(starts)) == [tree.cell_count(spec, i) for i in range(1, n + 1)]


def test_first_bytes_reads_no_chunk_past_byte_n_and_closes_the_stream():
    """Cut inside a chunk, at a seam and one past it; the chunk after the one holding byte n is never asked for,
    and the generator is closed, freeing what it holds."""
    def chunks():
        yield b"ab"
        yield b"cde"
        raise AssertionError("a chunk past byte n was read")

    for n, want in ((-1, b""), (0, b""), (1, b"a"), (2, b"ab"), (3, b"abc"), (5, b"abcde")):
        stream = chunks()
        assert tree.first_bytes(stream, n) == want
        assert stream.gi_frame is None


def test_cell_positions_are_label_sorted():
    positions = list(tree.cell_positions(RUNNING, 4000))
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
    """The byte-template walk against cells rebuilt node by node from the reference walk.

    Cell i, counted from 0, is numbered leaf i // j + 1 and slot i % j + 1.
    """
    spec = TreeSpec(k, s, j, c, last, x)
    expected = []
    pos = 0
    for kind, index in reference_node_stream(k):
        if pos >= n:
            break
        if kind == LEAF:
            for cell, size in enumerate(spec.cell_sizes(), 1):
                if pos < n:
                    expected.append((pos + 1, index, cell))
                pos += size
        else:
            pos += s if kind == SUPERNODE else x
    cells = [(first, i // j + 1, i % j + 1) for i, first in enumerate(tree.cell_positions(spec, n))]
    assert cells == expected


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
    """Cell counts climb by 0 or 1 per label, and the descent matches the walk."""
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
            first = first_label(spec, v)
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
            n = rng.randint(family.ic_length() + 1, HUGE)
            assert count(n) == recursion.right_side(rspec, count, n), (HUGE_SEED, family, n)


# k, s, j, per cell, last cell, per regular node: 324 trees
DESCENT_SPECS = [TreeSpec(k, s, j, c, last, x) for k in (2, 3, 5) for s in (0, 1, 3) for j in (1, 2, 3)
                 for c in (1, 2) for last in (1, 3) for x in (0, 1, 4)]
DESCENT_SEED, DESCENT_N = 2026, 500


def test_descent_matches_walk_and_legendre_count():
    """The descent against the byte walk at every n <= DESCENT_N, and the Legendre count at seeded n <= 10^18."""
    print(f"seed = {DESCENT_SEED}")
    rng = random.Random(DESCENT_SEED)
    for spec in DESCENT_SPECS:
        walk = [0, *tree.cell_count_sequence(spec, DESCENT_N)]
        assert [tree.cell_count(spec, n) for n in range(DESCENT_N + 1)] == walk, spec
        for n in (rng.randint(DESCENT_N, HUGE) for _ in range(5)):
            assert tree.cell_count(spec, n) == searched_count(spec, n), (DESCENT_SEED, spec, n)
    with pytest.raises(ValueError):
        tree.cell_count(RUNNING, -1)


def test_split_matches_walking_split():
    """The closed split against the walk that files each cell under its leaf's child position."""
    for spec in DESCENT_SPECS[::3]:
        for n in range(0, 300, 3):
            assert tree.cell_count_split(spec, n) == walking_split(spec, n), (spec, n)
    with pytest.raises(ValueError):
        tree.cell_count_split(RUNNING, -1)


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


def lemma_points() -> list[fam.Family]:
    """The in-range catalog points of five records: 223 of them."""
    points = [fam.OrderOne(s, j, m) for s in range(3) for j in range(1, 4) for m in range(4)]
    points += [record(s, j, m, p) for record in (fam.HigherOrder, fam.Superposed)
               for s in range(3) for j in range(1, 4) for m in range(4) for p in (2, 3)]
    points += [fam.KaryOrderP(k, m, p) for k in range(2, 6) for m in range(4) for p in range(1, 4)]
    points += [fam.CSJK(s, j, k) for k in range(2, 6) for s in range(3) for j in range(1, 4)]
    return [point for point in points if point.check().ok]


LEMMA_SEED = 29


def test_summand_counts_leaves_at_its_child_position():
    """Summand i of the recursion counts the cells of the leaves at child position i.

    Each record lists its outer offsets a_i strictly increasing, and summand i
    in that order is child position i: split_i(n) = C_T(n - a_i - sum_t
    C_T(n - b_it)), just past the initial conditions and at seeded n <= 10^18.
    """
    print(f"seed = {LEMMA_SEED}")
    rng = random.Random(LEMMA_SEED)
    points = lemma_points()
    assert len(points) == 223
    for family in points:
        spec, rspec = fam.tree_of(family), fam.recursion_of(family)
        outer = rspec.outer_offsets
        assert list(outer) == sorted(set(outer)), family
        start = family.ic_length() + 1
        for n in [*range(start, start + 40), *(rng.randint(start, HUGE) for _ in range(4))]:
            summands = tuple(tree.cell_count(spec, n - a - sum(tree.cell_count(spec, n - b) for b in row))
                             for a, row in zip(outer, rspec.inner_offsets))
            assert tree.cell_count_split(spec, n) == summands, (LEMMA_SEED, family, n)


def test_document_round_trip():
    doc = {"k": 2, "s": 1, "j": 3, "per_cell": 1, "last_cell": 2, "regular": 2}
    assert tree.from_document(doc) == RUNNING

from __future__ import annotations

from itertools import chain, islice

import pytest
from hypothesis import given, settings, strategies as st

from nestrec import families as fam
from nestrec import frequency as freq
from nestrec import recursion, tree
from nestrec.tree import TreeSpec
from node_oracle import first_label


RUNNING = TreeSpec(2, 1, 3, 1, 2, 2)


def test_nu():
    assert freq.nu(2, 1) == 0
    assert freq.nu(2, 8) == 3
    assert freq.nu(2, 12) == 2
    assert freq.nu(3, 54) == 3
    assert freq.nu(5, 7) == 0
    with pytest.raises(ValueError):
        freq.nu(2, 0)


def test_closed_form_running_example():
    values = [freq.closed_form(RUNNING, v) for v in range(1, 7)]
    assert values == [1, 1, 3, 1, 1, 5]
    with pytest.raises(ValueError, match="v must be positive"):
        freq.closed_form(RUNNING, 0)
    # v=3 is the first leaf-closing value: last cell 2 plus the supernode bonus
    assert freq.closed_form(RUNNING, 3) == 2 + 0 + 1
    assert freq.closed_form(RUNNING, 6) == 2 + 2 * 1 + 1
    assert freq.closed_form(RUNNING, 9) == 2 + 0 + 0
    assert freq.closed_form(RUNNING, 12) == 2 + 2 * 2 + 1


def test_closed_form_sequence_matches_pointwise():
    seq = freq.closed_form_sequence(RUNNING, 50)
    assert seq.vmax == 50
    for v in range(1, 51):
        assert seq[v] == freq.closed_form(RUNNING, v)


def test_sequence_index_is_one_based_and_bounded():
    """seq[v] is phi(v) for 1 <= v <= vmax; outside that it raises, rather than wrapping at v <= 0."""
    seq = freq.closed_form_sequence(RUNNING, 6)
    assert seq.entries == (1, 1, 3, 1, 1, 5)
    assert (seq[1], seq[6]) == (1, 5)
    for v in (0, -1, 7):
        with pytest.raises(KeyError):
            seq[v]
    assert freq.closed_form_sequence(RUNNING, 0).entries == ()
    assert freq.closed_form_sequence(RUNNING, -2).entries == ()


def test_empirical_matches_closed_form_running_example():
    report = freq.empirical_matches_closed_form(RUNNING, 30000)
    assert report.agree, report


def period(spec):
    """P = j * k^h, the smallest such block length of at least 1024."""
    p = spec.leaf_cells
    while p < 1024:
        p *= spec.arity
    return p


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(0, 3), st.integers(1, 6), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 3))
def test_phi_stream_matches_closed_form(k, s, j, c, last, x):
    """Three period blocks and a bit: every block end, and for k <= 3 the power of k past k^h."""
    spec = TreeSpec(k, s, j, c, last, x)
    vmax = 3 * period(spec) + 5
    want = [freq.closed_form(spec, v) for v in range(1, vmax + 1)]
    assert list(islice(chain.from_iterable(freq._phi_blocks(spec, freq._entry, [])), vmax)) == want
    assert freq.closed_form_sequence(spec, vmax).entries == tuple(want)


def test_phi_blocks_call_closed_form_only_at_block_ends(monkeypatch):
    """The first period and the interior block come from the ruler lists; closed_form gives each block end."""
    calls = []
    true_phi = freq.closed_form
    monkeypatch.setattr(freq, "closed_form", lambda spec, v: calls.append(v) or true_phi(spec, v))
    p = period(RUNNING)
    blocks = list(islice(freq._phi_blocks(RUNNING, freq._entry, []), 5))
    assert list(map(len, blocks)) == [p, p - 1, 1, p - 1, 1]
    assert calls == [2 * p, 3 * p]



@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 3), st.integers(1, 4), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 4), st.data())
def test_phi_starts_is_the_run_string_and_the_tree(k, s, j, c, last, x, data):
    """phi_starts against the closed form's runs joined value by value, and against the tree's cell starts.

    n sits at 0, 1, the first period P and its labels L on either side,
    and three to five periods out, past the block ends 2P and 3P.
    """
    spec = TreeSpec(k, s, j, c, last, x)
    p = period(spec)
    labels = sum(freq.closed_form(spec, v) for v in range(1, p + 1))
    n = data.draw(st.sampled_from([0, 1, p - 1, p, p + 1, labels - 1, labels, labels + 1])
                  | st.integers(3 * labels, 5 * labels), label="n")
    starts = freq.phi_starts(spec, n)
    runs = b"".join(b"\1" + bytes(f - 1) for f in freq.closed_form_sequence(spec, n).entries)
    assert starts == runs[:n]
    assert starts == tree.cell_starts(spec, n)

@pytest.mark.parametrize("spec", [RUNNING, TreeSpec(5, 2, 1, 3, 1, 2), TreeSpec(3, 0, 4, 2, 5, 1),
                                  TreeSpec(2, 1, 1500, 1, 2, 3)])
def test_closed_form_sequence_at_block_edges(spec):
    """vmax at and around a leaf's last cell and the first period's end; j = 1500 needs no ruler round."""
    j, p = spec.leaf_cells, period(spec)
    for vmax in (0, 1, j - 1, j, p - 1, p, p + 1):
        want = tuple(freq.closed_form(spec, v) for v in range(1, vmax + 1))
        assert freq.closed_form_sequence(spec, vmax).entries == want


@pytest.mark.parametrize("where", ["first value", "first block", "first period end", "first interior value",
                                   "interior", "block end", "after a block end", "partial last chunk"])
def test_stream_check_reports_first_difference(where, monkeypatch):
    """A phi block off by one at v gives the report the per-cell loop gave: v, observed, expected.

    The walk is read one chunk per phi block, so v also sits at each seam:
    the first period's end P, the first interior value P + 1, the value
    2P + 1 after a block end, and the walk's last gap, inside a chunk that
    the walk ends before filling.
    """
    p = period(RUNNING)  # 1536
    last = tree.cell_count(RUNNING, 20000) - 1  # the last gap that completes by label 20000
    assert 6 * p < last < 7 * p - 1  # inside the interior block 6P + 1..7P - 1
    bad = {"first value": 1, "first block": 600, "first period end": p, "first interior value": p + 1,
           "interior": p + 9, "block end": 2 * p, "after a block end": 2 * p + 1, "partial last chunk": last}[where]
    true_blocks = freq._phi_blocks

    def off_by_one(spec, unit, empty):
        start = 1
        for block in true_blocks(spec, unit, empty):
            if start <= bad < start + len(block):
                block = list(block)
                block[bad - start] += 1
            start += len(block)
            yield block

    monkeypatch.setattr(freq, "_phi_blocks", off_by_one)
    report = freq.empirical_matches_closed_form(RUNNING, 20000)
    phi = freq.closed_form(RUNNING, bad)
    assert (report.agree, report.first_diff, report.left, report.right) == (False, bad, phi, phi + 1)


def per_cell_frequency(spec, n_max):
    """The per-cell loop empirical_frequency used to run: gaps between successive first labels."""
    firsts = list(tree.cell_positions(spec, n_max))
    return tuple(firsts[v] - firsts[v - 1] for v in range(1, len(firsts)))


@pytest.mark.parametrize("spec", [RUNNING, fam.tree_of(fam.KaryOrderP(4, 2, 3)), TreeSpec(4, 2, 2, 1, 3, 1)])
def test_empirical_frequency_matches_per_cell_gaps(spec):
    # one label into leaf 3's last cell, which holds last_cell >= 2 labels
    inside_last_cell = first_label(spec, 3 * spec.leaf_cells)
    assert spec.last_cell >= 2
    for n_max in (0, 1, 2, inside_last_cell, 20000):
        assert freq.empirical_frequency(spec, n_max).entries == per_cell_frequency(spec, n_max)
        # down to no label at all, where no gap completes
        assert freq.empirical_matches_closed_form(spec, n_max).agree


def test_empirical_equals_count_sequence_diffs():
    emp = freq.empirical_frequency(RUNNING, 5000)
    counts = tree.cell_count_sequence(RUNNING, 5000)
    violation, steps = recursion.slow_steps(counts)
    assert violation is None
    by_value = freq.from_steps(steps)
    for v in range(1, min(emp.vmax, by_value.vmax) + 1):
        assert emp[v] == by_value[v]


def test_last_occurrence_identity():
    """The label where value v closes equals the running sum of frequencies."""
    counts = tree.cell_count_sequence(RUNNING, 3000)
    total = 0
    for v in range(1, 40):
        total += freq.closed_form(RUNNING, v)
        assert counts[total - 1] == v
        if total < len(counts):
            assert counts[total] == v + 1


def test_compare_reports_first_difference():
    a = freq.FrequencySequence((1, 2, 1))
    b = freq.FrequencySequence((1, 3, 1))
    report = freq.compare(a, b, 3)
    assert not report.agree
    assert report.first_diff == 2 and (report.left, report.right) == (2, 3)
    assert freq.compare(a, b, 1).agree
    assert freq.compare(a, b, 2).first_diff == 2
    with pytest.raises(ValueError):
        freq.compare(a, b, 5)


def test_superpose_pair():
    a = TreeSpec(2, 0, 1, 1, 1, 3)
    b = TreeSpec(2, 0, 1, 4, 4, 0)
    combo = freq.superpose([(1, a), (1, b)])
    assert combo == TreeSpec(2, 0, 1, 5, 5, 3)
    with pytest.raises(ValueError):
        freq.superpose([])
    with pytest.raises(ValueError):
        freq.superpose([(0, a)])
    with pytest.raises(ValueError):
        freq.superpose([(1, a), (1, TreeSpec(3, 0, 1, 1, 1, 0))])
    with pytest.raises(ValueError):
        freq.superpose([(1, a), (1, TreeSpec(2, 0, 2, 1, 1, 0))])


@settings(max_examples=100)
@given(
    st.integers(2, 4),
    st.integers(1, 3),
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(1, 3),
                  st.integers(1, 4), st.integers(0, 3)),
        min_size=1, max_size=4,
    ),
    st.integers(1, 80),
)
def test_superpose_is_additive(k, j, parts, v):
    """Closed-form frequency of the overlay is the weighted component sum."""
    components = [(mult, TreeSpec(k, s, j, c, last, x)) for mult, s, c, last, x in parts]
    combined = freq.superpose(components)
    want = sum(mult * freq.closed_form(spec, v) for mult, spec in components)
    assert freq.closed_form(combined, v) == want


def test_mixture_identity():
    """At s=0 and m a multiple of j, the overlay splits into the two classics."""
    for j in (1, 2, 3):
        for p in (1, 2, 3):
            for b in range(p + 1):
                spec = fam.tree_of(fam.Superposed(0, j, b * j, p))
                h = fam.tree_of(fam.OrderOne(0, j, j))
                r = fam.tree_of(fam.OrderOne(0, j, 0))
                for v in range(1, 120):
                    assert freq.closed_form(spec, v) == (
                        b * freq.closed_form(h, v) + (p - b) * freq.closed_form(r, v)
                    )


def test_mixture_fails_for_the_other_construction():
    """The deeper-nesting tree is not a plain overlay of the classics."""
    spec = fam.tree_of(fam.HigherOrder(0, 3, 6, 2))
    h = fam.tree_of(fam.OrderOne(0, 3, 3))
    c = fam.tree_of(fam.OrderOne(0, 3, 0))
    diffs = [v for v in range(1, 101)
             if freq.closed_form(spec, v) != freq.closed_form(h, v) + freq.closed_form(c, v)]
    assert diffs
    assert diffs[0] == 1


def test_linear_combination():
    a = freq.closed_form_sequence(fam.tree_of(fam.OrderOne(0, 3, 3)), 30)
    b = freq.closed_form_sequence(fam.tree_of(fam.OrderOne(0, 3, 0)), 30)
    combo = freq.linear_combination([(1, a), (1, b)])
    for v in range(1, 31):
        assert combo[v] == a[v] + b[v]
    with pytest.raises(ValueError):
        freq.linear_combination([])
    with pytest.raises(ValueError, match="no common range"):
        freq.linear_combination([(1, a), (1, freq.FrequencySequence(()))])


def test_linear_combination_warns_on_nonpositive(caplog):
    a = freq.closed_form_sequence(fam.tree_of(fam.OrderOne(0, 2, 0)), 10)
    with caplog.at_level("WARNING"):
        combo = freq.linear_combination([(-1, a), (1, a)])
    assert any(combo[v] < 1 for v in range(1, 11))
    assert caplog.records
    with caplog.at_level("WARNING"):
        freq.linear_combination([(1, freq.FrequencySequence((1, 0, 2)))])
    assert caplog.records[-1].getMessage().endswith("phi(2) = 0")


def test_kary_conolly_frequency_is_valuation_plus_one():
    spec = fam.tree_of(fam.kary_conolly(3))
    for v in range(1, 200):
        assert freq.closed_form(spec, v) == freq.nu(3, v) + 1

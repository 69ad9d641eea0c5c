from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from nestrec import recursion, tree
from nestrec.recursion import DeadReason, RecursionSpec


CONOLLY = RecursionSpec(2, 1, (0, 1), ((1,), (2,)))
H = RecursionSpec(2, 1, (0, 2), ((1,), (3,)))


def test_spec_validation():
    with pytest.raises(ValueError):
        RecursionSpec(2, 1, (0, -1), ((1,), (2,)))
    with pytest.raises(ValueError):
        RecursionSpec(2, 1, (0, 1), ((0,), (2,)))
    with pytest.raises(ValueError):
        RecursionSpec(2, 1, (0, 1), ((1, 2), (2,)))
    with pytest.raises(ValueError):
        RecursionSpec(2, 1, (0,), ((1,), (2,)))


def test_conolly_prefix():
    result = recursion.evaluate(CONOLLY, [1, 2, 2, 3, 4], 16)
    assert result.alive
    assert result.values == (1, 2, 2, 3, 4, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 9)


def test_h_is_halving():
    ic = [1, 1, 2, 2, 3]
    result = recursion.evaluate(H, ic, 500)
    assert result.alive
    assert all(v == (n + 1) // 2 for n, v in enumerate(result.values, 1))


def test_truncating_evaluate():
    result = recursion.evaluate(CONOLLY, [1, 2, 2, 3, 4], 3)
    assert result.alive and result.values == (1, 2, 2)


def test_initial_condition_validation():
    with pytest.raises(ValueError):
        recursion.evaluate(CONOLLY, [], 10)
    with pytest.raises(ValueError):
        recursion.evaluate(CONOLLY, [1, 0], 10)


def test_death_by_inner_index():
    """An inner offset bigger than the first open n kills the run at once."""
    spec = RecursionSpec(2, 1, (0, 1), ((9,), (2,)))
    result = recursion.evaluate(spec, [1], 10)
    assert result.dead_at == 2
    assert result.reason is DeadReason.INNER_INDEX_NONPOSITIVE
    assert result.values == (1,)


def test_death_by_forward_reference():
    # R(2) needs R(2 - 0 - R(1)) = R(1) fine, second branch a=0 b=1 gives the same;
    # make the outer land on n itself instead
    spec = RecursionSpec(1, 1, (0,), ((1,),))
    result = recursion.evaluate(spec, [2, 2], 9)
    # R(3) = R(3 - R(2)) = R(1) = 2; R(4) = R(4 - R(3)) = R(2); stabilizes at 2
    assert result.alive
    spec2 = RecursionSpec(1, 1, (0,), ((2,),))
    dead = recursion.evaluate(spec2, [1], 5)
    assert dead.dead_at == 2 and dead.reason is DeadReason.INNER_INDEX_NONPOSITIVE


def test_death_reasons_cover_nonpositive_outer():
    # big IC forces n - a - R(n-b) below 1
    result = recursion.evaluate(CONOLLY, [5, 5], 9)
    assert result.dead_at == 3
    assert result.reason is DeadReason.OUTER_INDEX_NONPOSITIVE


def test_death_by_self_reference():
    # R(n-b) = 0 impossible; instead a=0 with tiny values: n - 0 - R(n-1) == n
    # needs R(n-1) == 0, also impossible, so craft a forward case via order-2 sums
    spec = RecursionSpec(1, 2, (0,), ((1, 2),))
    # R(3) = R(3 - R(2) - R(1)) = R(1); R(4) = R(4 - R(3) - R(2)): fine with small ICs
    result = recursion.evaluate(spec, [1, 1], 50)
    assert result.alive


def test_overflow_guard():
    """Summands landing on a near-cap value trip the hard error."""
    spec = RecursionSpec(2, 1, (0, 0), ((1,), (1,)))
    with pytest.raises(OverflowError):
        recursion.evaluate(spec, [1, 2**62 + 1, 1, 3], 5)


def test_slowness_violation():
    assert recursion.slowness_violation([1, 2, 2, 3]) is None
    assert recursion.slowness_violation([2, 2, 3]) is None
    assert recursion.slowness_violation([1, 2, 4]) == 3
    assert recursion.slowness_violation([1, 2, 1]) == 3
    assert recursion.slowness_violation([0, 1]) == 1
    assert recursion.is_slow([1, 1, 2])
    assert not recursion.is_slow([1, 3])


def test_frequency_of():
    freq = recursion.frequency_of([1, 2, 2, 3, 4, 4, 4, 5])
    assert freq.entries == {1: 1, 2: 2, 3: 1, 4: 3}
    assert freq.vmax == 4
    assert freq[2] == 2


def test_frequency_requires_slow_from_one():
    with pytest.raises(ValueError):
        recursion.frequency_of([2, 3, 3])
    with pytest.raises(ValueError):
        recursion.frequency_of([1, 3])


def test_prefix_stability():
    """Longer runs only append; earlier values never change."""
    ic = [1, 2, 2, 3, 4]
    short = recursion.evaluate(CONOLLY, ic, 50).values
    long = recursion.evaluate(CONOLLY, ic, 300).values
    assert long[:50] == short


def test_document_round_trip():
    doc = recursion.to_document(CONOLLY, [1, 2, 2, 3, 4])
    spec, ic = recursion.from_document(doc)
    assert spec == CONOLLY and ic == [1, 2, 2, 3, 4]


@settings(max_examples=100)
@given(st.integers(1, 60), st.integers(1, 60))
def test_conolly_against_tree_counts(n_a, n_b):
    """Both mechanisms give the same values wherever both are defined."""
    n = n_a + n_b
    spec = tree.TreeSpec(2, 0, 1, 1, 1, 1)
    ic = tree.initial_conditions(spec, 5)
    values = recursion.evaluate(CONOLLY, ic, n).values
    counts = tree.cell_count_sequence(spec, n)
    assert list(values) == counts


def test_right_side_matches_evaluate():
    """One step of the recursion at a time gives the evaluator's terms."""
    values = recursion.evaluate(CONOLLY, [1, 2], 300).values
    for n in range(3, 301):
        assert recursion.right_side(CONOLLY, lambda i: values[i - 1], n) == values[n - 1]
    with pytest.raises(ValueError):
        recursion.right_side(CONOLLY, lambda i: values[i - 1], 1)  # inner index 0
    with pytest.raises(ValueError):
        recursion.right_side(CONOLLY, lambda i: 100, 10)  # outer index below 1


def reference_evaluate(spec, initial, n_max):
    """The plain stepper: every index checked at every n, summands in order."""
    if n_max <= len(initial):
        return tuple(initial[: max(0, n_max)]), None, None
    values = [0, *initial]
    for n in range(len(initial) + 1, n_max + 1):
        total = 0
        for a, row in zip(spec.outer_offsets, spec.inner_offsets):
            idx = n - a
            for b in row:
                if n - b <= 0:
                    return tuple(values[1:]), n, DeadReason.INNER_INDEX_NONPOSITIVE
                idx -= values[n - b]
            if idx <= 0:
                return tuple(values[1:]), n, DeadReason.OUTER_INDEX_NONPOSITIVE
            if idx >= n:
                return tuple(values[1:]), n, DeadReason.OUTER_INDEX_NOT_YET_DEFINED
            total += values[idx]
        values.append(total)
    return tuple(values[1:]), None, None


@st.composite
def recursions(draw):
    arity, order = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    outer = tuple(draw(st.lists(st.integers(0, 8), min_size=arity, max_size=arity)))
    inner = tuple(tuple(draw(st.lists(st.integers(1, 8), min_size=order, max_size=order)))
                  for _ in range(arity))
    initial = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    n_max = draw(st.one_of(st.just(len(initial)), st.integers(0, 400)))
    return RecursionSpec(arity, order, outer, inner), initial, n_max


@settings(max_examples=400)
@given(recursions())
def test_evaluate_matches_reference_stepper(case):
    """The compiled per-shape loop gives the plain stepper's values, death index and reason."""
    spec, initial, n_max = case
    result = recursion.evaluate(spec, initial, n_max)
    assert (result.values, result.dead_at, result.reason) == reference_evaluate(spec, initial, n_max)

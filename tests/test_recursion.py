from __future__ import annotations

import contextlib
import os
import signal
import threading
import tracemalloc
from collections import Counter
from itertools import accumulate, compress, count, islice, repeat
from operator import rshift, sub

import pytest
from hypothesis import assume, given, settings, strategies as st

from nestrec import families as fam
from nestrec import frequency as freq
from nestrec import recursion, tree
from nestrec.frequency import FrequencySequence
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
    assert recursion.slow_steps([1, 2, 2, 3]) == (None, b"\1\0\1")
    assert recursion.slow_steps([2, 2, 3]) == (None, b"\0\1")
    assert recursion.slow_steps([1, 2, 4]) == (3, b"\1")
    assert recursion.slow_steps([1, 2, 1]) == (3, b"\1")
    assert recursion.slow_steps([0, 1]) == (1, b"")
    # a step past the byte range ends the one pass; the first break may lie before it
    assert recursion.slow_steps([1, 2, 2, 300]) == (4, b"\1\0")
    assert recursion.slow_steps([1, 2, 4, 3]) == (3, b"\1")


def test_phi_from_slow_steps():
    violation, steps = recursion.slow_steps([1, 2, 2, 3, 4, 4, 4, 5])
    assert violation is None
    phi = freq.from_steps(steps)
    assert phi.entries == (1, 2, 1, 3)
    assert phi.vmax == 4
    assert phi[2] == 2
    # the last run may be unfinished, so a single value gives no frequency
    assert freq.from_steps(recursion.slow_steps([1])[1]).vmax == 0
    assert freq.from_steps(recursion.slow_steps([1, 1, 1])[1]).vmax == 0


def test_slow_steps_outside_slow_from_one():
    """Slow from 2 keeps its steps, whose phi would be off by one value; a break keeps only the prefix before it."""
    assert recursion.slow_steps([2, 3, 3]) == (None, b"\1\0")
    assert recursion.slow_steps([1, 3]) == (2, b"")
    assert recursion.slow_steps([]) == (None, b"")
    assert freq.from_steps(b"").vmax == 0


def scan_slowness_violation(values):
    """The slowness check as it was written before slow_steps: an issuperset pass, then an rshift pass for the index."""
    if not values:
        return None
    if values[0] < 1:
        return 1
    if {0, 1}.issuperset(map(sub, islice(values, 1, None), values)):
        return None
    steps = map(sub, islice(values, 1, None), values)
    return next(compress(count(2), map(rshift, steps, repeat(1))))


def counter_frequency_of(values):
    """phi of a slow sequence from 1 by a Counter of its values, dropping the last run, which may be unfinished."""
    return FrequencySequence(tuple(Counter(values).values())[:-1])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 0, 2, 300]),
       st.lists(st.sampled_from([0, 1, 0, 1, 0, 1, -300, -1, 2, 255, 256]), max_size=40))
def test_slow_steps_match_the_scan_and_the_counter(first, steps):
    """The violation, the slow prefix's steps and their phi, at the step bytes' edges: -1, 255 and 256."""
    values = list(accumulate(steps, initial=first))
    violation, packed = recursion.slow_steps(values)
    assert violation == scan_slowness_violation(values)
    prefix = values if violation is None else values[: violation - 1]
    assert packed == bytes(b - a for a, b in zip(prefix, prefix[1:]))
    if prefix and prefix[0] == 1:
        assert freq.from_steps(packed) == counter_frequency_of(prefix)


def test_prefix_stability():
    """Longer runs only append; earlier values never change."""
    ic = [1, 2, 2, 3, 4]
    short = recursion.evaluate(CONOLLY, ic, 50).values
    long = recursion.evaluate(CONOLLY, ic, 300).values
    assert long[:50] == short


def test_document_round_trip():
    doc = {"arity": 2, "order": 1, "a": [0, 1], "b": [[1], [2]], "ic": [1, 2, 2, 3, 4]}
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
    """The plain stepper: every index and the 2^63 - 1 cap checked at every n, summands in order."""
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
            # positive values and at least one inner term keep idx below n
            assert idx < n
            total += values[idx]
        if total > recursion.MAX_VALUE:
            raise OverflowError(f"R({n}) exceeds 2^63 - 1")
        values.append(total)
    return tuple(values[1:]), None, None


def near_cap(draw, spec):
    """A case whose first computed term reads an IC within 2 * arity of 2^63.

    The ICs are all 1 and long enough that every outer index at the first
    open n is at least 1, so the loop runs.  One of those indices that no
    inner offset reads there, if there is one, holds 2^63 - d, d in
    0..2 * arity: the first sum passes the cap when d is at most what the
    other summands add, and otherwise lands just below it, for later terms
    to pass.
    """
    shortest = max(max(spec.outer_offsets) + spec.order, max(map(max, spec.inner_offsets)))
    length = draw(st.integers(shortest, shortest + 8))
    first = length + 1
    read_inner = {first - b for row in spec.inner_offsets for b in row}
    outer = sorted({first - a - spec.order for a in spec.outer_offsets} - read_inner)
    initial = [1] * length
    if outer:
        initial[draw(st.sampled_from(outer)) - 1] = 2**63 - draw(st.integers(0, 2 * spec.arity))
    return spec, initial, draw(st.integers(first, 400))


@st.composite
def recursions(draw):
    arity, order = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        # shifted rows b_it = a_i + c_t for one c, the shape of every solved
        # family: the summands share their inner sums
        shift = draw(st.lists(st.integers(-3, 6), min_size=order, max_size=order))
        lowest = max(0, 1 - min(shift))
        outer = tuple(draw(st.lists(st.integers(lowest, lowest + 8), min_size=arity, max_size=arity)))
        rows = [[a + c for c in draw(st.permutations(shift))] for a in outer]
        if draw(st.booleans()):
            row, t = draw(st.integers(0, arity - 1)), draw(st.integers(0, order - 1))
            rows[row][t] = max(1, rows[row][t] + draw(st.sampled_from((-1, 1))))
        inner = tuple(map(tuple, rows))
    else:
        outer = tuple(draw(st.lists(st.integers(0, 8), min_size=arity, max_size=arity)))
        row = st.lists(st.integers(1, 8), min_size=order, max_size=order).map(tuple)
        if draw(st.booleans()):
            # one row for every summand, as the neg_gamma candidates have
            inner = (draw(row),) * arity
        else:
            inner = tuple(draw(row) for _ in range(arity))
    deepest = max(map(max, inner))
    if draw(st.booleans()):
        initial = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    elif draw(st.booleans()):
        # just long enough to start the loop, whose read-ahead windows then
        # reach back into the ICs, and large enough for an index there to
        # fall below 1
        initial = draw(st.lists(st.integers(1, 2 * deepest), min_size=deepest, max_size=deepest))
    elif draw(st.booleans()):
        # long enough to start the loop, and slow, as a tree's cell counts
        # are, so that more runs go on for a while
        steps = draw(st.lists(st.integers(0, 1), min_size=deepest - 1, max_size=deepest + 7))
        initial = list(accumulate(steps, initial=1))
    else:
        return near_cap(draw, RecursionSpec(arity, order, outer, inner))
    n_max = draw(st.one_of(st.just(len(initial)), st.integers(0, 400), st.just(400)))
    return RecursionSpec(arity, order, outer, inner), initial, n_max


def evaluated(spec, initial, n_max):
    result = recursion.evaluate(spec, initial, n_max)
    return result.values, result.dead_at, result.reason


def overflow_or(evaluator, case):
    """What evaluator gives on the case, or the message of the OverflowError it raises."""
    try:
        return evaluator(*case)
    except OverflowError as err:
        return str(err)


@settings(max_examples=400)
@given(recursions())
def test_evaluate_matches_reference_stepper(case):
    """The compiled grouped loop gives the plain stepper's values, death index and
    reason, also when its read-ahead window holds an index below 1, and passes
    the cap at the stepper's n."""
    assert overflow_or(evaluated, case) == overflow_or(reference_evaluate, case)


@settings(max_examples=300)
@given(recursions())
def test_death_reason_is_the_dead_index_of_right_side(case):
    """A dying run's reason is the one right_side raises at the death index, on the values before it."""
    spec, initial, n_max = case
    result = overflow_or(recursion.evaluate, case)
    assume(not isinstance(result, str) and not result.alive)
    values = (0, *result.values)
    with pytest.raises(recursion.DeadIndex) as death:
        recursion.right_side(spec, values.__getitem__, result.dead_at)
    assert death.value.reason is result.reason


@given(st.lists(st.integers(-3, 6), max_size=4), st.lists(st.integers(-4, 6), max_size=3))
def test_shifted_rejects_what_the_spec_rejects(outer, shifts):
    """RecursionSpec.shifted refuses (a, c) exactly when the spec of rows a_i + c_t is refused, with its message."""
    rows = tuple(tuple(a + c for c in shifts) for a in outer)
    refused = not outer or not shifts or any(a < 0 for a in outer) or any(min(row) < 1 for row in rows)
    try:
        spec = RecursionSpec(len(outer), len(shifts), tuple(outer), rows)
    except ValueError as err:
        assert refused
        with pytest.raises(ValueError) as refusal:
            RecursionSpec.shifted(outer, shifts)
        assert str(refusal.value) == str(err)
    else:
        assert not refused
        assert RecursionSpec.shifted(outer, shifts) == spec


def test_death_inside_read_ahead_window():
    """u(5 - 1) reads an outer index of 0 before the loop, and the run dies at 8,
    when the second summand needs it."""
    spec = RecursionSpec(2, 1, (1, 4), ((3,), (6,)))
    result = recursion.evaluate(spec, [1, 4, 6, 5, 4, 1], 30)
    assert result.values == (1, 4, 6, 5, 4, 1, 5)
    assert result.dead_at == 8
    assert result.reason is DeadReason.OUTER_INDEX_NONPOSITIVE


def test_window_death_is_one_grouped_run():
    """A run that dies in its read-ahead window compiles only its grouped loop, not
    a loop with one group per summand as well.  u(5) = R(5 - R(3)) has outer
    index 0; the summand with a = 2 would read it at 7, before the first open n,
    so the run dies at 10, where the summand with a = 5 reads it."""
    recursion._group_loop.cache_clear()
    spec = RecursionSpec(3, 1, (0, 2, 5), ((2,), (4,), (7,)))
    initial = [2, 1, 5, 3, 5, 4, 3]
    result = recursion.evaluate(spec, initial, 30)
    assert (result.values, result.dead_at, result.reason) == reference_evaluate(spec, initial, 30)
    assert result.dead_at == 10
    info = recursion._group_loop.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_overflow_inside_a_group():
    """Three summands sharing one inner sum each land on 2^62."""
    spec = RecursionSpec(3, 1, (0, 1, 2), ((1,), (2,), (3,)))
    with pytest.raises(OverflowError, match=r"^R\(5\) exceeds 2\^63 - 1$"):
        recursion.evaluate(spec, [2**62, 2, 3, 4], 10)


def test_overflow_of_a_value_equal_to_the_last_initial_condition():
    """R(3) = R(2) = 2^63 repeats the last IC; the loop still checks it, as the
    value it reuses starts at 0 rather than at the last IC."""
    spec = RecursionSpec(1, 1, (0,), ((2,),))
    with pytest.raises(OverflowError, match=r"^R\(3\) exceeds 2\^63 - 1$"):
        recursion.evaluate(spec, [1, 2**63], 4)


@pytest.mark.parametrize("family", [fam.OrderOne(1, 3, 1), fam.KaryOrderP(4, 3, 3)], ids=["order_one", "kary"])
def test_one_int_object_per_value(family):
    """A slow run repeats each value, and every run of equal values is one object in
    evaluate's loop; the values are C_T, whose bytes first_departure follows to the end."""
    values = recursion.evaluate(fam.recursion_of(family), fam.standard_ics(family), 10**5).values
    assert len(set(map(id, values))) == len(set(values))
    starts = tree.cell_starts(fam.tree_of(family), 10**5)
    assert bytes(map(sub, values, (0, *values))) == starts
    assert recursion.first_departure(fam.recursion_of(family), fam.standard_ics(family), starts) is None


@pytest.mark.parametrize("spec,initial,groups", [
    # the first member, a = 1, twice
    (RecursionSpec(3, 1, (1, 3, 1), ((2,), (4,), (2,))), [1, 2, 2, 3, 3], [[0, 1], [2]]),
    # a later member, a = 2, twice, its second row permuted
    (RecursionSpec(4, 2, (0, 2, 1, 2), ((1, 4), (3, 6), (2, 5), (6, 3))), [1, 1, 2, 2, 3, 4, 4, 4, 4], [[0, 2, 1], [3]]),
])
def test_repeated_summand_in_a_long_grouped_run(spec, initial, groups):
    """A summand whose (c, a) repeats goes to a second group for c, as a group reads
    each other member at a lag d >= 1; these runs live to 3000, past the ICs."""
    assert recursion._groups(spec) == groups
    result = recursion.evaluate(spec, initial, 3000)
    assert result.alive
    assert (result.values, result.dead_at, result.reason) == reference_evaluate(spec, initial, 3000)


# -- first_departure: the recursion run against a tree's cell-start bytes ----------


def departure_by_evaluate(spec, initial, starts):
    """The least n where evaluate's run dies or differs from the running sum of starts, or None."""
    result = recursion.evaluate(spec, initial, len(starts))
    differs = (n for n, (value, count) in enumerate(zip(result.values, accumulate(starts)), 1) if value != count)
    return next(differs, result.dead_at)


SOLVED = [fam.conolly(), fam.OrderOne(1, 3, 1), fam.OrderOne(0, 1, 0), fam.HigherOrder(0, 2, 1, 2),
          fam.Superposed(0, 1, 1, 2), fam.Superposed(1, 2, -1, 2), fam.KaryOrderP(3, 1, 2), fam.KaryOrderP(2, 2, 3)]


@st.composite
def departures(draw):
    """A spec, initial conditions from a tree with at most one entry moved, and the tree's bytes to n <= 400.

    The spec is either the tree's own, from a solved family, or a random
    shifted-row or free spec of arity 1-3 and order 1-3; n runs from 0
    through the initial conditions and past them, and one byte may be set
    to 0, 1, 2 or 255.
    """
    if draw(st.booleans()):
        family = draw(st.sampled_from(SOLVED))
        spec, shape, length = fam.recursion_of(family), fam.tree_of(family), family.ic_length()
    else:
        arity, order = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        outer = draw(st.lists(st.integers(0, 6), min_size=arity, max_size=arity))
        if draw(st.booleans()):
            spec = RecursionSpec.shifted(outer, draw(st.lists(st.integers(1, 6), min_size=order, max_size=order)))
        else:
            row = st.lists(st.integers(1, 10), min_size=order, max_size=order).map(tuple)
            spec = RecursionSpec(arity, order, tuple(outer), tuple(draw(row) for _ in range(arity)))
        k, j = draw(st.integers(2, 4)), draw(st.integers(1, 3))
        shape = tree.TreeSpec(k, draw(st.integers(0, 2)), j, 1, draw(st.integers(1, 2)), draw(st.integers(0, j)))
        length = draw(st.integers(1, 14))
    initial = tree.initial_conditions(shape, length)
    if draw(st.booleans()):
        at = draw(st.integers(0, length - 1))
        initial[at] += draw(st.sampled_from((-1, 1, 256)))
        assume(initial[at] >= 1)
    n = draw(st.integers(0, length) if draw(st.integers(0, 3)) == 3 else st.integers(length + 1, 400))
    starts = bytearray(tree.cell_starts(shape, n))
    if n and draw(st.integers(0, 3)) == 3:
        # any byte counts by its value, though a tree's are 0 or 1
        starts[draw(st.integers(0, n - 1))] = draw(st.sampled_from((0, 1, 2, 255)))
    return spec, initial, bytes(starts)


def check_departure(case):
    try:
        expected = departure_by_evaluate(*case)
    except OverflowError:
        assume(False)
    assert recursion.first_departure(*case) == expected


@settings(max_examples=400, deadline=None)
@given(departures())
def test_first_departure_is_where_evaluate_dies_or_leaves_the_tree(case):
    check_departure(case)


@contextlib.contextmanager
def split_runs(min_terms=1, cpus=2):
    """Follow runs of min_terms or more split as on this many CPUs; yields the reaped children's exit codes.

    A child killed by a signal reads as minus that signal.  On leaving, no
    child of this process is left to reap.
    """
    codes, waitpid = [], os.waitpid

    def reap(pid, options):
        reaped = waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recursion, "SPLIT_MIN_TERMS", min_terms)
        patch.setattr(recursion, "_usable_cpus", lambda: cpus)
        patch.setattr(os, "waitpid", reap)
        yield codes
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=400, deadline=None)
@given(departures())
def test_first_departure_split_in_two_is_where_evaluate_dies_or_leaves_the_tree(case):
    """The property above with every run that reaches the loop split, its second half in a forked child.

    Each child ends with its number or is killed once the head departs; a
    child that failed would leave the tail to the parent unseen, so its
    exit code is checked too.
    """
    with split_runs() as codes:
        check_departure(case)
    assert set(codes) <= {0, -signal.SIGKILL}


BENCHMARK_KARY = fam.KaryOrderP(4, 3, 3)
FULL = 3 * 10**5


def flipped_starts(family, n, at):
    """The tree's cell-start bytes to n with the byte of label at, if any, flipped, so C_T first moves there."""
    starts = bytearray(tree.cell_starts(fam.tree_of(family), n))
    if at:
        starts[at - 1] ^= 1
    return fam.recursion_of(family), fam.standard_ics(family), bytes(starts)


@pytest.mark.parametrize("at", [None, FULL // 10, FULL * 9 // 10], ids=["agree", "head", "tail"])
def test_split_run_at_full_size(at):
    """At 3*10^5 labels the run splits by itself; a flip in the head kills the child,
    one in the tail comes from the child's number, and every child is reaped."""
    kills, kill = [], os.kill
    case = flipped_starts(BENCHMARK_KARY, FULL, at)
    with split_runs(recursion.SPLIT_MIN_TERMS) as codes, pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "kill", lambda pid, sig: kills.append(sig) or kill(pid, sig))
        assert recursion.first_departure(*case) == at
    assert len(codes) == 1
    if at == FULL // 10:
        assert kills == [signal.SIGKILL] and codes[0] in (0, -signal.SIGKILL)
    else:
        assert kills == [] and codes == [0]


def test_no_split_below_the_threshold_on_one_cpu_or_beside_a_thread():
    case = flipped_starts(BENCHMARK_KARY, FULL, None)
    with split_runs(recursion.SPLIT_MIN_TERMS, cpus=1) as one_cpu:
        assert recursion.first_departure(*case) is None
    with split_runs(FULL) as short:
        assert recursion.first_departure(*case) is None
    done = threading.Event()
    waiting = threading.Thread(target=done.wait)
    waiting.start()
    try:
        with split_runs(recursion.SPLIT_MIN_TERMS) as threaded:
            assert recursion.first_departure(*case) is None
    finally:
        done.set()
        waiting.join()
    assert one_cpu == short == threaded == []


@pytest.mark.parametrize("at", [None, 350], ids=["agree", "tail"])
def test_split_run_falls_back_when_the_child_fails(at):
    """A child whose prologue raises exits 1 with no number, and the parent runs the tail itself."""
    parent, state = os.getpid(), recursion._follow_state

    def state_in_parent_only(*args):
        if os.getpid() != parent:
            raise MemoryError
        return state(*args)

    case = flipped_starts(fam.OrderOne(1, 3, 1), 400, at)
    with split_runs() as codes, pytest.MonkeyPatch.context() as patch:
        patch.setattr(recursion, "_follow_state", state_in_parent_only)
        assert recursion.first_departure(*case) == at
    assert codes == [1]


def cut(initial, n):
    """Where a split run to n hands the rest to its child: half way from the first open n."""
    return len(initial) + 1 + (n - len(initial)) // 2


@pytest.mark.parametrize("family", [BENCHMARK_KARY, fam.OrderOne(1, 3, 1)], ids=["kary", "order_one"])
def test_tail_state_at_the_cut_is_read_from_the_bytes(family):
    """At 3*10^5 labels the run splits by itself and agrees, and the head's du list holds the cut's
    number of slots, as its run stops there.  The child's state at the cut is the group's outer
    index I(cut) less one and the du window below it, as the running sum of the bytes gives them:
    I(m) = m - a - sum over t of C_T(m - b_t) and du(m) = C_T(I(m)) - C_T(I(m - 1))."""
    spec, initial, starts = case = flipped_starts(family, FULL, None)
    parent, state, runs = os.getpid(), recursion._follow_state, []

    def state_sized(spec, starts, n0, stop):
        end, loop_state = state(spec, starts, n0, stop)
        if os.getpid() == parent:
            runs.append((n0, stop, [len(du) for du in loop_state if isinstance(du, list)]))
        return end, loop_state

    with split_runs(recursion.SPLIT_MIN_TERMS) as codes, pytest.MonkeyPatch.context() as patch:
        patch.setattr(recursion, "_follow_state", state_sized)
        assert recursion.first_departure(*case) is None
    assert codes == [0]
    mid, counts = cut(initial, FULL), [0, *accumulate(starts)]
    assert runs == [(len(initial) + 1, mid, [mid])]
    [[first, *rest]] = recursion._groups(spec)
    a, row = spec.outer_offsets[first], spec.inner_offsets[first]
    lags = [spec.outer_offsets[x] - a for x in rest]

    def outer(m):
        return m - a - sum(counts[m - b] for b in row)

    end, (j, du, *offsets) = recursion._follow_state(spec, starts, mid, FULL + 1)
    window = range(mid + 1 - max(lags), mid + 1)
    assert (end, j, offsets) == (FULL + 1, outer(mid) - 1, [*row, *lags])
    assert du[window.start : window.stop] == [counts[outer(m)] - counts[outer(m - 1)] for m in window]
    assert len(du) == FULL + 1 and not any(du[: window.start]) and not any(du[window.stop :])


@pytest.mark.parametrize("at", [None, FULL // 10, FULL * 9 // 10], ids=["agree", "head", "tail"])
def test_cut_next_to_the_departure(at):
    """The 3*10^5 cases cut one label before, at and one label after their flip (the tail's flip for
    agree): the child's loop meets the departure, its prologue's full check at the cut does, or the
    head's last term does.  Each run's result is the unsplit one."""
    flip = at or FULL * 9 // 10
    ic_length = len(fam.standard_ics(BENCHMARK_KARY))
    for mid in (flip - 1, flip, flip + 1):
        n = 2 * (mid - ic_length - 1) + ic_length
        case = flipped_starts(BENCHMARK_KARY, n, at)
        assert cut(case[1], n) == mid
        with split_runs() as codes:
            assert recursion.first_departure(*case) == at
        assert codes in ([0], [-signal.SIGKILL])


def departs_alike_at_every_cut(spec, initial, starts):
    """first_departure on each prefix of starts, whole and split, is evaluate's departure; the last one."""
    for n in range(len(starts) + 1):
        case = (spec, initial, starts[:n])
        expected = departure_by_evaluate(*case)
        assert recursion.first_departure(*case) == expected
        with split_runs() as codes:
            assert recursion.first_departure(*case) == expected
        assert set(codes) <= {0, -signal.SIGKILL}
    return expected


def test_every_cut_of_a_short_run_finds_its_departure():
    """R(16) = R(16 - C_T(12)) + R(13 - C_T(12)) = C_T(9) + C_T(6) = 7 + 4 leaves C_T(16) = 7, a
    read at 6 that lies past the five initial conditions and below every cut.  Each prefix of the
    24 bytes moves the cut, from the first open n to 15, and the split run departs where one run does."""
    spec, initial = RecursionSpec(2, 1, (0, 3), ((4,), (4,))), [1, 1, 3, 3, 3]
    starts = bytes([1, 0, 2, 0, 0, 1, 0, 0, 3]) + bytes(15)
    assert departs_alike_at_every_cut(spec, initial, starts) == 16


def own_steps(spec, initial, n):
    """The recursion's values to n as cell-start bytes: the first value, then each step."""
    values = recursion.evaluate(spec, initial, n).values
    return bytes(map(sub, values, (0, *values)))


@pytest.mark.parametrize("spec,initial,n,moves", [
    # R(n) = R(n - R(n - 3)) + R(n - 3 - R(n - 6)) from 1 2 3 3 3 6 rises by 0 or 3, so e = 3 at
    # n = 9, 15, 18, ...
    (RecursionSpec.shifted((0, 3), (3,)), [1, 2, 3, 3, 3, 6], 60, ((40, 1), (48, -3), (48, 1))),
    # at n = 10 the outer index of R(n - R(n - 6)) steps back from 6 to 4, over the bytes 2 and 0
    # of labels 6 and 5, while that of R(n - 2 - R(n - 5)) steps up over a 2: R(11) then falls
    (RecursionSpec(2, 1, (2, 0), ((5,), (6,))), [1, 3, 3, 6, 6, 8, 9], 10, ((10, 1),)),
], ids=["long", "top_byte"])
def test_steps_back_by_more_than_one(spec, initial, n, moves):
    """Where e >= 3, j steps back two labels or more, and du is minus every byte it passed.  The
    run follows its own steps at every cut; with one step moved, it departs where evaluate does."""
    starts = own_steps(spec, initial, n)
    assert any(sum(starts[m - b - 1] for b in row) >= 3 for m in range(len(initial) + 1, n + 1)
               for row in spec.inner_offsets)
    assert departs_alike_at_every_cut(spec, initial, starts) is None
    for label, by in moves:
        moved = bytearray(starts)
        moved[label - 1] += by
        assert departs_alike_at_every_cut(spec, initial, bytes(moved)) == label


@pytest.mark.parametrize("spec,initial,starts,e", [
    # j is 0 at 13, and e = 2 steps it to -1 at 14
    (RecursionSpec.shifted((3, 4), (2, 4)), [3, 3, 3, 3, 3, 4, 5, 5, 6, 6],
     bytes([3, 0, 0, 0, 0, 1, 1, 0, 1]) + bytes(5), 2),
    # R(10) = R(10 - R(7)) + R(9 - R(6)) reads R(0): the byte of 4 at 7 steps j back three labels, past 0
    (RecursionSpec.shifted((0, 1), (3,)), [5, 5, 5, 5, 6, 6], bytes([5, 0, 0, 0, 1, 0, 4, 0, 0, 0]), 4),
], ids=["step_of_one", "step_of_three"])
def test_death_stepping_back(spec, initial, starts, e):
    """A run that agrees with its bytes dies in its loop, past its read-ahead window, where its outer
    index steps back below 1; every cut finds the death where evaluate does."""
    dead_at = recursion.evaluate(spec, initial, len(starts)).dead_at
    assert dead_at == len(starts)
    assert sum(starts[dead_at - b - 1] for b in spec.inner_offsets[0]) == e
    assert recursion._follow_state(spec, starts, len(initial) + 1, len(starts) + 1)[0] == len(starts) + 1
    assert departs_alike_at_every_cut(spec, initial, starts) == dead_at


TWO_GROUPS = RecursionSpec(3, 1, (1, 5, 1), ((2,), (6,), (4,)))


@pytest.mark.parametrize("at", [None, FULL // 10, FULL * 9 // 10], ids=["agree", "head", "tail"])
def test_two_groups_one_of_them_alone(at):
    """u(m) = R(m - R(m - 1)) read at n - 1 and n - 5, and R(n - 1 - R(n - 4)) on its own: the
    sequence from 1 1 1 1 3 3 rises by 0 or 2 to 3*10^5.  The run on its own steps, one step moved
    at the flip, departs there, whole and split."""
    assert recursion._groups(TWO_GROUPS) == [[0, 1], [2]]
    initial = [1, 1, 1, 1, 3, 3]
    starts = bytearray(own_steps(TWO_GROUPS, initial, FULL))
    assert set(starts[1:]) == {0, 2}
    if at:
        starts[at - 1] += 1
    with split_runs(recursion.SPLIT_MIN_TERMS, cpus=1) as whole:
        assert recursion.first_departure(TWO_GROUPS, initial, bytes(starts)) == at
    with split_runs(recursion.SPLIT_MIN_TERMS) as codes:
        assert recursion.first_departure(TWO_GROUPS, initial, bytes(starts)) == at
    assert whole == [] and len(codes) == 1


def test_follow_holds_one_slot_a_label():
    """An unsplit check of BENCHMARK_KARY to 3*10^5 labels holds, beside its bytes, one du list of
    8-byte slots and no values: its traced peak stays under 12 bytes a label."""
    case = flipped_starts(BENCHMARK_KARY, FULL, None)
    assert recursion.first_departure(*case[:2], case[2][:1000]) is None  # compiles the loop first
    with split_runs(recursion.SPLIT_MIN_TERMS, cpus=1):
        tracemalloc.start()
        try:
            assert recursion.first_departure(*case) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 12 * FULL


def test_first_departure_at_or_below_the_initial_conditions():
    """With --n at or below the IC length only the ICs are compared, and an IC that
    leaves C_T is the departure, whatever the recursion would do after it."""
    starts = tree.cell_starts(fam.tree_of(fam.conolly()), 8)  # C_T = 1 2 2 3 4 4 4 5
    ic = [1, 2, 2, 3, 4]
    assert recursion.first_departure(CONOLLY, ic, starts) is None
    assert recursion.first_departure(CONOLLY, ic, starts[:5]) is None
    assert recursion.first_departure(CONOLLY, ic, b"") is None
    assert recursion.first_departure(CONOLLY, [1, 2, 3, 3, 4], starts[:2]) is None
    assert recursion.first_departure(CONOLLY, [1, 2, 3, 3, 4], starts[:3]) == 3
    assert recursion.first_departure(CONOLLY, [1, 2, 2, 3, 5], starts) == 5
    assert recursion.first_departure(CONOLLY, [1, 2, 2, 3, 4 + 256], starts) == 5
    # the ICs agree, and R(6) = R(6 - R(5)) + R(5 - R(4)) = 4 is one below a C_T(6) lifted to 5
    assert recursion.first_departure(CONOLLY, ic, starts[:5] + b"\1" + starts[6:]) == 6
    assert recursion.first_departure(CONOLLY, [1, 1], starts) == 2
    with pytest.raises(ValueError):
        recursion.first_departure(CONOLLY, [], starts)
    with pytest.raises(ValueError):
        recursion.first_departure(CONOLLY, [1, 0], starts)


def test_first_departure_dies_where_evaluate_does():
    """A run that starts at or below max b dies at its first open n.  The second
    run agrees at R(7) = R(2) + R(2) = 8, then reads u(5) = R(4 - R(2)) = R(0) in
    its read-ahead window and dies at 8, where the summand with a = 4 needs it."""
    assert recursion.first_departure(RecursionSpec(2, 1, (0, 1), ((9,), (2,))), [1], b"\1\0\1") == 2
    spec = RecursionSpec(2, 1, (1, 4), ((3,), (6,)))
    initial, starts = [1, 4, 4, 4, 6, 7], bytes([1, 3, 0, 0, 2, 1, 1, 0, 1])
    result = recursion.evaluate(spec, initial, len(starts))
    assert (result.values, result.dead_at) == ((1, 4, 4, 4, 6, 7, 8), 8)
    assert recursion.first_departure(spec, initial, starts) == 8

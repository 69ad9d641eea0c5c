"""Memoized evaluation of nested recursions with guarded self-referential indices.

A spec with arity k and order p defines

    R(n) = sum over i of R(n - a_i - sum over t of R(n - b_it))

and is evaluated bottom-up from explicit initial conditions.  Whenever an
index escapes the range of already-defined values the sequence "dies" and
the evaluator reports where and why instead of guessing.

Summands whose rows are one tuple c shifted by their outer offset,
b_it = a_i + c_t, share one nested term u(m) = R(m - sum over t of
R(m - c_t)) and add u(n - a_i).  Every solved family has this shape, so
_groups collects such summands and the loop computes each group's u once
per term rather than once per summand.  A summand whose (c, a) is already
in a group starts a further group for c, so the members of a group lie
d >= 1 apart.

The bottom-up loop is generated and compiled once per (group sizes, p)
and variant, with the offsets passed in as arguments, so each term costs
a few bytecodes and no inner Python loop.  Every read at a fixed lag,
R(n - b) and u(n - a) for a member d past its group's first, comes from a
list iterator that zip advances once per term.  A list iterator reads its list
when it is advanced, before the term is written, and b >= 1 and d >= 1,
so each read sees a value an earlier term wrote; only the outer read
R(n - a - sum of R(n - b)) is a subscript.  Past n = max b every inner
index n - b lies in 1..n-1, so the loop only has to watch the outer
indices, and only from below: the values are positive (the initial
conditions are at least 1) and every summand subtracts at least one of
them, so no outer index reaches n.  A group checks u(n - a) for its
smallest a at n, where that summand alone would; its other summands read
values checked at an earlier n or, for u(m) with m below the first open n,
in the read-ahead window filled before the loop.  A window index below 1
ends the run at the first open n that reads it, the least m + a at or
past the first open n.  Either way one run of the loop dies where the
summands one by one would.  A run that starts at or below max b dies at
its first open n.  right_side at the death index then names why: it walks
the summands in order and raises DeadIndex with the first one's reason.

A slow sequence repeats each value about twice, so a term whose sum equals
the value before it stores that value's object again, and a run of equal
values holds one int.  Values are capped at 2^63 - 1; the loop checks the
cap where it stores a new value, so a repeated value is not checked again.

first_departure checks the recursion against a tree's cell-start bytes,
whose running sum is the cell count C_T.  Its initial conditions are
compared with the running sum of the first bytes; past them a follow
variant of the same compiled loop walks the bytes beside the lagged reads,
adds each byte to the running count, returns the first n whose sum is not
that count and stores the count otherwise.  It needs no cap, as C_T(n) <=
n, and no second pass: where it returns None, R is C_T at every n.  Every
value the loop reads is a C_T(m) that the bytes fix before the run, so a
run of SPLIT_MIN_TERMS terms or more, with two CPUs usable and one thread,
is cut in two: a forked child fills from the bytes the window of values
below the cut that the tail reads, from about half the cut up, and checks
the tail while this process checks the head.  The follow loop takes a
floor, the least outer index it may read, and returns the first n that
reads below it; the child widens its window to 1 and runs on from there,
so the head's n, else the child's, is the n one run would return.

Slowness is read in one place, slow_steps: one pass packs the steps into
bytes and gives the first term that breaks slowness and the slow prefix's
steps, from which frequency.from_steps reads phi.
"""

from __future__ import annotations

import enum
import functools
import os
import signal
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress, count, islice, repeat
from operator import rshift, sub
from typing import Callable, Iterator, Optional, Sequence

from .tree import document_fields

MAX_VALUE = 2**63 - 1
# A follow run of this many terms or more, with two CPUs usable and no other
# thread, checks its tail in a forked child (_split_follow); a shorter one, a
# few tens of milliseconds at most, is left whole rather than pay for a fork.
SPLIT_MIN_TERMS = 2**17
# The forked tail fills its counts from this many labels below the least outer
# index it reads at its first term (_tail_window); a read below them widens the
# window, so the margin sets only how often that happens.
WINDOW_MARGIN = 64


@dataclass(frozen=True)
class RecursionSpec:
    arity: int
    order: int
    outer_offsets: tuple[int, ...]
    inner_offsets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.arity < 1 or self.order < 1:
            raise ValueError("arity and order must be at least 1")
        if len(self.outer_offsets) != self.arity:
            raise ValueError("need one outer offset per summand")
        if len(self.inner_offsets) != self.arity:
            raise ValueError("need one inner offset row per summand")
        for row in self.inner_offsets:
            if len(row) != self.order:
                raise ValueError("every summand needs `order` inner offsets")
            if any(b < 1 for b in row):
                raise ValueError("inner offsets must be positive")
        if any(a < 0 for a in self.outer_offsets):
            raise ValueError("outer offsets cannot be negative")

    @classmethod
    def shifted(cls, outer: Sequence[int], shifts: Sequence[int]) -> RecursionSpec:
        """The spec whose rows are one shift row moved by each outer offset, b_it = a_i + c_t."""
        return cls(len(outer), len(shifts), tuple(outer), tuple(tuple(a + c for c in shifts) for a in outer))


class DeadReason(enum.Enum):
    INNER_INDEX_NONPOSITIVE = "inner_index_nonpositive"
    OUTER_INDEX_NONPOSITIVE = "outer_index_nonpositive"


class DeadIndex(ValueError):
    """An index below 1 in the recursion at one n, and which kind it was."""

    def __init__(self, message: str, reason: DeadReason):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class EvalResult:
    values: tuple[int, ...]
    dead_at: Optional[int] = None
    reason: Optional[DeadReason] = None

    @property
    def alive(self) -> bool:
        return self.dead_at is None


def evaluate(spec: RecursionSpec, initial: Sequence[int], n_max: int) -> EvalResult:
    """Evaluate R(1..n_max) from the given initial conditions.

    Returns all n_max values when the recursion stays defined, or the values
    up to the death index otherwise: the first n with an index below 1,
    counting an index the loop read ahead at the n that first uses it.
    Values are capped at 2^63 - 1; going past that is a hard error rather
    than silent wraparound.  A run of equal computed values shares one int
    object.
    """
    _check_initial(initial)
    if n_max <= len(initial):
        return EvalResult(tuple(initial[: max(0, n_max)]), None, None)
    values, dead_at = _run(spec, initial, n_max + 1)
    if dead_at:
        try:
            right_side(spec, values.__getitem__, dead_at)
        except DeadIndex as death:
            return EvalResult(tuple(values[1:dead_at]), dead_at, death.reason)
        raise AssertionError(f"R({dead_at}) is defined; the evaluator stopped there in error")
    del values[0]  # in place: a values[1:] copy would cost 8 bytes a term
    return EvalResult(tuple(values))


def first_departure(spec: RecursionSpec, initial: Sequence[int], starts: bytes) -> Optional[int]:
    """The least n <= len(starts) where the recursion dies or leaves the running sum of starts, or None.

    starts holds one byte per n, 1 where the tree opens a cell, so its
    running sum is C_T.  The initial conditions are compared with the
    running sum of the head bytes; past them the recursion runs in the
    follow variant of the evaluation loop, which steps C_T by each byte and
    returns the first n whose sum is not C_T(n).  Every value it stores is
    both R(n) and C_T(n), so the first n it returns is where evaluate would
    die or first differ from C_T.  A loop of SPLIT_MIN_TERMS terms or more
    runs its last 7/16 at the same time in a forked child when two CPUs are
    usable and no other thread runs (_split_follow), with the same result.
    """
    _check_initial(initial)
    for n, (value, count) in enumerate(zip(initial, accumulate(starts[: len(initial)])), 1):
        if value != count:
            return n
    if len(starts) <= len(initial):
        return None
    return _run(spec, initial, len(starts) + 1, starts)[1] or None


def _check_initial(initial: Sequence[int]) -> None:
    if not initial:
        raise ValueError("at least one initial condition is required")
    if any(v < 1 for v in initial):
        raise ValueError("initial conditions must be positive")


def _run(spec: RecursionSpec, initial: Sequence[int], stop: int, *steps: bytes) -> tuple[list[int], int]:
    """The values list, 1-indexed up to stop - 1 and filled from initial, and the loop's result on it.

    The result is 0, or the first n where the run stopped.  A run that
    starts at or below max b stops at its first open n, before any loop.
    Given the step bytes, the follow variant of the loop runs on them with
    floor 1, split in two processes from SPLIT_MIN_TERMS terms with two
    CPUs usable and no other thread; the values past the split are then the
    child's, and this list holds 0 there unless the child failed and this
    process ran the tail itself.
    """
    values = [0] * stop  # 1-indexed
    values[1 : len(initial) + 1] = list(initial)
    start = len(initial) + 1
    if start <= max(max(row) for row in spec.inner_offsets):
        return values, start  # some inner index n - b is still below 1
    groups = _groups(spec)
    loop = _group_loop(tuple(map(len, groups)), spec.order, bool(steps))
    arguments = _arguments(spec, groups)
    if not steps:
        return values, loop(values, start, stop, *arguments)
    # a fork copies only the calling thread, so another thread's locks could stay held in the child
    if (stop - start >= SPLIT_MIN_TERMS and hasattr(os, "fork") and _usable_cpus() >= 2
            and threading.active_count() == 1):
        return values, _split_follow(spec, loop, values, steps[0], start, stop, arguments)
    return values, loop(values, start, stop, *steps, 1, *arguments)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _split_follow(spec: RecursionSpec, loop: Callable[..., int], values: list[int], starts: bytes, start: int,
                  stop: int, arguments: list[int]) -> int:
    """The follow loop's result on start..stop - 1, its tail from mid run at once in a forked child.

    Every value the follow loop reads is a C_T(m) that the bytes fix before
    the run.  So the child fills the window values[lo:mid] that its tail
    reads (_tail_window) and runs the same loop from mid with floor lo,
    while this process runs it from start to mid with floor 1.  A run with
    floor lo returns the first n whose outer index is below lo, as it would
    one below 1; when the child's run returns some n and lo > 1, the child
    fills values[1:lo] and runs on from n with floor 1, so any lo gives the
    number one run would.  mid lies 9/16 of the way: the window reaches
    down to about mid/2, or mid/4 for the k-ary families, and a label costs
    the child about half a term, or a quarter of a k-ary term, so the two
    halves take about as long.  The head's n, if any, is
    the least: an index below 1 that the tail's read-ahead window finds at
    an m below mid was the head's to find, at the same n when that n is
    below mid.  Otherwise the answer is the number the child writes to a
    pipe.  The child is killed as soon as its number cannot matter, and is
    always reaped.  A child that could not start, or that ends with no
    number or a nonzero status, leaves the tail to this process.
    """
    mid = start + (stop - start) * 9 // 16
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return loop(values, start, stop, starts, 1, *arguments)
    if not pid:
        status = 1
        try:
            os.close(read)
            lo = _tail_window(spec, values, starts, mid)
            n = loop(values, mid, stop, starts, lo, *arguments)
            if n and lo > 1:
                _fill_counts(values, starts, 1, lo, range(starts[0], values[lo] - starts[lo - 1] + 1))
                n = loop(values, n, stop, starts, 1, *arguments)
            os.write(write, b"%d" % n)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    tail = b""
    with open(read, "rb") as pipe:
        try:
            head = loop(values, start, mid, starts, 1, *arguments)
            if not head:
                tail = pipe.read()
        finally:
            if not tail:
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
    if head:
        return head
    if tail and not status:
        return int(tail)
    return loop(values, mid, stop, starts, 1, *arguments)


def _tail_window(spec: RecursionSpec, values: list[int], starts: bytes, mid: int) -> int:
    """Fill values[lo:mid] with C_T, the running sum of starts, and return lo, the floor of a run from mid.

    The least index that run reads at a fixed lag, R(n - b) in its body or
    its read-ahead fill, is top = mid - max b.  Its outer indices start at
    mid - a - sum over t of C_T(mid - b_t), one per summand, and on the
    catalog's trees later ones fall at most one below the least of these;
    lo lies WINDOW_MARGIN below it, and at or below top.
    """
    top = mid - max(max(row) for row in spec.inner_offsets)
    below = sum(starts[:top])  # C_T(top); the bytes may exceed 1, so no count(1)
    least = min(mid - a - sum(below + sum(starts[top : mid - b]) for b in row)
                for a, row in zip(spec.outer_offsets, spec.inner_offsets))
    lo = max(1, min(top, least - WINDOW_MARGIN))
    counts = range(below - sum(starts[lo:top]), below + sum(starts[top : mid - 1]) + 1)
    _fill_counts(values, starts, lo, mid, counts)
    return lo


def _fill_counts(values: list[int], starts: bytes, first: int, end: int, counts: range) -> None:
    """Fill values[first:end] with C_T(first..end - 1), which run through counts.

    A run of equal counts is one int object, as the loop stores them.
    """
    counts = list(counts)
    values[first] = counts[0]
    values[first + 1 : end] = map(counts.__getitem__, accumulate(starts[first : end - 1]))


def _groups(spec: RecursionSpec) -> list[list[int]]:
    """The summands grouped by their sorted inner offsets b - a, each group by ascending a.

    Summands x in one group share u(m) = R(m - sum over t of R(m - c_t)), as
    b_xt = a_x + c_t, and their terms are u(n - a_x).  The k-th summand with
    a given (c, a) goes to the k-th group for c, so no group holds one a
    twice and each other member lies d >= 1 past its first.
    """
    repeats: Counter[tuple[tuple[int, ...], int]] = Counter()
    groups: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for i, (a, row) in enumerate(zip(spec.outer_offsets, spec.inner_offsets)):
        shifts = tuple(sorted(b - a for b in row))
        repeats[shifts, a] += 1
        groups.setdefault((shifts, repeats[shifts, a]), []).append(i)
    return [sorted(members, key=spec.outer_offsets.__getitem__) for members in groups.values()]


def _arguments(spec: RecursionSpec, groups: list[list[int]]) -> list[int]:
    """Per group: its first summand's a and b row, then how far past that a each other a lies."""
    a, b = spec.outer_offsets, spec.inner_offsets
    return [x for first, *rest in groups for x in (a[first], *b[first], *(a[i] - a[first] for i in rest))]


@functools.cache
def _group_loop(sizes: tuple[int, ...], order: int, follow: bool) -> Callable[..., int]:
    """The evaluation loop for groups of these sizes and this order, compiled on first use.

    loop(v, start, stop, *arguments) fills v[start:stop] and returns 0, or
    fills v[start:n] and returns the first n whose outer index is below 1.
    It assumes start > max b, so no inner index needs a check.  Group g with
    first summand (a, b row) and others d past it keeps U[n] = u(n - a) =
    v[n - a - sum over t of v[n - b_t]] in a list and sums U[n] and each
    U[n - d]: one inner sum per group and term.  Before its loop it fills
    the read-ahead window U[start - max d:start], which the loop reads but
    does not write.  An index below 1 at U[m] there is an outer index below
    1 at the first n >= start that reads U[m], m + d for the least such d,
    so the loop ends before that n and returns it.  A group of one is the
    plain summand, read from v with no list.

    Every read at a fixed lag, v[n - b_t] and U[n - d], is a value that zip
    hands in from a list iterator set at start - b_t or start - d.  A list
    iterator reads its list when it is advanced, and zip advances it before
    the body writes v[n] and U[n]; as b_t >= 1 and d >= 1 (_groups keeps a
    repeated a out of a group), it reads what earlier terms wrote.  Only
    the outer read v[i] is a subscript.  The source holds only group, term
    and member numbers; the offsets are arguments.

    Each term stores the object of the last new value when its sum equals
    it; last starts at 0, below every value, so the first term is always a
    new value.  A new value past 2^63 - 1 raises OverflowError; a repeated
    one was checked when it was new.

    With follow, loop(v, start, stop, steps, floor, *arguments) holds the
    run to the running sum of the step bytes instead: zip also hands in
    steps[n - 1], last starts at v[start - 1] and adds each nonzero byte,
    and the first n whose sum is not last is returned, as a death is.  An
    outer index below floor, not 1, ends the run, in the body and in the
    read-ahead window alike, so a run whose v holds counts only from
    floor up reads none below them.  Every stored value is last, so a
    run of equal values shares one object.  There is no cap check: the
    bytes add at most 255 a term.
    """
    params, fill, lagged, body, terms = [], [], [], [], []
    floor = "floor" if follow else "1"
    for g, size in enumerate(sizes):
        params += [f"a{g}", *(f"b{g}_{t}" for t in range(order)), *(f"d{g}_{x}" for x in range(1, size))]
        lagged += [(f"x{g}_{t}", f"at(v, start - b{g}_{t})") for t in range(order)]
        body += [
            f"        i{g} = n - a{g}" + "".join(f" - x{g}_{t}" for t in range(order)),
            f"        if i{g} < {floor}:",
            "            return n",
        ]
        if size == 1:
            terms.append(f"v[i{g}]")
            continue
        inner = "".join(f" - v[n - b{g}_{t}]" for t in range(order))
        lags = "".join(f"d{g}_{x}, " for x in range(1, size))
        fill += [
            f"    u{g} = [0] * stop",
            f"    for n in range(start - d{g}_{size - 1}, start):",
            f"        i{g} = n - a{g}{inner}",
            f"        if i{g} < {floor}:",
            f"            end = min(end, n + min(d for d in ({lags}) if n + d >= start))",
            "        else:",
            f"            u{g}[n] = v[i{g}]",
        ]
        lagged += [(f"y{g}_{x}", f"at(u{g}, start - d{g}_{x})") for x in range(1, size)]
        body.append(f"        w{g} = u{g}[n] = v[i{g}]")
        terms += [f"w{g}", *(f"y{g}_{x}" for x in range(1, size))]
    if follow:
        params[:0] = ["steps", "floor"]
        lagged.insert(0, ("step", "at(steps, start - 1)"))
        store = [
            "        if step:",
            "            last += step",
            f"        if {' + '.join(terms)} != last:",
            "            return n",
        ]
    else:
        params.append("cap=MAX_VALUE")
        store = [
            "        total = " + " + ".join(terms),
            "        if total != last:",
            # CPython specializes an int compare only when both sides are below
            # 2^30, which the cap is not, so the compare with 2^30 - 1 goes first
            "            if total > 0x3FFFFFFF and total > cap:",
            '                raise OverflowError(f"R({n}) exceeds 2^63 - 1")',
            "            last = total",
        ]
    names, iterators = zip(*lagged)
    lines = [
        f"def loop(v, start, stop, {', '.join(params)}):",
        "    end, last = stop, v[start - 1]" if follow else "    end, last = stop, 0",
        *fill,
        f"    for n, {', '.join(names)} in zip(range(start, end), {', '.join(iterators)}):",
        *body,
        *store,
        "        v[n] = last",
        "    return end if end < stop else 0",
    ]
    namespace = {"MAX_VALUE": MAX_VALUE, "at": _list_iterator_at}
    exec("\n".join(lines), namespace)
    return namespace["loop"]


def _list_iterator_at(values: list[int], index: int) -> Iterator[int]:
    """An iterator over values that reads values[index] first, each item when it is advanced."""
    it = iter(values)
    it.__setstate__(index)
    return it


def right_side(spec: RecursionSpec, value: Callable[[int], int], n: int) -> int:
    """sum over i of value(n - a_i - sum over t of value(n - b_it)) at one n.

    `value` gives any term on its own, such as a closed-form cell count, so
    the recursion can be checked at a single huge n without the sequence up
    to it.  A nonpositive index raises DeadIndex, as it kills the evaluator;
    the first summand to fail, in order, names the reason.
    """
    total = 0
    for a, row in zip(spec.outer_offsets, spec.inner_offsets):
        idx = n - a
        for b in row:
            if n - b <= 0:
                raise DeadIndex(f"inner index {n - b} at n = {n} is not positive",
                                DeadReason.INNER_INDEX_NONPOSITIVE)
            idx -= value(n - b)
        if idx <= 0:
            raise DeadIndex(f"outer index {idx} at n = {n} is not positive", DeadReason.OUTER_INDEX_NONPOSITIVE)
        total += value(idx)
    return total


def slow_steps(values: Sequence[int]) -> tuple[Optional[int], bytes]:
    """The first term breaking slowness (1-based, or None if slow) and the slow prefix's steps as bytes.

    Slow means the sequence starts at a positive value and every consecutive
    difference is 0 or 1.  One pass packs the steps into bytes, and the
    slow prefix ends where the leading 0 and 1 bytes do.  A step below 0 or
    past 255 is no byte and ends that pass; only then does a second pass
    find the first step that is not 0 or 1.
    """
    if not values:
        return None, b""
    if values[0] < 1:
        return 1, b""
    try:
        steps = bytes(map(sub, islice(values, 1, None), values))
    except ValueError:
        # a step is 0 or 1 exactly when shifting it right by one bit leaves 0
        violation = next(compress(count(2), map(rshift, map(sub, islice(values, 1, None), values), repeat(1))))
        return violation, bytes(map(sub, islice(values, 1, violation - 1), values))
    slow = len(steps) - len(steps.lstrip(b"\0\1"))
    return (None if slow == len(steps) else slow + 2), steps[:slow]


def from_document(doc: dict) -> tuple[RecursionSpec, list[int]]:
    arity, order, a, b, ic = document_fields(doc, "recursion", {"arity": 0, "order": 0, "a": 1, "b": 2, "ic": 1})
    return RecursionSpec(arity, order, tuple(a), tuple(map(tuple, b))), ic

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

The bottom-up loop is generated and compiled once per (group sizes, p) and
variant, with the offsets passed in as arguments, so each term costs a few
bytecodes and no inner Python loop: every read at a fixed lag comes from a
list iterator that zip advances once per term, and only the outer read is
a subscript.  Past n = max b every inner index n - b lies in 1..n-1, so
the loop only has to watch the outer indices, and only from below: the
values are positive (the initial conditions are at least 1) and every
summand subtracts at least one of them, so no outer index reaches n.  A
group checks u(n - a) for its smallest a at n, where that summand alone
would; its other summands read values checked at an earlier n or, for u(m)
with m below the first open n, in the read-ahead window filled before the
loop.  A window index below 1 ends the run at the first open n that reads
it, the least m + a at or past the first open n.  Either way one run of
the loop dies where the summands one by one would.  A run that starts at
or below max b dies at its first open n.  right_side at the death index
then names why: it walks the summands in order and raises DeadIndex with
the first one's reason.

A slow sequence repeats each value about twice, so a term whose sum equals
the value before it stores that value's object again, and a run of equal
values holds one int.  Values are capped at 2^63 - 1; the loop checks the
cap where it stores a new value, so a repeated value is not checked again.

first_departure checks the recursion against a tree's cell-start bytes,
whose running sum is the cell count C_T.  Its initial conditions are
compared with the running sum of the first bytes.  Past them every value
the recursion reads is a C_T(m) that the bytes fix, so a follow variant
of the compiled loop tracks each group's outer index and reads the change
of u from the bytes there: no values list, and one int add a term.  It
returns the first n where R dies or leaves C_T; where it returns None, R
is C_T at every n.  A run can start at any n from the bytes alone, so one
of SPLIT_MIN_TERMS terms or more, with two CPUs usable and one thread,
checks its second half in a forked child while this process checks the
first.

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
    values = [0] * (n_max + 1)  # 1-indexed
    values[1 : len(initial) + 1] = list(initial)
    start = len(initial) + 1
    if start <= max(max(row) for row in spec.inner_offsets):
        dead_at = start  # some inner index n - b is still below 1
    else:
        groups = _groups(spec)
        dead_at = _group_loop(tuple(map(len, groups)), spec.order, False)(
            values, start, n_max + 1, *_arguments(spec, groups))
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
    running sum is C_T.  Past the initial conditions, compared with the
    running sum of the head bytes, _follow runs the recursion on C_T to
    where evaluate would die or first differ from it.  A run of
    SPLIT_MIN_TERMS terms or more checks its second half at once in a forked
    child when two CPUs are usable and no other thread runs (_split_follow).
    """
    _check_initial(initial)
    for n, (value, count) in enumerate(zip(initial, accumulate(starts[: len(initial)])), 1):
        if value != count:
            return n
    start, stop = len(initial) + 1, len(starts) + 1
    if stop <= start:
        return None
    loop = _group_loop(tuple(map(len, _groups(spec))), spec.order, True)
    # a fork copies only the calling thread, so another thread's locks could stay held in the child
    if (stop - start >= SPLIT_MIN_TERMS and hasattr(os, "fork") and _usable_cpus() >= 2
            and threading.active_count() == 1):
        return _split_follow(spec, loop, starts, start, stop) or None
    return _follow(spec, loop, starts, start, stop) or None


def _check_initial(initial: Sequence[int]) -> None:
    if not initial:
        raise ValueError("at least one initial condition is required")
    if any(v < 1 for v in initial):
        raise ValueError("initial conditions must be positive")


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _split_follow(spec: RecursionSpec, loop: Callable[..., int], starts: bytes, start: int, stop: int) -> int:
    """_follow's result on start..stop - 1, its second half from mid, half way, run at once in a forked child.

    The head's n, if any, is the least: an index below 1 that the tail's
    read-ahead window finds at an m below mid was the head's to find, at
    the same n when that n is below mid.  Otherwise the answer is the
    number the child writes to a pipe.  The child is killed as soon as its
    number cannot matter, and is always reaped.  A child that could not
    start, or that ends with no number or a nonzero status, leaves the tail
    to this process.
    """
    mid = start + (stop - start) // 2
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return _follow(spec, loop, starts, start, stop)
    if not pid:
        status = 1
        try:
            os.close(read)
            os.write(write, b"%d" % _follow(spec, loop, starts, mid, stop))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    tail = b""
    with open(read, "rb") as pipe:
        try:
            head = _follow(spec, loop, starts, start, mid)
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
    return _follow(spec, loop, starts, mid, stop)


def _follow(spec: RecursionSpec, loop: Callable[..., int], starts: bytes, n0: int, stop: int) -> int:
    """0 if R is C_T on n0..stop - 1 given that it is below n0, else the first n there where it dies or is not."""
    end, state = _follow_state(spec, starts, n0, stop)
    return end if end == n0 else loop(starts, n0 + 1, stop, min(end, stop), *state)


def _follow_state(spec: RecursionSpec, starts: bytes, n0: int, stop: int) -> tuple[int, list]:
    """Where a follow run from n0 stops by its read-ahead window, n0 if R(n0) dies or is not C_T(n0),
    and the state its loop takes past n0 to stop - 1.

    With R = C_T below n0, a group with first summand (a, b row) and others
    d past it reads I(m) = m - a - sum over t of C_T(m - b_t) for m from
    n0 - max d to n0.  An I(m) below 1 stops the run at the least m + d at
    or past n0, d = 0 for the first summand, as evaluate's read-ahead
    window does.  Otherwise R(n0), the sum of C_T(I(n0 - d)), is checked in
    full.  The state is, per group, j = I(n0) - 1, du(m) = C_T(I(m)) -
    C_T(I(m - 1)) in a list from n0 + 1 - max d up if it has more members,
    its b row and its lags; the list has stop slots, as the loop writes du
    only below stop.  A run from n0 <= max b stops at n0.  Counts come from
    one byte sum below n0 - max b and one pass to the I(m).
    """
    a, b = spec.outer_offsets, spec.inner_offsets
    shapes = [(a[first], b[first], [0, *(a[i] - a[first] for i in rest)]) for first, *rest in _groups(spec)]
    low = n0 - max(max(row) + max(lags) for _, row, lags in shapes)  # n0 - max b, the least inner index
    if low < 1:
        return n0, []
    near = list(accumulate(starts[low:n0], initial=_counts_at(starts, [low])[low]))  # C_T(low..n0)
    outers = [[m - lead - sum(near[m - t - low] for t in row) for m in range(n0 - max(lags), n0 + 1)]
              for lead, row, lags in shapes]  # I(m) for m from n0 - max d to n0, per group
    end = len(starts) + 1
    for (_, _, lags), outer in zip(shapes, outers):
        for m, i in zip(range(n0 - max(lags), n0 + 1), outer):
            if i < 1:
                end = min(end, m + min(d for d in lags if m + d >= n0))
    if end == n0:
        return n0, []
    counts = _counts_at(starts, [i for outer in outers for i in outer if i >= 1])
    if sum(counts[outer[-1 - d]] for (_, _, lags), outer in zip(shapes, outers) for d in lags) != near[-1]:
        return n0, []
    state = []
    for (_, row, lags), outer in zip(shapes, outers):
        state.append(outer[-1] - 1)
        if len(lags) > 1:
            du = [0] * stop
            du[n0 + 1 - max(lags) : n0 + 1] = [counts.get(i, 0) - counts.get(h, 0) for h, i in zip(outer, outer[1:])]
            state.append(du)
        state += [*row, *lags[1:]]
    return end, state


def _counts_at(starts: bytes, points: list[int]) -> dict[int, int]:
    """C_T at each point, from one pass over the bytes below the largest, taken in sorted order."""
    counts, total, last = {}, 0, 0
    for point in sorted(set(points)):
        # a tree's bytes are 0 or 1, which count(1) adds several times faster than sum
        part = starts[last:point]
        total += sum(part) if part.translate(None, b"\0\1") else part.count(1)
        counts[point], last = total, point
    return counts


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

    Every read at a fixed lag, v[n - b_t] and U[n - d], comes from a list
    iterator that zip advances before the body writes v[n] and U[n]; as
    b_t >= 1 and d >= 1, it reads what earlier terms wrote.  Only the outer
    read v[i] is a subscript, and the offsets are arguments.

    Each term stores the object of the last new value when its sum equals
    it; last starts at 0, below every value, so the first term is a new
    value.  A new value past 2^63 - 1 raises OverflowError.

    With follow, loop(steps, start, stop, end, *state) holds R, equal to
    C_T below start, to C_T, the running sum of the step bytes, and returns
    the first n < end where R dies or is not C_T, else end if end < stop,
    else 0.  Group g tracks j = I(n - a) - 1, where I(m) = m - sum over t
    of C_T(m - c_t), and steps it by 1 - e, e the sum of the bytes
    steps[n - b_t - 1].  Then du = C_T(I) - C_T(I_prev) is steps[j] when e
    is 0, 0 when e is 1, and minus the bytes j stepped back over when e > 1,
    the one branch where j can fall below 0, a death.  A group with more
    members stores du in a list and reads it at n - d, and the du must sum
    to steps[n - 1].  There are no values and no cap.
    """
    params, fill, lagged, body, terms = [], [], [], [], []
    for g, size in enumerate(sizes):
        rows, lags = [f"b{g}_{t}" for t in range(order)], [f"d{g}_{x}" for x in range(1, size)]
        if follow:
            params += [f"j{g}", *[f"u{g}"][: size - 1], *rows, *lags]
            # e is the sum of the bytes at n - b_t - 1, or the one byte when order is 1
            read = [f"x{g}_{t}" for t in range(order)] if order > 1 else [f"e{g}"]
            lagged += [(x, f"at(steps, start - 1 - b{g}_{t})") for t, x in enumerate(read)]
            body += [  # one clause a line: j steps by 1 - e, and w is the change of u there
                *[f"        e{g} = " + " + ".join(read)][: order - 1],
                f"        if not e{g}:", f"            j{g} += 1", f"            w{g} = steps[j{g}]",
                f"        elif e{g} == 1:", f"            w{g} = 0",
                f"        elif e{g} == 2:", f"            w{g} = -steps[j{g}]", f"            j{g} -= 1",
                f"            if j{g} < 0:", "                return n", "        else:",
                f"            j{g} += 1 - e{g}", f"            if j{g} < 0:", "                return n",
                f"            w{g} = -sum(steps[j{g} + 1 : j{g} + e{g}])",
                *[f"        u{g}[n] = w{g}"][: size - 1],
            ]
        else:
            params += [f"a{g}", *rows, *lags]
            lagged += [(f"x{g}_{t}", f"at(v, start - b{g}_{t})") for t in range(order)]
            body += [
                f"        i{g} = n - a{g}" + "".join(f" - x{g}_{t}" for t in range(order)),
                f"        if i{g} < 1:",
                "            return n",
            ]
            if size == 1:
                terms.append(f"v[i{g}]")
                continue
            inner = "".join(f" - v[n - b{g}_{t}]" for t in range(order))
            fill += [
                f"    u{g} = [0] * stop",
                f"    for n in range(start - d{g}_{size - 1}, start):",
                f"        i{g} = n - a{g}{inner}",
                f"        if i{g} < 1:",
                f"            end = min(end, n + min(d for d in ({', '.join(lags)}, ) if n + d >= start))",
                "        else:",
                f"            u{g}[n] = v[i{g}]",
            ]
            body.append(f"        w{g} = u{g}[n] = v[i{g}]")
        lagged += [(f"y{g}_{x}", f"at(u{g}, start - d{g}_{x})") for x in range(1, size)]
        terms += [f"w{g}", *(f"y{g}_{x}" for x in range(1, size))]
    if follow:
        lagged.insert(0, ("step", "at(steps, start - 1)"))
        head = [f"def loop(steps, start, stop, end, {', '.join(params)}):"]
        store = [f"        if {' + '.join(terms)} != step:", "            return n"]
    else:
        head = [f"def loop(v, start, stop, {', '.join(params)}, cap=MAX_VALUE):", "    end, last = stop, 0", *fill]
        store = [
            "        total = " + " + ".join(terms),
            "        if total != last:",
            # CPython specializes an int compare only when both sides are below
            # 2^30, which the cap is not, so the compare with 2^30 - 1 goes first
            "            if total > 0x3FFFFFFF and total > cap:",
            '                raise OverflowError(f"R({n}) exceeds 2^63 - 1")',
            "            last = total",
            "        v[n] = last",
        ]
    names, iterators = zip(*lagged)
    lines = [
        *head,
        f"    for n, {', '.join(names)} in zip(range(start, end), {', '.join(iterators)}):",
        *body,
        *store,
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

"""Memoized evaluation of nested recursions with guarded self-referential indices.

A spec with arity k and order p defines

    R(n) = sum over i of R(n - a_i - sum over t of R(n - b_it))

and is evaluated bottom-up from explicit initial conditions.  Whenever an
index escapes the range of already-defined values the sequence "dies" and
the evaluator reports where and why instead of guessing.

The bottom-up loop is generated and compiled once per shape (k, p), with the
offsets passed in as arguments, so each term costs a few bytecodes and no
inner Python loop.  Past n = max b every inner index n - b lies in 1..n-1,
so the loop only has to watch the outer indices; a run that starts at or
below max b dies at its first open n.  _death_reason then names why, walking
the summands in order.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .frequency import FrequencySequence

MAX_VALUE = 2**63 - 1


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


class DeadReason(enum.Enum):
    INNER_INDEX_NONPOSITIVE = "inner_index_nonpositive"
    OUTER_INDEX_NONPOSITIVE = "outer_index_nonpositive"
    OUTER_INDEX_NOT_YET_DEFINED = "outer_index_not_yet_defined"


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
    up to the death index otherwise.  Values are capped at 2^63 - 1; going
    past that is a hard error rather than silent wraparound.
    """
    if not initial:
        raise ValueError("at least one initial condition is required")
    if any(v < 1 for v in initial):
        raise ValueError("initial conditions must be positive")
    if n_max <= len(initial):
        return EvalResult(tuple(initial[: max(0, n_max)]), None, None)
    values = [0] * (n_max + 1)  # 1-indexed
    values[1 : len(initial) + 1] = list(initial)
    if len(initial) < max(max(row) for row in spec.inner_offsets):
        dead_at = len(initial) + 1  # some inner index n - b is still below 1
    else:
        offsets = [x for a, row in zip(spec.outer_offsets, spec.inner_offsets) for x in (a, *row)]
        dead_at = _shape_loop(spec.arity, spec.order)(values, len(initial) + 1, n_max + 1, *offsets)
    if dead_at:
        return EvalResult(tuple(values[1:dead_at]), dead_at, _death_reason(spec, values, dead_at))
    return EvalResult(tuple(values[1:]))


@functools.cache
def _shape_loop(arity: int, order: int) -> Callable[..., int]:
    """The evaluation loop for one (arity, order), compiled on first use.

    loop(v, start, stop, a0, b0_0, ..., a1, b1_0, ...) fills v[start:stop]
    and returns 0, or returns the first n whose outer index leaves 1..n-1.
    It assumes start > max b, so no inner index needs a check.  Only
    summand and term numbers go into the source; the offsets are arguments.
    """
    params = ", ".join(f"a{i}, " + ", ".join(f"b{i}_{t}" for t in range(order)) for i in range(arity))
    lines = [f"def loop(v, start, stop, {params}, cap=MAX_VALUE):", "    for n in range(start, stop):"]
    for i in range(arity):
        inner = "".join(f" - v[n - b{i}_{t}]" for t in range(order))
        lines += [f"        i{i} = n - a{i}{inner}", f"        if not 0 < i{i} < n:", "            return n"]
    lines += [
        "        total = " + " + ".join(f"v[i{i}]" for i in range(arity)),
        "        if total > cap:",
        '            raise OverflowError(f"R({n}) exceeds 2^63 - 1")',
        "        v[n] = total",
        "    return 0",
    ]
    namespace = {"MAX_VALUE": MAX_VALUE}
    exec("\n".join(lines), namespace)
    return namespace["loop"]


def _death_reason(spec: RecursionSpec, values: Sequence[int], n: int) -> DeadReason:
    """Why R(n) is undefined, given R(1..n-1): the first summand to fail decides."""
    for a, row in zip(spec.outer_offsets, spec.inner_offsets):
        idx = n - a
        for b in row:
            if n - b <= 0:
                return DeadReason.INNER_INDEX_NONPOSITIVE
            idx -= values[n - b]
        if idx <= 0:
            return DeadReason.OUTER_INDEX_NONPOSITIVE
        if idx >= n:
            return DeadReason.OUTER_INDEX_NOT_YET_DEFINED
    raise AssertionError(f"R({n}) is defined; the evaluator stopped there in error")


def right_side(spec: RecursionSpec, value: Callable[[int], int], n: int) -> int:
    """sum over i of value(n - a_i - sum over t of value(n - b_it)) at one n.

    `value` gives any term on its own, such as a closed-form cell count, so
    the recursion can be checked at a single huge n without the sequence up
    to it.  A nonpositive index is an error, as it kills the evaluator.
    """
    total = 0
    for a, row in zip(spec.outer_offsets, spec.inner_offsets):
        idx = n - a
        for b in row:
            if n - b <= 0:
                raise ValueError(f"inner index {n - b} at n = {n} is not positive")
            idx -= value(n - b)
        if idx <= 0:
            raise ValueError(f"outer index {idx} at n = {n} is not positive")
        total += value(idx)
    return total


def slowness_violation(values: Sequence[int]) -> Optional[int]:
    """1-based index of the first term breaking slowness, or None if slow.

    Slow means the sequence starts at a positive value and every consecutive
    difference is 0 or 1.
    """
    if not values:
        return None
    if values[0] < 1:
        return 1
    for i in range(1, len(values)):
        if values[i] - values[i - 1] not in (0, 1):
            return i + 1
    return None


def is_slow(values: Sequence[int]) -> bool:
    return slowness_violation(values) is None


def frequency_of(values: Sequence[int]) -> FrequencySequence:
    """Occurrence counts of each value, dropping the possibly unfinished last run.

    The input must be slow and start at 1 so that every value up to the
    final one occurs at least once.
    """
    if slowness_violation(values) is not None:
        raise ValueError("frequency counting needs a slow sequence")
    if not values or values[0] != 1:
        raise ValueError("frequency counting needs a slow sequence starting at 1")
    entries: dict[int, int] = {}
    last = values[-1]
    for v in values:
        if v < last:
            entries[v] = entries.get(v, 0) + 1
    return FrequencySequence(entries=entries, source="empirical")


def to_document(spec: RecursionSpec, initial: Sequence[int]) -> dict:
    return {
        "arity": spec.arity,
        "order": spec.order,
        "a": list(spec.outer_offsets),
        "b": [list(row) for row in spec.inner_offsets],
        "ic": list(initial),
    }


def from_document(doc: dict) -> tuple[RecursionSpec, list[int]]:
    try:
        spec = RecursionSpec(
            arity=int(doc["arity"]),
            order=int(doc["order"]),
            outer_offsets=tuple(int(a) for a in doc["a"]),
            inner_offsets=tuple(tuple(int(b) for b in row) for row in doc["b"]),
        )
        return spec, [int(v) for v in doc["ic"]]
    except KeyError as missing:
        raise ValueError(f"recursion document is missing field {missing}") from None

"""Frequency sequences of slow solutions and their closed forms.

For a slow sequence the frequency phi(v) counts how often the value v
occurs.  For cell counting sequences there is a closed form driven by the
k-adic valuation: values off the leaf-cell grid occur per_cell times, and
the v-th cell completion at v = j*q occurs last_cell + regular*nu_k(q)
times, plus supernode_labels more when q is a power of k.

The closed form is periodic away from its block ends.  Take P = j*k^h.
For t >= 1 and 0 < r < P, phi(t*P + r) = phi(P + r): off the grid both
are per_cell, and on it r = j*r' with 0 < r' < k^h, so
nu_k(t*k^h + r') = nu_k(r') and t*k^h + r' is no power of k (a power
above k^h would be a multiple of k^h).  So phi is phi(1..P), then one
block phi(P + 1..2P - 1) repeated between single closed_form calls for the
block ends (t + 1)*P.
_phi_blocks yields these blocks, both built by one recurrence from
repeats of the ruler nu_k(1..k^h - 1): the grid values for q < k^(h+1)
are k copies of those for q < k^h, with the value of q = t*k^h, t < k,
between them, and only t = 1 gives a power of k.  The stream is written
once over an encoding of one value: as lists [phi(v)] closed_form_sequence
and the streamed check read its blocks; as the bytes of runs, a 1 and
phi(v) - 1 zeros, tree.first_bytes cuts them into phi_starts, the closed
form's run-start bytes, which is tree.cell_starts when the claim holds.

A sequence's own phi is read in one place, from_steps, off its steps as
bytes: recursion.slow_steps packs them for a recursion's values, and the
tree's are its cell_starts bytes after the first, as C_T is their sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from operator import add, sub
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .tree import TreeSpec, cell_positions, cell_starts, first_bytes, first_mismatch

Encoded = TypeVar("Encoded", list, bytes)


def nu(k: int, v: int) -> int:
    """k-adic valuation: the largest e with k^e dividing v."""
    if k < 2 or v < 1:
        raise ValueError("need k >= 2 and v >= 1")
    e = 0
    while v % k == 0:
        v //= k
        e += 1
    return e


def closed_form(spec: TreeSpec, v: int) -> int:
    """phi(v) for the cell counting sequence of `spec`."""
    if v < 1:
        raise ValueError("v must be positive")
    j = spec.leaf_cells
    if v % j:
        return spec.per_cell
    # one pass finds e = nu_k(q) and the part of q prime to k; q is a power
    # of k exactly when that part is 1
    k = spec.arity
    q = v // j
    e = 0
    while q % k == 0:
        q //= k
        e += 1
    bump = spec.supernode_labels if q == 1 else 0
    return spec.last_cell + spec.regular_labels * e + bump


@dataclass(frozen=True)
class FrequencySequence:
    """phi(1), ..., phi(vmax) as a tuple; seq[v] is phi(v), 1-based."""

    entries: tuple[int, ...]

    @property
    def vmax(self) -> int:
        return len(self.entries)

    def __getitem__(self, v: int) -> int:
        # a tuple index would wrap at v <= 0
        if not 1 <= v <= len(self.entries):
            raise KeyError(v)
        return self.entries[v - 1]


# The smallest period block the phi stream uses: long enough that its two
# generator steps per block cost little, short enough that the interior list
# stays small.
_MIN_PERIOD = 1024


def _phi_blocks(spec: TreeSpec, unit: Callable[[int], Encoded], empty: Encoded) -> Iterator[Encoded]:
    """phi(1..P), then phi(P + 1..2P - 1) and phi(2P), that block and phi(3P), and so on, v as unit(phi(v)).

    P = j*k^h is the smallest such length of at least _MIN_PERIOD.  `pure`
    holds the grid runs, j - 1 off-grid values then last_cell +
    regular*nu_k(q), for q = 1..k^h - 1, and `first` the same with
    supernode_labels added at each power of k; each round takes h to h + 1
    by repetition (see the module docstring), so neither block makes a
    Python call per value.  closed_form gives each block end.
    """
    k, j, s, x = spec.arity, spec.leaf_cells, spec.supernode_labels, spec.regular_labels
    off = unit(spec.per_cell) * (j - 1)
    pure = first = empty
    g, period = spec.last_cell, j  # g is the grid value at q = k^h
    while period < _MIN_PERIOD:
        first = first + off + unit(g + s) + (pure + off + unit(g)) * (k - 2) + pure
        pure = (pure + off + unit(g)) * (k - 1) + pure
        g += x
        period *= k
    yield first + off + unit(g + s)
    interior = pure + off
    for end in count(2 * period, period):
        yield interior
        yield unit(closed_form(spec, end))


def _entry(f: int) -> list[int]:
    return [f]


def _run(f: int) -> bytes:
    """The start bytes of a run of f labels: a 1 where it opens, then f - 1 zeros."""
    return b"\1" + bytes(f - 1)


def phi_starts(spec: TreeSpec, n: int) -> bytes:
    """The closed form's run-start bytes for labels 1..n: phi(v) as a 1 and phi(v) - 1 zeros, v = 1, 2, ...

    When the frequency claim holds this is cell_starts(spec, n).
    """
    return first_bytes(_phi_blocks(spec, _run, b""), n)


def closed_form_sequence(spec: TreeSpec, vmax: int) -> FrequencySequence:
    return FrequencySequence(tuple(islice(chain.from_iterable(_phi_blocks(spec, _entry, [])), max(vmax, 0))))


def from_steps(steps: bytes) -> FrequencySequence:
    """phi of a slow sequence that starts at 1, from its steps as bytes of 0 and 1.

    The v-th 1 byte ends the run of v, and phi(v) is one more than the 0
    bytes before it since the 1 before that.  The piece after the last 1 is
    a run that may still grow, so it is dropped.
    """
    return FrequencySequence(tuple(map(add, repeat(1), map(len, steps.split(b"\1")[:-1]))))


def empirical_frequency(spec: TreeSpec, n_max: int) -> FrequencySequence:
    """phi from the tree itself: the runs of C_T(1..n_max), from its cell-start bytes.

    Covers every v whose run of occurrences completes within the first
    n_max labels.
    """
    return from_steps(cell_starts(spec, n_max)[1:])


@dataclass(frozen=True)
class CompareReport:
    agree: bool
    first_diff: Optional[int] = None
    left: Optional[int] = None
    right: Optional[int] = None


def compare(a: FrequencySequence, b: FrequencySequence, vmax: int) -> CompareReport:
    """First v <= vmax where the two sequences disagree, if any."""
    if a.vmax < vmax or b.vmax < vmax:
        raise ValueError(f"both sequences must cover 1..{vmax}")
    head = slice(max(vmax, 0))
    if a.entries[head] == b.entries[head]:
        return CompareReport(True)
    v = first_mismatch(a.entries, b.entries)
    return CompareReport(False, v, a[v], b[v])


def empirical_matches_closed_form(spec: TreeSpec, n_max: int) -> CompareReport:
    """Streaming form of compare(empirical, closed) for big n_max.

    One tree walk, read a phi block's worth of first labels at a time: gap
    v runs from the first label of cell v to that of cell v + 1.
    """
    firsts = cell_positions(spec, n_max)
    prev = next(firsts, None)
    v = 1
    for block in _phi_blocks(spec, _entry, []):  # endless: the walk ends first
        chunk = list(islice(firsts, len(block)))
        gaps = list(map(sub, chunk, chain((prev,), chunk)))
        if gaps != block:
            at = first_mismatch(gaps, block)  # None when the walk ended inside this block
            return CompareReport(True) if at is None else CompareReport(False, v + at - 1, gaps[at - 1], block[at - 1])
        prev = chunk[-1]
        v += len(block)


def superpose(components: Sequence[tuple[int, TreeSpec]]) -> TreeSpec:
    """Overlay trees that share a skeleton, summing their label counts.

    Each component is (multiplicity, spec); all specs must agree on arity
    and cell count per leaf.
    """
    if not components:
        raise ValueError("need at least one component")
    if any(mult < 1 for mult, _ in components):
        raise ValueError("multiplicities must be positive")
    k = components[0][1].arity
    j = components[0][1].leaf_cells
    if any(spec.arity != k or spec.leaf_cells != j for _, spec in components):
        raise ValueError("components must share arity and leaf cell count")
    return TreeSpec(
        arity=k,
        supernode_labels=sum(m * spec.supernode_labels for m, spec in components),
        leaf_cells=j,
        per_cell=sum(m * spec.per_cell for m, spec in components),
        last_cell=sum(m * spec.last_cell for m, spec in components),
        regular_labels=sum(m * spec.regular_labels for m, spec in components),
    )


def linear_combination(terms: Sequence[tuple[int, FrequencySequence]]) -> FrequencySequence:
    """Pointwise integer combination of frequency sequences.

    The result covers the common range of the inputs.  Any v where the
    combined count drops below 1 could not be the frequency of a slow
    sequence, so it is flagged in the log.
    """
    if not terms:
        raise ValueError("need at least one term")
    vmax = min(seq.vmax for _, seq in terms)
    if vmax < 1:
        raise ValueError("terms have no common range")
    entries = tuple(sum(c * seq.entries[i] for c, seq in terms) for i in range(vmax))
    bad = [v for v, count in enumerate(entries, 1) if count < 1]
    if bad:
        import logging  # imported here, not at module top, where it would cost every command's start-up

        logging.getLogger(__name__).warning(
            "combination is not a slow-sequence frequency: phi(%d) = %d", bad[0], entries[bad[0] - 1])
    return FrequencySequence(entries)

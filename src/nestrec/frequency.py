"""Frequency sequences of slow solutions and their closed forms.

For a slow sequence the frequency phi(v) counts how often the value v
occurs.  For cell counting sequences there is a closed form driven by the
k-adic valuation: values off the leaf-cell grid occur per_cell times, and
the v-th cell completion at v = j*q occurs last_cell + regular*nu_k(q)
times, plus supernode_labels more when q is a power of k.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .tree import TreeSpec, cell_positions

log = logging.getLogger(__name__)


def nu(k: int, v: int) -> int:
    """k-adic valuation: the largest e with k^e dividing v."""
    if k < 2 or v < 1:
        raise ValueError("need k >= 2 and v >= 1")
    e = 0
    while v % k == 0:
        v //= k
        e += 1
    return e


def is_power_of(k: int, v: int) -> bool:
    """True when v is k^e for some e >= 0 (so 1 counts)."""
    if k < 2 or v < 1:
        raise ValueError("need k >= 2 and v >= 1")
    while v % k == 0:
        v //= k
    return v == 1


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
    """phi(v) over a contiguous range 1..vmax, tagged with its provenance."""

    entries: dict[int, int]
    source: object = "empirical"

    @property
    def vmax(self) -> int:
        return max(self.entries) if self.entries else 0

    def __getitem__(self, v: int) -> int:
        return self.entries[v]


def closed_form_sequence(spec: TreeSpec, vmax: int) -> FrequencySequence:
    return FrequencySequence(
        entries={v: closed_form(spec, v) for v in range(1, vmax + 1)},
        source=spec,
    )


def empirical_frequency(spec: TreeSpec, n_max: int) -> FrequencySequence:
    """phi from the tree itself: gaps between successive cell first-labels.

    Covers every v whose run of occurrences completes within the first
    n_max labels.
    """
    positions = [first for first, _, _ in cell_positions(spec, n_max)]
    entries = {v: positions[v] - positions[v - 1] for v in range(1, len(positions))}
    return FrequencySequence(entries=entries, source="empirical")


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
    for v in range(1, vmax + 1):
        if a.entries[v] != b.entries[v]:
            return CompareReport(False, v, a.entries[v], b.entries[v])
    return CompareReport(True)


def empirical_matches_closed_form(spec: TreeSpec, n_max: int) -> CompareReport:
    """Streaming form of compare(empirical, closed) for big n_max.

    Walks the tree once and checks each completed v against the closed form
    without materializing either sequence.
    """
    prev = None
    v = 0
    for first, _, _ in cell_positions(spec, n_max):
        if prev is not None:
            v += 1
            expected = closed_form(spec, v)
            actual = first - prev
            if actual != expected:
                return CompareReport(False, v, actual, expected)
        prev = first
    return CompareReport(True)


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
    entries = {v: sum(c * seq.entries[v] for c, seq in terms) for v in range(1, vmax + 1)}
    bad = [v for v, count in entries.items() if count < 1]
    if bad:
        log.warning("combination is not a slow-sequence frequency: phi(%d) = %d", bad[0], entries[bad[0]])
    return FrequencySequence(entries=entries, source=tuple(terms))


def nonslow_values(seq: FrequencySequence) -> list[int]:
    """Values whose count rules out an underlying slow sequence."""
    return [v for v, count in sorted(seq.entries.items()) if count < 1]

"""Parameter families tying recursions to labelled trees.

One parameter set fixes both sides of the story: the offsets of a nested
recursion and the labelled tree whose cell counts solve it.  Each family is
a frozen dataclass that is the single record of its facts:

    check()            the range check, as a Validation
    offsets()          the recursion's RecursionSpec
    tree()             the TreeSpec whose cell counts solve it
    ic_length()        how many initial conditions a run starts from
    prune_threshold()  the smallest n its pruning operation accepts
    neighbour()        the nearest in-range point that has a tree
    name               its catalog name

The methods do no range checking, so the exploration harness can run them
on out-of-range points.  The module functions (recursion_of, tree_of,
prune_threshold, standard_ics) range-check first; a caller holding a
checked record calls its methods.  A family lacking a fact keeps the
NoTreeKnown default of the base record.  c_sjk's tree was found and
checked, not proven, and it has no pruning operation.  q_family has no
known tree, and its neighbour is the order-one family it meets at q = 0;
neg_gamma names the k-ary record its tree is conjectured to be
(conjectured()).  Classic sequences are thin constructors onto the core
families, and build_family makes any catalog entry from its parameters.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, replace
from typing import Callable, ClassVar, Union

from . import tree as tree_model
from .recursion import RecursionSpec
from .tree import TreeSpec


class NoTreeKnown(Exception):
    """Raised when a family has no tree construction to lean on."""


@dataclass(frozen=True)
class Validation:
    ok: bool
    message: str = ""
    exploratory: bool = False


def _clamp(value: int, lo: int, hi: int) -> int:
    return min(max(value, lo), hi)


class _Record:
    """Defaults for a family with no tree construction."""

    name: ClassVar[str]

    def tree(self) -> TreeSpec:
        raise NoTreeKnown(f"no tree construction for {self}")

    def ic_length(self) -> int:
        raise NoTreeKnown(f"no tree construction for {self}")

    def prune_threshold(self) -> int:
        raise NoTreeKnown(f"no tree construction for {self}")


@dataclass(frozen=True)
class OrderOne(_Record):
    s: int
    j: int
    m: int
    name = "order_one"

    def check(self) -> Validation:
        if self.s < 0 or self.j < 1:
            return Validation(False, "need s >= 0 and j >= 1")
        if not 0 <= self.m <= self.j:
            return Validation(False, f"m must lie in 0..j = 0..{self.j}")
        return Validation(True)

    def offsets(self) -> RecursionSpec:
        return RecursionSpec.shifted((self.s, self.s + self.j + self.m), (self.j - self.s,))

    def tree(self) -> TreeSpec:
        return TreeSpec(2, self.s, self.j, 1, 1 + self.m, self.j - self.m)

    def ic_length(self) -> int:
        return 5 * self.j + 3 * self.m + 2 * self.s

    def prune_threshold(self) -> int:
        return 4 * self.j + 2 * self.m + 2 * self.s

    def neighbour(self) -> OrderOne:
        return replace(self, m=_clamp(self.m, 0, self.j))


@dataclass(frozen=True)
class HigherOrder(_Record):
    s: int
    j: int
    m: int
    p: int
    name = "higher_order"

    def check(self) -> Validation:
        if self.s < 0 or self.j < 1 or self.p < 1:
            return Validation(False, "need s >= 0, j >= 1 and p >= 1")
        top = (2 * self.p - 1) * self.j
        if not 0 <= self.m <= top:
            return Validation(False, f"m must lie in 0..(2p-1)j = 0..{top}")
        return Validation(True)

    def offsets(self) -> RecursionSpec:
        s, j, m, p = self.s, self.j, self.m, self.p
        return RecursionSpec.shifted((s, s + j + m), [(2 * t - 1) * j - s for t in range(1, p + 1)])

    def _x(self) -> int:
        return (2 * self.p - 1) * self.j - self.m

    def tree(self) -> TreeSpec:
        return TreeSpec(2, self.s, self.j, 1, 1 + self.m, self._x())

    def ic_length(self) -> int:
        return 4 * (self.j + self.m) + self._x() + 2 * self.s

    def prune_threshold(self) -> int:
        return 3 * (self.j + self.m) + self._x() + 2 * self.s + 1

    def neighbour(self) -> HigherOrder:
        return replace(self, m=_clamp(self.m, 0, (2 * self.p - 1) * self.j))


@dataclass(frozen=True)
class Superposed(_Record):
    s: int
    j: int
    m: int
    p: int
    name = "superposed"

    def check(self) -> Validation:
        if self.s < 0 or self.j < 1 or self.p < 1:
            return Validation(False, "need s >= 0, j >= 1 and p >= 1")
        if 0 <= self.m <= self.p * self.j:
            return Validation(True)
        if -self.p < self.m < 0:
            return Validation(True, "negative m: tree is defined but no recursion is proven", exploratory=True)
        return Validation(False, f"m must lie in -p+1..pj = {-self.p + 1}..{self.p * self.j}")

    def offsets(self) -> RecursionSpec:
        s, j, m, p = self.s, self.j, self.m, self.p
        return RecursionSpec.shifted((s, s + p * j + m), [2 * t - 1 + p * (j - 1) - s for t in range(1, p + 1)])

    def tree(self) -> TreeSpec:
        s, j, m, p = self.s, self.j, self.m, self.p
        return TreeSpec(2, s, j, p, p + m, p * j - m)

    def ic_length(self) -> int:
        return 5 * self.p * self.j + 3 * self.m + 2 * self.s

    def prune_threshold(self) -> int:
        if self.m < 0:
            # exploratory shapes only need the first five nodes full
            return 3 * self.p * self.j + self.m + 2 * self.s + 1
        return 5 * self.p * self.j + 3 * self.m + 2 * self.s + 1

    def neighbour(self) -> Superposed:
        return replace(self, m=_clamp(self.m, -self.p + 1, self.p * self.j))


@dataclass(frozen=True)
class KaryOrderP(_Record):
    k: int
    m: int
    p: int
    name = "kary"

    def check(self) -> Validation:
        if self.k < 2 or self.p < 1:
            return Validation(False, "need k >= 2 and p >= 1")
        if self.m < self.p - 1:
            return Validation(False, f"m must be at least p-1 = {self.p - 1}")
        if (self.m + 1) * (self.k - 1) > self.k * self.p:
            return Validation(False, f"need (m+1)(k-1) <= kp, violated by m = {self.m}")
        if self.k == 2:
            return Validation(True, "k = 2 lies outside the intended arity range; admitted for comparison")
        return Validation(True)

    def offsets(self) -> RecursionSpec:
        return RecursionSpec.shifted([i * (1 + self.m) for i in range(self.k)], range(1, self.p + 1))

    def tree(self) -> TreeSpec:
        k, m, p = self.k, self.m, self.p
        return TreeSpec(k, 0, 1, 1, 1 + m, p * k - (k - 1) * (1 + m))

    def ic_length(self) -> int:
        k, m, p = self.k, self.m, self.p
        return 2 * k * (p + m) + p - (k - 1) * m

    def prune_threshold(self) -> int:
        k, m, p = self.k, self.m, self.p
        return k * (p + m) + p - (k - 1) * m + 1

    def neighbour(self) -> KaryOrderP:
        if self.k < 2:
            raise ValueError("a k-ary tree needs k >= 2")
        return replace(self, m=_clamp(self.m, self.p - 1, self.k * self.p // (self.k - 1) - 1))


@dataclass(frozen=True)
class QFamily(_Record):
    s: int
    j: int
    q: int
    name = "q_family"

    def check(self) -> Validation:
        if self.s < 0 or self.j < 1:
            return Validation(False, "need s >= 0 and j >= 1")
        if not 0 <= self.q <= self.j:
            return Validation(False, f"q must lie in 0..j = 0..{self.j}")
        return Validation(True, "no tree construction is known", exploratory=True)

    def offsets(self) -> RecursionSpec:
        s, j, q = self.s, self.j, self.q
        return RecursionSpec(2, 1, (s, s + j), ((j,), (2 * j - q,)))

    def ic_length(self) -> int:
        return 5 * self.j + 2 * self.s

    def neighbour(self) -> OrderOne:
        """The order-one family it coincides with at q = 0."""
        return OrderOne(self.s, self.j, 0)


@dataclass(frozen=True)
class CSJK(_Record):
    s: int
    j: int
    k: int
    name = "c_sjk"

    def check(self) -> Validation:
        if self.s < 0 or self.j < 1 or self.k < 2:
            return Validation(False, "need s >= 0, j >= 1 and k >= 2")
        return Validation(True, "tree found and checked, not proven", exploratory=True)

    def offsets(self) -> RecursionSpec:
        return RecursionSpec.shifted([self.s + i * self.j for i in range(self.k)], (self.j - self.s,))

    def tree(self) -> TreeSpec:
        return TreeSpec(self.k, self.s, self.j, 1, 1, self.j)

    def ic_length(self) -> int:
        # the IC length of OrderOne(s, j, 0) at k = 2 and of kary_conolly(k) at
        # s = 0, j = 1, the records whose offsets it shares there
        return (2 * self.k + 1) * self.j + 2 * self.s

    def prune_threshold(self) -> int:
        raise NoTreeKnown(f"no pruning operation for {self}")

    def neighbour(self) -> CSJK:
        return replace(self, s=max(self.s, 0), j=max(self.j, 1), k=max(self.k, 2))


@dataclass(frozen=True)
class NegGammaCandidate(_Record):
    k: int
    gamma: int
    delta: int
    name = "neg_gamma"

    def check(self) -> Validation:
        if self.k < 2:
            return Validation(False, "need k >= 2")
        if self.gamma >= 0:
            return Validation(False, "gamma must be negative")
        if self.delta < 0:
            return Validation(False, "delta must be nonnegative")
        if self.gamma * self.k + self.delta < 1:
            return Validation(False, "need gamma*k + delta >= 1")
        return Validation(True, "candidate recursion: conjectured tree only", exploratory=True)

    def _order(self) -> int:
        return (self.k - 1) * self.gamma + self.delta

    def offsets(self) -> RecursionSpec:
        k, gamma, p = self.k, self.gamma, self._order()
        g = -gamma
        row = (1,) + tuple(1 + t * k for t in range(1, g + 1)) \
            + tuple(1 + g * k + 2 * t for t in range(1, p - g))
        outer = tuple((i - 1) * (p + gamma) for i in range(1, k + 1))
        return RecursionSpec(k, p, outer, (row,) * k)

    def conjectured(self) -> KaryOrderP:
        """The k-ary record whose tree is conjectured to solve it; out of that record's range."""
        p = self._order()
        return KaryOrderP(self.k, p - 1 + self.gamma, p)


Family = Union[OrderOne, HigherOrder, Superposed, KaryOrderP, QFamily, CSJK, NegGammaCandidate]


# -- classic sequences as constructors onto the core families -----------------

def conolly() -> OrderOne:
    return OrderOne(0, 1, 0)


def h_classic() -> OrderOne:
    """The slow solution is the ceiling of n/2."""
    return OrderOne(0, 1, 1)


def r_sj(s: int, j: int) -> OrderOne:
    return OrderOne(s, j, 0)


def h_sj(s: int, j: int) -> OrderOne:
    return OrderOne(s, j, j)


def alpha_beta_conolly(alpha: int, beta: int) -> Superposed:
    """Order alpha/2 + beta recursion blending the two binary classics."""
    if alpha % 2:
        raise ValueError("alpha must be even")
    if beta < 0 or alpha + beta < 1:
        raise ValueError("need beta >= 0 and alpha + beta >= 1")
    return Superposed(s=0, j=1, m=alpha // 2, p=alpha // 2 + beta)


def kary_conolly(k: int) -> KaryOrderP:
    return KaryOrderP(k, 0, 1)


def kary_h(k: int) -> KaryOrderP:
    """The slow solution is the ceiling of n/k."""
    return KaryOrderP(k, k - 1, k - 1)


def kary_ceiling(k: int, q: int) -> KaryOrderP:
    """The slow solution is the ceiling of n/(k*q)."""
    if q < 1:
        raise ValueError("q must be positive")
    return KaryOrderP(k, k * q - 1, (k - 1) * q)


# -- range-checked access to the records ----------------------------------------

def _checked(family: Family) -> Family:
    verdict = family.check()
    if not verdict.ok:
        raise ValueError(f"invalid parameters for {family}: {verdict.message}")
    return family


def recursion_of(family: Family) -> RecursionSpec:
    """Offsets of the family's recursion."""
    return _checked(family).offsets()


def tree_of(family: Family) -> TreeSpec:
    """The tree whose cell counts solve the family's recursion."""
    return _checked(family).tree()


def standard_ics(family: Family) -> list[int]:
    """Initial conditions that follow the family's tree."""
    return tree_model.initial_conditions(tree_of(family), family.ic_length())


def prune_threshold(family: Family) -> int:
    """Smallest n the family's pruning operation accepts."""
    return _checked(family).prune_threshold()


NAMED_FAMILIES: dict[str, Callable[..., Family]] = {
    **{record.name: record for record in
       (OrderOne, HigherOrder, Superposed, KaryOrderP, QFamily, CSJK, NegGammaCandidate)},
    "conolly": conolly,
    "h": h_classic,
    "r_sj": r_sj,
    "h_sj": h_sj,
    "alpha_beta": alpha_beta_conolly,
    "kary_conolly": kary_conolly,
    "kary_h": kary_h,
    "kary_ceiling": kary_ceiling,
}


def constructor(name: str) -> Callable[..., Family]:
    """The catalog constructor for a name, e.g. constructor("kary_h")(k=3)."""
    try:
        return NAMED_FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_FAMILIES))
        raise ValueError(f"unknown family {name!r}; known: {known}") from None


def build_family(name: str, **params: int) -> Family:
    """Construct a family from its catalog name, e.g. build_family("order_one", s=1, j=3, m=1).

    Keys that do not fit the catalog entry raise ValueError naming its parameters.
    """
    build = constructor(name)
    try:
        return build(**params)
    except TypeError:
        wanted = list(inspect.signature(build).parameters)
        missing = " ".join(key for key in wanted if key not in params)
        foreign = " ".join(key for key in params if key not in wanted)
        if not missing and not foreign:
            raise
    raise ValueError(f"{name} takes {' '.join(wanted) or 'no parameters'}"
                     + (missing and f"; missing {missing}") + (foreign and f"; unknown {foreign}"))


def to_document(family: Family) -> dict:
    return {"family": family.name, **asdict(family)}


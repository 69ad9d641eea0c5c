"""Seeded inputs and self-checking operations for the four benchmark workloads.

Every workload is a list of operations built from the workload seed alone.
An operation calls the program and returns what it produced; its check
decides whether that output is right, so only correct runs are measured.
The workloads are sized from timings on a 2-core Xeon: one pass takes about
1 s (explore), 2 s (prune, counts) or 4.5 s (verify) at reference speed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import nestrec  # noqa: E402

if not Path(nestrec.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"nestrec was imported from {nestrec.__file__}, not from {SRC}")

from nestrec import cli  # noqa: E402
from nestrec import families as fam  # noqa: E402
from nestrec import frequency as freq  # noqa: E402
from nestrec import pruning, tree  # noqa: E402

WORKLOADS = ("verify", "prune", "explore", "counts")

VERIFY_N = 1_000_000
PRUNE_MAX_N = 60_000
PRUNE_SAMPLES_PER_KIND = 6
EXPLORE_N = 2000
COUNTS_STREAM_N = 300_000
COUNTS_POINT_N = (20_000, 50_000)
COUNTS_POINTS_PER_FAMILY = 2
COUNTS_FAMILIES_PER_KIND = 3

# The two explore inputs that break the "rows, never errors" promise today:
# k = 1 divides by zero in cli.adjacent_ics, and a grid without m makes
# OrderOne raise TypeError.  They run in every explore pass and are counted
# on their own, because the benchmark's operations must all succeed.
HOSTILE_EXPLORE = (("kary", {"k": 1, "m": 0, "p": 1}), ("order_one", {"s": 0, "j": 2}))


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    hostile: list[Op]


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "verify":
        return Workload(verify_ops(rng), [])
    if name == "prune":
        return Workload(prune_ops(rng), [])
    if name == "explore":
        return Workload(explore_ops(rng), hostile_ops())
    if name == "counts":
        return Workload(counts_ops(rng), [])
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


# -- seeded family parameters ---------------------------------------------------
# Each kind keeps its arity, order and cells per leaf (j = 2) fixed: those set
# the cost per term and per label, so a seed changes the parameters but not
# how much work a family takes.


def order_one(rng: random.Random) -> fam.OrderOne:
    return fam.OrderOne(rng.randint(0, 2), 2, rng.randint(0, 2))


def higher_order(rng: random.Random) -> fam.HigherOrder:
    return fam.HigherOrder(rng.randint(0, 2), 2, rng.randint(0, 6), 2)


def superposed(rng: random.Random) -> fam.Superposed:
    return fam.Superposed(rng.randint(0, 2), 2, rng.randint(0, 4), 2)


def kary(rng: random.Random) -> fam.KaryOrderP:
    return fam.KaryOrderP(4, rng.randint(2, 3), 3)


KINDS = (order_one, higher_order, superposed, kary)


def spaced(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` values evenly spaced over lo..hi, each moved by a seeded quarter step at most."""
    step = (hi - lo) / count
    return [lo + int((i + 0.5 + rng.uniform(-0.25, 0.25)) * step) for i in range(count)]


# -- verify: the long-sequence path ----------------------------------------------


def verify_ops(rng: random.Random) -> list[Op]:
    ops = []
    for kind in KINDS:
        doc = fam.to_document(kind(rng))
        argv = ["verify", doc.pop("family"), *(f"{k}={v}" for k, v in doc.items()), "--n", str(VERIFY_N)]
        expected = f"AGREE for n <= {VERIFY_N}: recursion matches cell counts\n"
        ops.append(Op(" ".join(argv), lambda argv=argv: run_cli(argv), lambda out, e=expected: out == (0, e)))
    return ops


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one `nestrec` command, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# -- prune: build, prune, rebuild, compare ---------------------------------------


def prune_ops(rng: random.Random) -> list[Op]:
    ops = []
    for kind in KINDS:
        families = [kind(rng) for _ in range(PRUNE_SAMPLES_PER_KIND)]
        lo = max(fam.prune_threshold(f) for f in families)
        for family, n in zip(families, spaced(rng, lo, PRUNE_MAX_N, PRUNE_SAMPLES_PER_KIND)):
            ops.append(Op(f"prune {family} n={n}", lambda f=family, n=n: prune_identity(f, n), lambda ok: ok is True))
    return ops


def prune_identity(family: fam.Family, n: int) -> bool:
    """Pruning T(n) gives T(n - removed): the paper's second claim."""
    spec = fam.tree_of(family)
    report = pruning.prune_family(family, pruning.build_prefix(spec, n))
    rebuilt = pruning.build_prefix(spec, n - report.removed)
    return report.removed > 0 and pruning.trees_equal(report.result, rebuilt)


# -- explore: many short, often dying evaluations ---------------------------------


def grid(**axes: range) -> list[dict[str, int]]:
    keys = list(axes)
    return [dict(zip(keys, values)) for values in itertools.product(*axes.values())]


def explore_points(rng: random.Random) -> list[tuple[str, dict[str, int]]]:
    """About 540 points, mostly outside the proven parameter ranges."""
    def span(lo_choices, width):
        lo = rng.choice(lo_choices)
        return range(lo, lo + width)

    grids = {
        "order_one": grid(s=span((0, 1, 2), 3), j=range(1, 5), m=range(-3, 7)),
        "superposed": grid(s=span((0, 1, 2), 2), j=range(1, 4), m=range(-3, 7), p=range(1, 4)),
        "kary": grid(k=range(2, 6), m=span((-2, -1), 8), p=range(1, 4)),
        "q_family": grid(s=span((0, 1, 2), 3), j=range(1, 5), q=range(0, 6)),
        "c_sjk": grid(s=span((0, 1, 2), 3), j=range(1, 4), k=range(2, 5)),
        "neg_gamma": grid(k=range(2, 5), gamma=range(-2, 0), delta=span((0, 1), 7)),
    }
    return [(name, point) for name, points in grids.items() for point in points]


def explore_ops(rng: random.Random) -> list[Op]:
    return [explore_op(name, point) for name, point in explore_points(rng)]


def hostile_ops() -> list[Op]:
    return [explore_op(name, point) for name, point in HOSTILE_EXPLORE]


def explore_op(name: str, point: dict[str, int]) -> Op:
    return Op(f"explore {name} {point}", lambda: cli.explore_rows(name, [point], EXPLORE_N),
              lambda rows: explore_row_ok(rows, name, point))


def explore_row_ok(rows: list[dict], name: str, point: dict[str, int]) -> bool:
    """Exactly one row for the point; an in-range point must be a verified slow solution."""
    if len(rows) != 1:
        return False
    row = rows[0]
    if row.get("family") != name or any(row.get(k) != v for k, v in point.items()):
        return False
    if row.get("valid") == "yes":
        return (row["survived_to"], row["dead_reason"], row["slow"], row["freq_match"]) == (EXPLORE_N, "", "yes", "yes")
    return "survived_to" in row


# -- counts: the checks that do not use the recursion's sequence ------------------


def counts_ops(rng: random.Random) -> list[Op]:
    ops = []
    for kind in KINDS:
        for _ in range(COUNTS_FAMILIES_PER_KIND):
            family = kind(rng)
            points = spaced(rng, *COUNTS_POINT_N, COUNTS_POINTS_PER_FAMILY)
            ops.append(Op(f"counts {family} at {points}", lambda f=family, p=points: count_checks(f, p),
                          lambda verdicts: all(verdicts)))
    return ops


def count_checks(family: fam.Family, points: list[int]) -> list[bool]:
    """Streamed phi matches its closed form, and point counts satisfy the recursion.

    The identity C(n) = sum_i C(n - a_i - sum_t C(n - b_it)) is evaluated with
    single-point cell counts only, so no recursion sequence is built.
    """
    spec = fam.tree_of(family)
    rspec = fam.recursion_of(family)
    verdicts = [freq.empirical_matches_closed_form(spec, COUNTS_STREAM_N).agree]
    for n in points:
        total = 0
        for a, row in zip(rspec.outer_offsets, rspec.inner_offsets):
            total += tree.cell_count(spec, n - a - sum(tree.cell_count(spec, n - b) for b in row))
        verdicts.append(tree.cell_count(spec, n) == total)
    return verdicts

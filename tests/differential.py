"""Print a differential digest: one line per checked point, to diff two versions of the package.

Run it from the repository root of each version and compare the outputs:

    PYTHONPATH=src python tests/differential.py > digest.txt
    diff old-digest.txt digest.txt

Name sections to print only those, in the order given, such as
`python tests/differential.py eval explore`; each prints the same lines
alone as in the whole digest.  It is not named test_*, so pytest does not
collect it.  Eight sections, each line led by its section name:

    eval     recursion.evaluate on seeded random specs, shifted-row and free
    record   every record method, and the range-checked module functions,
             on grids that run past each family's range on every side
    prune    the four prune operations on the in-range grid, from one below
             each point's threshold, superposed m < 0 included, then on
             seeded large trees: 2 n in [10^4, 6*10^4] for 3 points per op
    explore  cli.explore_rows --prune-check rows on the record grids, plus
             points whose keys do not fit their catalog entry, and one
             point whose slow prefix ends at a step of 2
    walk     tree.cell_positions to 20,000 labels, each first label with
             the leaf and slot its ordinal gives, and the streamed check
             frequency.empirical_matches_closed_form to 100,000, on a grid of
             trees: k 2..4, s 0..2, j 1..3, two label allocations each; then
             on a line of its own frequency.empirical_frequency to 20,000
    phi      frequency.closed_form_sequence at vmax 1, j, 1023, 1024 and
             5,000, one hash per tree: k 2..5, s 0..2, j 1..3, three label
             allocations each; then on a line of its own
             frequency.phi_starts at the same label counts
    verify   dense `nestrec verify --n 3000`, exit code and output, on
             seeded points of the record grids, then on seeded in-range
             points with one initial condition moved by -1, +1 or +256
    count    tree.cell_count and tree.cell_count_split on the phi grid of
             trees at n = 0, 1, one below, at and one above the first
             labels of cells P + 1 and 2P + 1, where P = j*k^h >= 1024 is
             the phi stream's period, and at seeded n up to 10^18

A value is printed as its repr, an exception as `!Type: message`, and a
long sequence or move log as its length and a short hash.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys

from nestrec import cli
from nestrec import families as fam
from nestrec import frequency, pruning, recursion, tree

SEED = 15
EVAL_SPECS = 20_000
PRUNE_WIDTH = 66  # n from threshold - 1 through threshold + PRUNE_WIDTH - 2
LARGE_N = (10_000, 60_000)
LARGE_POINTS, LARGE_SIZES = 3, 2  # points per op, n per point
EXPLORE_N = 300
VERIFY_N, VERIFY_POINTS, VERIFY_MOVED = 3000, 400, 400
WALK_N, CHECK_N = 20_000, 100_000
PHI_LABELS = ((1, 1, 1), (2, 3, 0), (1, 4, 2))  # (per cell, last cell, per regular node)
PERIOD_MIN = 1024  # the smallest period j*k^h of frequency's phi stream
COUNT_HUGE, COUNT_SAMPLES = 10**18, 4


def digest(value: object) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=8).hexdigest()


def outcome(call) -> str:
    try:
        return repr(call())
    except Exception as err:  # an error is a result to compare, like a value
        return f"!{type(err).__name__}: {err}"


def random_spec(rng: random.Random) -> recursion.RecursionSpec:
    """A spec with 1-4 summands and order 1-3; half of them shifted-row, some sharing a shift row."""
    arity, order = rng.randint(1, 4), rng.randint(1, 3)
    outer = tuple(rng.randint(0, 6) for _ in range(arity))
    if rng.random() < 0.5:
        shifts = tuple(rng.randint(1, 8) for _ in range(order))
        inner = tuple(tuple(a + c for c in shifts) for a in outer)
    else:
        inner = tuple(tuple(rng.randint(1, 10) for _ in range(order)) for _ in range(arity))
    return recursion.RecursionSpec(arity, order, outer, inner)


def eval_lines(rng: random.Random):
    for index in range(EVAL_SPECS):
        spec = random_spec(rng)
        ic = [rng.randint(1, 4) for _ in range(rng.randint(1, 14))]
        n_max = rng.randint(1, 400)
        try:
            result = recursion.evaluate(spec, ic, n_max)
        except Exception as err:
            yield f"eval {index} {spec} ic={ic} n={n_max} !{type(err).__name__}: {err}"
            continue
        reason = result.reason.value if result.reason else "-"
        yield (f"eval {index} {spec.outer_offsets} {spec.inner_offsets} ic={ic} n={n_max} "
               f"dead={result.dead_at} reason={reason} len={len(result.values)} h={digest(result.values)}")


def record_grids() -> dict[str, list[dict[str, int]]]:
    """Points of every record, running past each range on every side."""
    return {
        "order_one": cli.grid_points({"s": [-1, 0, 1, 2, 3], "j": [0, 1, 2, 3, 4], "m": list(range(-3, 7))}),
        "higher_order": cli.grid_points({"s": [-1, 0, 2], "j": [0, 1, 2, 3], "m": list(range(-3, 9)),
                                         "p": [0, 1, 2, 3]}),
        "superposed": cli.grid_points({"s": [-1, 0, 2], "j": [0, 1, 2, 3], "m": list(range(-4, 8)),
                                       "p": [0, 1, 2, 3]}),
        "kary": cli.grid_points({"k": [0, 1, 2, 3, 4, 5], "m": list(range(-3, 9)), "p": [0, 1, 2, 3]}),
        "q_family": cli.grid_points({"s": [-1, 0, 1, 3], "j": [0, 1, 2, 3, 4], "q": list(range(-2, 7))}),
        "c_sjk": cli.grid_points({"s": [-1, 0, 1, 2, 4], "j": [0, 1, 2, 3, 4], "k": [0, 1, 2, 3, 4, 5]}),
        "neg_gamma": cli.grid_points({"k": [0, 1, 2, 3, 4], "gamma": [-3, -2, -1, 0, 1],
                                      "delta": list(range(-1, 9))}),
    }


METHODS = ("check", "offsets", "tree", "ic_length", "prune_threshold", "neighbour", "conjectured")
MODULE_FUNCTIONS = ("recursion_of", "tree_of", "standard_ics", "prune_threshold")


def record_lines():
    for name, points in record_grids().items():
        for point in points:
            family = fam.constructor(name)(**point)
            methods = [outcome(getattr(family, method)) for method in METHODS if hasattr(family, method)]
            functions = [outcome(lambda f=getattr(fam, function): f(family)) for function in MODULE_FUNCTIONS]
            yield f"record {name} {point} " + " | ".join(methods + functions)


def prune_points() -> list[fam.Family]:
    """The in-range points of the four families that have a pruning operation."""
    points = [fam.OrderOne(s, j, m) for s in range(4) for j in range(1, 5) for m in range(j + 1)]
    points += [fam.HigherOrder(s, j, m, p) for s in range(3) for j in range(1, 4) for p in range(1, 4)
               for m in range((2 * p - 1) * j + 1)]
    points += [fam.Superposed(s, j, m, p) for s in range(3) for j in range(1, 4) for p in range(1, 4)
               for m in range(-p + 1, p * j + 1)]
    points += [fam.KaryOrderP(k, m, p) for k in range(2, 6) for p in range(1, 4) for m in range(p - 1, 3 * p + 1)
               if fam.KaryOrderP(k, m, p).check().ok]
    return points


def prune_line(family: fam.Family, n: int) -> str:
    spec = fam.tree_of(family)
    try:
        report = pruning.prune_family(family, pruning.build_prefix(spec, n))
    except Exception as err:
        return f"prune {family} n={n} !{type(err).__name__}: {err}"
    same = pruning.trees_equal(report.result, pruning.build_prefix(spec, n - report.removed))
    return (f"prune {family} n={n} removed={report.removed} equal={same} "
            f"anomalies={report.anomalies} moves={len(report.moves)} h={digest(report.moves)}")


def prune_lines():
    points = prune_points()
    for family in points:
        threshold = fam.prune_threshold(family)
        for n in range(threshold - 1, threshold + PRUNE_WIDTH - 1):
            yield prune_line(family, n)
    rng = random.Random(f"prune:{SEED}")
    for name in ("order_one", "higher_order", "superposed", "kary"):
        for family in rng.sample([f for f in points if f.name == name], LARGE_POINTS):
            for _ in range(LARGE_SIZES):
                yield prune_line(family, rng.randint(*LARGE_N))


MISFITS = [  # points whose keys do not fit their catalog entry, and the constructors' own refusals
    ("order_one", {"s": 1, "j": 3}),
    ("order_one", {"s": 1, "j": 3, "m": 1, "q": 2}),
    ("kary_h", {"k": 3, "q": 1}),
    ("kary_h", {}),
    ("conolly", {"x": 1}),
    ("h", {}),
    ("c_sjk", {"s": 0, "j": 1}),
    ("neg_gamma", {"k": 3, "gamma": -1, "d": 2}),
    ("alpha_beta", {"alpha": 3, "beta": 1}),
    ("kary_ceiling", {"k": 3, "q": 0}),
    ("r_sj", {"s": 1, "j": 2}),
]


# slow until n = 143, where it steps by 2 with every step to n = 300 in 0..255, so recursion.slow_steps
# finds the break by its lstrip and not by its second pass
STEP_OF_TWO = ("superposed", {"s": 1, "j": 2, "m": 7, "p": 3})


def explore_lines():
    for name, points in record_grids().items():
        for row in cli.explore_rows(name, points, EXPLORE_N, prune_check=True):
            yield f"explore {row}"
    for name, point in [*MISFITS, STEP_OF_TWO]:
        for row in cli.explore_rows(name, [point], EXPLORE_N, prune_check=True):
            yield f"explore {row}"


def walk_specs() -> list[tree.TreeSpec]:
    """c_sjk's trees, one label per cell and j per regular node, and a wider last cell with one per regular node."""
    return [tree.TreeSpec(k, s, j, c, last, x) for k in range(2, 5) for s in range(3) for j in range(1, 4)
            for c, last, x in ((1, 1, j), (2, 3, 1))]


def walk_lines():
    for spec in walk_specs():
        j = spec.leaf_cells
        cells = [(first, i // j + 1, i % j + 1) for i, first in enumerate(tree.cell_positions(spec, WALK_N))]
        check = frequency.empirical_matches_closed_form(spec, CHECK_N)
        yield f"walk {spec} cells={len(cells)} h={digest(cells)} check={check}"
        phi = frequency.empirical_frequency(spec, WALK_N).entries
        yield f"walk {spec} empirical vmax={len(phi)} h={digest(phi)}"


def phi_specs() -> list[tree.TreeSpec]:
    return [tree.TreeSpec(k, s, j, c, last, x) for k in range(2, 6) for s in range(3) for j in range(1, 4)
            for c, last, x in PHI_LABELS]


def phi_lines():
    for spec in phi_specs():
        j = spec.leaf_cells
        sequences = [frequency.closed_form_sequence(spec, vmax).entries for vmax in (1, j, 1023, 1024, 5000)]
        yield f"phi {spec} h={digest(sequences)}"
        starts = [frequency.phi_starts(spec, n) for n in (1, j, 1023, 1024, 5000)]
        yield f"phi {spec} starts h={digest(starts)}"


def count_lines():
    rng = random.Random(f"count:{SEED}")
    for spec in phi_specs():
        period = spec.leaf_cells
        while period < PERIOD_MIN:
            period *= spec.arity
        phi = frequency.closed_form_sequence(spec, 2 * period).entries
        ends = (1 + sum(phi[:period]), 1 + sum(phi))  # the first labels of cells P + 1 and 2P + 1
        samples = (rng.randint(0, COUNT_HUGE) for _ in range(COUNT_SAMPLES))
        for n in (0, 1, *(end + d for end in ends for d in (-1, 0, 1)), *samples):
            yield (f"count {spec} n={n} {outcome(lambda: tree.cell_count(spec, n))} "
                   f"{outcome(lambda: tree.cell_count_split(spec, n))}")


def verify_run(name: str, point: dict[str, int]) -> str:
    argv = ["verify", name, *(f"{key}={value}" for key, value in point.items()), "--n", str(VERIFY_N)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"code={code} out={out.getvalue()!r} err={err.getvalue()!r}"


def standard_ics(name: str, point: dict[str, int]) -> list[int] | None:
    """The point's initial conditions when it is in range and has a tree, else None."""
    family = fam.constructor(name)(**point)
    try:
        return fam.standard_ics(family) if family.check().ok else None
    except (ValueError, fam.NoTreeKnown):
        return None


def verify_lines():
    rng = random.Random(f"verify:{SEED}")
    points = [(name, point) for name, grid in record_grids().items() for point in grid]
    for name, point in rng.sample(points, VERIFY_POINTS):
        yield f"verify {name} {point} {verify_run(name, point)}"
    real = fam.standard_ics
    known = [(name, point, ic) for name, point in points for ic in [standard_ics(name, point)] if ic]
    try:
        for name, point, ic in rng.choices(known, k=VERIFY_MOVED):
            at, by = rng.randrange(len(ic)), rng.choice((-1, 1, 256))
            moved = [*ic[:at], max(1, ic[at] + by), *ic[at + 1:]]
            fam.standard_ics = lambda family, moved=moved: moved
            yield f"verify {name} {point} ic[{at}]{by:+} {verify_run(name, point)}"
    finally:
        fam.standard_ics = real


SECTIONS = {"eval": lambda: eval_lines(random.Random(SEED)), "record": record_lines, "prune": prune_lines,
            "explore": explore_lines, "walk": walk_lines, "phi": phi_lines, "verify": verify_lines,
            "count": count_lines}


def main(names: list[str]) -> None:
    out = sys.stdout
    for name in names or SECTIONS:
        for line in SECTIONS[name]():
            out.write(line + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])

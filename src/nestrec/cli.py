"""Command line front end.

Subcommands cover both computation mechanisms and their cross-checks:
eval/tree/ic produce sequences, verify plays the two mechanisms against
each other, prune runs and audits the pruning operations, freq handles
frequency sequences, explore sweeps parameter grids including deliberately
broken ones, and oeis-match greps a local OEIS snapshot; eval --format
bfile --out F writes a b-file.  Exit codes: 0 success or agreement, 1
divergence, 2 usage or validation trouble.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import random
import sys
from typing import Optional, Sequence

from . import families as fam
from . import frequency as freq
from . import pruning, recursion, tree


class UsageError(Exception):
    pass


# -- family / spec resolution -------------------------------------------------


def parse_params(tokens: Sequence[str]) -> dict[str, int]:
    params = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or not key:
            raise UsageError(f"expected key=value, got {token!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise UsageError(f"parameter {key!r} needs an integer, got {value!r}") from None
    return params


def resolve_family(args) -> fam.Family:
    if args.family_name is None:
        raise UsageError("name a family (e.g. order_one s=1 j=3 m=1) or pass --spec")
    family = fam.build_family(args.family_name, **parse_params(args.params))
    verdict = family.check()
    if not verdict.ok:
        raise UsageError(f"invalid parameters: {verdict.message}")
    if verdict.message:
        print(f"note: {verdict.message}", file=sys.stderr)
    return family


def resolve_recursion(args) -> tuple[recursion.RecursionSpec, list[int]]:
    """A recursion plus initial conditions, from a named family or a spec file."""
    return _spec_or_family(args, recursion.from_document, _recursion_and_ics)


def _recursion_and_ics(family: fam.Family) -> tuple[recursion.RecursionSpec, list[int]]:
    try:
        ic = fam.standard_ics(family)
    except fam.NoTreeKnown:
        raise UsageError(
            f"{family} has no tree to take initial conditions from; use --spec with explicit ic"
        ) from None
    return fam.recursion_of(family), ic


def resolve_tree(args) -> tree.TreeSpec:
    return _spec_or_family(args, tree.from_document, fam.tree_of)


def _spec_or_family(args, from_document, of_family):
    """`from_document` of the --spec file, or `of_family` of the named family: one of the two, not both."""
    if args.spec and args.family_name:
        raise UsageError("pass either a family name or --spec, not both")
    if args.spec:
        with open(args.spec) as handle:
            return from_document(json.load(handle))
    return of_family(resolve_family(args))


# -- output formatting --------------------------------------------------------


def render_sequence(values: Sequence[int], fmt: str, header: str = "n,value") -> str:
    if not values:
        raise UsageError("nothing to write: the sequence is empty")
    if fmt == "bfile":
        return "".join(f"{n} {v}\n" for n, v in enumerate(values, 1))
    if fmt == "csv":
        return header + "\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values, 1))
    if fmt == "json":
        return json.dumps(list(values)) + "\n"
    if fmt == "table":
        width = len(str(len(values)))
        return "".join(f"{n:>{width}}  {v}\n" for n, v in enumerate(values, 1))
    raise UsageError(f"unknown format {fmt!r}")


def write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands --------------------------------------------------------------


def cmd_eval(args) -> int:
    spec, ic = resolve_recursion(args)
    result = recursion.evaluate(spec, ic, args.n)
    if not result.alive:
        print(f"sequence dies at n = {result.dead_at} ({result.reason.value})", file=sys.stderr)
    write_output(render_sequence(result.values, args.format), args.out)
    return 0


def cmd_tree(args) -> int:
    spec = resolve_tree(args)
    write_output(render_sequence(tree.cell_count_sequence(spec, args.n), args.format), args.out)
    return 0


def cmd_ic(args) -> int:
    family = resolve_family(args)
    count = args.n if args.n else family.ic_length()
    write_output(render_sequence(tree.initial_conditions(fam.tree_of(family), count), args.format), args.out)
    return 0


def cmd_freq(args) -> int:
    spec = resolve_tree(args)
    if args.vmax < 1:
        raise UsageError("--vmax needs a positive value")
    if args.empirical < 0:
        raise UsageError("--empirical needs a positive label count")
    if args.empirical:
        seq = freq.empirical_frequency(spec, args.empirical)
        if seq.vmax < args.vmax:
            raise UsageError(
                f"only {seq.vmax} values complete within {args.empirical} labels; raise --empirical"
            )
    else:
        seq = freq.closed_form_sequence(spec, args.vmax)
    phi = [seq[v] for v in range(1, args.vmax + 1)]
    if args.format == "json":
        text = json.dumps({str(v): value for v, value in enumerate(phi, 1)}) + "\n"
    else:
        text = render_sequence(phi, args.format, header="v,phi")
    write_output(text, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.spec:
        raise UsageError("verify needs a named family: both mechanisms must know it")
    family = resolve_family(args)
    if args.sparse:
        return verify_sparse(family, args)
    tspec = fam.tree_of(family)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    rspec, ic = fam.recursion_of(family), fam.standard_ics(family)
    # C_T is the running sum of the cell-start bytes; the recursion runs on
    # them and stops at the first n where it dies or leaves C_T
    starts = tree.cell_starts(tspec, args.n)
    n = recursion.first_departure(rspec, ic, starts)
    if n is None:
        print(f"AGREE for n <= {args.n}: recursion matches cell counts")
        return 0
    # a run that dies by --n is reported by its death, before or after the
    # departure; a live run first differs from C_T at the departure
    result = recursion.evaluate(rspec, ic, args.n)
    if not result.alive:
        print(f"DIVERGE: recursion dies at n = {result.dead_at} ({result.reason.value})")
        return 1
    print(f"DIVERGE at n = {n}: recursion {result.values[n - 1]}, tree {sum(starts[:n])}")
    return 1


def verify_sparse(family: fam.Family, args) -> int:
    """The recursion identity on single-point tree counts at seeded n past the ICs, up to --n."""
    tspec = fam.tree_of(family)
    ic_length = family.ic_length()
    if args.sparse < 0:
        raise UsageError("--sparse needs a positive sample count")
    if args.n <= ic_length:
        raise UsageError(f"--n must exceed the {ic_length} initial conditions")
    rng = _seeded_rng(args.seed)
    rspec = fam.recursion_of(family)
    count = functools.partial(tree.cell_count, tspec)
    for _ in range(args.sparse):
        n = rng.randint(ic_length + 1, args.n)
        lhs, rhs = count(n), recursion.right_side(rspec, count, n)
        if lhs != rhs:
            print(f"DIVERGE at n = {n}: tree {lhs}, recursion applied to tree counts {rhs}")
            return 1
    print(f"AGREE at {args.sparse} sampled n in ({ic_length}, {args.n}]: "
          "recursion holds on closed-form cell counts")
    return 0


def _seeded_rng(seed: Optional[int]) -> random.Random:
    """A generator from --seed, or from a drawn seed; the seed goes to stderr so a run can be repeated."""
    if seed is None:
        seed = random.randrange(10**9)
    print(f"seed = {seed}", file=sys.stderr)
    return random.Random(seed)


def cmd_prune(args) -> int:
    family = resolve_family(args)
    lo = fam.prune_threshold(family)
    if args.check < 0:
        raise UsageError("--check needs a positive sample count")
    if args.check:
        rng = _seeded_rng(args.seed)
        hi = max(args.n, lo + 1)
        failures = 0
        for _ in range(args.check):
            n = rng.randint(lo, hi)
            difference, report = _prune_round_trip(family, n)
            status = "ok" if difference is None else "MISMATCH"
            print(f"n = {n}: removed {report.removed}, identity {status}")
            if difference is not None:
                print(f"first difference: {difference}")
                failures += 1
        return 1 if failures else 0

    difference, report = _prune_round_trip(family, args.n)
    print(f"removed {report.removed} labels; result has {report.result.n}")
    print(f"identity {'holds' if difference is None else 'FAILS'}: pruned tree vs rebuilt prefix")
    if difference is not None:
        print(f"first difference: {difference}")
    for note in report.anomalies:
        print(f"anomaly: {note}")
    if args.trace:
        print(json.dumps({"removed": report.removed, "steps": report.steps}, indent=2))
    return 0 if difference is None else 1


def _prune_round_trip(family: fam.Family, n: int) -> tuple[Optional[str], pruning.PruneReport]:
    """Prune the family's T(n) and compare the result with T(n - removed) built afresh.

    Give the first difference, named only when the trees differ, or None.
    """
    tspec = fam.tree_of(family)
    report = pruning.prune_family(family, pruning.build_prefix(tspec, n))
    rebuilt = pruning.build_prefix(tspec, n - report.removed)
    if pruning.trees_equal(report.result, rebuilt):
        return None, report
    return pruning.first_difference(report.result, rebuilt), report


def cmd_oeis_match(args) -> int:
    spec, ic = resolve_recursion(args)
    values = recursion.evaluate(spec, ic, args.n).values
    path = args.stripped or os.environ.get("NESTREC_OEIS_STRIPPED")
    if not path:
        raise UsageError("no snapshot: pass --stripped or set NESTREC_OEIS_STRIPPED")
    if not os.path.exists(path):
        raise UsageError(f"snapshot not found: {path}")
    matches = match_stripped(values, path)
    for ident in matches:
        print(ident)
    if not matches:
        print("no matches", file=sys.stderr)
    return 0


def match_stripped(values: Sequence[int], path: str) -> list[str]:
    """OEIS identifiers whose stored prefix contains `values` contiguously."""
    if not values:
        raise UsageError("empty query sequence")
    needle = "," + ",".join(str(v) for v in values) + ","
    matches = []
    with open(path) as handle:
        for line in handle:
            if line.startswith("#"):
                continue
            ident, _, body = line.partition(" ")
            if needle in body.strip():
                matches.append(ident)
    return matches


# -- the exploration harness --------------------------------------------------


def parse_grid(text: str) -> dict[str, list[int]]:
    """Parse "s=0,1;j=1..3;m=-2..5" into {"s": [0, 1], "j": [1, 2, 3], ...}."""
    grid = {}
    for clause in text.split(";"):
        key, eq, body = clause.partition("=")
        key = key.strip()
        if not eq or not key:
            raise UsageError(f"expected key=values in grid clause {clause!r}")
        if key in grid:
            raise UsageError(f"grid key {key!r} is given twice")
        values: list[int] = []
        for part in body.split(","):
            part = part.strip()
            lo, dots, hi = part.partition("..")
            try:
                span = range(int(lo), int(hi) + 1) if dots else range(int(part), int(part) + 1)
            except ValueError:
                raise UsageError(f"bad grid value {part!r}") from None
            if not span:
                raise UsageError(f"grid range {part!r} is empty")
            values.extend(span)
        grid[key] = values
    return grid


def grid_points(grid: dict[str, list[int]]) -> list[dict[str, int]]:
    return [dict(zip(grid, values)) for values in itertools.product(*grid.values())]


def explore_rows(name: str, points: list[dict[str, int]], n_max: int, prune_check: bool = False) -> list[dict]:
    """One results row per grid point; all outcomes are data, never errors."""
    fam.constructor(name)  # an unknown family name is a usage error, not a row
    rows = []
    for point in points:
        row = {"family": name, **point}
        try:
            family = fam.build_family(name, **point)
        except ValueError as err:  # a grid key missing or foreign, or the constructor's own check
            row["valid"] = "no"
            reason = f"parameters do not fit: {err}"
        else:
            probe = _neg_gamma_row if family.name == "neg_gamma" else _probe_row
            reason = probe(row, family, n_max)
        if reason is not None:
            row.update(survived_to="", dead_reason=reason, slow="", freq_match="")
        elif prune_check:
            row["prune_identity"] = _prune_identity(family, n_max)
        rows.append(row)
    return rows


def _probe_row(row: dict, family: fam.Family, n_max: int) -> Optional[str]:
    """Run one point from the ICs of its nearest tree; the reason it cannot run, if any.

    Out-of-range points have no tree of their own, so they borrow the cell
    counts of the closest valid shape (family.neighbour()), truncated or
    extended to the point's own IC length.
    """
    verdict = family.check()
    row["valid"] = ("exploratory" if verdict.exploratory else "yes") if verdict.ok else "no"
    length = family.ic_length()
    if length < 1:
        return "ic length not positive"
    try:
        spec = fam.tree_of(family.neighbour())  # the family's own tree when it is in range
    except (ValueError, fam.NoTreeKnown) as err:
        return f"no adjacent tree: {err}"
    ic = tree.initial_conditions(spec, length)
    try:
        rspec = family.offsets()
    except ValueError as err:
        return f"malformed recursion: {err}"
    violation, steps = _survival(row, recursion.evaluate(rspec, ic, n_max))
    in_range = verdict.ok and not verdict.exploratory and violation is None
    row["freq_match"] = _freq_match(spec, steps) if in_range else ""
    return None


def _survival(row: dict, result: recursion.EvalResult) -> tuple[Optional[int], bytes]:
    """Fill survived_to, dead_reason and slow from one evaluation; return its slowness violation and slow steps."""
    row["survived_to"] = len(result.values)
    row["dead_reason"] = result.reason.value if result.reason else ""
    violation, steps = recursion.slow_steps(result.values)
    row["slow"] = "yes" if violation is None else f"no(at {violation})"
    return violation, steps


def _freq_match(spec: tree.TreeSpec, steps: bytes) -> str:
    """phi of a slow run from 1, read from its steps, against the tree's closed form; "" if none complete.

    The run's start bytes up to the last 1, which opens the run that may
    still grow, hold every complete run; they are compared with the closed
    form's in one ==.  Both start with a 1, so on a mismatch the run that
    differs first is v, the count of 1 bytes before the first differing
    byte; that run ends by the last 1, so it is complete.
    """
    starts = b"\1" + steps
    complete = starts.rfind(1)
    if complete < 1:
        return ""
    observed, closed = starts[: complete + 1], freq.phi_starts(spec, complete + 1)
    if observed == closed:
        return "yes"
    at = next(i for i, (a, b) in enumerate(zip(observed, closed)) if a != b)
    return f"no(v={starts.count(1, 0, at)})"


def _prune_identity(family: fam.Family, n_max: int) -> str:
    try:
        n = max(n_max, fam.prune_threshold(family))
        difference, _ = _prune_round_trip(family, n)
        return f"yes(n={n})" if difference is None else f"no(n={n})"
    except (fam.NoTreeKnown, ValueError) as err:
        return f"skipped({err})"


def _neg_gamma_row(row: dict, family: fam.NegGammaCandidate, n_max: int) -> Optional[str]:
    """Run a candidate point from the ICs of its conjectured tree; it has no pruning operation."""
    verdict = family.check()
    row["valid"] = "candidate" if verdict.ok else "no"
    if not verdict.ok:
        return verdict.message
    conjectured = family.conjectured()
    spec = conjectured.tree()
    ic = tree.initial_conditions(spec, conjectured.ic_length())
    violation, steps = _survival(row, recursion.evaluate(family.offsets(), ic, n_max))
    # compare what frequency evidence there is, even from a prefix that
    # later stops being slow; the tree's ICs start at C_T(1) = 1
    match = _freq_match(spec, steps)
    scope = "" if violation is None or not match else f"prefix({violation - 1}):"
    row["freq_match"] = scope + match
    return None


def cmd_explore(args) -> int:
    name = args.family_name
    if name is None:
        raise UsageError("explore needs a family name")
    fixed = parse_params(args.params)
    grid = parse_grid(args.grid) if args.grid else {}
    both = sorted(fixed.keys() & grid.keys())
    if both:
        raise UsageError(f"parameter {both[0]!r} is given both positionally and in --grid")
    points = [dict(fixed, **point) for point in grid_points(grid)]
    rows = explore_rows(name, points, args.n, prune_check=args.prune_check)
    columns = list(dict.fromkeys(key for row in rows for key in row))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(rows)
    write_output(buffer.getvalue(), args.out)
    return 0


# -- parser -------------------------------------------------------------------


def add_source_args(sub, with_spec=True):
    sub.add_argument("family_name", nargs="?", help="family name from the catalog")
    sub.add_argument("params", nargs="*", help="family parameters as key=value")
    if with_spec:
        sub.add_argument("--spec", help="JSON spec file instead of a named family")


def _add_output_args(sub, default="table", formats=("table", "csv", "json", "bfile")):
    sub.add_argument("--format", default=default, choices=formats)
    sub.add_argument("--out")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `nestrec` argument parser, built once per process: each parse_args makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="nestrec",
        description="Slow solutions of nested recursions, computed two ways and cross-checked.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("eval", help="evaluate a recursion")
    add_source_args(sub)
    sub.add_argument("--n", type=int, required=True)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_eval)

    sub = subparsers.add_parser("tree", help="cell counting sequence of a tree")
    add_source_args(sub)
    sub.add_argument("--n", type=int, required=True)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_tree)

    sub = subparsers.add_parser("ic", help="tree-following initial conditions")
    add_source_args(sub, with_spec=False)
    sub.add_argument("--n", type=int, default=0, help="override the standard length")
    _add_output_args(sub)
    sub.set_defaults(func=cmd_ic)

    sub = subparsers.add_parser("freq", help="frequency sequence, closed form or empirical")
    add_source_args(sub)
    sub.add_argument("--vmax", type=int, required=True)
    sub.add_argument("--empirical", type=int, default=0, help="derive from the first N labels instead")
    _add_output_args(sub, default="csv", formats=("table", "csv", "json"))
    sub.set_defaults(func=cmd_freq)

    sub = subparsers.add_parser("verify", help="recursion vs tree cell counts")
    add_source_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--sparse", type=int, default=0,
                     help="check the recursion at this many seeded n <= N on single-point tree counts")
    sub.add_argument("--seed", type=int)
    sub.set_defaults(func=cmd_verify)

    sub = subparsers.add_parser("prune", help="run a pruning operation and check the identity")
    add_source_args(sub, with_spec=False)
    sub.add_argument("--n", type=int, required=True, help="tree size (or sampling cap with --check)")
    sub.add_argument("--trace", action="store_true", help="dump the label movement log as JSON")
    sub.add_argument("--check", type=int, default=0, help="sample this many n values instead")
    sub.add_argument("--seed", type=int)
    sub.set_defaults(func=cmd_prune)

    sub = subparsers.add_parser("explore", help="sweep a parameter grid, including broken points")
    add_source_args(sub, with_spec=False)
    sub.add_argument("--grid", help="e.g. \"s=0,1;j=1..3;m=-2..5\"; every point also takes the positional key=value parameters")
    sub.add_argument("--n", type=int, default=1000)
    sub.add_argument("--prune-check", action="store_true", dest="prune_check")
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_explore)

    sub = subparsers.add_parser("oeis-match", help="search a local OEIS stripped snapshot")
    add_source_args(sub)
    sub.add_argument("--n", type=int, default=40, help="prefix length to search for")
    sub.add_argument("--stripped", help="path to the snapshot (default: NESTREC_OEIS_STRIPPED)")
    sub.set_defaults(func=cmd_oeis_match)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OverflowError, fam.NoTreeKnown, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

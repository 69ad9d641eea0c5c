"""Command line front end.

Subcommands cover both computation mechanisms and their cross-checks:
eval/tree/ic produce sequences, verify plays the two mechanisms against
each other, prune runs and audits the pruning operations, freq handles
frequency sequences, explore sweeps parameter grids including deliberately
broken ones, export writes b-files or CSV, and oeis-match greps a local
OEIS snapshot.  Exit codes: 0 success or agreement, 1 divergence, 2 usage
or validation trouble.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
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
    name = args.family_name or getattr(args, "family", None)
    if name is None:
        raise UsageError("name a family (e.g. order_one s=1 j=3 m=1) or pass --spec")
    try:
        family = fam.build_family(name, **parse_params(args.params))
    except (TypeError, ValueError) as err:
        raise UsageError(str(err)) from None
    verdict = fam.validate(family)
    if not verdict.ok:
        raise UsageError(f"invalid parameters: {verdict.message}")
    if verdict.message:
        print(f"note: {verdict.message}", file=sys.stderr)
    return family


def resolve_recursion(args) -> tuple[recursion.RecursionSpec, list[int], Optional[fam.Family]]:
    """A recursion plus initial conditions, from a named family or a spec file."""
    if args.spec and args.family_name:
        raise UsageError("pass either a family name or --spec, not both")
    if args.spec:
        with open(args.spec) as handle:
            spec, ic = recursion.from_document(json.load(handle))
        return spec, ic, None
    family = resolve_family(args)
    try:
        ic = fam.standard_ics(family)
    except fam.NoTreeKnown:
        raise UsageError(
            f"{family} has no tree to take initial conditions from; use --spec with explicit ic"
        ) from None
    return fam.recursion_of(family), ic, family


def resolve_tree(args) -> tree.TreeSpec:
    if args.spec and args.family_name:
        raise UsageError("pass either a family name or --spec, not both")
    if args.spec:
        with open(args.spec) as handle:
            return tree.from_document(json.load(handle))
    family = resolve_family(args)
    try:
        return fam.tree_of(family)
    except fam.NoTreeKnown as err:
        raise UsageError(str(err)) from None


# -- output formatting --------------------------------------------------------


def render_sequence(values: Sequence[int], fmt: str) -> str:
    if not values:
        raise UsageError("nothing to write: the sequence is empty")
    if fmt == "bfile":
        return "".join(f"{n} {v}\n" for n, v in enumerate(values, 1))
    if fmt == "csv":
        return "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values, 1))
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
    spec, ic, _ = resolve_recursion(args)
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
    count = args.n if args.n else fam.ic_length(family)
    write_output(render_sequence(tree.initial_conditions(fam.tree_of(family), count), args.format), args.out)
    return 0


def cmd_freq(args) -> int:
    spec = resolve_tree(args)
    if args.empirical:
        seq = freq.empirical_frequency(spec, args.empirical)
        if seq.vmax < args.vmax:
            raise UsageError(
                f"only {seq.vmax} values complete within {args.empirical} labels; raise --empirical"
            )
    else:
        seq = freq.closed_form_sequence(spec, args.vmax)
    rows = [(v, seq.entries[v]) for v in range(1, args.vmax + 1)]
    if args.format == "json":
        text = json.dumps({str(v): phi for v, phi in rows}) + "\n"
    elif args.format == "table":
        width = len(str(args.vmax))
        text = "".join(f"{v:>{width}}  {phi}\n" for v, phi in rows)
    else:
        text = "v,phi\n" + "".join(f"{v},{phi}\n" for v, phi in rows)
    write_output(text, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.spec:
        raise UsageError("verify needs a named family: both mechanisms must know it")
    family = resolve_family(args)
    try:
        tspec = fam.tree_of(family)
        ic = fam.standard_ics(family)
    except fam.NoTreeKnown as err:
        raise UsageError(str(err)) from None
    if args.sparse:
        return verify_sparse(family, tspec, args)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    result = recursion.evaluate(fam.recursion_of(family), ic, args.n)
    counts = tree.cell_count_sequence(tspec, args.n)
    if not result.alive:
        print(f"DIVERGE: recursion dies at n = {result.dead_at} ({result.reason.value})")
        return 1
    if not all(map(operator.eq, result.values, counts)):
        n, a, b = next((n, a, b) for n, (a, b) in enumerate(zip(result.values, counts), 1) if a != b)
        print(f"DIVERGE at n = {n}: recursion {a}, tree {b}")
        return 1
    print(f"AGREE for n <= {args.n}: recursion matches cell counts")
    return 0


def verify_sparse(family: fam.Family, tspec: tree.TreeSpec, args) -> int:
    """The recursion identity on closed-form counts at seeded n past the ICs, up to --n."""
    ic_length = fam.ic_length(family)
    if args.sparse < 0:
        raise UsageError("--sparse needs a positive sample count")
    if args.n <= ic_length:
        raise UsageError(f"--n must exceed the {ic_length} initial conditions")
    seed = args.seed if args.seed is not None else random.randrange(10**9)
    print(f"seed = {seed}", file=sys.stderr)
    rng = random.Random(seed)
    rspec = fam.recursion_of(family)

    def count(n: int) -> int:
        return tree.cell_count(tspec, n)

    for _ in range(args.sparse):
        n = rng.randint(ic_length + 1, args.n)
        lhs, rhs = count(n), recursion.right_side(rspec, count, n)
        if lhs != rhs:
            print(f"DIVERGE at n = {n}: tree {lhs}, recursion applied to tree counts {rhs}")
            return 1
    print(f"AGREE at {args.sparse} sampled n in ({ic_length}, {args.n}]: "
          "recursion holds on closed-form cell counts")
    return 0


def cmd_prune(args) -> int:
    family = resolve_family(args)
    try:
        tspec = fam.tree_of(family)
    except fam.NoTreeKnown as err:
        raise UsageError(str(err)) from None

    if args.check:
        seed = args.seed if args.seed is not None else random.randrange(10**9)
        print(f"seed = {seed}", file=sys.stderr)
        rng = random.Random(seed)
        lo = fam.prune_threshold(family)
        hi = max(args.n, lo + 1)
        failures = 0
        for _ in range(args.check):
            n = rng.randint(lo, hi)
            ok, report = _prune_round_trip(family, tspec, n)
            status = "ok" if ok else "MISMATCH"
            print(f"n = {n}: removed {report.removed}, identity {status}")
            failures += 0 if ok else 1
        return 1 if failures else 0

    ok, report = _prune_round_trip(family, tspec, args.n)
    print(f"removed {report.removed} labels; result has {report.result.n}")
    print(f"identity {'holds' if ok else 'FAILS'}: pruned tree vs rebuilt prefix")
    for note in report.anomalies:
        print(f"anomaly: {note}")
    if args.trace:
        print(json.dumps({"removed": report.removed, "steps": report.steps}, indent=2))
    return 0 if ok else 1


def _prune_round_trip(family: fam.Family, tspec: tree.TreeSpec, n: int) -> tuple[bool, pruning.PruneReport]:
    """Prune T(n) and compare the result with T(n - removed) built afresh."""
    report = pruning.prune_family(family, pruning.build_prefix(tspec, n))
    return pruning.trees_equal(report.result, pruning.build_prefix(tspec, n - report.removed)), report


def cmd_oeis_match(args) -> int:
    spec, ic, _ = resolve_recursion(args)
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
        values: list[int] = []
        for part in body.split(","):
            part = part.strip()
            lo, dots, hi = part.partition("..")
            try:
                if dots:
                    values.extend(range(int(lo), int(hi) + 1))
                else:
                    values.append(int(part))
            except ValueError:
                raise UsageError(f"bad grid value {part!r}") from None
        grid[key] = values
    return grid


def grid_points(grid: dict[str, list[int]]) -> list[dict[str, int]]:
    points = [{}]
    for key, values in grid.items():
        points = [dict(point, **{key: v}) for point in points for v in values]
    return points


def explore_rows(name: str, points: list[dict[str, int]], n_max: int, prune_check: bool = False) -> list[dict]:
    """One results row per grid point; all outcomes are data, never errors."""
    build = fam.constructor(name)  # an unknown family name is a usage error, not a row
    rows = []
    for point in points:
        row = {"family": name, **point}
        try:
            family = build(**point)
        except (TypeError, ValueError) as err:  # a grid key missing or foreign, or the constructor's own check
            row["valid"] = "no"
            reason = f"parameters do not fit: {err}"
        else:
            probe = _neg_gamma_row if family.name == "neg_gamma" else _probe_row
            reason = probe(row, family, n_max, prune_check)
        if reason is not None:
            row.update(survived_to="", dead_reason=reason, slow="", freq_match="")
        rows.append(row)
    return rows


def _probe_row(row: dict, family: fam.Family, n_max: int, prune_check: bool) -> Optional[str]:
    """Run one point from the ICs of its nearest tree; the reason it cannot run, if any.

    Out-of-range points have no tree of their own, so they borrow the cell
    counts of the closest valid shape (family.neighbour()), truncated or
    extended to the point's own IC length.
    """
    verdict = fam.validate(family)
    row["valid"] = "yes" if verdict.ok and not verdict.exploratory else (
        "exploratory" if verdict.ok else "no"
    )
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
    values, violation = _survival(row, recursion.evaluate(rspec, ic, n_max), n_max)
    in_range = verdict.ok and not verdict.exploratory and violation is None
    row["freq_match"] = _freq_match(spec, values) if in_range else ""
    if prune_check:
        row["prune_identity"] = _prune_identity(family, n_max)
    return None


def _survival(row: dict, result: recursion.EvalResult, n_max: int) -> tuple[tuple[int, ...], Optional[int]]:
    """Fill survived_to, dead_reason and slow from one evaluation; return its values and slowness violation."""
    row["survived_to"] = n_max if result.alive else result.dead_at - 1
    row["dead_reason"] = result.reason.value if result.reason else ""
    violation = recursion.slowness_violation(result.values)
    row["slow"] = "yes" if violation is None else f"no(at {violation})"
    return result.values, violation


def _freq_match(spec: tree.TreeSpec, values: Sequence[int]) -> str:
    """Observed frequencies of `values` against the tree's closed form; "" if none complete."""
    empirical = recursion.frequency_of(values)
    if empirical.vmax < 1:
        return ""
    closed = freq.closed_form_sequence(spec, empirical.vmax)
    report = freq.compare(empirical, closed, empirical.vmax)
    return "yes" if report.agree else f"no(v={report.first_diff})"


def _prune_identity(family: fam.Family, n_max: int) -> str:
    try:
        tspec = fam.tree_of(family)
        n = max(n_max, fam.prune_threshold(family))
        ok, _ = _prune_round_trip(family, tspec, n)
        return f"yes(n={n})" if ok else f"no(n={n})"
    except (fam.NoTreeKnown, ValueError) as err:
        return f"skipped({err})"


def _neg_gamma_row(row: dict, family: fam.NegGammaCandidate, n_max: int, prune_check: bool) -> Optional[str]:
    """Run a candidate point from the ICs of its conjectured tree; it has no pruning operation."""
    verdict = fam.validate(family)
    row["valid"] = "candidate" if verdict.ok else "no"
    if not verdict.ok:
        return verdict.message
    conjectured = family.conjectured()
    spec = conjectured.tree()
    ic = tree.initial_conditions(spec, conjectured.ic_length())
    values, violation = _survival(row, recursion.evaluate(family.offsets(), ic, n_max), n_max)
    # compare what frequency evidence there is, even from a prefix that
    # later stops being slow
    prefix = values if violation is None else values[: violation - 1]
    match = _freq_match(spec, prefix) if prefix and prefix[0] == 1 else ""
    scope = "" if violation is None or not match else f"prefix({len(prefix)}):"
    row["freq_match"] = scope + match
    return None


def cmd_explore(args) -> int:
    name = args.family_name
    if name is None:
        raise UsageError("explore needs a family name")
    points = grid_points(parse_grid(args.grid)) if args.grid else [{}]
    rows = explore_rows(name, points, args.n, prune_check=args.prune_check)
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
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
    else:
        sub.set_defaults(spec=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestrec",
        description="Slow solutions of nested recursions, computed two ways and cross-checked.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("eval", help="evaluate a recursion")
    add_source_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--format", default="table", choices=["table", "csv", "json", "bfile"])
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_eval)

    sub = subparsers.add_parser("tree", help="cell counting sequence of a tree")
    add_source_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--format", default="table", choices=["table", "csv", "json", "bfile"])
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_tree)

    sub = subparsers.add_parser("ic", help="tree-following initial conditions")
    add_source_args(sub, with_spec=False)
    sub.add_argument("--n", type=int, default=0, help="override the standard length")
    sub.add_argument("--format", default="table", choices=["table", "csv", "json", "bfile"])
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_ic)

    sub = subparsers.add_parser("freq", help="frequency sequence, closed form or empirical")
    add_source_args(sub)
    sub.add_argument("--vmax", type=int, required=True)
    sub.add_argument("--empirical", type=int, default=0, help="derive from the first N labels instead")
    sub.add_argument("--format", default="csv", choices=["table", "csv", "json"])
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_freq)

    sub = subparsers.add_parser("verify", help="recursion vs tree cell counts")
    add_source_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--sparse", type=int, default=0,
                     help="check the recursion at this many seeded n <= N, closed-form counts only")
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
    sub.add_argument("--grid", help="e.g. \"s=0,1;j=1..3;m=-2..5\"; without it, one point with no parameters")
    sub.add_argument("--n", type=int, default=1000)
    sub.add_argument("--prune-check", action="store_true", dest="prune_check")
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_explore)

    sub = subparsers.add_parser("export", help="write a sequence to a file")
    add_source_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--format", default="bfile", choices=["bfile", "csv", "json", "table"])
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_eval)

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
    except (UsageError, ValueError, fam.NoTreeKnown, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

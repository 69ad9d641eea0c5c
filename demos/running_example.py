"""Walk through the two-supernode-label, three-cell family step by step.

Shows the labelled tree, the matching recursion, and one pruning pass.
"""

from nestrec import families as fam
from nestrec import pruning, recursion, tree


def main() -> None:
    family = fam.OrderOne(1, 3, 1)
    spec = fam.tree_of(family)
    print(f"tree shape: {spec}")
    print(f"first 9 initial conditions: {tree.initial_conditions(spec, 9)}")
    print(f"cells with first label <= 16: {tree.cell_count(spec, 16)}")
    print(f"cells with first label <= 31: {tree.cell_count(spec, 31)}")

    rspec = fam.recursion_of(family)
    ic = fam.standard_ics(family)
    print(f"\nrecursion: outer offsets {rspec.outer_offsets}, inner {rspec.inner_offsets}")
    print(f"initial conditions used: {len(ic)} values")
    values = recursion.evaluate(rspec, ic, 200).values
    counts = tree.cell_count_sequence(spec, 200)
    print(f"recursion and cell counts agree to n=200: {list(values) == counts}")

    print("\npruning the prefix with labels 1..31:")
    prefix = pruning.build_prefix(spec, 31)
    report = pruning.prune_family(family, prefix)
    print(f"  removed {report.removed} labels in {len(report.steps)} recorded moves")
    same = pruning.trees_equal(report.result, pruning.build_prefix(spec, 31 - report.removed))
    print(f"  result equals the fresh prefix with labels 1..{31 - report.removed}: {same}")
    moved = [s["label"] for s in report.steps if s["step"] == "initial correction"]
    print(f"  initial correction, the supernode's label out and the placeholders in: {moved}")
    trimmed = [s["label"] for s in report.steps if s["step"] == "end correction"]
    print(f"  end correction, as many of the largest labels as placeholders: {trimmed}")


if __name__ == "__main__":
    main()

"""How often does each value occur in a slow sequence?

The closed form reads the answer off the tree shape: divisibility of the
value by the cell count, the arity-adic valuation, and a power-of-arity
bonus for the supernode labels.
"""

from nestrec import families as fam
from nestrec import frequency as freq
from nestrec import recursion


def show(family, label: str, vmax: int = 12) -> None:
    spec = fam.tree_of(family)
    closed = [freq.closed_form(spec, v) for v in range(1, vmax + 1)]
    values = recursion.evaluate(fam.recursion_of(family), fam.standard_ics(family), 3000).values
    _, steps = recursion.slow_steps(values)  # the slow prefix's steps: here, all of them
    counted = freq.from_steps(steps)
    empirical = [counted[v] for v in range(1, vmax + 1)]
    print(f"{label}:")
    print(f"  closed form  {closed}")
    print(f"  from values  {empirical}")
    report = freq.empirical_matches_closed_form(spec, 10**5)
    print(f"  agreement to 1e5: {report.agree}")


def main() -> None:
    show(fam.conolly(), "conolly")
    show(fam.h_classic(), "slower classic (ceiling of n/2)")
    show(fam.OrderOne(1, 3, 1), "running family (s=1, j=3, m=1)")
    show(fam.HigherOrder(0, 3, 2, 2), "deeper nesting (j=3, m=2, p=2)")
    show(fam.kary_conolly(3), "ternary conolly (frequency is valuation+1)")


if __name__ == "__main__":
    main()

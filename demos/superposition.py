"""Overlaying trees adds their frequency sequences exactly.

Also shows the mixture identity for the multi-term families, and a case
where deeper nesting is NOT the same thing as a plain overlay.
"""

from nestrec import families as fam
from nestrec import frequency as freq


def main() -> None:
    h = fam.tree_of(fam.OrderOne(0, 2, 2))
    r = fam.tree_of(fam.OrderOne(0, 2, 0))
    combined = freq.superpose([(1, h), (2, r)])
    print(f"overlay of one slower copy and two conolly-style copies: {combined}")
    slower, conolly = freq.closed_form_sequence(h, 199), freq.closed_form_sequence(r, 199)
    summed = freq.linear_combination([(1, slower), (2, conolly)])
    print(f"  combined frequencies {list(freq.closed_form_sequence(combined, 12).entries)}")
    print(f"  sum of parts         {list(summed.entries[:12])}")

    print("\nmixture identity for the multi-term family (s=0, j=2, p=3):")
    for b in range(4):
        spec = fam.tree_of(fam.Superposed(0, 2, 2 * b, 3))
        mixture = freq.linear_combination([(b, slower), (3 - b, conolly)])
        ok = freq.compare(freq.closed_form_sequence(spec, 199), mixture, 199).agree
        print(f"  m = {2 * b}: matches {b} slower + {3 - b} conolly parts: {ok}")

    print("\ndeeper nesting is not an overlay:")
    deep = fam.tree_of(fam.HigherOrder(0, 3, 6, 2))
    parts = freq.superpose([(1, fam.tree_of(fam.OrderOne(0, 3, 3))),
                            (1, fam.tree_of(fam.OrderOne(0, 3, 0)))])
    report = freq.compare(freq.closed_form_sequence(deep, 50),
                          freq.closed_form_sequence(parts, 50), 50)
    print(f"  first disagreement at v = {report.first_diff}: "
          f"{report.left} vs {report.right}")


if __name__ == "__main__":
    main()

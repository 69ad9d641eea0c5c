"""Apply each hand-made mutant to a clean copy of the package and report which the tests kill.

Run it from the repository root; it checks the committed tree, HEAD:

    python tests/mutants.py

It is not named test_*, so pytest does not collect it.  A mutant is one
exact text replacement in one file, with the reason it is worth making and
the test files that should catch it.  For each mutant the script writes
HEAD into a fresh temporary directory with `git archive`, makes the
replacement, runs pytest on the named files there (first failure ends the
run, hypothesis seeded so a run repeats) and prints

    KILLED    name  by the first failing test
    KILLED    name  by the digest only: how its lines differ
    SURVIVED  name  and why the mutant matters

For a mutant in frequency.py the script also runs the eval, explore, walk
and phi sections of tests/differential.py in the mutated copy (about 3 s),
for one in recursion.py or cli.py those and the verify section (about
5 s), for one in tree.py or pruning.py the explore, walk, prune and count
sections (about 15 s), and for one in families.py the explore and prune
sections; it compares them with the clean copy's.  A test kill notes
whether the digest saw the mutant too; a mutant that the tests miss and
the digest sees is a digest-only kill, which no test covers.

A mutant whose old text no longer occurs exactly once is reported as
STALE: the code it names has changed, so update or drop it.  A mutant
marked equivalent changes no behaviour that any test could see; its
survival is expected, and a kill means the reason given is wrong.  Before
the mutants, the named files must pass on the unmutated copy.  The exit
status is 1 when a mutant that is not equivalent survived, or one is stale.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]
    equivalent: bool = False


RECURSION, CLI, PRUNING = "src/nestrec/recursion.py", "src/nestrec/cli.py", "src/nestrec/pruning.py"
TREE, FREQUENCY, FAMILIES = "src/nestrec/tree.py", "src/nestrec/frequency.py", "src/nestrec/families.py"
T_RECURSION, T_CLI, T_PRUNING = "tests/test_recursion.py", "tests/test_cli.py", "tests/test_pruning.py"
T_TREE, T_FREQUENCY, T_FAMILIES = "tests/test_tree.py", "tests/test_frequency.py", "tests/test_families.py"

MUTANTS = (
    # the evaluator's one object per run of equal values, and its cap check
    Mutant("last starts at the last IC", RECURSION,
           '"    end, last = stop, 0",', '"    end, last = stop, v[start - 1]",',
           "a first term equal to the last initial condition would skip the cap check", (T_RECURSION,)),
    Mutant("no cap check", RECURSION,
           '"            if total > 0x3FFFFFFF and total > cap:",', '"            if False:",',
           "a value past 2^63 - 1 would be stored without an error", (T_RECURSION, T_CLI)),
    Mutant("a new object per term", RECURSION,
           '"        v[n] = last",', '"        v[n] = total",',
           "the values stay right but a run of equal values holds one int per term", (T_RECURSION,)),
    # earlier evaluator and verify mutants
    Mutant("no max b test", RECURSION,
           "if start <= max(max(row) for row in spec.inner_offsets):", "if False:",
           "the loop would read an inner index below 1 from the end of the list", (T_RECURSION,)),
    Mutant("swapped death reasons", RECURSION,
           "DeadReason.OUTER_INDEX_NONPOSITIVE)", "DeadReason.INNER_INDEX_NONPOSITIVE)",
           "a dying run would name the wrong index", (T_RECURSION,)),
    Mutant("group key unsorted", RECURSION,
           "shifts = tuple(sorted(b - a for b in row))", "shifts = tuple(b - a for b in row)",
           "equivalent in values: a summand whose row is a permuted shift row makes a group of its own, "
           "which computes the same inner sum once more per term", (T_RECURSION,), equivalent=True),
    # dense verify: the recursion run against the tree's cell-start bytes
    Mutant("IC compare skips the last IC", RECURSION,
           "zip(initial, accumulate(starts[: len(initial)]))", "zip(initial[:-1], accumulate(starts[: len(initial)]))",
           "a last initial condition off the tree would pass unseen until the loop reads it", (T_RECURSION, T_CLI)),
    Mutant("step bytes read one label late", RECURSION,
           '("step", "at(steps, start - 1)")', '("step", "at(steps, start)")',
           "each term would be held to the tree's count one label past it", (T_RECURSION, T_CLI)),
    Mutant("only a value below the tree departs", RECURSION,
           "f\"        if {' + '.join(terms)} != step:\"", "f\"        if {' + '.join(terms)} < step:\"",
           "a recursion value above C_T would pass, and the run would go on from C_T", (T_RECURSION, T_CLI)),
    # the follow loop in differences: j steps by 1 - e, and the change of u is read from the bytes
    Mutant("a step back of one reads the byte one label off", RECURSION,
           'f"            w{g} = -steps[j{g}]"', 'f"            w{g} = -steps[j{g} - 1]"',
           "where j steps back one label, u would lose the byte below the one it passed", (T_RECURSION, T_CLI)),
    Mutant("a longer step back sums one byte short", RECURSION,
           "-sum(steps[j{g} + 1 : j{g} + e{g}])", "-sum(steps[j{g} + 1 : j{g} + e{g} - 1])",
           "where j steps back two labels or more, u would keep the last byte it passed", (T_RECURSION,)),
    # the prologue that starts a follow run at any n0 from the bytes alone
    Mutant("prologue skips the full check at n0", RECURSION,
           " != near[-1]:", " != near[-1] and False:",
           "R(n0), the first term of each run, would never be held to C_T(n0)", (T_RECURSION, T_CLI)),
    Mutant("window death one lag late", RECURSION,
           "if m + d >= n0))", "if m + d > n0))",
           "an index below 1 first read at n0 would not stop the run there", (T_RECURSION,)),
    Mutant("du window one label low", RECURSION,
           "du[n0 + 1 - max(lags) : n0 + 1] = ", "du[n0 - max(lags) : n0] = ",
           "each lagged member would read the change of u one label early at its first terms", (T_RECURSION,)),
    Mutant("byte sums count ones", RECURSION,
           'total += sum(part) if part.translate(None, b"\\0\\1") else part.count(1)', "total += part.count(1)",
           "a byte above 1 below n0 would shift every count the prologue reads", (T_RECURSION,)),
    Mutant("sorted pass sums each point from 0", RECURSION,
           "counts[point], last = total, point", "counts[point] = total",
           "every count past the least point would add the bytes below that point again", (T_RECURSION,)),
    # the split follow run: the second half from mid in a forked child
    Mutant("child starts at mid + 1", RECURSION,
           'b"%d" % _follow(spec, loop, starts, mid, stop)', 'b"%d" % _follow(spec, loop, starts, mid + 1, stop)',
           "the term at mid would be checked by neither process", (T_RECURSION,)),
    Mutant("head stops one label early", RECURSION,
           "head = _follow(spec, loop, starts, start, mid)", "head = _follow(spec, loop, starts, start, mid - 1)",
           "the term at mid - 1 would be checked by neither process", (T_RECURSION,)),
    Mutant("child with no result read as agreement", RECURSION,
           "    return _follow(spec, loop, starts, mid, stop)\n", "    return 0\n",
           "a child that failed would pass the tail unchecked", (T_RECURSION,)),
    Mutant("death reported only at the departure", CLI,
           "    result = recursion.evaluate(rspec, ic, args.n)\n    if not result.alive:\n",
           "    result = recursion.evaluate(rspec, ic, args.n)\n    if result.dead_at == n:\n",
           "verify would name the first difference where a full run dies later, by --n", (T_CLI,)),
    Mutant("DIVERGE tree count one label short", CLI,
           "tree {sum(starts[:n])}", "tree {sum(starts[: n - 1])}",
           "verify would print the tree's count at n - 1 beside the recursion's at n", (T_CLI,)),
    # the one prune body of order one, order p and superposed; tier-1 once missed the first two in superposed
    Mutant("superposed full-shape test strict", PRUNING,
           " if t.n <= bound else []", " if t.n < bound else []",
           "n equal to the IC length would not be flagged", (T_PRUNING,)),
    Mutant("binary passes reversed", PRUNING,
           "_delete(t, leaves, row, take,", "_delete(t, leaves, row[::-1], take,",
           "the deletion passes would log their blocks in another order", (T_PRUNING,)),
    Mutant("binary placeholders one short", PRUNING,
           "    _insert_placeholders(t, x, log)\n    leaves = _leaves(t)\n    _delete(",
           "    _insert_placeholders(t, x - 1, log)\n    leaves = _leaves(t)\n    _delete(",
           "the first supernode would hold x - 1 placeholders, so each prune would remove one label more",
           (T_PRUNING,)),
    Mutant("binary end correction quota 0", PRUNING,
           "fill, log, anomalies)\n    return _finish(t, leaves, x,",
           "fill, log, anomalies)\n    return _finish(t, leaves, 0,",
           "the x largest labels would stay, so each prune would remove x labels fewer", (T_PRUNING,)),
    # the other prune ops and their bounds
    Mutant("order_one prune threshold one lower", FAMILIES,
           "        return 4 * self.j + 2 * self.m + 2 * self.s\n",
           "        return 4 * self.j + 2 * self.m + 2 * self.s - 1\n",
           "prune would accept an n one below the order_one bound", (T_FAMILIES, T_PRUNING)),
    Mutant("front deletion falls back to the parent first", PRUNING,
           "        last = cells[-1]\n        if last:\n", "        last = cells[-1]\n        if False:\n",
           "an empty cell would take its label from the parent or a placeholder while the leaf's last cell "
           "still holds one", (T_PRUNING,)),
    # the group deletion: the whole-open bound and the groups' order in each pass's log
    Mutant("stamp one leaf past the whole-open bound", PRUNING,
           "_cell_offsets(t.spec)[-1])\n", "_cell_offsets(t.spec)[-1]) + 1\n",
           "the first leaf that some pass opens only in part would be given leaf 1's moves", (T_PRUNING,)),
    Mutant("stamped blocks after the pass's boundary leaves", PRUNING,
           "        for g, group in enumerate(groups):\n            first = firsts[group.start]\n"
           "            if first > n - b:\n                break\n",
           "        for g, group in reversed(list(enumerate(groups))):\n            first = firsts[group.start]\n"
           "            if first > n - b:\n                continue\n",
           "each pass would log the leaves near n before the stamped ones", (T_PRUNING,)),
    # the one fill rule, which every emptied front cell goes through
    Mutant("fill takes the parent's last label", PRUNING,
           "return own[0][:1], parent", "return own[0][-1:], parent",
           "an emptied cell would log its parent's last label while the parent gives up its first",
           (T_PRUNING,)),
    # lifting, k-ary deletion and the other records' prune bounds
    Mutant("lift to the node after the parent", PRUNING,
           "        cells[parent - 1] += runs\n", "        cells[parent] += runs\n",
           "every leaf's runs would go to the node after its parent, which the log still names", (T_PRUNING,)),
    Mutant("k-ary leaf at n - b out of reach", PRUNING,
           "demand = bisect_right(row, n - cell.start)", "demand = bisect_left(row, n - cell.start)",
           "a k-ary leaf opening at exactly n - b would keep that pass's label", (T_PRUNING,)),
    Mutant("higher_order prune threshold one lower", FAMILIES,
           "        return 3 * (self.j + self.m) + self._x() + 2 * self.s + 1\n",
           "        return 3 * (self.j + self.m) + self._x() + 2 * self.s\n",
           "prune would accept an n one below the higher_order bound", (T_FAMILIES, T_PRUNING)),
    Mutant("superposed prune threshold one lower", FAMILIES,
           "        return 5 * self.p * self.j + 3 * self.m + 2 * self.s + 1\n",
           "        return 5 * self.p * self.j + 3 * self.m + 2 * self.s\n",
           "prune would accept an n one below the superposed bound for m >= 0", (T_FAMILIES, T_PRUNING)),
    Mutant("superposed m < 0 prune threshold one lower", FAMILIES,
           "            return 3 * self.p * self.j + self.m + 2 * self.s + 1\n",
           "            return 3 * self.p * self.j + self.m + 2 * self.s\n",
           "prune would accept an n one below the exploratory m < 0 bound", (T_FAMILIES, T_PRUNING)),
    Mutant("kary prune threshold one lower", FAMILIES,
           "        return k * (p + m) + p - (k - 1) * m + 1\n",
           "        return k * (p + m) + p - (k - 1) * m\n",
           "prune would accept an n one below the kary bound", (T_FAMILIES, T_PRUNING)),
    Mutant("end correction trims the front of a run", PRUNING,
           "                cells[slot] = run[:keep]\n", "                cells[slot] = run[len(run) - keep:]\n",
           "the smallest labels of a node would go instead of the largest", (T_PRUNING,)),
    # the first-label stream: C_T, the gaps and the streamed phi check read it
    Mutant("first labels counted from 0", TREE,
           "return compress(count(1), cell_starts(spec, n_max))", "return compress(count(0), cell_starts(spec, n_max))",
           "every first label would read one low", (T_TREE, T_FREQUENCY)),
    Mutant("gaps not shifted by one cell", FREQUENCY,
           "map(sub, chunk, chain((prev,), chunk))", "map(sub, chunk, chunk)",
           "every observed gap would be a cell's first label minus itself", (T_FREQUENCY,)),
    Mutant("mismatch reported one gap late", FREQUENCY,
           "CompareReport(False, v + at - 1,", "CompareReport(False, v + at,",
           "a failed stream check would name v + 1 for a mismatch at phi(v)", (T_FREQUENCY,)),
    Mutant("chunk seam reads the block's own first label", FREQUENCY,
           "        prev = chunk[-1]\n", "        prev = chunk[0]\n",
           "the first gap of every chunk after the first would start from the wrong cell", (T_FREQUENCY,)),
    Mutant("last cell's run one short", TREE,
           "(n_max + 1,)", "(n_max,)",
           "C_T(1..n_max) would miss its last label", (T_TREE,)),
    # the descent and the closed split on top of it
    Mutant("split reversed", TREE,
           "r - i * j", "r - (k - 1 - i) * j",
           "the last, partial run of cells would fill the child positions from the right; "
           "the split would still sum to C_T(n)", (T_TREE,)),
    Mutant("leaf cell opening at n missed", TREE,
           "bisect_right(list(accumulate(", "bisect_left(list(accumulate(",
           "a cell whose first label is n would not be counted at n", (T_TREE,)),
    Mutant("climb keeps k subtrees", TREE,
           "if whole < k - 1:", "if whole < k:",
           "labels past the k - 1 subtrees of a supernode would be read as a k-th subtree, "
           "not the next supernode's", (T_TREE,)),
    # node_stream's column blocks and build_prefix's block walk
    Mutant("template copy's leaf shift off by one", TREE,
           "map(mul, mask, repeat(leaves))", "map(mul, mask, repeat(leaves + 1))",
           "every leaf of a template block would be numbered one too high", (T_TREE, T_PRUNING)),
    Mutant("template one height too tall", TREE,
           "if (k ** (h + 2) - 1) // (k - 1) > _BLOCK)", "if (k ** (h + 3) - 1) // (k - 1) > _BLOCK)",
           "a template block would hold up to k times _BLOCK nodes: the same nodes in fewer, larger blocks",
           (T_TREE,)),
    Mutant("cut before the node that opens at n", PRUNING,
           "cut = bisect_right(", "cut = bisect_left(",
           "T(n) would lose its last node when that node's first label is n", (T_PRUNING,)),
    Mutant("crossing block's cut one label late", PRUNING,
           "initial=end)), n)", "initial=end)), n + 1)",
           "T(n) would keep the node that opens at n + 1, an empty node past n", (T_PRUNING,)),
    Mutant("every cell drawn as a leaf's", PRUNING,
           "draws = (zip(runs), zip(*[runs] * spec.leaf_cells))", "draws = (zip(*[runs] * spec.leaf_cells),) * 2",
           "an interior node would take j runs of labels, shifting every later cell", (T_PRUNING,)),
    # the ruler-built phi blocks
    Mutant("supernode bump in every copy of first", FREQUENCY,
           "first = first + off + unit(g + s) + (pure + off + unit(g)) * (k - 2) + pure",
           "first = first + off + unit(g + s) + (first + off + unit(g + s)) * (k - 2) + first",
           "phi would add supernode_labels at q = t*k^h + k^e, not only at the powers of k", (T_FREQUENCY,)),
    # explore's freq_match: the run-start bytes against phi_starts in one ==
    Mutant("phi string one byte short", CLI,
           "starts[: complete + 1] == freq.phi_starts(spec, complete + 1)",
           "starts[:complete] == freq.phi_starts(spec, complete)",
           "a last complete run one label shorter than the closed form would read yes", (T_CLI,)),
    Mutant("block end read as off-grid", FREQUENCY,
           "_run(closed_form(spec, end))", "_run(spec.per_cell)",
           "phi_starts would give each block end (t + 1)*P the off-grid per_cell labels", (T_FREQUENCY,)),
    # slowness and phi from one step-byte pass: slow_steps and from_steps
    Mutant("unfinished run counted", FREQUENCY,
           'steps.split(b"\\1")[:-1]', 'steps.split(b"\\1")',
           "from_steps would report the last run, which may still grow, as a finished phi",
           (T_RECURSION, T_FREQUENCY)),
    Mutant("a step of 2 counted as slow", RECURSION,
           'steps.lstrip(b"\\0\\1")', 'steps.lstrip(b"\\0\\1\\2")',
           "slow_steps would pass a sequence that skips a value", (T_RECURSION,)),
    Mutant("a step of 1 counted as a break", RECURSION,
           'steps.lstrip(b"\\0\\1")', 'steps.lstrip(b"\\0")',
           "slow_steps would end the slow prefix at its first new value", (T_RECURSION,)),
    Mutant("violation one term early", RECURSION,
           "slow + 2", "slow + 1",
           "slow_steps would name the term before the first break", (T_RECURSION,)),
    Mutant("ValueError path packs the full steps", RECURSION,
           "islice(values, 1, violation - 1)", "islice(values, 1, None)",
           "a step below 0 or past 255 would raise from slow_steps instead of ending its slow prefix",
           (T_RECURSION,)),
    Mutant("ValueError path packs the breaking step", RECURSION,
           "islice(values, 1, violation - 1)", "islice(values, 1, violation)",
           "the slow prefix's steps would end in the step that breaks slowness", (T_RECURSION,)),
    Mutant("tree's first cell-start byte read as a step", FREQUENCY,
           "cell_starts(spec, n_max)[1:]", "cell_starts(spec, n_max)",
           "empirical phi would start with an extra 1 and read every phi(v) one value late", (T_FREQUENCY,)),
)


EVALUATION_SECTIONS = ("eval", "explore", "walk", "phi")
VERIFY_SECTIONS = (*EVALUATION_SECTIONS, "verify")
TREE_SECTIONS = ("explore", "walk", "prune", "count")
RECORD_SECTIONS = ("explore", "prune")
DIGESTED = {RECURSION: VERIFY_SECTIONS, CLI: VERIFY_SECTIONS, FREQUENCY: EVALUATION_SECTIONS,
            TREE: TREE_SECTIONS, PRUNING: TREE_SECTIONS, FAMILIES: RECORD_SECTIONS}


def checkout(directory: Path) -> None:
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)


def first_failure(directory: Path, tests: tuple[str, ...]) -> str | None:
    """The first failing test of the named files in the copy, or None when they pass."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests],
        cwd=directory, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": "src"},
    )
    if run.returncode == 0:
        return None
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit {run.returncode}"


def digest(directory: Path, sections: tuple[str, ...]) -> list[str] | None:
    """The copy's digest sections as lines, or None when the digest run fails."""
    run = subprocess.run(
        [sys.executable, "tests/differential.py", *sections],
        cwd=directory, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": "src"},
    )
    return None if run.returncode else run.stdout.splitlines()


def digest_difference(clean: list[str], mutated: list[str] | None) -> str | None:
    """How many digest lines differ and the section of the first, or None when the digests match."""
    if mutated is None:
        return "its run failed"
    if mutated == clean:
        return None
    changed = [(old, new) for old, new in zip_longest(clean, mutated, fillvalue="") if old != new]
    old, new = changed[0]
    return f"{len(changed)} lines differ, first in {(new or old).split(' ', 1)[0]}"


def main() -> int:
    with tempfile.TemporaryDirectory() as clean:
        checkout(Path(clean))
        tests = tuple(sorted({test for mutant in MUTANTS for test in mutant.tests}))
        failure = first_failure(Path(clean), tests)
        if failure:
            print(f"the unmutated copy fails {failure}; no mutant run")
            return 1
        clean_digests = {sections: digest(Path(clean), sections) for sections in set(DIGESTED.values())}
        if None in clean_digests.values():
            print("the digest fails on the unmutated copy; no mutant run")
            return 1
    bad = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as copy:
            checkout(Path(copy))
            path = Path(copy) / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                print(f"STALE     {mutant.name}: its old text occurs {text.count(mutant.old)} times in {mutant.file}")
                bad += 1
                continue
            path.write_text(text.replace(mutant.old, mutant.new))
            killer = first_failure(Path(copy), mutant.tests)
            sections = DIGESTED.get(mutant.file)
            digested = sections is not None
            seen = digest_difference(clean_digests[sections], digest(Path(copy), sections)) if digested else None
        marked = "  (marked equivalent)" if mutant.equivalent else ""
        if killer:
            note = (f"; digest: {seen}" if seen else "; digest unchanged") if digested else ""
            print(f"KILLED    {mutant.name}  by {killer}{note}{marked}")
        elif seen:
            print(f"KILLED    {mutant.name}  by the digest only: {seen}" + marked)
        else:
            print(f"SURVIVED  {mutant.name}: {mutant.reason}" + ("  (equivalent)" if mutant.equivalent else ""))
            bad += not mutant.equivalent
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

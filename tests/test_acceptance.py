"""Acceptance suite: one check per stated criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines even
when everything passes.
"""

from __future__ import annotations

import math
import random
import time

from nestrec import cli, families as fam
from nestrec import frequency as freq
from nestrec import pruning, recursion, tree
from nestrec.tree import TreeSpec


def verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def sampled(limit: int) -> list[int]:
    return sorted({round(i * limit / 5) for i in range(6)})


def agrees_to(family, n_max: int) -> bool:
    values = recursion.evaluate(fam.recursion_of(family), fam.standard_ics(family), n_max).values
    return len(values) == n_max and list(values) == tree.cell_count_sequence(fam.tree_of(family), n_max)


def test_criterion_1_running_example():
    spec = TreeSpec(2, 1, 3, 1, 2, 2)
    t0 = time.perf_counter()
    ok = (
        tree.cell_count(spec, 16) == 9
        and tree.cell_count(spec, 31) == 17
        and tree.initial_conditions(spec, 9) == [1, 2, 3, 3, 3, 4, 5, 6, 6]
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 0.001
    assert verdict(1, ok, f"counts 9/17 and first 9 ICs in {elapsed * 1000:.3f} ms")


def test_criterion_2_order_one_grid():
    t0 = time.perf_counter()
    bad = []
    for s in (0, 1, 2):
        for j in (1, 2, 3, 4):
            for m in range(j + 1):
                f = fam.OrderOne(s, j, m)
                if len(fam.standard_ics(f)) != 5 * j + 3 * m + 2 * s or not agrees_to(f, 10**4):
                    bad.append((s, j, m))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    assert verdict(2, ok, f"42 (s,j,m) triples agree to 1e4 in {elapsed:.2f} s; failures: {bad}")


def test_criterion_3_higher_order_grid():
    bad = []
    count = 0
    for s in (0, 1):
        for j in (1, 2, 3):
            for p in (1, 2, 3):
                for m in sampled((2 * p - 1) * j):
                    count += 1
                    if not agrees_to(fam.HigherOrder(s, j, m, p), 10**4):
                        bad.append((s, j, m, p))
    landmark = tree.cell_count(fam.tree_of(fam.HigherOrder(0, 3, 2, 2)), 63) == 21
    ok = not bad and landmark
    assert verdict(3, ok, f"{count} sampled (s,j,m,p) agree to 1e4; C_T(63)=21 landmark {landmark}")


def test_criterion_4_superposed_grid():
    bad = []
    count = 0
    for s in (0, 1):
        for j in (1, 2, 3):
            for p in (1, 2, 3):
                for m in sampled(p * j):
                    count += 1
                    if not agrees_to(fam.Superposed(s, j, m, p), 10**4):
                        bad.append((s, j, m, p))
    landmark = tree.cell_count(fam.tree_of(fam.Superposed(0, 3, 3, 2)), 82) == 24
    ok = not bad and landmark
    assert verdict(4, ok, f"{count} sampled (s,j,m,p) agree to 1e4; C_T(82)=24 landmark {landmark}")


def test_criterion_5_kary_grid():
    bad = []
    count = 0
    for k in (3, 4, 5):
        for p in (1, 2, 3, 4):
            for m in range(p - 1, k * p // (k - 1)):
                count += 1
                if not agrees_to(fam.KaryOrderP(k, m, p), 10**4):
                    bad.append((k, m, p))
    freq_ok = True
    for k in (3, 4, 5):
        spec = fam.tree_of(fam.KaryOrderP(k, 0, 1))
        freq_ok = freq_ok and all(
            freq.closed_form(spec, v) == freq.nu(k, v) + 1 for v in range(1, 2000)
        )
        freq_ok = freq_ok and freq.empirical_matches_closed_form(spec, 10**4).agree
    ceil_ok = True
    for k in (3, 4, 5):
        for q in (1, 2):
            f = fam.KaryOrderP(k, k * q - 1, (k - 1) * q)
            values = recursion.evaluate(fam.recursion_of(f), fam.standard_ics(f), 10**4).values
            ceil_ok = ceil_ok and all(
                v == math.ceil(n / (k * q)) for n, v in enumerate(values, 1)
            )
    ok = not bad and freq_ok and ceil_ok
    assert verdict(
        5, ok,
        f"{count} (k,m,p) agree to 1e4; (0,1) frequency is valuation+1 {freq_ok}; "
        f"ceiling families match ceil(n/kq) {ceil_ok}",
    )


def test_criterion_6_prune_identities():
    rng = random.Random(20260822)
    grids = {
        "order_one": [fam.OrderOne(s, j, m)
                      for s in (0, 1, 2) for j in (1, 2, 3, 4) for m in range(j + 1)],
        "higher_order": [fam.HigherOrder(s, j, m, p)
                         for s in (0, 1) for j in (1, 2, 3) for p in (1, 2, 3)
                         for m in sampled((2 * p - 1) * j)],
        "superposed": [fam.Superposed(s, j, m, p)
                       for s in (0, 1) for j in (1, 2, 3) for p in (1, 2, 3)
                       for m in sampled(p * j)],
        "kary": [fam.KaryOrderP(k, m, p)
                 for k in (3, 4, 5) for p in (1, 2, 3, 4)
                 for m in range(p - 1, k * p // (k - 1))],
    }
    t0 = time.perf_counter()
    bad = []
    for kind, instances in grids.items():
        for _ in range(200):
            f = rng.choice(instances)
            spec = fam.tree_of(f)
            lo = fam.prune_threshold(f)
            n = rng.randint(lo, lo + 350)
            report = pruning.prune_family(f, pruning.build_prefix(spec, n))
            if not pruning.trees_equal(report.result, pruning.build_prefix(spec, n - report.removed)):
                bad.append((kind, f, n, "identity"))
            if not pruning.left_leaf_correspondence(f, n):
                bad.append((kind, f, n, "left-leaf"))
    running = fam.OrderOne(1, 3, 1)
    fig5 = pruning.prune_family(running, pruning.build_prefix(fam.tree_of(running), 31))
    fig5_ok = fig5.removed == 16 and pruning.trees_equal(
        fig5.result, pruning.build_prefix(fam.tree_of(running), 15))
    elapsed = time.perf_counter() - t0
    ok = not bad and fig5_ok and elapsed < 30.0
    assert verdict(
        6, ok,
        f"4x200 seeded n (identity + left-leaf) in {elapsed:.1f} s; "
        f"31->15 instance {fig5_ok}; failures: {bad[:3]}",
    )


def test_criterion_7_frequency_formulas():
    families = []
    for s in (0, 1, 2):
        for j in (1, 2, 3, 4):
            families += [fam.OrderOne(s, j, m) for m in range(j + 1)]
    for s in (0, 1):
        for j in (1, 2, 3):
            for p in (1, 2, 3):
                families += [fam.HigherOrder(s, j, m, p) for m in sampled((2 * p - 1) * j)]
                families += [fam.Superposed(s, j, m, p) for m in sampled(p * j)]
    for k in (3, 4, 5):
        for p in (1, 2, 3, 4):
            families += [fam.KaryOrderP(k, m, p) for m in range(p - 1, k * p // (k - 1))]
    bad = [f for f in families
           if not freq.empirical_matches_closed_form(fam.tree_of(f), 10**5).agree]
    ok = not bad
    assert verdict(7, ok, f"{len(families)} grid families, empirical==closed form to 1e5; failures: {bad[:3]}")


def test_criterion_8_superposition():
    rng = random.Random(8)
    additive = True
    for _ in range(50):
        k = rng.randint(2, 4)
        j = rng.randint(1, 4)
        parts = [(rng.randint(1, 3),
                  TreeSpec(k, rng.randint(0, 2), j, rng.randint(1, 3),
                           rng.randint(1, 5), rng.randint(0, 4)))
                 for _ in range(rng.randint(2, 4))]
        combined = freq.superpose(parts)
        for v in range(1, 150):
            if freq.closed_form(combined, v) != sum(
                    mult * freq.closed_form(spec, v) for mult, spec in parts):
                additive = False
    mixture = True
    for j in (1, 2, 3):
        for p in (1, 2, 3):
            for b in range(p + 1):
                spec = fam.tree_of(fam.Superposed(0, j, b * j, p))
                h = fam.tree_of(fam.OrderOne(0, j, j))
                r = fam.tree_of(fam.OrderOne(0, j, 0))
                for v in range(1, 150):
                    if freq.closed_form(spec, v) != (
                            b * freq.closed_form(h, v) + (p - b) * freq.closed_form(r, v)):
                        mixture = False
    # the deeper-nesting construction is NOT the naive overlay at (2,1,3)
    deep = fam.tree_of(fam.HigherOrder(0, 3, 6, 2))
    h3 = fam.tree_of(fam.OrderOne(0, 3, 3))
    c3 = fam.tree_of(fam.OrderOne(0, 3, 0))
    diffs = [v for v in range(1, 101)
             if freq.closed_form(deep, v) != freq.closed_form(h3, v) + freq.closed_form(c3, v)]
    negative = bool(diffs)
    ok = additive and mixture and negative
    assert verdict(
        8, ok,
        f"50 seeded overlays additive {additive}; mixture identity {mixture}; "
        f"deeper construction differs from overlay at v={diffs[0] if diffs else '-'}",
    )


def test_criterion_9_exploratory_probes():
    # full out-of-range sweep, every outcome recorded as a row
    points = [{"s": s, "j": j, "m": m}
              for s in (0, 1, 2) for j in (1, 2, 3, 4)
              for m in (-2, -1, j + 1, j + 2)]
    rows = cli.explore_rows("order_one", points, 1000)
    completed = len(rows) == len(points)
    # every probed out-of-range point fails to be a slow solution: it dies
    # or breaks slowness before the horizon
    all_fail = all(
        row["dead_reason"] != "" or (row["slow"] != "yes" and row["slow"] != "")
        for row in rows
    )
    # the reproducible witness: at (s,j)=(0,2) both out-of-range rows die
    # before 1e3 under the documented adjacent-IC realization
    by_m = {row["m"]: row for row in rows if row["s"] == 0 and row["j"] == 2}
    witness = (
        by_m[-1]["dead_reason"] != "" and by_m[-1]["survived_to"] < 1000
        and by_m[3]["dead_reason"] != "" and by_m[3]["survived_to"] < 1000
    )
    # the exploratory overlay family: pruning at 168 runs but breaks the identity
    f = fam.Superposed(0, 4, -2, 9)
    spec = fam.tree_of(f)
    report = pruning.prune_family(f, pruning.build_prefix(spec, 168))
    prune_fails = not pruning.trees_equal(
        report.result, pruning.build_prefix(spec, 168 - report.removed))
    ok = completed and all_fail and witness and prune_fails
    deaths = {(r["s"], r["j"], r["m"]): r["survived_to"] for r in rows if r["dead_reason"]}
    assert verdict(
        9, ok,
        f"harness completed {completed}; all {len(points)} out-of-range probes die or "
        f"go non-slow {all_fail}; witness (0,2) deaths m=-1 at "
        f"{by_m[-1]['survived_to']}, m=3 at {by_m[3]['survived_to']}; "
        f"overlay prune identity fails at 168 {prune_fails}; "
        f"death horizon sample {dict(list(deaths.items())[:4])}",
    )

from __future__ import annotations

import pytest

from nestrec import families as fam
from nestrec import pruning, recursion, tree


def test_order_one_offsets():
    spec = fam.recursion_of(fam.OrderOne(1, 3, 1))
    assert spec.outer_offsets == (1, 5)
    assert spec.inner_offsets == ((3,), (7,))
    assert spec.arity == 2 and spec.order == 1


def test_order_one_tree():
    assert fam.tree_of(fam.OrderOne(1, 3, 1)) == tree.TreeSpec(2, 1, 3, 1, 2, 2)
    assert fam.tree_of(fam.OrderOne(0, 2, 2)) == tree.TreeSpec(2, 0, 2, 1, 3, 0)


def test_higher_order_offsets():
    spec = fam.recursion_of(fam.HigherOrder(0, 3, 2, 2))
    assert spec.outer_offsets == (0, 5)
    assert spec.inner_offsets == ((3, 9), (8, 14))


def test_superposed_offsets():
    spec = fam.recursion_of(fam.Superposed(0, 3, 3, 2))
    assert spec.outer_offsets == (0, 9)
    assert spec.inner_offsets == ((5, 7), (14, 16))
    assert fam.tree_of(fam.Superposed(0, 3, 3, 2)) == tree.TreeSpec(2, 0, 3, 2, 5, 3)


def test_kary_offsets():
    spec = fam.recursion_of(fam.KaryOrderP(3, 1, 2))
    assert spec.outer_offsets == (0, 2, 4)
    assert spec.inner_offsets == ((1, 2), (3, 4), (5, 6))
    assert fam.tree_of(fam.KaryOrderP(3, 1, 2)) == tree.TreeSpec(3, 0, 1, 1, 2, 2)


def test_conolly_is_order_one_instance():
    assert fam.recursion_of(fam.conolly()) == recursion.RecursionSpec(2, 1, (0, 1), ((1,), (2,)))
    assert fam.recursion_of(fam.h_classic()) == recursion.RecursionSpec(2, 1, (0, 2), ((1,), (3,)))


def test_higher_order_p1_reduces_to_order_one():
    """Order p=1 collapses to the plain two-term family."""
    for s in (0, 1):
        for j in (1, 2, 3):
            for m in range(j + 1):
                a = fam.recursion_of(fam.HigherOrder(s, j, m, 1))
                b = fam.recursion_of(fam.OrderOne(s, j, m))
                assert a == b
                assert fam.tree_of(fam.HigherOrder(s, j, m, 1)) == fam.tree_of(fam.OrderOne(s, j, m))


def test_equal_offsets_mean_equal_trees():
    """Records with the same recursion must agree on its tree and IC length.

    prune_threshold is left out: it is a sufficient bound, not a tight one,
    and the records may differ there.
    """
    pairs = [(fam.OrderOne(s, j, m), other(s, j, m, 1))
             for s in range(4) for j in range(1, 6) for m in range(j + 1)
             for other in (fam.HigherOrder, fam.Superposed)]
    pairs += [(fam.OrderOne(0, 1, m), fam.KaryOrderP(2, m, 1)) for m in range(2)]
    pairs += [(fam.CSJK(s, j, 2), fam.OrderOne(s, j, 0)) for s in range(4) for j in range(1, 6)]
    pairs += [(fam.CSJK(0, 1, k), fam.KaryOrderP(k, 0, 1)) for k in range(2, 6)]
    assert len(pairs) == 186
    for a, b in pairs:
        assert a.offsets() == b.offsets(), (a, b)
        assert a.tree() == b.tree(), (a, b)
        assert a.ic_length() == b.ic_length(), (a, b)


def test_solved_families_share_one_inner_sum():
    """Every summand of these families is one nested term shifted by its a,
    b_it = a_i + c_t, so evaluate puts all k summands in one group and
    computes each inner sum once per term."""
    records = [fam.OrderOne(s, j, m) for s in range(4) for j in range(1, 6) for m in range(j + 1)]
    records += [other(s, j, m, p) for s in range(4) for j in range(1, 6) for m in range(j + 1)
                for p in range(1, 4) for other in (fam.HigherOrder, fam.Superposed)]
    records += [fam.KaryOrderP(k, m, p) for k in range(2, 5) for p in range(1, 4) for m in range(6)
                if fam.KaryOrderP(k, m, p).check().ok]
    records += [fam.CSJK(s, j, k) for s in range(4) for j in range(1, 6) for k in range(2, 5)]
    for record in records:
        assert record.check().ok, record
        spec = record.offsets()
        assert recursion._groups(spec) == [list(range(spec.arity))], record


def test_alpha_beta_is_superposed():
    f = fam.alpha_beta_conolly(4, 1)
    assert isinstance(f, fam.Superposed)
    assert (f.s, f.j, f.m, f.p) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        fam.alpha_beta_conolly(3, 1)
    with pytest.raises(ValueError):
        fam.alpha_beta_conolly(0, 0)


def test_kary_classics():
    f = fam.kary_conolly(3)
    spec = fam.recursion_of(f)
    assert spec.outer_offsets == (0, 1, 2)
    assert spec.inner_offsets == ((1,), (2,), (3,))
    g = fam.kary_h(4)
    assert (g.k, g.m, g.p) == (4, 3, 3)
    h = fam.kary_ceiling(3, 2)
    assert (h.k, h.m, h.p) == (3, 5, 4)
    with pytest.raises(ValueError):
        fam.kary_ceiling(3, 0)


def test_validate_ranges():
    assert fam.OrderOne(0, 2, 2).check().ok
    assert not fam.OrderOne(0, 2, 3).check().ok
    assert not fam.OrderOne(0, 2, -1).check().ok
    assert fam.HigherOrder(0, 2, 6, 2).check().ok
    assert not fam.HigherOrder(0, 2, 7, 2).check().ok
    assert fam.Superposed(0, 2, 4, 2).check().ok
    assert not fam.Superposed(0, 2, 5, 2).check().ok
    assert fam.NegGammaCandidate(3, -1, -1).check() == fam.Validation(False, "delta must be nonnegative")


def test_validate_superposed_negative_is_exploratory():
    v = fam.Superposed(0, 4, -2, 9).check()
    assert v.ok and v.exploratory
    assert not fam.Superposed(0, 4, -9, 9).check().ok


def test_validate_kary_integrality():
    """(3,1,1) fails the integer bound (m+1)(k-1) <= kp."""
    assert not fam.KaryOrderP(3, 1, 1).check().ok
    assert fam.KaryOrderP(3, 0, 1).check().ok
    assert not fam.KaryOrderP(3, 0, 2).check().ok  # m < p-1


def test_validate_k2_with_remark():
    v = fam.KaryOrderP(2, 1, 1).check()
    assert v.ok and v.message


def test_exploratory_families_have_no_tree():
    for f in (fam.QFamily(0, 2, 1), fam.NegGammaCandidate(3, -1, 4)):
        assert f.check().exploratory
        with pytest.raises(fam.NoTreeKnown):
            fam.tree_of(f)


def test_neg_gamma_recursion_shape():
    spec = fam.recursion_of(fam.NegGammaCandidate(3, -1, 4))
    # p = (k-1)*gamma + delta = 2, g = 1
    assert spec.order == 2
    assert spec.outer_offsets == (0, 1, 2)
    assert spec.inner_offsets[0] == spec.inner_offsets[1] == spec.inner_offsets[2]


def test_ic_lengths():
    assert fam.OrderOne(1, 3, 1).ic_length() == 20
    assert fam.HigherOrder(0, 3, 2, 2).ic_length() == 27
    assert fam.Superposed(0, 3, 3, 2).ic_length() == 39
    assert fam.kary_h(3).ic_length() == 22


def test_standard_ics_follow_tree():
    f = fam.OrderOne(1, 3, 1)
    ics = fam.standard_ics(f)
    assert len(ics) == 20
    assert ics[:9] == [1, 2, 3, 3, 3, 4, 5, 6, 6]


def test_prune_thresholds():
    assert fam.prune_threshold(fam.OrderOne(1, 3, 1)) == 16
    # worked by hand from the bounds, so a bound moved by one either way fails here
    # higher order: 3(j + m) + x + 2s + 1 with x = (2p - 1)j - m
    assert fam.prune_threshold(fam.HigherOrder(0, 3, 2, 2)) == 15 + 7 + 0 + 1
    assert fam.prune_threshold(fam.HigherOrder(1, 2, 3, 2)) == 15 + 3 + 2 + 1
    # superposed, m >= 0: 5pj + 3m + 2s + 1
    assert fam.prune_threshold(fam.Superposed(0, 3, 3, 2)) == 30 + 9 + 0 + 1
    assert fam.prune_threshold(fam.Superposed(1, 2, 2, 2)) == 20 + 6 + 2 + 1
    # superposed, m < 0 (exploratory): 3pj + m + 2s + 1
    assert fam.prune_threshold(fam.Superposed(0, 4, -2, 9)) == 108 - 2 + 0 + 1
    assert fam.prune_threshold(fam.Superposed(1, 2, -1, 2)) == 12 - 1 + 2 + 1
    # k-ary: k(p + m) + p - (k - 1)m + 1
    assert fam.prune_threshold(fam.kary_conolly(3)) == 3 + 1 - 0 + 1
    assert fam.prune_threshold(fam.KaryOrderP(4, 2, 3)) == 20 + 3 - 6 + 1


def test_build_family_and_documents():
    f = fam.build_family("order_one", s=1, j=3, m=1)
    assert f == fam.OrderOne(1, 3, 1)
    assert fam.to_document(f) == {"family": "order_one", "s": 1, "j": 3, "m": 1}
    g = fam.KaryOrderP(3, 0, 1)
    doc = fam.to_document(g)
    assert fam.build_family(doc.pop("family"), **doc) == g
    with pytest.raises(ValueError):
        fam.build_family("no_such_family")


@pytest.mark.parametrize("name,params,message", [
    ("order_one", {"s": 1, "j": 3}, "order_one takes s j m; missing m"),
    ("kary_h", {"k": 3, "q": 1}, "kary_h takes k; unknown q"),
    ("neg_gamma", {"k": 3, "gamma": -1, "d": 2}, "neg_gamma takes k gamma delta; missing delta; unknown d"),
    ("conolly", {"x": 1}, "conolly takes no parameters; unknown x"),
])
def test_parameter_mismatch_names_the_catalog_parameters(name, params, message):
    with pytest.raises(ValueError) as refusal:
        fam.build_family(name, **params)
    assert str(refusal.value) == message


def test_named_catalog_covers_classics():
    for name in ("conolly", "h", "r_sj", "h_sj", "alpha_beta", "kary_conolly", "kary_h", "kary_ceiling"):
        assert name in fam.NAMED_FAMILIES


def core_points(margin: int) -> list[fam.Family]:
    """Points of the four core families; m runs `margin` past its range on both sides."""
    return (
        [fam.OrderOne(s, j, m) for s in (0, 1, 2) for j in (1, 2, 3)
         for m in range(-margin, j + margin + 1)]
        + [fam.HigherOrder(s, j, m, p) for s in (0, 1) for j in (1, 2) for p in (1, 2, 3)
           for m in range(-margin, (2 * p - 1) * j + margin + 1)]
        + [fam.Superposed(s, j, m, p) for s in (0, 1) for j in (1, 2) for p in (1, 2, 3)
           for m in range(-p + 1 - margin, p * j + margin + 1)]
        + [fam.KaryOrderP(k, m, p) for k in (2, 3, 4) for p in (1, 2, 3)
           for m in range(p - 1 - margin, k * p // (k - 1) + margin)]
    )


def test_record_facts_agree():
    """Each core record's prune guard, threshold, clamp, IC length and name fit one another."""
    points = core_points(0)
    assert len(points) > 100
    for f in points:
        assert f.check().ok, f
        spec, threshold = fam.tree_of(f), fam.prune_threshold(f)
        report = pruning.prune_family(f, pruning.build_prefix(spec, threshold))
        if not f.check().exploratory:
            rebuilt = pruning.build_prefix(spec, threshold - report.removed)
            assert pruning.trees_equal(report.result, rebuilt), f
        assert threshold > 1, f
        with pytest.raises(pruning.PruneRefused, match=f"need n >= {threshold}, got {threshold - 1}"):
            pruning.prune_family(f, pruning.build_prefix(spec, threshold - 1))
        assert f.neighbour() == f
        # standard ICs reach every inner offset, so they never die at the first open n
        assert f.ic_length() >= max(max(row) for row in fam.recursion_of(f).inner_offsets), f
        doc = fam.to_document(f)
        params = {key: v for key, v in doc.items() if key != "family"}
        assert fam.build_family(doc["family"], **params) == f


def test_neighbours_are_in_range():
    """Out-of-range points clamp to a valid point that has a tree."""
    outside = [f for f in core_points(3) if not f.check().ok]
    assert len(outside) > 100
    exploratory = [fam.QFamily(s, j, q) for s in (0, 1) for j in (1, 2, 3) for q in range(j + 1)] \
        + [fam.CSJK(s, j, k) for s in (0, 1) for j in (1, 2) for k in (2, 3, 4)]
    for f in outside + exploratory:
        near = f.neighbour()
        assert near.check().ok, (f, near)
        fam.tree_of(near)

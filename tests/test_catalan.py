"""Catalan families, the canonical isomorphisms, and the named bijections."""

import random

import pytest

from freeconv.catalan import (FAMILIES, NAMED_BIJECTIONS, catalan_compose,
                              catalan_decompose, catalan_iso, family_elements,
                              get_family, named_bijection, verify_diagram)
from freeconv.partitions import kreweras
from freeconv.trees import rmap, tree_from_text
from freeconv.verify import run_suite

CATALAN = [1, 1, 2, 5, 14, 42, 132]

SINGLE = ((), ())


@pytest.mark.parametrize("fam", sorted(FAMILIES))
def test_each_family_level_has_catalan_size(fam):
    for n in range(6):
        level = family_elements(fam, n)
        assert len(level) == CATALAN[n]
        assert len(set(level)) == CATALAN[n]


def test_negative_levels_are_rejected():
    for fam in ("y", "ncp1"):
        with pytest.raises(ValueError, match="non-negative"):
            family_elements(fam, -1)


@pytest.mark.parametrize("fam", sorted(FAMILIES))
def test_compose_decompose_invert(fam):
    f = get_family(fam)
    for n in range(1, 6):
        for x in family_elements(fam, n):
            a, b = catalan_decompose(fam, x)
            assert catalan_compose(fam, a, b) == x


def test_catalan_iso_maps_a_900_level_right_comb():
    # the memo costs no recursion level of its own, so a right comb nested
    # 900 deep maps whole; it is one block in ncp1
    n = 900
    t = tree_from_text("(|," * n + "|" + ")" * n)
    assert catalan_iso("y", "ncp1", t) == (tuple(range(1, n + 1)),)


def test_decompose_rejects_the_unit():
    with pytest.raises(ValueError):
        catalan_decompose("y", ())


def test_compose_rejects_foreign_elements():
    with pytest.raises(ValueError):
        catalan_compose("ncp1", ((1, 3), (2, 4)), ())


def test_unknown_family_name():
    with pytest.raises(ValueError):
        get_family("klein_bottles")


def test_reversed_family_swaps_the_pairing():
    base = get_family("y")
    rev = get_family("y_rev")
    a, b = SINGLE, ((SINGLE, ()), ())
    assert rev.compose(a, b) == base.compose(b, a)
    assert rev.decompose(base.compose(b, a)) == (a, b)


def test_reversed_family_lookup_leaves_the_registry_alone():
    families = len(FAMILIES)
    checks = len(run_suite("bijections", order=3)["checks"])
    assert checks == 37
    get_family("y_rev")
    get_family("ncp3_rev")
    assert len(FAMILIES) == families
    assert len(run_suite("bijections", order=3)["checks"]) == checks


def test_iso_is_identity_on_the_same_family():
    for n in range(5):
        for t in family_elements("y", n):
            assert catalan_iso("y", "y", t) == t


def test_iso_composes_transitively():
    """src->mid then mid->dst equals src->dst: the isomorphism is unique."""
    for n in range(5):
        for t in family_elements("y", n):
            via = catalan_iso("ncp1", "pt1", catalan_iso("y", "ncp1", t))
            assert via == catalan_iso("y", "pt1", t)


def test_iso_preserves_grading_and_is_onto():
    for src, dst in (("y", "ncp4"), ("pt2", "lst2"), ("ndpf", "rst1")):
        d = get_family(dst)
        for n in range(5):
            images = {catalan_iso(src, dst, x)
                      for x in family_elements(src, n)}
            assert images == set(family_elements(dst, n))
            assert all(d.size(z) == n for z in images)


# -- named bijections ----------------------------------------------------------


def test_phi_first_values():
    phi = lambda s: named_bijection("phi", tree_from_text(s))
    assert phi("(|,|)") == ((1,),)
    assert phi("(|,(|,|))") == ((1, 2),)
    assert phi("((|,|),|)") == ((1,), (2,))


def test_phi_nine_vertex_example():
    t = tree_from_text("(((|,|),((|,|),|)),(|,((|,(|,|)),|)))")
    assert named_bijection("phi", t) == \
        ((1,), (2, 4), (3,), (5, 6, 9), (7, 8))


def test_phi_of_doubled_tree_example():
    t = tree_from_text("((|,|),|)")
    assert named_bijection("phi", rmap(t)) == ((1, 3), (2,), (4,))


def test_phi_inv_round_trip():
    for n in range(6):
        for t in family_elements("y", n):
            assert named_bijection("phi_inv", named_bijection("phi", t)) == t


def test_mirror_reflects_twice_to_identity():
    # both families carry plain binary trees, so the reflection composes
    # with itself on the nose
    for n in range(5):
        for t in family_elements("y", n):
            assert named_bijection("mirror", named_bijection("mirror", t)) == t


def test_kreweras_iso_equals_brute_force():
    for n in range(6):
        for p in family_elements("ncp1", n):
            assert catalan_iso("ncp2", "ncp1", p) == kreweras(p)


def _random_tree(rng, n):
    """A binary tree with n vertices, its split sizes drawn at random."""
    if n == 0:
        return ()
    k = rng.randrange(n)
    return (_random_tree(rng, k), _random_tree(rng, n - 1 - k))


def test_kreweras_families_map_trees_past_ten_vertices():
    # ncp7, ncp8 and bernardi complement partitions of every size
    rng = random.Random(13)
    for _ in range(40):
        t = _random_tree(rng, rng.randint(11, 15))
        assert (kreweras(catalan_iso("y", "ncp2", t))
                == catalan_iso("y", "ncp1", t))
        for fam in ("ncp7", "ncp8"):
            assert catalan_iso(fam, "y", catalan_iso("y", fam, t)) == t
        p = catalan_iso("y", "ncp7", t)
        assert catalan_iso("pt1", "ncp7", named_bijection("bernardi", p)) == p


def test_named_bijection_checks_membership():
    with pytest.raises(ValueError):
        named_bijection("phi", ((1, 3), (2, 4)))
    with pytest.raises(ValueError):
        named_bijection("does_not_exist", SINGLE)


@pytest.mark.parametrize("name", sorted(NAMED_BIJECTIONS))
def test_named_bijections_are_level_bijections(name):
    src, dst = NAMED_BIJECTIONS[name]
    for n in range(5):
        images = [named_bijection(name, x) for x in family_elements(src, n)]
        assert set(images) == set(family_elements(dst, n))


@pytest.mark.parametrize("diagram_id", (1, 2, 3))
def test_commuting_diagrams(diagram_id):
    for n in range(6):
        report = verify_diagram(diagram_id, n)
        assert report["status"] == "pass", report
        assert report["checked"] == CATALAN[n]


def test_verify_diagram_rejects_unknown_id():
    with pytest.raises(ValueError):
        verify_diagram(9, 2)

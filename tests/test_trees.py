"""Planar binary trees: enumeration, grafting, substitution, parity classes."""

import pytest
from hypothesis import given, strategies as st

from freeconv.trees import (BE, BO, NONE, classify, comb, comb_decompose,
                            enumerate_trees, graft, parity_trees, pi_set,
                            right_comb, rmap, rotated_comb, size, splits,
                            substitute, tree_from_text, tree_to_text, unwedge,
                            wedge, yb_set)

LEAF = ()
SINGLE = ((), ())

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


@pytest.mark.parametrize("n", range(9))
def test_enumeration_matches_catalan(n):
    trees = enumerate_trees(n)
    assert len(trees) == CATALAN[n]
    assert len(set(trees)) == len(trees)
    assert all(size(t) == n for t in trees)


def test_wedge_unwedge_invert_each_other():
    for n in range(6):
        for t in enumerate_trees(n):
            for s in enumerate_trees(5 - n):
                assert unwedge(wedge(t, s)) == (t, s)


def test_unwedge_rejects_the_leaf():
    with pytest.raises(ValueError):
        unwedge(LEAF)


def test_graft_conventions():
    t = wedge(SINGLE, LEAF)
    assert graft("over", LEAF, t) == t
    assert graft("over", t, LEAF) == t
    assert graft("under", t, LEAF) == t
    assert graft("under", LEAF, t) == t
    with pytest.raises(ValueError):
        graft("sideways", t, t)


def test_over_hangs_on_the_left_spine():
    # a/b: a becomes the left child of b's leftmost vertex
    assert graft("over", SINGLE, SINGLE) == (SINGLE, LEAF)
    assert graft("under", SINGLE, SINGLE) == (LEAF, SINGLE)
    left = graft("over", SINGLE, (SINGLE, LEAF))
    assert left == ((SINGLE, LEAF), LEAF)


def test_grafts_are_associative():
    trees = enumerate_trees(2)
    for a in trees:
        for b in trees:
            for c in trees:
                assert graft("over", graft("over", a, b), c) == \
                    graft("over", a, graft("over", b, c))
                assert graft("under", graft("under", a, b), c) == \
                    graft("under", a, graft("under", b, c))


def test_substitute_identity():
    for n in range(1, 5):
        for t in enumerate_trees(n):
            assert substitute(t, [SINGLE] * n) == t


def test_substitute_sizes_add():
    t = wedge(SINGLE, SINGLE)  # three vertices
    subs = [wedge(SINGLE, LEAF), SINGLE, wedge(LEAF, SINGLE)]
    out = substitute(t, subs)
    assert size(out) == sum(size(s) for s in subs)


def test_substitute_arity_errors():
    with pytest.raises(ValueError):
        substitute(SINGLE, [])
    with pytest.raises(ValueError):
        substitute(SINGLE, [LEAF])


def test_substitution_is_operadically_associative():
    """Substituting, then substituting again, equals one big substitution."""
    outer = wedge(SINGLE, LEAF)          # two vertices
    mids = [wedge(LEAF, SINGLE), SINGLE]  # two + one vertices
    inners = [SINGLE, wedge(SINGLE, LEAF), (LEAF, (LEAF, SINGLE))]

    step1 = substitute(outer, mids)
    lhs = substitute(step1, inners)
    glued = [substitute(mids[0], inners[:2]), substitute(mids[1], inners[2:])]
    rhs = substitute(outer, glued)
    assert lhs == rhs


def test_comb_decompose_round_trip():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            parts = comb_decompose(t)
            assert comb(parts) == t
            assert sum(size(p) + 1 for p in parts) == n
    with pytest.raises(ValueError):
        comb_decompose(LEAF)


def test_right_comb_shape():
    assert right_comb(0) == LEAF
    assert right_comb(1) == SINGLE
    assert right_comb(3) == (LEAF, (LEAF, SINGLE))
    assert comb_decompose(right_comb(4)) == [LEAF, LEAF, LEAF, LEAF]


def test_rotated_comb_matches_the_doubling():
    # size 2j + sum of slot sizes, and RC of doubled parts is rmap of the comb
    subs = (SINGLE, wedge(SINGLE, LEAF))
    out = rotated_comb(subs)
    assert size(out) == 2 * len(subs) + sum(size(s) for s in subs)
    for n in range(1, 5):
        for t in enumerate_trees(n):
            parts = comb_decompose(t)
            assert rmap(t) == rotated_comb([rmap(p) for p in parts])


def test_rmap_doubles_and_is_injective():
    for n in range(6):
        images = set()
        for t in enumerate_trees(n):
            rt = rmap(t)
            assert size(rt) == 2 * n
            images.add(rt)
        assert len(images) == CATALAN[n]
    assert rmap(SINGLE) == (SINGLE, LEAF)


def test_classify_against_splits():
    """The recursive parity classes are exactly the arm-parity trees."""
    for n in range(9):
        for t in enumerate_trees(n):
            cls = classify(t)
            if cls is NONE:
                assert not splits(t)
            else:
                assert splits(t)
                assert cls == (BE if n % 2 == 0 else BO)


def test_parity_trees_agree_with_classify():
    for n in range(8):
        want = tuple(t for t in enumerate_trees(n) if classify(t) != NONE)
        be = parity_trees(BE, n) if n % 2 == 0 else ()
        bo = parity_trees(BO, n) if n % 2 == 1 else ()
        assert tuple(be or bo) == want


def test_rmap_maps_a_900_level_right_comb():
    # the memo costs no recursion level of its own, so a right comb nested
    # 900 deep doubles whole, into a right comb of single vertices
    n = 900
    t = LEAF
    for _ in range(n):
        t = (LEAF, t)
    out = rmap(t)
    for _ in range(n):
        assert out[0] == SINGLE
        out = out[1]
    assert out == LEAF


def test_rmap_lands_in_the_even_class():
    for n in range(5):
        for t in enumerate_trees(n):
            assert classify(rmap(t)) == BE
    assert set(yb_set(3)) <= set(parity_trees(BE, 6))


def test_pi_of_right_comb_is_the_doubled_family():
    for n in range(5):
        assert pi_set(right_comb(n)) == frozenset(yb_set(n))


def test_pi_sets_partition_the_even_class():
    for n in range(1, 5):
        seen = {}
        for t in enumerate_trees(n):
            for s in pi_set(t):
                assert s not in seen, "pi sets must be disjoint"
                seen[s] = t
        assert set(seen) == set(parity_trees(BE, 2 * n))


def test_text_round_trip():
    for n in range(6):
        for t in enumerate_trees(n):
            assert tree_from_text(tree_to_text(t)) == t
    assert tree_to_text(LEAF) == "|"
    assert tree_to_text(SINGLE) == "(|,|)"


def test_text_rejects_garbage():
    for bad in ("", "(|,)", "(|,|", "x", "(|,|))"):
        with pytest.raises(ValueError):
            tree_from_text(bad)


@st.composite
def small_trees(draw, max_size=6):
    n = draw(st.integers(0, max_size))
    level = enumerate_trees(n)
    return level[draw(st.integers(0, len(level) - 1))]


@given(small_trees(), small_trees())
def test_wedge_size_is_additive(a, b):
    assert size(wedge(a, b)) == size(a) + size(b) + 1


@given(small_trees(max_size=4), small_trees(max_size=4))
def test_rmap_is_a_graft_morphism(a, b):
    """Doubling a wedge rebuilds from doubled halves with a planted joint."""
    rt = rmap(wedge(a, b))
    assert rt == wedge(wedge(LEAF, rmap(a)), rmap(b))

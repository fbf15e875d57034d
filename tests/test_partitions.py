"""Noncrossing partitions and the Kreweras complement."""

import pytest
from hypothesis import given, strategies as st

from freeconv.partitions import (canonical, enumerate_ncp, interleave,
                                 is_noncrossing, is_partition, is_refinement,
                                 kreweras, kreweras_inverse, merge_op,
                                 one_partition, partition_from_json,
                                 partition_size, partition_to_ascii,
                                 partition_to_json, zero_partition)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


@pytest.mark.parametrize("n", range(8))
def test_enumeration_matches_catalan(n):
    level = enumerate_ncp(n)
    assert len(level) == CATALAN[n]
    assert len(set(level)) == len(level)
    for p in level:
        assert is_partition(p, n) and is_noncrossing(p)


def test_canonical_sorts_blocks_and_elements():
    assert canonical([(3, 1), (2,)]) == ((1, 3), (2,))
    assert canonical([]) == ()


def test_crossing_detection():
    assert not is_noncrossing(((1, 3), (2, 4)))
    assert is_noncrossing(((1, 4), (2, 3)))
    assert is_noncrossing(((1, 2, 3, 4),))


def test_zero_and_one_partitions():
    assert zero_partition(3) == ((1,), (2,), (3,))
    assert one_partition(3) == ((1, 2, 3),)
    assert kreweras(zero_partition(4)) == one_partition(4)
    assert kreweras(one_partition(4)) == zero_partition(4)


def test_kreweras_rejects_crossing_input():
    with pytest.raises(ValueError):
        kreweras(((1, 3), (2, 4)))


@pytest.mark.parametrize("p", [((1,), (3,)), ((1, 2), (2, 3)), ((0, 1),)])
def test_kreweras_rejects_blocks_that_do_not_partition_1_to_n(p):
    for complement in (kreweras, kreweras_inverse):
        with pytest.raises(ValueError, match="partition"):
            complement(p)


def test_kreweras_worked_example_on_eight_elements():
    p = ((1, 2), (3, 6, 8), (4,), (5,), (7,))
    assert kreweras(p) == ((1,), (2, 8), (3, 4, 5), (6, 7))


def test_kreweras_squared_is_a_bijection_but_not_identity():
    for n in range(2, 6):
        level = enumerate_ncp(n)
        double = [kreweras(kreweras(p)) for p in level]
        assert sorted(double) == sorted(level)
    # the double complement rotates labels, so it moves some partition
    assert any(kreweras(kreweras(p)) != p for p in enumerate_ncp(3))


def _kreweras_by_brute_force(p):
    """The coarsest noncrossing q with interleave(p, q) noncrossing, found
    over all of NC(n): every candidate refines the complement, so the one
    candidate with the fewest blocks is it."""
    candidates = [q for q in enumerate_ncp(partition_size(p))
                  if is_noncrossing(interleave(p, q))]
    best = min(candidates, key=len)
    assert sum(1 for q in candidates if len(q) == len(best)) == 1
    assert all(is_refinement(q, best) for q in candidates)
    return best


@pytest.mark.parametrize("n", range(8))
def test_kreweras_matches_the_brute_force_oracle(n):
    for p in enumerate_ncp(n):
        q = _kreweras_by_brute_force(p)
        assert kreweras(p) == q and kreweras_inverse(q) == p


def test_kreweras_has_no_size_limit():
    # past enumerate_ncp's sizes: the complement of p.q is K(p) and K(q)
    # joined at the seam, and K(K(P)) rotates P back by one
    p = ((1, 2), (3, 6, 8), (4,), (5,), (7,))
    q = ((1, 4), (2, 3), (5,))
    for n in (11, 12, 40):
        assert kreweras(zero_partition(n)) == one_partition(n)
        assert kreweras(one_partition(n)) == zero_partition(n)
    joined = merge_op("concat", p, q)
    assert kreweras(joined) == merge_op("right", kreweras(p), kreweras(q))
    assert kreweras_inverse(kreweras(joined)) == joined
    rotated = canonical([[(x - 2) % 13 + 1 for x in b] for b in joined])
    assert kreweras(kreweras(joined)) == rotated


def test_kreweras_inverse_round_trip():
    for n in range(6):
        for p in enumerate_ncp(n):
            assert kreweras_inverse(kreweras(p)) == p
            assert kreweras(kreweras_inverse(p)) == p


def test_interleave_block_placement():
    p, q = ((1, 2),), ((1,), (2,))
    # p lands on odd positions 1,3; q on even positions 2,4
    assert interleave(p, q) == ((1, 3), (2,), (4,))
    assert partition_size(interleave(p, q)) == 4


def test_merge_concat_shifts():
    p, q = ((1, 2),), ((1,), (2,))
    assert merge_op("concat", p, q) == ((1, 2), (3,), (4,))
    assert merge_op("concat", (), q) == q


def test_merge_right_and_left_glue_the_expected_blocks():
    p, q = ((1, 2),), ((1,), (2,))
    assert merge_op("right", p, q) == ((1, 2, 4), (3,))
    assert merge_op("left", p, q) == ((1, 2, 3), (4,))
    with pytest.raises(ValueError):
        merge_op("right", (), q)
    with pytest.raises(ValueError):
        merge_op("diagonal", p, q)


def test_every_partition_decomposes_uniquely_under_the_pair_law():
    """Concatenating P with the singleton glued under Q reaches every
    partition exactly once -- the pairing that makes the family Catalan."""
    for n in range(1, 6):
        built = []
        for k in range(n):
            for p in enumerate_ncp(k):
                for q in enumerate_ncp(n - 1 - k):
                    one = ((1,),)
                    tail = merge_op("right", one, q) if q else one
                    built.append(merge_op("concat", p, tail))
        assert sorted(built) == sorted(enumerate_ncp(n))


def test_json_round_trip():
    p = ((1, 4), (2, 3), (5,))
    assert partition_from_json(partition_to_json(p)) == p
    assert partition_to_json(p) == [[1, 4], [2, 3], [5]]


def test_json_rejects_non_partitions():
    with pytest.raises(ValueError):
        partition_from_json([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        partition_from_json([[1], [3]])


def test_ascii_rendering_is_stable():
    art = partition_to_ascii(((1, 3), (2,)))
    assert art.splitlines()[0] == "1 2 3"
    assert len(art.splitlines()) >= 2


@st.composite
def ncps(draw, max_size=6):
    n = draw(st.integers(0, max_size))
    level = enumerate_ncp(n)
    return level[draw(st.integers(0, len(level) - 1))]


@given(ncps())
def test_kreweras_complement_is_noncrossing_together(p):
    q = kreweras(p)
    assert is_noncrossing(interleave(p, q))


@given(ncps(max_size=5))
def test_kreweras_complement_is_the_coarsest(p):
    """Anything coarser than K(P) must cross P somewhere."""
    n = partition_size(p)
    k = kreweras(p)
    for q in enumerate_ncp(n):
        if is_noncrossing(interleave(p, q)):
            assert is_refinement(q, k)


@given(ncps(), ncps())
def test_concat_is_associative(p, q):
    r = ((1,), (2, 3))
    assert merge_op("concat", merge_op("concat", p, q), r) == \
        merge_op("concat", p, merge_op("concat", q, r))

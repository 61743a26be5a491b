"""Matching representation, serialization round-trips, and the counts of the
test oracles' own enumeration (``support.enumerate_matchings``)."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from stablepairs import (
    FormatError,
    Matching,
    parse_matching,
    serialize_matching,
)
from support import (
    enumerate_matchings,
    involution_count,
    pairs_of,
    random_matching,
    singles_of,
)


def test_parse_pairs_and_singletons():
    m = parse_matching("1 2\n3 -\n", 3)
    assert pairs_of(m) == [(1, 2)]
    assert singles_of(m) == [3]


def test_parse_accepts_comments_and_reversed_pairs():
    m = parse_matching("# a comment\n2 1\n3 -\n", 3)
    assert m == Matching([2, 1, 3])


@pytest.mark.parametrize(
    "text, n",
    [
        ("1 2\n2 3\n", 3),  # player 2 twice: not an involution
        ("1 2\n", 3),  # player 3 dangling
        ("1 2\n3 -\n1 -\n", 3),  # repeated player
        ("1 1\n2 -\n", 2),  # self pair
        ("1 4\n2 3\n", 3),  # out of range
        ("1\n", 1),  # bad arity
        ("a b\n", 2),  # not numbers
    ],
)
def test_parse_rejects_malformed(text, n):
    with pytest.raises(FormatError):
        parse_matching(text, n)


def test_missing_player_fails_fast_on_huge_size():
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"^player 1 is missing from the matching$"):
            parse_matching("", 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_roundtrip_500_random_matchings():
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randint(0, 12)
        m = random_matching(n, rng)
        assert parse_matching(serialize_matching(m), n) == m


def test_matching_invariants_enforced():
    with pytest.raises(ValueError):
        Matching([2, 3, 1])  # a 3-cycle is not an involution
    with pytest.raises(ValueError):
        Matching([2, 1, 4])  # out of range


def test_with_move_semantics():
    m = Matching([2, 1, 3, 4])
    moved = m.with_move(1, 3)
    assert pairs_of(moved) == [(1, 3)]
    assert singles_of(moved) == [2, 4]
    alone = m.with_move(1, None)
    assert singles_of(alone) == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        m.with_move(3, 2)  # target 2 is not single
    with pytest.raises(ValueError):
        m.with_move(3, 3)
    for target in (0, -1, m.n + 1):
        with pytest.raises(ValueError, match=rf"^target {target} out of range$"):
            m.with_move(3, target)
        with pytest.raises(ValueError, match=rf"^mover {target} out of range$"):
            m.with_move(target, 3)


def test_enumerate_counts_small():
    assert len(list(enumerate_matchings(0))) == 1
    assert len(list(enumerate_matchings(3))) == 4
    assert len(list(enumerate_matchings(10))) == 9496


def test_enumerate_n3_contents_and_order():
    got = [tuple(sorted(pairs_of(m))) for m in enumerate_matchings(3)]
    assert got == [((1, 2),), ((1, 3),), ((2, 3),), ()]


def test_enumerate_matches_involution_recurrence():
    for n in range(13):
        assert sum(1 for _ in enumerate_matchings(n)) == involution_count(n)


def test_enumerate_is_duplicate_free_and_valid():
    for n in range(9):
        seen = set()
        for m in enumerate_matchings(n):
            assert m.as_tuple() not in seen
            seen.add(m.as_tuple())
            for i in range(1, n + 1):
                assert m.partner_of(m.partner_of(i)) == i

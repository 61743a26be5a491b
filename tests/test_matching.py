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


INVOLUTION = "appears more than once (matching must be an involution)"
MALFORMED = [
    ("1 2\n2 3\n", 3, f"line 2: player 2 {INVOLUTION}"),
    ("1 2\n", 3, "player 3 is missing from the matching"),
    ("1 2\n3 -\n1 -\n", 3, f"line 3: player 1 {INVOLUTION}"),
    ("1 1\n2 -\n", 2, "line 1: a player cannot pair with itself; use '-'"),
    ("1 4\n2 3\n", 3, "line 1: player id 4 out of range"),
    ("1\n", 1, "line 1: expected 'i j' or 'i -'"),
    ("a b\n", 2, "line 1: bad player id 'a'"),
    # an id is an optional sign and ASCII digits
    ("1 2_0\n", 2, "line 1: bad player id '2_0'"),
    ("\u0661 -\n", 1, "line 1: bad player id '\u0661'"),
    # a comment-only line, a blank line and line ends each count as one line
    ("# pairs\n1 4\n", 3, "line 2: player id 4 out of range"),
    ("1 2\n\n3 4\n", 3, "line 3: player id 4 out of range"),
    ("1 2\r\n3 4\r\n", 3, "line 2: player id 4 out of range"),
    ("1 2\r3 4\r", 3, "line 2: player id 4 out of range"),
    # a form feed does not end a comment
    ("1 2 # x\f3 4\n5 -\n", 3, "line 2: player id 5 out of range"),
]


@pytest.mark.parametrize("text, n, message", MALFORMED, ids=[f"{t}-{n}" for t, n, _ in MALFORMED])
def test_parse_rejects_malformed(text, n, message):
    with pytest.raises(FormatError) as caught:
        parse_matching(text, n)
    assert str(caught.value) == message


def test_parse_ends_lines_only_at_cr_and_lf():
    expected = Matching([2, 1, 3])
    for text in ("1 2\r\n3 -\r\n", "1 2\r3 -\r", "1\f2\n3\v-\n", "# x\f3 4\n1 2\n3 -\n"):
        assert parse_matching(text, 3) == expected, text


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

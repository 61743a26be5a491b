"""Parsing, preference semantics, and the generator."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import re
import tracemalloc

import pytest

from stablepairs import (
    MARRIAGE,
    FormatError,
    Game,
    GenParams,
    PreferenceList,
    has_no_unacceptability,
    mmm_to_marriage_ns,
    parse_instance,
    random_game,
    serialize_instance,
)
from support import (
    CYCLIC3,
    SMALL_GRAPHS,
    definitional_mutual,
    printed_instance,
    random_listed_game,
    random_marriage,
    random_roommate,
)


def test_parse_two_player_mutual_top():
    game = parse_instance("roommate 2\n1: 2\n2: 1\n")
    assert game.n == 2
    assert game.prefs(1).rank_of(2) < game.prefs(1).self_rank
    assert game.prefs(2).rank_of(1) < game.prefs(2).self_rank


def test_parse_tie_groups_and_self():
    game = parse_instance("roommate 4\n1: 2 ( 3 self ) 4\n2: 1\n3:\n4: ( 1 2 )\n")
    pl = game.prefs(1)
    assert pl.rank_of(2) == 0
    assert pl.rank_of(3) == pl.self_rank == 1
    assert pl.rank_of(4) == 2  # listed below self: ranked but unacceptable
    assert pl.rank_of(3) <= pl.self_rank and pl.rank_of(3) >= pl.self_rank
    assert pl.rank_of(4) > pl.self_rank
    # unlisted players sit strictly below everything listed
    empty = game.prefs(3)
    assert empty.rank_of(1) == empty.rank_of(2) == empty.bottom_rank
    assert game.prefs(4).rank_of(1) == game.prefs(4).rank_of(2) == 0


def test_parse_bare_self_midway():
    game = parse_instance("roommate 3\n1: 2 self 3\n2: 1\n3: 1\n")
    pl = game.prefs(1)
    assert pl.rank_of(2) < pl.self_rank
    assert pl.rank_of(3) > pl.self_rank


@pytest.mark.parametrize(
    "grouped, bare, slots",
    [("( self )", "self", (0, 1, 0)), ("2 ( self ) 3", "2 self 3", (1, 3, 1))],
)
def test_parse_reads_self_alone_in_a_group_as_bare_self(grouped, bare, slots):
    game = parse_instance(f"roommate 3\n1: {grouped}\n2:\n3:\n")
    expected = parse_instance(f"roommate 3\n1: {bare}\n2:\n3:\n")
    assert game == expected  # every compiled field of every list
    assert serialize_instance(game) == serialize_instance(expected)
    pl = game.prefs(1)
    assert (pl.self_rank, pl.bottom_rank, pl.num_acceptable) == slots


MALFORMED = [
    ("roommate 3\n1: 2 2\n2: 1\n3:\n", "line 2: duplicate entry 2 in list of player 1"),
    ("roommate 3\n1: 2 ( 3 2 )\n2: 1\n3:\n", "line 2: duplicate entry 2 in list of player 1"),
    ("roommate 2\n1: 1\n2:\n", "line 2: player 1 lists itself by id; use 'self'"),
    ("roommate 2\n1: 3\n2:\n", "line 2: player id 3 out of range"),
    ("roommate 2\n1: ( 2\n2:\n", "line 2: unclosed tie group"),
    ("roommate 2\n1: ( )\n2:\n", "line 2: empty tie group"),
    ("roommate 2\n1: 2 )\n2:\n", "line 2: ')' without matching '('"),
    ("roommate 2\n1: self 2 self\n2:\n", "line 2: 'self' appears more than once"),
    ("roommate 2\n1: 2\n", "missing preference line for player 2"),
    ("roommate 2\n1: 2\n1: 2\n2:\n", "line 3: duplicate preference line for player 1"),
    ("roommate 2\n1 2\n2:\n", "line 2: expected '<id>: <entries>'"),
    ("roommate x\n", "line 1: non-numeric player count in header"),
    ("party 2\n1: 2\n2: 1\n", "line 1: expected header 'roommate <n>' or 'marriage <m> <w>'"),
    ("", "empty instance: missing header"),
    # a man listing himself: the self check comes before the side check
    ("marriage 1 1\n1: 1\n2: 1\n", "line 2: player 1 lists itself by id; use 'self'"),
    ("marriage 2 1\n1: 2\n2: 3\n3: 1\n", "line 2: same-sex entry 2 in list of player 1"),
    ("marriage 1 2\n1: 2\n2: 3\n3: 1\n", "line 3: same-sex entry 3 in list of player 2"),
    ("roommate 3\n1: 2\n2: 3 ( 1 2 )\n3:\n", "line 3: player 2 lists itself by id; use 'self'"),
    ("roommate 3\n1: 0\n2:\n3:\n", "line 2: player id 0 out of range"),
    ("roommate 3\n1: 2 -1\n2:\n3:\n", "line 2: player id -1 out of range"),
    ("roommate 3\n1: 2 x\n2:\n3:\n", "line 2: unexpected token 'x'"),
    ("roommate 3\n1: ( 2 ( 3 ) )\n2:\n3:\n", "line 2: nested tie group"),
    ("roommate 3\n1: ( 2 self ) self\n2:\n3:\n", "line 2: 'self' appears more than once"),
    ("roommate 3\n1: ( 2 self self )\n2:\n3:\n", "line 2: 'self' appears more than once"),
    ("roommate 3\n1: self ( self )\n2:\n3:\n", "line 2: 'self' appears more than once"),
    # a group holding only 'self' is not empty, but the next group is
    ("roommate 3\n1: ( self ) ( )\n2:\n3:\n", "line 2: empty tie group"),
    ("roommate 3\n1: self ( )\n2:\n3:\n", "line 2: empty tie group"),
    ("roommate 3\n1: ( 3 2 3 )\n2:\n3:\n", "line 2: duplicate entry 3 in list of player 1"),
    # a printed id and another spelling of it take different paths to the same errors
    ("roommate 3\n1: 2 02\n2:\n3:\n", "line 2: duplicate entry 2 in list of player 1"),
    ("roommate 3\n1: 02 2\n2:\n3:\n", "line 2: duplicate entry 2 in list of player 1"),
    ("roommate 2\n1: +1\n2:\n", "line 2: player 1 lists itself by id; use 'self'"),
    ("marriage 2 1\n1: 02\n2: 3\n3: 1\n", "line 2: same-sex entry 2 in list of player 1"),
    # an id or a count is an optional sign and ASCII digits
    ("roommate 3\n1: 2 1_0\n2:\n3:\n", "line 2: unexpected token '1_0'"),
    ("roommate 3\n1: 2 \u0663\n2:\n3:\n", "line 2: unexpected token '\u0663'"),
    # such a token is named before any other error on its line
    ("roommate 3\n1: 1 ( 2 x_\n2:\n3:\n", "line 2: unexpected token 'x_'"),
    ("roommate 2\n1_0: 2\n2:\n", "line 2: bad player id '1_0'"),
    ("roommate 2\n\u0661: 2\n2:\n", "line 2: bad player id '\u0661'"),
    ("roommate 1_0\n", "line 1: non-numeric player count in header"),
    ("marriage 1 \u0661\n", "line 1: non-numeric player count in header"),
    # a comment-only line, a blank line and line ends each count as one line
    ("# r\nroommate 2\n\n1: 3\n2:\n", "line 4: player id 3 out of range"),
    ("roommate 2\r\n# r\r\n1: 3\r\n2:\r\n", "line 3: player id 3 out of range"),
    ("roommate 2\r# r\r1: 3\r2:\r", "line 3: player id 3 out of range"),
    # a form feed does not end a comment
    ("roommate 2\n1: # x\f2: 1\n2: 3\n", "line 3: player id 3 out of range"),
]


@pytest.mark.parametrize("text, message", MALFORMED, ids=[text for text, _ in MALFORMED])
def test_parse_rejects_malformed(text, message):
    with pytest.raises(FormatError) as caught:
        parse_instance(text)
    assert str(caught.value) == message


def test_parse_reads_noncanonical_ids_as_canonical():
    canonical = "marriage 2 2\n1: 3 ( 4 self )\n2: 3 4\n3: 2 ( 1 self )\n4: ( 1 2 )\n"
    written = "marriage 2 2\n01: 03 ( +4 self )\n2: +3 004\n3: 02 ( 1 self )\n04: ( 1 0002 )\n"
    assert parse_instance(written) == parse_instance(canonical)
    assert serialize_instance(parse_instance(written)) == canonical


def test_parse_ends_lines_only_at_cr_and_lf():
    expected = parse_instance("roommate 3\n1: 2 3\n2: 1\n3:\n")
    for text in (
        "roommate 3\r\n1: 2 3\r\n2: 1\r\n3:\r\n",
        "roommate 3\r1: 2 3\r2: 1\r3:\r",
        # the other breaks that str.splitlines knows separate entries
        "roommate\f3\n1: 2\v3\x1c\n2:\x1d1\x1e\x85\n3:\u2028\u2029\n",
        "roommate 3\n1: 2 3 # x\f2: 3\n2: 1\n3:\n",
    ):
        assert parse_instance(text) == expected, text


def test_parse_splits_entries_on_non_ascii_whitespace():
    # A line that is not ASCII is checked token by token, but U+00A0 between
    # entries still separates them.
    game = parse_instance("roommate 3\n1:\xa02\xa0(\xa03\xa0self )\n2: 1\n3:\n")
    assert game == parse_instance("roommate 3\n1: 2 ( 3 self )\n2: 1\n3:\n")


def test_parse_shares_one_int_per_id():
    # Ids above 256 are not cached by the interpreter; each one the game names,
    # however it is written, must be the owner's own int object.
    lines = ["roommate 300"] + [f"{i}:" for i in range(1, 299)]
    game = parse_instance("\n".join(lines + ["299: 0300", "300: +299 ( 298 )"]) + "\n")
    assert game.prefs(299).order[0] is game.prefs(300).owner
    assert game.prefs(300).order[0] is game.prefs(299).owner
    assert game.prefs(300).order[1] is game.prefs(298).owner


@pytest.mark.parametrize(
    "m, w, lists, message",
    [
        (2, 2, {1: [3, 2]}, "same-sex entry 2 in list of player 1"),
        (2, 2, {1: [0]}, "same-sex entry 0 in list of player 1"),  # side check runs first
        (2, 2, {3: [1, 4]}, "same-sex entry 4 in list of player 3"),
        (2, 2, {4: [0, 9]}, "same-sex entry 9 in list of player 4"),
        (2, 2, {3: [2, 0]}, "player id 0 out of range in list of 3"),
        (2, 2, {2: [4, 9, 3]}, "player id 9 out of range in list of 2"),
        (2, 2, {1: [9], 3: [4]}, "same-sex entry 4 in list of player 3"),  # every list first
        (None, 3, {2: [1, 5, 0]}, "player id 5 out of range in list of 2"),
        (None, 3, {1: [-1], 3: [4]}, "player id -1 out of range in list of 1"),
    ],
)
def test_game_rejects_bad_entries_with_first_offender(m, w, lists, message):
    n = w if m is None else m + w
    profile = tuple(
        PreferenceList(i, tuple(frozenset({j}) for j in lists.get(i, ())), len(lists.get(i, ())))
        for i in range(1, n + 1)
    )
    with pytest.raises(ValueError) as caught:
        if m is None:
            Game(n, profile)
        else:
            Game(n, profile, MARRIAGE, m)
    assert str(caught.value) == message


@pytest.mark.parametrize("num_men", [-1, 5])
def test_marriage_game_rejects_num_men_outside_0_to_n(num_men):
    profile = tuple(PreferenceList(i) for i in range(1, 5))
    with pytest.raises(ValueError, match=rf"^num_men must lie in 0\.\.4, got {num_men}$"):
        Game(4, profile, MARRIAGE, num_men)


def test_roommate_game_rejects_a_side_count():
    profile = tuple(PreferenceList(i) for i in range(1, 4))
    with pytest.raises(ValueError, match="^roommate games carry no side assignment$"):
        Game(3, profile, num_men=1)
    game = Game(3, profile)
    assert game.num_men == game.num_women == 0
    assert list(game.men) == list(game.women) == []


@pytest.mark.parametrize(
    "args, message",
    [
        ((0,), "player ids are 1-based"),
        ((1, (frozenset(),)), "empty preference tier"),
        ((1, (frozenset({1, 2}),)), "owner may not appear in its own tiers"),
        ((1, (frozenset({2}), frozenset({2, 3}))), "player listed in more than one tier"),
        ((1, (frozenset({2}),), 1, True), "self_tier out of range for a tied self"),
        ((1, (frozenset({2}),), 2), "self_tier out of range"),
        ((1, (frozenset({2}),), -1), "self_tier out of range"),
    ],
)
def test_preference_list_rejects_bad_tiers(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PreferenceList(*args)


@pytest.mark.parametrize(
    "n, owners, kind, message",
    [
        (2, (1, 2), "circle", "unknown game kind 'circle'"),
        (-1, (), "roommate", "player count must be non-negative"),
        (3, (1, 2), "roommate", "need exactly one preference list per player"),
        (2, (2, 1), MARRIAGE, "profile must be ordered by owner id 1..n"),
    ],
)
def test_game_rejects_a_bad_shape(n, owners, kind, message):
    profile = tuple(PreferenceList(i) for i in owners)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Game(n, profile, kind)


def test_every_marriage_builder_numbers_the_sides_as_ranges():
    tied = parse_instance("marriage 2 3\n1: 3 ( 4 self )\n2:\n3: 1\n4:\n5: 2\n")
    games = {
        "parsed": (tied, 2),
        "generated": (random_game(GenParams(kind="marriage", n_men=3, n_women=1, seed=5)), 3),
        "reduced": (mmm_to_marriage_ns(SMALL_GRAPHS["K13"], 2).game, 6),
    }
    for label, (game, m) in games.items():
        assert game.num_men == m and game.num_women == game.n - m, label
        assert game.men == range(1, m + 1), label
        assert game.women == range(m + 1, game.n + 1), label


def test_parse_reports_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_instance("roommate 3\n1: 2 3\n2: 3 3\n3:\n")
    assert err.value.line == 3


def test_missing_player_line_fails_fast_on_huge_header():
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"^missing preference line for player 1$"):
            parse_instance("roommate 1000000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_roundtrip_random_instances():
    for seed in range(120):
        game = random_roommate(seed) if seed % 2 else random_marriage(seed)
        text = serialize_instance(game)
        assert text == printed_instance(game)
        assert parse_instance(text) == game
    # random_game always lists 'self' last; these put it anywhere, tied or not.
    rng = random.Random(24)
    for _ in range(300):
        game = random_listed_game(rng)
        text = serialize_instance(game)
        assert text == printed_instance(game)
        assert parse_instance(text) == game
        for pl in game.profile:
            assert pl == PreferenceList(pl.owner, pl.tiers, pl.self_tier, pl.self_tied)


def test_roundtrip_keeps_self_position():
    text = "roommate 4\n1: 2 ( 3 self ) 4\n2: self 1\n3: ( 1 2 4 )\n4:\n"
    game = parse_instance(text)
    assert parse_instance(serialize_instance(game)) == game


def test_preference_is_total_preorder():
    for seed in range(40):
        game = random_roommate(seed, tie_probability=0.5)
        rng = random.Random(seed + 999)
        for _ in range(30):
            i = rng.randint(1, game.n)
            pl = game.prefs(i)
            x, y, z = (rng.randint(1, game.n) for _ in range(3))
            rx, ry, rz = pl.rank_of(x), pl.rank_of(y), pl.rank_of(z)
            assert rx <= rx  # reflexive
            assert rx <= ry or ry <= rx  # complete
            if rx <= ry and ry <= rz:
                assert rx <= rz  # transitive


def test_preference_list_is_immutable():
    pl = PreferenceList(1, (frozenset({2, 3}), frozenset({4})), 1, True)
    before = hash(pl)
    for name in ("owner", "order", "ranks", "self_rank", "bottom_rank", "num_acceptable"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pl, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(pl, name)
    with pytest.raises(TypeError):
        pl.ranks[2] = 5  # type: ignore[index]
    assert pl.ranks == {2: 0, 3: 0, 4: 1} and hash(pl) == before
    for clone in (copy.copy(pl), copy.deepcopy(pl), pickle.loads(pickle.dumps(pl))):
        assert clone == pl and hash(clone) == before


def test_is_mutual_examples():
    assert definitional_mutual(parse_instance("roommate 2\n1: 2\n2: 1\n"))
    assert not definitional_mutual(parse_instance("roommate 2\n1: 2\n2:\n"))


def test_complete_games_are_mutual():
    for seed in range(100):
        game = random_roommate(seed, complete=True)
        assert has_no_unacceptability(game)
        assert definitional_mutual(game)


def test_has_no_unacceptability_examples():
    assert has_no_unacceptability(parse_instance(CYCLIC3))
    assert not has_no_unacceptability(parse_instance("roommate 2\n1: 2\n2:\n"))


def test_generator_is_deterministic():
    params = GenParams(kind="marriage", n_men=5, n_women=4, tie_probability=0.4,
                       acceptability_probability=0.5, seed=77)
    assert random_game(params) == random_game(params)


def test_generator_mutual_flag():
    for seed in range(200):
        game = random_roommate(seed, mutual=True)
        assert definitional_mutual(game)


def test_generator_complete_marriage():
    for seed in range(100):
        game = random_marriage(seed, complete=True)
        assert has_no_unacceptability(game)


def test_generator_rejects_bad_params():
    with pytest.raises(ValueError, match=r"^tie_probability must lie in \[0, 1\]$"):
        random_game(GenParams(kind="roommate", n=3, tie_probability=1.5))
    with pytest.raises(ValueError, match=r"^acceptability_probability must lie in \[0, 1\]$"):
        random_game(GenParams(kind="roommate", n=3, acceptability_probability=1.5))
    with pytest.raises(ValueError, match="^player counts must be non-negative$"):
        random_game(GenParams(kind="roommate", n=-1))
    with pytest.raises(ValueError, match="^unknown game kind 'circle'$"):
        random_game(GenParams(kind="circle", n=3))


def test_marriage_same_sex_unacceptable():
    for seed in range(50):
        game = random_marriage(seed)
        men = sorted(game.men)
        for i in men:
            for j in men:
                if i != j:
                    assert game.prefs(i).rank_of(j) > game.prefs(i).self_rank

"""The compiled preference form against ranks read off the public tier fields.

Every check compares, for every ordered pair of players, what
``PreferenceList`` and the game-level predicates compute from the compiled
form with :func:`support.definitional_rank`.  The 10,000-player test bounds
memory: compiled preferences must stay linear in the instance size, and so
must the brute-force search set up on them.  The complete 300+300 marriage
tests bound the peak of generating, parsing and solving a dense game.
"""

from __future__ import annotations

import tracemalloc

from stablepairs import (
    Concept,
    DeviationWitness,
    Game,
    GenParams,
    Matching,
    PreferenceList,
    brute_force,
    compute_is_marriage,
    find_deviation,
    has_no_unacceptability,
    is_individually_rational,
    mmm_to_marriage_ns,
    mmm_to_roommate_is,
    parse_instance,
    random_game,
    serialize_instance,
)
from support import (
    SMALL_GRAPHS,
    definitional_accepts,
    definitional_mutual,
    definitional_rank,
    random_marriage,
    random_roommate,
    search_status,
)


def check_list(pl: PreferenceList, n: int) -> None:
    rank = {j: definitional_rank(pl, j) for j in range(1, n + 2)}
    listed = [j for tier in pl.tiers for j in sorted(tier)]
    assert pl.order == tuple(listed)
    assert pl.ranks == {j: rank[j] for j in listed}
    assert pl.self_rank == rank[pl.owner]
    assert pl.bottom_rank == rank[n + 1]
    for j in range(1, n + 1):
        assert pl.rank_of(j) == rank[j]
        assert (pl.rank_of(j) <= pl.self_rank) == definitional_accepts(pl, j)
    for r in range(pl.bottom_rank + 1):
        assert pl.up_to(r) == tuple(j for j in listed if rank[j] <= r)
    assert pl.num_acceptable == sum(
        definitional_accepts(pl, j) for j in range(1, n + 1) if j != pl.owner
    )
    rebuilt = PreferenceList(pl.owner, pl.tiers, pl.self_tier, pl.self_tied)
    assert rebuilt == pl and hash(rebuilt) == hash(pl)


def check_game(game: Game) -> None:
    for pl in game.profile:
        check_list(pl, game.n)
    players = game.players()
    m = game.num_men
    complete = all(
        definitional_accepts(game.prefs(i), j)
        for i in players
        for j in players
        if j != i and not (game.is_marriage and (i <= m) == (j <= m))
    )
    accepts = {
        (i, j): game.prefs(i).rank_of(j) <= game.prefs(i).self_rank
        for i in players
        for j in players
    }
    mutual = all(accepts[i, j] == accepts[j, i] for i in players for j in players)
    assert has_no_unacceptability(game) == complete
    assert definitional_mutual(game) == mutual


def test_random_games():
    for seed in range(240):
        extra = {"complete": True} if seed % 3 == 0 else {"mutual": seed % 3 == 1}
        make = random_roommate if seed % 2 else random_marriage
        game = make(seed, tie_probability=0.5, **extra)
        check_game(game)


def test_directly_built_lists_round_trip():
    x = frozenset({7, 8, 9})
    cases = [
        (3, (), 0, False),
        (1, (frozenset({4, 5}), x), 2, False),  # a plain acceptable list
        (6, (frozenset({1, 2, 3}),), 1, False),  # one tier of everyone
        (2, (frozenset({3, 4}), frozenset({1})), 2, False),
        (1, (frozenset({2}), frozenset({5}), frozenset({3})), 1, True),
        (4, (frozenset({2}), frozenset({5, 6})), 0, False),  # self first
        (5, (frozenset({2, 3}), frozenset({1})), 0, True),  # tied at the top
    ]
    for owner, tiers, self_tier, self_tied in cases:
        pl = PreferenceList(owner, tiers, self_tier, self_tied)
        assert (pl.tiers, pl.self_tier, pl.self_tied) == (tiers, self_tier, self_tied)
        check_list(pl, 10)


def test_reduction_games():
    for graph in SMALL_GRAPHS.values():
        check_game(mmm_to_marriage_ns(graph, 0).game)
        check_game(mmm_to_roommate_is(graph, 0).game)


def test_sparse_10k_roommate_memory_is_linear():
    n = 10_000
    text = f"roommate {n}\n" + "".join(
        f"{i}: {i % n + 1} ( {(i + 1) % n + 1} self )\n" for i in range(1, n + 1)
    )
    tracemalloc.start()
    try:
        game = parse_instance(text)
        singles = Matching.singletons(n)
        # Each player's favourite lists it nowhere above alone: NS moves, IS none.
        assert find_deviation(game, singles, Concept.NS) == DeviationWitness(1, 2, Concept.NS)
        assert find_deviation(game, singles, Concept.IS) is None
        assert is_individually_rational(game, singles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Dense n x n rank rows would need about 800 MB here.
    assert peak < 25 * 2**20


def test_sparse_search_memory_is_linear():
    # 3000 players, 8,975 listed entries.  Generating the game draws n^2
    # random numbers, so it stays outside the measured window.
    game = random_game(
        GenParams(kind="roommate", n=3000, acceptability_probability=0.001, seed=1)
    )
    tracemalloc.start()
    try:
        found, count = brute_force(game, Concept.IR, cap=5000, stop_after=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1 and is_individually_rational(game, found)
    # A dense (n+1) x (n+1) rank table needs about 70 MB here.
    assert peak < 10 * 2**20
    # CNS builds the move-target table, one entry per player and rule-(b)
    # neighbour, and runs rule (e) deep into the tree; an n x n table would
    # not fit.
    tracemalloc.start()
    try:
        status, _ = search_status(game, Concept.CNS, node_budget=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == "budget"
    assert peak < 10 * 2**20


def test_ir_count_memory():
    # The count keeps two layers of taken-player sets, at most 6,476 sets
    # in one layer here (about 1.4 MiB at the peak); the search would visit
    # about 2.4e10 leaves, one per matching.
    game = random_game(GenParams(kind="roommate", n=20, complete=True, seed=1))
    tracemalloc.start()
    try:
        _, count = brute_force(game, Concept.IR, cap=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 23_758_664_096
    assert peak < 4 * 2**20


COMPLETE_MARRIAGE = GenParams(
    kind="marriage", n_men=300, n_women=300, tie_probability=0.3, complete=True, seed=17
)


def test_complete_generation_memory():
    # The game lists 180,000 entries in about 7 MiB.  A fresh int object per
    # listed id above 256 would add about 3 MiB, and a set of acceptable
    # partners per player about 5 MiB more at the peak.
    tracemalloc.start()
    try:
        game = random_game(COMPLETE_MARRIAGE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert has_no_unacceptability(game)
    assert peak < 9 * 2**20


def test_complete_parse_memory():
    text = serialize_instance(random_game(COMPLETE_MARRIAGE))
    tracemalloc.start()
    try:
        game = parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert has_no_unacceptability(game)
    # The game itself takes about 7 MiB; a fresh int object per listed id
    # above 256 would add about 3 MiB.
    assert peak < 9 * 2**20


def test_is_marriage_solver_memory():
    # Deferred acceptance reads each list's acceptable prefix in place.  A
    # second, rewritten copy of every tied list would take over 1 MiB here.
    game = random_game(COMPLETE_MARRIAGE)
    tracemalloc.start()
    try:
        result = compute_is_marriage(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert find_deviation(game, result, Concept.IS) is None
    assert peak < 2**19

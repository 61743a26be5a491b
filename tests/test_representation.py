"""The compiled preference form against ranks read off the public tier fields.

Every check compares, for every ordered pair of players, what
``PreferenceList`` and the game-level predicates compute from the compiled
form with :func:`support.definitional_rank`.  The 10,000-player test bounds
memory: compiled preferences must stay linear in the instance size, and so
must the brute-force search set up on them.  The complete 300+300 marriage
tests bound the peak of generating, parsing and solving a dense game.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from functools import cache
from pathlib import Path

from stablepairs import (
    Concept,
    DeviationWitness,
    Game,
    GenParams,
    Matching,
    PreferenceList,
    brute_force,
    compute_is_marriage,
    exists_ns_is_roommate_complete,
    find_deviation,
    has_no_unacceptability,
    is_individually_rational,
    mmm_to_marriage_ns,
    mmm_to_roommate_is,
    parse_instance,
    random_game,
    serialize_instance,
)
from stablepairs.solvers import _count_cache_cap, _frontier_cap, _frontier_count, _run_search
from support import (
    SMALL_GRAPHS,
    definitional_accepts,
    definitional_mutual,
    definitional_rank,
    random_marriage,
    random_roommate,
    search_status,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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


@cache
def sparse_3000() -> Game:
    """3000 players, 8,975 listed entries.  Generating the game draws n^2
    random numbers, so it stays outside the measured windows."""
    return random_game(
        GenParams(kind="roommate", n=3000, acceptability_probability=0.001, seed=1)
    )


def test_sparse_search_memory_is_linear():
    game = sparse_3000()
    tracemalloc.start()
    try:
        found, count = brute_force(game, Concept.IR, cap=5000, stop_after=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1 and is_individually_rational(game, found)
    # A dense (n+1) x (n+1) rank table needs about 70 MB here.
    assert peak < 10 * 2**20
    # CNS builds rule (e)'s move masks, one per player and rule-(b) pair,
    # and runs rule (e) deep into the tree; an n x n table would not fit.
    # The peak (4.1 MiB) is the same at 20,000 nodes as at 200,000, which
    # take about 7 s under tracemalloc.
    tracemalloc.start()
    try:
        status, _ = search_status(game, Concept.CNS, node_budget=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == "budget"
    assert peak < 10 * 2**20


PEAK = """
def peak():
    with open("/proc/self/status") as status:
        return next(1024 * int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""


def peak_rss_probe(probe: str) -> list[str]:
    """Run ``probe`` in a fresh interpreter and return the words it prints.

    The probe may call ``peak()``, the interpreter's peak resident set in
    bytes (``VmHWM``).  A child's ``ru_maxrss`` starts at its spawner's peak,
    so under a test runner larger than the child it would read no growth.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", PEAK + probe], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_count_cache_memory_is_capped():
    # The frontier count of this CNS game gives up in its sixth layer, past
    # 41,943 states (its widest layer would hold 75,037 and grow the peak by
    # about 12 MiB), so brute_force hands the count to the search.  That
    # count fills the cache's cap of 65,536 keys of 40 bits after 232,230 of
    # its 1,368,470 nodes, and past the cap only looks keys up.  Uncapped,
    # the cache would store 165,343 keys and the peak would grow by about
    # 10 MiB; capped, the two grow it by about 6 MiB.  Under tracemalloc
    # the count runs about 40 times slower, so its peak is read as the
    # growth of a fresh interpreter's peak RSS.
    assert _frontier_cap(19) == 41_943
    count, gave_up, grown = peak_rss_probe(
        "from stablepairs import Concept, GenParams, brute_force, random_game\n"
        "from stablepairs.solvers import _frontier_cap, _frontier_count\n"
        "game = random_game(GenParams(kind='roommate', n=19, tie_probability=0.3,"
        " acceptability_probability=0.4, seed=2))\n"
        "before = peak()\n"
        "_, count = brute_force(game, Concept.CNS, cap=game.n)\n"
        "grown = peak() - before\n"
        "print(count, _frontier_count(game, Concept.CNS, _frontier_cap(game.n)) is None, grown)\n"
    )
    assert (count, gave_up) == ("984623", "True")
    assert int(grown) < 8 * 2**20
    # On the sparse game a key has 6,002 bits, and the cap is 1,863 keys.
    game = sparse_3000()
    assert _count_cache_cap(game.n) == 1_863
    tracemalloc.start()
    try:
        _, _, exhausted = _run_search(game, Concept.CNS, node_budget=5_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not exhausted
    assert peak < 10 * 2**20


def test_frontier_layer_widths_are_pinned():
    # The widest layer under the greedy order is the smallest cap under
    # which the count finishes.  The games are the benchmark's ns-3K2-k5,
    # is-K13-k3 and the roommate game it counts under CIS.
    counted = random_game(GenParams(
        kind="roommate", n=13, tie_probability=0.3, acceptability_probability=0.6, seed=21
    ))
    cases = [
        (mmm_to_marriage_ns(SMALL_GRAPHS["3K2"], 5).game, Concept.NS, 0, 251),
        (mmm_to_roommate_is(SMALL_GRAPHS["K13"], 3).game, Concept.IS, 0, 79),
        (counted, Concept.CIS, 30_641, 2_284),
    ]
    for game, concept, count, widest in cases:
        assert _frontier_count(game, concept, widest) == count
        assert _frontier_count(game, concept, widest - 1) is None


CHAIN_AND_CYCLE = r"""
from stablepairs import Concept, Matching, parse_instance, run_dynamics
m = 1000
lines = [f"{i}: {i + 1 if i % 2 else i - 1}" for i in range(1, 2 * m + 1)]
lines += [f"{2 * m + a}: {2 * m + b} {2 * m + c}" for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2))]
game = parse_instance(f"roommate {2 * m + 3}\n" + "\n".join(lines) + "\n")
before = peak()
trace = run_dynamics(game, Concept.NS, Matching.singletons(game.n), 5000)
print(trace.outcome, len(trace.steps), trace.cycle_start, peak() - before)
"""


def test_cycling_dynamics_memory():
    # 1,000 pairs of mutual favourites, then a 3-cycle: NS dynamics from
    # singletons pair them in 1,000 steps, then cycle after 4 more.  Keeping
    # each step's 2,003-player matching would grow the peak by about 16 MiB.
    outcome, steps, start, grown = peak_rss_probe(CHAIN_AND_CYCLE)
    assert (outcome, steps, start) == ("cycle", "1004", "1001")
    assert int(grown) < 2 * 2**20


def test_complete_roommate_decision_memory():
    # Candidates 1-4 fail and 5 succeeds, with 4,051-5,585 edges each.  An
    # edge list, set and sorted list per candidate held about 1.4 MiB.
    game = random_game(
        GenParams(kind="roommate", n=201, complete=True, tie_probability=0.3, seed=0)
    )
    tracemalloc.start()
    try:
        result = exists_ns_is_roommate_complete(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is not None and result.partner_of(5) == 5
    assert peak < 2**19


def test_ir_count_memory():
    # The count keeps two layers of taken-player sets, at most 16,384 sets
    # in one layer here (about 2.9 MiB at the peak); the search would visit
    # about 6.2e11 leaves, one per matching.  The count cache, keyed on the
    # same taken-sets under IR, peaks at about 6 MiB on this game.
    game = random_game(GenParams(kind="roommate", n=22, complete=True, seed=1))
    tracemalloc.start()
    try:
        _, count = brute_force(game, Concept.IR, cap=22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 618_884_638_912
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


def test_complete_print_memory():
    # The printer joins its lines once, an empty last line giving the final
    # newline.  Adding that newline after the join copies the whole text
    # again, which took the peak to 3.1 times the text's length.
    game = random_game(COMPLETE_MARRIAGE)
    tracemalloc.start()
    try:
        text = serialize_instance(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parse_instance(text) == game
    assert peak < 2.5 * len(text)


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

"""Constructive solvers, the brute-force oracle, and deviation dynamics."""

from __future__ import annotations

import random
import re
from math import comb, factorial

import pytest

from stablepairs import (
    Concept,
    InternalCheckError,
    Matching,
    PreconditionError,
    brute_force,
    compute_cis_ir,
    compute_cns,
    compute_is_marriage,
    compute_ns_marriage_complete,
    exists_ns_is_roommate_complete,
    find_deviation,
    find_pair_block,
    gale_shapley,
    is_individually_rational,
    is_stable,
    mmm_to_marriage_ns,
    mmm_to_roommate_is,
    parse_instance,
    random_game,
    run_dynamics,
    serialize_instance,
)
from stablepairs import solvers
from stablepairs.model import GenParams
from stablepairs.solvers import _earlier_twins, _run_search, _table_stable, _target_table
from stablepairs.stability import _player_deviation
from support import (
    CYCLIC3,
    SMALL_GRAPHS,
    definitional_move,
    enumerate_matchings,
    full_scan_dynamics,
    involution_count,
    naive_stable_count,
    pairs_of,
    random_listed_game,
    random_marriage,
    random_matching,
    random_roommate,
    search_status,
    singles_of,
)

ALL_UNACCEPTABLE = "roommate 3\n1:\n2:\n3:\n"

# Players 3, 4 and 5 are clones: equal lists, and everyone ranks them alike.
CLONES_ROOMMATE = (
    "roommate 6\n1: ( 3 4 5 ) 2\n2: 1 ( 3 4 5 ) self 6\n"
    "3: 1 2 6\n4: 1 2 6\n5: 1 2 6\n6: ( 3 4 5 )\n"
)
# Men 1, 2 and women 4, 5 are clone pairs; man 3 and woman 6 are not.
CLONES_MARRIAGE = (
    "marriage 3 3\n1: ( 4 5 ) 6\n2: ( 4 5 ) 6\n3: 6 ( 4 5 )\n"
    "4: ( 1 2 ) 3\n5: ( 1 2 ) 3\n6: 3 ( 1 2 )\n"
)
# Edge cases of search rule (b), which drops a pair that one member would
# leave for being alone unless the other vetoes (under CNS and CIS only).
RULE_B_EDGES = (
    "roommate 2\n1: 2\n2:\n",  # 1 vetoes 2's leaving: {1,2} is CNS-stable
    "roommate 3\n1: 2 3\n2:\n3: 1\n",  # a vetoed pair next to an IR one
    "roommate 3\n1: 3\n2: 3\n3: 1 2\n",  # 1 and 2 are mutually unacceptable
    "roommate 3\n1: ( 2 self )\n2: 1 3\n3: ( 2 self )\n",  # ties with being alone
    "roommate 2\n1: ( 2 self )\n2:\n",  # 2 leaves, and 1, tied, does not veto
    "marriage 0 3\n1:\n2:\n3:\n",  # an empty side: every pair is same-sex
    "marriage 3 0\n1:\n2:\n3:\n",
    "marriage 2 2\n1: 3 self 4\n2: 4\n3: 2 1\n4: 1\n",
)


# ---------------------------------------------------------------- cis + ir

def test_cis_ir_mutually_unacceptable_players_stay_single():
    report = compute_cis_ir(parse_instance(ALL_UNACCEPTABLE))
    assert report.matching == Matching.singletons(3)
    assert report.deviation_count == 0


def test_cis_ir_pairs_two_players_who_like_each_other():
    report = compute_cis_ir(parse_instance("roommate 2\n1: 2\n2: 1\n"))
    assert pairs_of(report.matching) == [(1, 2)]
    assert report.deviation_count == 1


def test_cis_ir_cyclic3_under_deterministic_scheduler():
    game = parse_instance(CYCLIC3)
    report = compute_cis_ir(game)
    assert report.matching == Matching([2, 1, 3])
    assert find_deviation(game, report.matching, Concept.CIS) is None
    assert is_individually_rational(game, report.matching)


def test_cis_ir_random_corpus():
    for seed in range(200):
        game = random_roommate(seed) if seed % 2 else random_marriage(seed, max_side=4)
        report = compute_cis_ir(game)
        n = game.n
        assert report.deviation_count <= n * (n - 1)
        assert find_deviation(game, report.matching, Concept.CIS) is None
        assert is_individually_rational(game, report.matching)


# ---------------------------------------------------------------------- cns

def test_cns_examples():
    assert compute_cns(parse_instance(ALL_UNACCEPTABLE)).matching == Matching.singletons(3)

    # 1 likes 2, 2 finds 1 unacceptable: CNS but not IR
    game = parse_instance("roommate 2\n1: 2\n2:\n")
    report = compute_cns(game)
    assert pairs_of(report.matching) == [(1, 2)]
    assert not is_individually_rational(game, report.matching)

    cyclic = parse_instance(CYCLIC3)
    report = compute_cns(cyclic)
    assert len(pairs_of(report.matching)) == 1 and len(singles_of(report.matching)) == 1
    assert find_deviation(cyclic, report.matching, Concept.CNS) is None


def test_cns_random_corpus():
    for seed in range(200):
        game = random_roommate(seed)
        report = compute_cns(game)
        assert report.deviation_count <= 2 * game.n * game.n
        assert find_deviation(game, report.matching, Concept.CNS) is None


# ------------------------------------------------------------- gale-shapley

def test_gale_shapley_one_pair():
    game = parse_instance("marriage 1 1\n1: 2\n2: 1\n")
    assert pairs_of(gale_shapley(game)) == [(1, 2)]


def test_gale_shapley_women_proposing_hand_run():
    # m1: w1 > w2, m2: w1 > w2, w1: m2 > m1, w2: m1 > m2
    game = parse_instance("marriage 2 2\n1: 3 4\n2: 3 4\n3: 2 1\n4: 1 2\n")
    m = gale_shapley(game, proposers="women")
    assert pairs_of(m) == [(1, 4), (2, 3)]
    assert find_pair_block(game, m, strict=False) is None


def test_gale_shapley_strict_complete_has_no_core_block():
    for seed in range(100):
        game = random_marriage(seed, tie_probability=0.0, complete=True)
        m = gale_shapley(game, proposers="women" if seed % 2 else "men")
        assert find_pair_block(game, m, strict=False) is None


def test_gale_shapley_pairs_players_tied_with_being_alone():
    game = parse_instance("marriage 1 1\n1: ( 2 self )\n2: ( 1 self )\n")
    for proposers in ("men", "women"):
        assert pairs_of(gale_shapley(game, proposers)) == [(1, 2)], proposers


def raise_text(text: str) -> str:
    """Move each ``self`` out of its tie group to just after the group."""
    return re.sub(
        r"\(([^()]*)\bself\b([^()]*)\)", lambda g: f"( {g[1]} {g[2]} ) self", text
    )


def test_gale_shapley_matches_the_textually_raised_game():
    # With being alone moved just below its tie group, the same players stay
    # acceptable and no list has a tie with being alone, so deferred
    # acceptance must pair exactly as on the game as given.
    games = [random_marriage(seed, max_side=6, tie_probability=0.5) for seed in range(1500)]
    rng = random.Random(2024)
    games += [g for g in (random_listed_game(rng) for _ in range(4000)) if g.is_marriage]
    tied = 0
    for game in games:
        text = serialize_instance(game)
        raised_text = raise_text(text)
        tied += raised_text != text
        raised = parse_instance(raised_text)
        assert not any(pl.self_tied for pl in raised.profile)
        for proposers in ("men", "women"):
            assert gale_shapley(game, proposers) == gale_shapley(raised, proposers), text
    assert tied >= 1000


def test_gale_shapley_rejects_roommate_games():
    with pytest.raises(PreconditionError):
        gale_shapley(parse_instance(CYCLIC3))


# -------------------------------------------------------------- is-marriage

def test_compute_is_marriage_empty_game():
    game = parse_instance("marriage 0 0\n")
    assert compute_is_marriage(game) == Matching(())


def test_compute_is_marriage_small_ties_output_in_brute_set():
    game = parse_instance(
        "marriage 2 2\n1: ( 3 4 )\n2: 3 ( 4 self )\n3: ( 1 2 )\n4: 2 1\n"
    )
    result = compute_is_marriage(game)
    stable_set = {
        m.as_tuple() for m in enumerate_matchings(4) if is_stable(game, m, Concept.IS)
    }
    assert result.as_tuple() in stable_set


def test_compute_is_marriage_random_corpus():
    for seed in range(300):
        game = random_marriage(seed, max_side=6)
        result = compute_is_marriage(game)
        assert find_deviation(game, result, Concept.IS) is None
        assert is_individually_rational(game, result)


def test_compute_ns_marriage_complete():
    game = parse_instance("marriage 1 1\n1: 2\n2: 1\n")
    assert pairs_of(compute_ns_marriage_complete(game)) == [(1, 2)]
    for seed in range(100):
        complete = random_marriage(seed, max_side=4, complete=True)
        result = compute_ns_marriage_complete(complete)
        assert find_deviation(complete, result, Concept.NS) is None
    with pytest.raises(PreconditionError):
        compute_ns_marriage_complete(parse_instance("marriage 1 1\n1: 2\n2:\n"))


# ------------------------------------------------- roommate complete checks

def test_exists_ns_small_cases():
    pair = parse_instance("roommate 2\n1: 2\n2: 1\n")
    assert pairs_of(exists_ns_is_roommate_complete(pair)) == [(1, 2)]

    lone = parse_instance("roommate 1\n1:\n")
    assert exists_ns_is_roommate_complete(lone) == Matching.singletons(1)

    cyclic = parse_instance(CYCLIC3)  # complete, strict: every helper graph is edgeless
    assert exists_ns_is_roommate_complete(cyclic) is None
    assert brute_force(cyclic, Concept.NS) == (None, 0)


def test_exists_ns_even_n_returns_perfect_matching():
    for seed in range(50):
        game = random_game(GenParams(kind="roommate", n=random.Random(seed).choice([2, 4, 6]),
                                     tie_probability=0.3, complete=True, seed=seed))
        result = exists_ns_is_roommate_complete(game)
        assert result is not None and not singles_of(result)
        assert find_deviation(game, result, Concept.NS) is None


def test_exists_ns_agrees_with_brute_force_on_odd_complete_games():
    for seed in range(150):
        n = random.Random(seed).choice([3, 5, 7])
        game = random_game(GenParams(kind="roommate", n=n, tie_probability=0.4,
                                     complete=True, seed=seed))
        poly = exists_ns_is_roommate_complete(game)
        found, _ = brute_force(game, Concept.NS, stop_after=1)
        assert (poly is not None) == (found is not None)
        if poly is not None:
            assert find_deviation(game, poly, Concept.NS) is None


def test_exists_ns_rejects_incomplete_or_marriage():
    with pytest.raises(PreconditionError):
        exists_ns_is_roommate_complete(parse_instance("roommate 2\n1: 2\n2:\n"))
    with pytest.raises(PreconditionError):
        exists_ns_is_roommate_complete(parse_instance("marriage 1 1\n1: 2\n2: 1\n"))


# -------------------------------------------------------------- brute force

def test_brute_force_examples():
    cyclic = parse_instance(CYCLIC3)
    assert brute_force(cyclic, Concept.IS) == (None, 0)

    lone = parse_instance("roommate 1\n1:\n")
    for concept in Concept:
        found, count = brute_force(lone, concept)
        assert found == Matching.singletons(1) and count == 1

    for seed in range(30):
        game = random_marriage(seed, max_side=4)
        _found, count = brute_force(game, Concept.IS)
        assert count >= 1


def test_brute_force_matches_unrestricted_enumeration():
    # the optimized search must agree with filtering the full enumeration
    games = [
        random_roommate(seed, max_n=6) if seed % 2 else random_marriage(seed, max_side=3)
        for seed in range(120)
    ]
    games += [parse_instance(text) for text in RULE_B_EDGES]
    for k, game in enumerate(games):
        for concept in Concept:
            expect_first, expect_count = naive_stable_count(game, concept)
            got_first, got_count = brute_force(game, concept)
            assert got_count == expect_count, (k, concept)
            assert got_first == expect_first, (k, concept)


def test_interchangeable_players_are_found():
    assert _earlier_twins(parse_instance(CLONES_ROOMMATE)) == [0, 0, 0, 0, 3, 4, 0]
    assert _earlier_twins(parse_instance(CLONES_MARRIAGE)) == [0, 0, 1, 0, 0, 4, 0]
    assert _earlier_twins(parse_instance("roommate 2\n1:\n2:\n")) == [0, 0, 1]
    # not across sides, nor with self placed differently
    assert not any(_earlier_twins(parse_instance("marriage 1 1\n1:\n2:\n")))
    game = parse_instance("roommate 4\n1: ( 2 3 )\n2: ( 1 self ) 4\n3: 1 ( 4 self )\n4: ( 2 3 )\n")
    assert not any(_earlier_twins(game))
    # all four share one hash key, but no swap maps the cycle to itself
    assert not any(_earlier_twins(parse_instance("roommate 4\n1: 2\n2: 3\n3: 4\n4: 1\n")))
    # swapping 1 and 2 would need 3 to rank them alike
    assert not any(_earlier_twins(parse_instance("roommate 3\n1: 3\n2: 3\n3: 1 2\n")))
    # 2 and 3 swap only together with their ranks of each other
    game = parse_instance("roommate 3\n1: ( 2 3 )\n2: 3 1\n3: 2 1\n")
    assert _earlier_twins(game) == [0, 0, 0, 2]
    game = parse_instance("roommate 3\n1: ( 2 3 )\n2: 3 1\n3: 1 2\n")
    assert not any(_earlier_twins(game))
    # the loner and the fillers of a reduction game
    artifact = mmm_to_marriage_ns(SMALL_GRAPHS["K2"], 0)
    twins = _earlier_twins(artifact.game)
    fillers = sorted(i for i, role in artifact.roles.items() if role.kind == "X")
    assert [twins[i] for i in fillers] == [0] + fillers[:-1]


def _symmetric_games():
    """Seeded small games, most of them with interchangeable players."""
    games = [parse_instance(CLONES_ROOMMATE), parse_instance(CLONES_MARRIAGE)]
    dense = {"tie_probability": 1.0, "acceptability_probability": 0.9}
    for seed in range(24):
        ties = 1.0 if seed % 2 else 0.7
        games.append(random_roommate(seed, max_n=7, **dense))
        games.append(random_marriage(seed, max_side=4, **dense))
        games.append(random_roommate(seed, max_n=7, complete=True, tie_probability=ties))
        games.append(random_marriage(seed, max_side=4, complete=True, tie_probability=ties))
        side = seed % 7
        games.append(random_game(GenParams(
            kind="marriage",
            n_men=side if seed % 2 else 0,
            n_women=0 if seed % 2 else side,
            tie_probability=ties,
            seed=seed,
        )))
    for construction in (mmm_to_marriage_ns, mmm_to_roommate_is):
        for graph in SMALL_GRAPHS.values():
            for k in range(construction(graph, 0).n + 1):
                game = construction(graph, k).game
                # The naive oracle costs about 1 s per concept at 12 players.
                if game.n <= 10:
                    games.append(game)
    return games


def test_existence_search_agrees_with_naive_oracle_under_symmetry():
    games = _symmetric_games()
    assert sum(1 for game in games if any(_earlier_twins(game))) >= 2 * len(games) // 3
    for index, game in enumerate(games):
        for concept in Concept:
            expect_first, expect_count = naive_stable_count(game, concept)
            assert brute_force(game, concept, stop_after=1) == (
                expect_first, min(expect_count, 1)
            ), (index, concept)
            status, found = search_status(game, concept)
            assert status == ("none" if expect_first is None else "found"), (index, concept)
            assert found == expect_first, (index, concept)
            assert brute_force(game, concept) == (expect_first, expect_count), (index, concept)


def test_ir_count_agrees_with_the_search():
    # The count skips the search's leaves; its first matching and its count
    # must be the search's.  Listed games tie players with being alone and
    # list players below it.
    rng = random.Random(5)
    games = []
    for seed in range(60):
        games.append(random_roommate(seed))
        games.append(random_marriage(seed, max_side=5))
        games.append(random_roommate(seed, max_n=9, complete=True))
        games.append(random_listed_game(rng))
    for index, game in enumerate(games):
        found, count, _ = _run_search(game, Concept.IR)
        assert brute_force(game, Concept.IR) == (found, count), index


def test_ir_count_of_complete_games():
    roommate = random_game(GenParams(kind="roommate", n=20, complete=True, seed=1))
    found, count = brute_force(roommate, Concept.IR, cap=20)
    # About 2.4e10 leaves, one per matching, were the search to count them.
    assert count == involution_count(20) == 23_758_664_096
    assert found == Matching(i + 1 if i % 2 else i - 1 for i in range(1, 21))
    marriage = random_game(GenParams(
        kind="marriage", n_men=10, n_women=10, tie_probability=0.3, complete=True, seed=1
    ))
    _, count = brute_force(marriage, Concept.IR, cap=20)
    assert count == sum(comb(10, k) ** 2 * factorial(k) for k in range(11))


def test_brute_force_stop_after_and_cap():
    game = random_marriage(3, max_side=4, complete=True)
    _found, count = brute_force(game, Concept.IR, stop_after=1)
    assert count == 1
    with pytest.raises(PreconditionError):
        brute_force(random_roommate(0, max_n=8), Concept.NS, cap=4)


def test_search_stable_budget_statuses():
    cyclic = parse_instance(CYCLIC3)
    assert search_status(cyclic, Concept.IS) == ("none", None)
    status, found = search_status(cyclic, Concept.CNS)
    assert status == "found" and find_deviation(cyclic, found, Concept.CNS) is None
    status, _ = search_status(cyclic, Concept.IS, node_budget=1)
    assert status == "budget"


def _nodes_to_decide(game, concept, stop_after):
    """The smallest node budget under which the search is decided: it either
    exhausts the space or sees ``stop_after`` stable matchings."""

    def decided(budget):
        _, count, exhausted = _run_search(game, concept, stop_after, budget)
        return exhausted or (stop_after is not None and count >= stop_after)

    lo, hi = 0, 1  # a budget of 0 never decides, since the root is a node
    while not decided(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if decided(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_search_node_counts_are_pinned():
    # Rules (b)-(e) only prune, and the count cache only skips subtrees it
    # has counted, so weakening either changes no result; it shows only as
    # more nodes.  Each total covers seeds 0-39.
    games = [
        random_roommate(seed, max_n=7) if seed % 2 else random_marriage(seed, max_side=4)
        for seed in range(40)
    ]
    totals = {
        (concept.name, stop_after): sum(
            _nodes_to_decide(game, concept, stop_after) for game in games
        )
        for concept in Concept
        for stop_after in (None, 1)
    }
    assert totals == {
        ("IR", None): 460, ("IR", 1): 156,
        ("NS", None): 200, ("NS", 1): 171,
        ("IS", None): 259, ("IS", 1): 162,
        ("CNS", None): 525, ("CNS", 1): 150,
        ("CIS", None): 594, ("CIS", 1): 148,
        ("CORE", None): 359, ("CORE", 1): 198,
        ("STRICT_CORE", None): 324, ("STRICT_CORE", 1): 219,
    }


def test_forward_checking_agrees_with_the_naive_oracle():
    # Rule (e) drops a branch once a decided player's move targets a decided
    # single or going alone, so it must keep every stable leaf.  Lists with
    # players tied with being alone or below it make the going-alone bit and
    # the CNS/CIS veto matter.
    rng = random.Random(15)
    games = [random_listed_game(rng) for _ in range(400)]
    games += [parse_instance(text) for text in RULE_B_EDGES]
    for index, game in enumerate(games):
        for concept in (Concept.NS, Concept.IS, Concept.CNS, Concept.CIS):
            first, total = naive_stable_count(game, concept)
            for stop_after in (None, 1, 2):
                count = total if stop_after is None else min(total, stop_after)
                exhausted = stop_after is None or total < stop_after
                assert _run_search(game, concept, stop_after) == (
                    first, count, exhausted
                ), (index, concept, stop_after)


def test_count_cache_agrees_with_the_naive_oracle():
    # A cache hit adds a subtree's stored count as one node, so a search
    # decided within fewer nodes than its count, that is, a count above
    # _nodes_to_decide, shows that the cache fired.  Complete games of odd
    # size, where one player stays single, make it fire most.  A budgeted
    # run visits a prefix of the unbudgeted one, so once decided it must
    # give the same result.
    rng = random.Random(17)
    games = [random_listed_game(rng) for _ in range(288)]
    games += [
        random_roommate(seed, max_n=10) if seed % 2 else random_marriage(seed, max_side=5)
        for seed in range(60)
    ]
    games += [
        random_game(GenParams(kind="roommate", n=9, complete=True, seed=seed))
        for seed in range(52)
    ]
    fired = 0
    for index, game in enumerate(games):
        matchings = list(enumerate_matchings(game.n))
        hit = False
        for concept in (Concept.NS, Concept.IS, Concept.CNS, Concept.CIS):
            first, total = naive_stable_count(game, concept, matchings)
            assert _run_search(game, concept) == (first, total, True), (index, concept)
            for budget in (1, 7, 50, total - 1):
                found, count, exhausted = _run_search(game, concept, None, budget)
                if exhausted:
                    assert (found, count) == (first, total), (index, concept, budget)
            hit |= exhausted  # within total - 1 nodes
        fired += hit
    assert fired >= 50


def test_an_open_move_at_a_kept_leaf_is_an_internal_error(monkeypatch):
    # The leaf check reads the move table itself, so masks that miss a move
    # must not turn an unstable leaf into a stable matching.
    table = solvers._target_table

    def blind(game, concept, cand):
        targets, alone, branches = table(game, concept, cand)
        return targets, [0] * len(alone), [[(j, 0) for j, _ in row] for row in branches]

    monkeypatch.setattr(solvers, "_target_table", blind)
    with pytest.raises(InternalCheckError):
        _run_search(parse_instance(CYCLIC3), Concept.IS)


def test_move_targets_match_the_definitions():
    # The table lists each player's moves as if everyone else were single;
    # in any matching, the first listed move that is open must be the one
    # the definitions and _player_deviation give.  Random matchings, unlike
    # search leaves, pair players that one member would leave for being
    # alone unvetoed (rule (b) keeps such pairs out of the search), so only
    # here does the going-alone entry, 0, decide a verdict.  The corpus must
    # hold plenty of matchings where nothing else does.
    rng = random.Random(7)
    alone_only = 0
    for _ in range(400):
        game = random_listed_game(rng)
        profile = game.profile
        # Rule (b) candidates that keep every pair, so any matching is covered.
        every_pair = [[]] + [list(range(i + 1, game.n + 1)) for i in game.players()]
        for concept in (Concept.NS, Concept.IS, Concept.CNS, Concept.CIS):
            need_target = concept in (Concept.IS, Concept.CIS)
            need_left = concept in (Concept.CNS, Concept.CIS)
            targets, _, _ = _target_table(game, concept, every_pair)
            for _ in range(4):
                matching = random_matching(game.n, rng)
                partner_of = matching.as_tuple()
                pi = [0, *partner_of]
                moves = []
                for pl in profile:
                    i = pl.owner
                    move = definitional_move(game, partner_of, i, concept)
                    listed = next((t or i for t in targets[i][pi[i]] if pi[t] == t), None)
                    assert listed == move, (game, concept, partner_of, i)
                    assert _player_deviation(
                        profile, partner_of, pl, need_target, need_left
                    ) == move
                    moves.append(move)
                stable = is_stable(game, matching, concept)
                assert _table_stable(targets, pi) == stable
                alone_only += not stable and all(m in (None, i) for i, m in enumerate(moves, 1))
    assert alone_only >= 1000


# ----------------------------------------------------------------- dynamics

def test_dynamics_stable_start():
    game = parse_instance("roommate 2\n1: 2\n2: 1\n")
    trace = run_dynamics(game, Concept.NS, Matching([2, 1]), 50)
    assert trace.outcome == "stable" and not trace.steps


def test_dynamics_cyclic3_is_cycles_quickly():
    game = parse_instance(CYCLIC3)
    trace = run_dynamics(game, Concept.IS, Matching.singletons(3), 100)
    assert trace.outcome == "cycle"
    assert len(trace.steps) <= 12
    assert trace.cycle_start is not None and trace.cycle_start < len(trace.steps)


def test_dynamics_step_limit():
    game = parse_instance(CYCLIC3)
    trace = run_dynamics(game, Concept.IS, Matching.singletons(3), 2)
    assert trace.outcome == "step-limit" and len(trace.steps) == 2


def test_dynamics_traces_replay_exactly():
    for seed in range(100):
        game = random_roommate(seed)
        start = random_matching(game.n, random.Random(seed + 1))
        concept = [Concept.NS, Concept.IS, Concept.CNS, Concept.CIS][seed % 4]
        trace = run_dynamics(game, concept, start, 200)
        current = start
        for recorded, witness in trace.steps:
            assert recorded == current
            current = current.with_move(witness.mover, witness.target)
        assert current == trace.final or trace.outcome == "cycle"
        if trace.outcome == "stable":
            assert find_deviation(game, trace.final, concept) is None
        if trace.outcome == "cycle":
            assert current == trace.final


def test_dynamics_cns_from_singletons_terminates():
    for seed in range(150):
        game = random_roommate(seed)
        trace = run_dynamics(game, Concept.CNS, Matching.singletons(game.n), 2 * game.n * game.n + 1)
        assert trace.outcome == "stable"
        assert len(trace.steps) <= 2 * game.n * game.n


def test_incremental_dynamics_match_full_scan():
    # Random starts on seeded games; the reference rescans every player after
    # every move.  Moves in which a paired mover goes alone leave two players
    # single, and the corpus must keep plenty of them.
    concepts = (Concept.NS, Concept.IS, Concept.CNS, Concept.CIS)
    paired_alone = 0
    for seed in range(1000):
        rng = random.Random(seed)
        tie, accept = rng.random(), 0.2 + 0.8 * rng.random()
        if seed % 2:
            params = GenParams(kind="marriage", n_men=rng.randint(0, 7), n_women=rng.randint(0, 7))
        else:
            params = GenParams(kind="roommate", n=rng.randint(0, 14))
        game = random_game(params._replace(
            tie_probability=tie, acceptability_probability=accept, seed=seed
        ))
        start = random_matching(game.n, rng)
        for concept in concepts:
            expected = full_scan_dynamics(game, concept, start, 60)
            assert run_dynamics(game, concept, start, 60) == expected, (seed, concept)
            paired_alone += sum(
                w.target is None and m.partner_of(w.mover) != w.mover
                for m, w in expected.steps
            )
        singletons = Matching.singletons(game.n)
        for solve, concept in ((compute_cns, Concept.CNS), (compute_cis_ir, Concept.CIS)):
            expected = full_scan_dynamics(game, concept, singletons, 2 * game.n * game.n)
            report = solve(game)
            assert expected.outcome == "stable"
            assert report.matching == expected.final, (seed, concept)
            assert report.deviation_count == len(expected.steps)
    assert paired_alone >= 500


def test_cns_rechecks_only_players_a_move_touched(monkeypatch):
    # Each evaluation either clears a flag or makes a move, and a move flags
    # at most the old partner, the target and the listers of the two players
    # it can leave single.  A scheduler that rescans from player 1 after
    # every move exceeds this count.
    game = random_game(GenParams(
        kind="roommate", n=3000, acceptability_probability=0.003, tie_probability=0.3, seed=1
    ))
    calls = 0
    evaluate = solvers._player_deviation

    def counted(*args):
        nonlocal calls
        calls += 1
        return evaluate(*args)

    monkeypatch.setattr(solvers, "_player_deviation", counted)
    report = compute_cns(game)
    in_degree = max(map(len, solvers._listers(game)))
    assert report.deviation_count > 1000
    assert calls <= game.n + report.deviation_count * (3 + 2 * in_degree)


def test_missed_deviation_fails_the_final_check(monkeypatch):
    # An engine that overlooks every deviation must not report a stable end.
    monkeypatch.setattr(solvers, "_player_deviation", lambda *args: None)
    game = parse_instance(CYCLIC3)
    with pytest.raises(InternalCheckError):
        compute_cns(game)
    with pytest.raises(InternalCheckError):
        run_dynamics(game, Concept.NS, Matching.singletons(3), 10)


def test_solver_reports_have_timing():
    report = compute_cns(parse_instance(CYCLIC3))
    assert report.elapsed >= 0.0


def test_internal_check_error_is_loud():
    # sanity: the bug-signal type exists and is distinct from input errors
    assert issubclass(InternalCheckError, RuntimeError)
    assert not issubclass(InternalCheckError, ValueError)

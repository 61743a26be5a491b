"""Constructive solvers, the brute-force oracle, and deviation dynamics."""

from __future__ import annotations

import random
import re
from itertools import islice, repeat
from math import comb, factorial

import pytest

from stablepairs import (
    Concept,
    DeviationWitness,
    InternalCheckError,
    Matching,
    PairBlockWitness,
    PreconditionError,
    SolverReport,
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
from stablepairs import Graph, cli, max_matching, solvers
from stablepairs.model import GenParams
from stablepairs.solvers import (
    _earlier_twins,
    _frontier_count,
    _run_search,
    _search_tables,
)
from stablepairs.stability import _move_targets
from support import (
    CYCLIC3,
    SMALL_GRAPHS,
    definitional_accepts,
    definitional_checker,
    definitional_move,
    definitional_rank,
    enumerate_matchings,
    full_scan_dynamics,
    involution_count,
    naive_stable_count,
    pairs_of,
    random_listed_game,
    random_marriage,
    random_matching,
    random_roommate,
    relabelled,
    replay_dynamics,
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


def test_gale_shapley_is_proposer_optimal_in_the_tie_broken_game():
    # The strict game breaks each tie by lowest id and puts being alone just
    # below the players tied with it: raise_text moves each self just after
    # its tie, and ties print with ids ascending, so dropping the
    # parentheses leaves exactly that order.
    games = [random_marriage(seed, max_side=3, tie_probability=0.5) for seed in range(300)]
    rng = random.Random(26)
    listed = (random_listed_game(rng) for _ in range(600))
    games += [g for g in listed if g.is_marriage and g.n <= 6]
    assert len(games) >= 500
    tied = 0
    for game in games:
        text = serialize_instance(game)
        strict = parse_instance(re.sub(r"[()]", "", raise_text(text)))
        tied += strict != game
        assert all(len(tier) == 1 for pl in strict.profile for tier in pl.tiers)
        is_core = definitional_checker(strict, Concept.CORE)
        stable = [m for m in enumerate_matchings(strict.n) if is_core(m)]
        for proposers, side in (("men", strict.men), ("women", strict.women)):
            best = gale_shapley(game, proposers)
            assert is_core(best), (text, proposers)
            for p in side:
                pl = strict.profile[p - 1]
                rank = definitional_rank(pl, best.partner_of(p))
                assert all(rank <= definitional_rank(pl, m.partner_of(p)) for m in stable)
    assert tied >= 300


def test_gale_shapley_rejects_roommate_games():
    with pytest.raises(PreconditionError):
        gale_shapley(parse_instance(CYCLIC3))


def test_gale_shapley_rejects_unknown_proposers():
    game = parse_instance("marriage 1 1\n1: 2\n2: 1\n")
    with pytest.raises(ValueError, match="^proposers must be 'men' or 'women'$"):
        gale_shapley(game, proposers="both")


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
    with pytest.raises(PreconditionError, match="^compute_ns_marriage_complete requires"):
        compute_ns_marriage_complete(parse_instance("marriage 1 1\n1: 2\n2:\n"))
    with pytest.raises(PreconditionError, match="^compute_ns_marriage_complete needs a marriage game$"):
        compute_ns_marriage_complete(parse_instance(CYCLIC3))


# ------------------------------------------------- roommate complete checks

def test_exists_ns_small_cases():
    pair = parse_instance("roommate 2\n1: 2\n2: 1\n")
    assert pairs_of(exists_ns_is_roommate_complete(pair)) == [(1, 2)]

    assert exists_ns_is_roommate_complete(parse_instance("roommate 0\n")) == Matching(())

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


def test_exists_ns_takes_max_matching_on_each_candidate_graph():
    # The decision builds each candidate's adjacency lists itself; its answer
    # must be the first candidate's perfect matching that max_matching finds
    # on the same graph given as an edge set, single for single and pair for
    # pair, since the blossom search's result depends on adjacency order.
    for seed in range(30):
        n = random.Random(seed).choice([9, 15, 21, 31])
        game = random_game(GenParams(kind="roommate", n=n, tie_probability=0.4,
                                     complete=True, seed=seed))
        rank = [None] + [game.prefs(j).rank_of for j in game.players()]
        expected = None
        for single in game.players():
            edges = [
                (j, k)
                for j in game.players()
                for k in range(j + 1, n + 1)
                if single not in (j, k)
                and rank[j](k) <= rank[j](single) and rank[k](j) <= rank[k](single)
            ]
            pairs = max_matching(Graph.build(n, edges))
            if 2 * len(pairs) == n - 1:
                partner = list(range(n + 1))
                for u, v in pairs:
                    partner[u], partner[v] = v, u
                expected = Matching(partner[1:])
                break
        assert exists_ns_is_roommate_complete(game) == expected, seed


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


def test_the_ir_search_builds_no_twin_table(monkeypatch):
    # Under IR nothing is pruned and every leaf is stable, so the first
    # descent ends the search and rule (d) could never apply.
    def refuse(game):
        raise RuntimeError("twin table built")

    monkeypatch.setattr(solvers, "_earlier_twins", refuse)
    game = parse_instance(CLONES_ROOMMATE)
    first, total = naive_stable_count(game, Concept.IR)
    assert brute_force(game, Concept.IR) == (first, total)
    assert brute_force(game, Concept.IR, stop_after=1) == (first, 1)
    with pytest.raises(RuntimeError, match="twin table built"):
        brute_force(game, Concept.NS, stop_after=1)


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


def test_brute_force_rejects_a_stop_after_below_one():
    game = parse_instance("roommate 2\n1: 2\n2: 1\n")
    for stop_after in (0, -3):
        message = f"^stop_after must be at least 1, got {stop_after}$"
        with pytest.raises(PreconditionError, match=message):
            brute_force(game, Concept.NS, stop_after=stop_after)


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


def test_frontier_count_agrees_with_the_naive_oracle(monkeypatch):
    # brute_force takes its count, and its NO, from the frontier count.  A
    # cap of 3 states per layer sends the wider games to the search instead,
    # which must give the same answers.
    rng = random.Random(29)
    games = [random_listed_game(rng) for _ in range(60)]
    games += [random_roommate(seed, max_n=9) for seed in range(12)]
    games += [random_marriage(seed, max_side=4) for seed in range(12)]
    capped = 0
    for index, game in enumerate(games):
        matchings = list(enumerate_matchings(game.n))
        for concept in (Concept.NS, Concept.IS, Concept.CNS, Concept.CIS):
            first, total = naive_stable_count(game, concept, matchings)
            assert _frontier_count(game, concept, solvers._frontier_cap(game.n)) == total
            assert brute_force(game, concept) == (first, total), (index, concept)
            assert brute_force(game, concept, stop_after=1) == (first, min(total, 1))
            capped += _frontier_count(game, concept, 3) is None
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_frontier_cap", lambda n: 3)
                assert brute_force(game, concept) == (first, total), (index, concept)
                assert brute_force(game, concept, stop_after=2) == (first, min(total, 2))
    assert capped >= 80


def test_frontier_count_does_not_depend_on_the_order():
    # Past the naive oracle's sizes: a relabelled copy changes the greedy
    # order's tie-breaks and so its layers, but not the count.  The search
    # counts the smaller games too.
    rng = random.Random(31)
    compared = 0
    for seed in range(16):
        n = 13 + seed % 8
        if seed % 2:
            params = GenParams(kind="roommate", n=n, tie_probability=rng.random(),
                               acceptability_probability=rng.uniform(0.1, 0.25), seed=seed)
        else:
            params = GenParams(kind="marriage", n_men=n // 2, n_women=n - n // 2,
                               tie_probability=rng.random(),
                               acceptability_probability=rng.uniform(0.15, 0.35), seed=seed)
        game = random_game(params)
        sides = [game.men, game.women] if game.is_marriage else [game.players()]
        order = [old for side in sides for old in rng.sample(side, len(side))]
        new_id = [0] * (game.n + 1)
        for new, old in enumerate(order, 1):
            new_id[old] = new
        other = relabelled(game, new_id)
        for concept in (Concept.NS, Concept.IS, Concept.CNS, Concept.CIS):
            count = _frontier_count(game, concept, 10**6)
            assert _frontier_count(other, concept, 10**6) == count, (seed, concept)
            if n <= 16:
                assert _run_search(game, concept)[1] == count, (seed, concept)
            compared += 1
    assert compared == 64


def test_relabelling_keeps_counts_and_existence():
    # A relabelling maps stable matchings one to one onto stable matchings,
    # but rules (d) and (e) and the count cache all read the id order.  So
    # counts and answers must survive it, and the relabelled game's first
    # matching, mapped back, must be stable by the definitions.  This oracle
    # has no size limit; these games reach past naive_stable_count's.
    rng = random.Random(23)
    games = [random_listed_game(rng) for _ in range(200)]
    for seed in range(20):
        common = dict(tie_probability=rng.random(), seed=seed)
        roommate = GenParams(
            kind="roommate",
            n=rng.randint(10, 14),
            acceptability_probability=rng.uniform(0.2, 0.6),
            **common,
        )
        marriage = GenParams(
            kind="marriage",
            n_men=rng.randint(4, 7),
            n_women=rng.randint(4, 7),
            acceptability_probability=rng.uniform(0.3, 0.8),
            **common,
        )
        games += [random_game(roommate), random_game(marriage)]
    compared = 0
    for game in games:
        # Whether a stable matching exists, and the count where the search
        # takes it in well under a second.
        expected = {
            concept: (
                brute_force(game, concept, cap=game.n, stop_after=1)[0] is None,
                None
                if concept in (Concept.CORE, Concept.STRICT_CORE)
                else brute_force(game, concept, cap=game.n)[1],
            )
            for concept in Concept
        }
        # A permutation within sides, and for a marriage game also a swap of
        # the sides.  order[new - 1] is the old id of player ``new``.
        sides = [game.men, game.women] if game.is_marriage else [game.players()]
        for swap in (False, True) if game.is_marriage else (False,):
            order = []
            for side in sides[::-1] if swap else sides:
                order += rng.sample(side, len(side))
            new_id = [0] * (game.n + 1)
            for new, old in enumerate(order, 1):
                new_id[old] = new
            other = relabelled(game, new_id, game.num_women if swap else game.num_men)
            for concept, (none, count) in expected.items():
                found, _ = brute_force(other, concept, cap=game.n, stop_after=1)
                assert (found is None) == none, (game, new_id, concept)
                if found is not None:
                    back = Matching(order[found.partner_of(new_id[i]) - 1] for i in game.players())
                    assert definitional_checker(game, concept)(back), (game, new_id, concept)
                if count is not None:
                    counted = brute_force(other, concept, cap=game.n)[1]
                    assert counted == count, (game, new_id, concept)
                compared += 1 + (count is not None)
    assert compared == 4_392


def test_an_open_move_at_a_kept_leaf_is_an_internal_error(monkeypatch):
    # The leaf check runs the verifier, not the masks, so masks that miss a
    # move must not turn an unstable leaf into a stable matching.
    tables = solvers._search_tables

    def blind(game, concept):
        branches, alone = tables(game, concept)
        return [[(j, 0) for j, _ in row] for row in branches], [0] * len(alone)

    monkeypatch.setattr(solvers, "_search_tables", blind)
    with pytest.raises(InternalCheckError):
        _run_search(parse_instance(CYCLIC3), Concept.IS)


def test_a_count_the_search_does_not_confirm_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # CYCLIC3 has no IS-stable matching.  A frontier count that claims one
    # must not pass: the search finds none, so brute_force raises, and the
    # CLI exits 5 and prints no answer.
    monkeypatch.setattr(solvers, "_frontier_count", lambda game, concept, cap: 1)
    message = "the frontier count is 1 but the search finds no IS-stable matching"
    for stop_after in (None, 1):
        with pytest.raises(InternalCheckError, match=f"^{message}$"):
            brute_force(parse_instance(CYCLIC3), Concept.IS, stop_after=stop_after)
    path = tmp_path / "cyclic3.txt"
    path.write_text(CYCLIC3, encoding="utf-8")
    for command in (["exists", "--method", "brute"], ["brute"], ["brute", "--count"]):
        assert cli.main([*command, "--concept", "is", str(path)]) == cli.EXIT_INTERNAL
        assert capsys.readouterr() == ("", f"error: internal: InternalCheckError: {message}\n")


def test_an_unacceptable_pair_at_an_ir_leaf_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # Player 1 does not list 2, so rule (b) drops the pair.  Kept anyway, it
    # must fail the leaf check, in count mode too, not pass as IR-stable.
    tables = solvers._search_tables

    def careless(game, concept):
        branches, alone = tables(game, concept)
        branches[1].insert(0, (2, 0))
        return branches, alone

    monkeypatch.setattr(solvers, "_search_tables", careless)
    text = "roommate 3\n1: 3\n2: 1 3\n3: 1 2\n"
    message = "the search kept a leaf that is not IR-stable"
    for stop_after in (None, 1):
        with pytest.raises(InternalCheckError, match=f"^{message}$"):
            brute_force(parse_instance(text), Concept.IR, stop_after=stop_after)
    path = tmp_path / "game.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["brute", "--concept", "ir", str(path)]) == cli.EXIT_INTERNAL
    assert capsys.readouterr() == ("", f"error: internal: InternalCheckError: {message}\n")


def _bits(moves: tuple[int, ...]) -> int:
    mask = 0
    for t in moves:
        mask |= 1 << t
    return mask


def _every_pair_table(game, need_target, need_left):
    """``table[q][p]``: q's moves, as ``_move_targets`` yields them, when paired
    with ``p`` and everyone else is single, going alone written as 0; ``p``
    ranges over every player, so any matching is covered."""
    profile = game.profile
    table = [{}]
    for pl in profile:
        q = pl.owner
        row = {}
        for p in game.players():
            partner_of = list(range(1, game.n + 1))
            partner_of[q - 1], partner_of[p - 1] = p, q
            moves = _move_targets(profile, partner_of, pl, need_target, need_left)
            row[p] = tuple(t if t != q else 0 for t in moves)
        table.append(row)
    return table


def test_move_targets_match_the_definitions():
    # The test's table lists each player's moves as if everyone else were
    # single; in any matching, the first listed move that is open must be the
    # one the definitions give, and the first that _move_targets yields.  Random
    # matchings, unlike search leaves, pair players that one member would
    # leave for being alone unvetoed (rule (b) keeps such pairs out of the
    # search), so only here does the going-alone entry, 0, decide a verdict.
    # The corpus must hold plenty of matchings where nothing else does.
    rng = random.Random(7)
    alone_only = 0
    for _ in range(400):
        game = random_listed_game(rng)
        profile = game.profile
        players = game.players()
        accepts = [[]] + [
            [definitional_accepts(pl, j) for j in range(game.n + 1)] for pl in profile
        ]
        mutual = [[]] + [
            [j for j in players if j > q and accepts[q][j] and accepts[j][q]] for q in players
        ]
        # Without a veto, rule (b) keeps exactly the mutually acceptable
        # pairs; the concepts without moves get zero masks.
        for concept in (Concept.IR, Concept.CORE, Concept.STRICT_CORE):
            branches, _ = _search_tables(game, concept)
            assert branches == [[(j, 0) for j in row] for row in mutual], (game, concept)
        for concept in (Concept.NS, Concept.IS, Concept.CNS, Concept.CIS):
            need_target = concept in (Concept.IS, Concept.CIS)
            need_left = concept in (Concept.CNS, Concept.CIS)
            table = _every_pair_table(game, need_target, need_left)
            branches, alone = _search_tables(game, concept)
            # Rule (b): of the pairs the walk reaches, in which one member
            # accepts the other, the search keeps those that neither member
            # would leave for being alone.
            for q in players:
                kept = [
                    j
                    for j in players
                    if j > q
                    and (accepts[q][j] or accepts[j][q])
                    and 0 not in table[q][j]
                    and 0 not in table[j][q]
                ]
                assert [j for j, _ in branches[q]] == kept, (game, concept, q)
            # Rule (e)'s masks must agree with the test's table: bit t for
            # each target t, q's own moves when single, both members' for a
            # pair.
            for q in players:
                assert alone[q] == _bits(table[q][q])
                for j, mask in branches[q]:
                    assert mask == _bits(table[q][j]) | _bits(table[j][q])
            for _ in range(4):
                matching = random_matching(game.n, rng)
                partner_of = matching.as_tuple()
                pi = [0, *partner_of]
                moves = []
                for pl in profile:
                    i = pl.owner
                    move = definitional_move(game, partner_of, i, concept)
                    listed = next((t or i for t in table[i][pi[i]] if pi[t] == t), None)
                    assert listed == move, (game, concept, partner_of, i)
                    assert next(
                        _move_targets(profile, partner_of, pl, need_target, need_left), None
                    ) == move
                    moves.append(move)
                stable = is_stable(game, matching, concept)
                assert stable == all(m is None for m in moves)
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
    start = Matching.singletons(3)
    trace = run_dynamics(game, Concept.IS, start, 2)
    assert trace.outcome == "step-limit" and len(trace.steps) == 2
    assert trace.final == replay_dynamics(start, trace)[-1]


def test_dynamics_rejects_bad_arguments():
    game = parse_instance(CYCLIC3)
    start = Matching.singletons(3)
    with pytest.raises(ValueError, match="^Concept.CORE is not a single-player deviation concept$"):
        run_dynamics(game, Concept.CORE, start, 10)
    with pytest.raises(ValueError, match="^initial matching does not fit the game$"):
        run_dynamics(game, Concept.IS, Matching.singletons(4), 10)
    with pytest.raises(ValueError, match="^max_steps must be non-negative$"):
        run_dynamics(game, Concept.IS, start, -1)


def test_dynamics_traces_replay_exactly():
    for seed in range(100):
        game = random_roommate(seed)
        start = random_matching(game.n, random.Random(seed + 1))
        concept = [Concept.NS, Concept.IS, Concept.CNS, Concept.CIS][seed % 4]
        trace = run_dynamics(game, concept, start, 200)
        visited = replay_dynamics(start, trace)
        for recorded, witness in zip(visited, trace.steps):
            assert find_deviation(game, recorded, concept) == witness
        current = visited[-1]
        assert current == trace.final or trace.outcome == "cycle"
        if trace.outcome == "stable":
            assert find_deviation(game, trace.final, concept) is None
        if trace.outcome == "cycle":
            assert current == trace.final
            assert visited.index(current) == trace.cycle_start


def test_dynamics_cns_from_singletons_terminates():
    for seed in range(150):
        game = random_roommate(seed)
        trace = run_dynamics(game, Concept.CNS, Matching.singletons(game.n), 2 * game.n * game.n + 1)
        assert trace.outcome == "stable"
        assert len(trace.steps) <= 2 * game.n * game.n


DYNAMICS_CONCEPTS = (Concept.NS, Concept.IS, Concept.CNS, Concept.CIS)


def dynamics_corpus():
    """1000 seeded games, half roommate and half marriage, each with a random
    start matching."""
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
        yield seed, game, random_matching(game.n, rng)


def test_incremental_dynamics_match_full_scan():
    # Random starts on seeded games; the reference rescans every player after
    # every move.  Moves in which a paired mover goes alone leave two players
    # single, and the corpus must keep plenty of them.  A limit of 0-4 steps
    # ends most runs early, once the engine has handed over the move past it.
    paired_alone = limited = 0
    for seed, game, start in dynamics_corpus():
        for concept in DYNAMICS_CONCEPTS:
            expected = full_scan_dynamics(game, concept, start, 60)
            assert run_dynamics(game, concept, start, 60) == expected, (seed, concept)
            paired_alone += sum(
                w.target is None and m.partner_of(w.mover) != w.mover
                for m, w in zip(replay_dynamics(start, expected), expected.steps)
            )
            expected = full_scan_dynamics(game, concept, start, seed % 5)
            assert run_dynamics(game, concept, start, seed % 5) == expected, (seed, concept)
            limited += expected.outcome == "step-limit"
        singletons = Matching.singletons(game.n)
        for solve, concept in ((compute_cns, Concept.CNS), (compute_cis_ir, Concept.CIS)):
            expected = full_scan_dynamics(game, concept, singletons, 2 * game.n * game.n)
            report = solve(game)
            assert expected.outcome == "stable"
            assert report.matching == expected.final, (seed, concept)
            assert report.deviation_count == len(expected.steps)
    assert paired_alone >= 500 and limited >= 1000


def test_each_move_is_handed_over_before_it_is_applied():
    # A move is yielded while ``partner`` still holds the matching it starts
    # from, where it is the scheduler's move, and is applied on resuming: an
    # exhausted run from singletons leaves the solver's matching.
    handed = 0
    for seed, game, start in dynamics_corpus():
        singletons = Matching.singletons(game.n)
        runs = [(concept, start, 20) for concept in DYNAMICS_CONCEPTS]
        runs += [(Concept.CNS, singletons, None), (Concept.CIS, singletons, None)]
        for concept, initial, limit in runs:
            partner = list(initial.as_tuple())
            for mover, old, target in islice(solvers._moves(game, concept, partner), limit):
                assert partner[mover - 1] == old, (seed, concept)
                assert target == mover or partner[target - 1] == target, (seed, concept)
                witness = DeviationWitness(mover, None if target == mover else target, concept)
                assert find_deviation(game, Matching(partner), concept) == witness, (seed, concept)
                handed += 1
            if limit is None:
                solve = compute_cns if concept is Concept.CNS else compute_cis_ir
                assert Matching(partner) == solve(game).matching, (seed, concept)
    assert handed >= 20_000


def test_dynamics_hash_collisions_are_confirmed(monkeypatch):
    # With one key for every (player, partner), every step's hash equals the
    # start's, so each step replays the run to tell a collision from a cycle.
    monkeypatch.setattr(solvers, "_zobrist", lambda player, partner: 0)
    cycles = 0
    for seed, game, start in dynamics_corpus():
        for concept in DYNAMICS_CONCEPTS:
            expected = full_scan_dynamics(game, concept, start, 60)
            assert run_dynamics(game, concept, start, 60) == expected, (seed, concept)
            cycles += expected.outcome == "cycle"
    assert cycles >= 400


def test_cns_rechecks_only_players_a_move_touched(monkeypatch):
    # Each evaluation either clears a flag or makes a move, and a move flags
    # at most the old partner, the target and the listers of the two players
    # it can leave single.  A scheduler that rescans from player 1 after
    # every move exceeds this count.
    game = random_game(GenParams(
        kind="roommate", n=3000, acceptability_probability=0.003, tie_probability=0.3, seed=1
    ))
    calls = 0
    evaluate = solvers._move_targets

    def counted(*args):
        nonlocal calls
        calls += 1
        return evaluate(*args)

    monkeypatch.setattr(solvers, "_move_targets", counted)
    report = compute_cns(game)
    in_degree = max(map(len, solvers._listers(game)))
    assert report.deviation_count > 1000
    assert calls <= game.n + report.deviation_count * (3 + 2 * in_degree)


def test_missed_deviation_fails_the_final_check(monkeypatch):
    # An engine that overlooks every deviation must not report a stable end.
    monkeypatch.setattr(solvers, "_move_targets", lambda *args: iter(()))
    game = parse_instance(CYCLIC3)
    with pytest.raises(InternalCheckError):
        compute_cns(game)
    with pytest.raises(InternalCheckError):
        run_dynamics(game, Concept.NS, Matching.singletons(3), 10)
    # The search then builds masks with no moves, so its leaf check must run
    # the verifier itself.
    for concept in (Concept.IS, Concept.NS):
        with pytest.raises(InternalCheckError):
            _run_search(game, concept)


# Every post-solve check, made to fire by a producer that returns a bad
# matching: (producer, its fake, solver, game, failed concept, witness).
BROKEN_PRODUCERS = [
    ("gale_shapley", lambda game, proposers: Matching([2, 1]), compute_is_marriage,
     "marriage 1 1\n1: 2\n2:\n", Concept.IR, PairBlockWitness(2, 2)),
    ("gale_shapley", lambda game, proposers: Matching.singletons(2), compute_is_marriage,
     "marriage 1 1\n1: 2\n2: 1\n", Concept.IS, DeviationWitness(1, 2, Concept.IS)),
    ("compute_is_marriage", lambda game: Matching.singletons(2), compute_ns_marriage_complete,
     "marriage 1 1\n1: 2\n2: 1\n", Concept.NS, DeviationWitness(1, 2, Concept.NS)),
    # The first candidate single is player 1; the fake pairs 2 with 3.
    ("_max_matching", lambda n, adj: [0, 0, 3, 2], exists_ns_is_roommate_complete,
     CYCLIC3, Concept.NS, DeviationWitness(3, 1, Concept.NS)),
    # An even game taken for complete gets a perfect matching.
    ("has_no_unacceptability", lambda game: True, exists_ns_is_roommate_complete,
     "roommate 2\n1: 2\n2:\n", Concept.NS, DeviationWitness(2, None, Concept.NS)),
    ("_better_response", lambda game, *args: SolverReport(Matching([2, 1]), 0, 0.0),
     compute_cis_ir, "roommate 2\n1: 2\n2:\n", Concept.IR, PairBlockWitness(2, 2)),
    ("_move_targets", lambda *args: iter(()), compute_cns,
     CYCLIC3, Concept.CNS, DeviationWitness(1, 2, Concept.CNS)),
]


@pytest.mark.parametrize(
    "producer, fake, solve, text, concept, witness",
    BROKEN_PRODUCERS,
    ids=[f"{case[0]}-{case[4].name}" for case in BROKEN_PRODUCERS],
)
def test_every_post_solve_check_fires(monkeypatch, producer, fake, solve, text, concept, witness):
    monkeypatch.setattr(solvers, producer, fake)
    message = f"solver output is not {concept.name}-stable: {witness!r}"
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        solve(parse_instance(text))


def test_a_failed_post_solve_check_exits_5(monkeypatch, tmp_path, capsys):
    producer, fake, _, text, _, witness = BROKEN_PRODUCERS[0]
    monkeypatch.setattr(solvers, producer, fake)
    path = tmp_path / "game.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["solve", "--concept", "is", str(path)]) == cli.EXIT_INTERNAL == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: internal: InternalCheckError: solver output is not IR-stable: {witness!r}\n"
    )


@pytest.mark.parametrize(
    "solve, message",
    [
        (compute_cns, "CNS deviation bound 2n^2: 19 deviations exceed 18"),
        (compute_cis_ir, "CIS deviation bound n(n-1): 7 deviations exceed 6"),
    ],
    ids=["CNS", "CIS"],
)
def test_a_run_past_its_deviation_bound_fails(monkeypatch, solve, message):
    # An engine that never settles must stop at the proved bound.
    monkeypatch.setattr(solvers, "_moves", lambda game, concept, partner: repeat((1, 2, 2)))
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        solve(parse_instance(CYCLIC3))


def test_solver_reports_have_timing():
    report = compute_cns(parse_instance(CYCLIC3))
    assert report.elapsed >= 0.0


def test_internal_check_error_is_loud():
    # sanity: the bug-signal type exists and is distinct from input errors
    assert issubclass(InternalCheckError, RuntimeError)
    assert not issubclass(InternalCheckError, ValueError)

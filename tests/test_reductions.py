"""Structure and soundness spot-checks of the hardness-gadget constructions."""

from __future__ import annotations

import copy
import pickle
import random
import time

import pytest

from stablepairs import (
    Concept,
    Graph,
    PreconditionError,
    ReductionArtifact,
    minimum_maximal_matching,
    mmm_to_marriage_ns,
    mmm_to_roommate_is,
)
from stablepairs.reductions import MAX_LIST_ENTRIES, _game_size
from support import SMALL_GRAPHS, random_graph, reduction_sides, search_status

SINGLE_EDGE = Graph.build(2, [(1, 2)])


def test_marriage_reduction_counts_single_edge():
    artifact = mmm_to_marriage_ns(SINGLE_EDGE, 1)
    assert artifact.n == 3 and artifact.r == 1
    assert artifact.game.n == 2 * 3 + (3 - 1) + 1 == 9
    kinds = [role.kind for role in artifact.roles.values()]
    assert kinds.count("A") == 3 and kinds.count("B") == 3
    assert kinds.count("X") == artifact.n - artifact.k == 2
    assert kinds.count("Y") == 1
    assert len(artifact.roles) == artifact.game.n


def test_marriage_reduction_role_map_is_total_and_sized():
    for k in (0, 2, 3):
        artifact = mmm_to_marriage_ns(SINGLE_EDGE, k)
        assert artifact.game.n == 2 * artifact.n + (artifact.n - k) + 1
        assert set(artifact.roles) == set(range(1, artifact.game.n + 1))


def test_roommate_reduction_counts():
    artifact = mmm_to_roommate_is(SINGLE_EDGE, 2)
    assert artifact.n == 3
    assert artifact.game.n == 2 * 3 + 3 * (3 - 2) == 9
    kinds = [role.kind for role in artifact.roles.values()]
    assert kinds.count("X") == 3 * (artifact.n - artifact.k)
    assert kinds.count("Y") == 0
    layers = sorted(
        role.layer for role in artifact.roles.values() if role.kind == "X"
    )
    assert layers == [0, 1, 2]


def test_reduction_games_satisfy_invariants():
    # Game construction re-validates same-sex acceptability; also check sides.
    artifact = mmm_to_marriage_ns(SMALL_GRAPHS["P3"], 2)
    game = artifact.game
    assert game.is_marriage
    assert len(game.men) == artifact.n + 1
    x_players = [p for p, role in artifact.roles.items() if role.kind == "X"]
    assert all(p in game.women for p in x_players)
    y = next(p for p, role in artifact.roles.items() if role.kind == "Y")
    assert y in game.men
    assert game.prefs(y).tiers == ()  # the loner lists nobody


def test_reduction_rejects_k_out_of_range():
    with pytest.raises(PreconditionError):
        mmm_to_marriage_ns(SINGLE_EDGE, 4)  # n = 3 after padding
    with pytest.raises(PreconditionError):
        mmm_to_roommate_is(SINGLE_EDGE, -1)


def _graphs() -> list[tuple[object, Graph]]:
    """Every small graph, then 30 seeded random ones."""
    rng = random.Random(5)
    graphs: list[tuple[object, Graph]] = list(SMALL_GRAPHS.items())
    graphs += [(t, random_graph(rng.randint(1, 7), rng.random(), rng)) for t in range(30)]
    return graphs


@pytest.mark.parametrize("build", [mmm_to_marriage_ns, mmm_to_roommate_is])
def test_game_size_formula_matches_built_games(build):
    for name, graph in _graphs():
        n = build(graph, 0).n
        for k in range(n + 1):
            artifact = build(graph, k)
            game = artifact.game
            a, b = reduction_sides(artifact)
            assert len(a) == len(b) == n, name
            built = sum(len(pl.order) for pl in game.profile)
            assert _game_size(graph, k, game.kind) == (n, artifact.r, built), (name, k)


@pytest.mark.parametrize("build", [mmm_to_marriage_ns, mmm_to_roommate_is])
def test_reduction_graph_is_the_balanced_padded_subdivision(build):
    for name, graph in _graphs():
        e = len(graph.edges)
        n = build(graph, 0).n
        for k in range(n + 1):
            artifact = build(graph, k)
            padded, r = artifact.graph, artifact.r
            a, b = reduction_sides(artifact)
            assert len(a) == len(b) == n, (name, k)
            assert sorted(a + b) == list(range(1, padded.n + 1)), (name, k)
            assert all((u in a) != (v in a) for u, v in padded.edges), (name, k)
            assert padded.n == graph.n + e + 3 * r, (name, k)
            assert len(padded.edges) == 2 * e + 2 * r, (name, k)


def test_reduction_refuses_games_above_the_size_limit():
    # 5000 isolated vertices pad to sides of 10,000 and 10**9 to 2 * 10**9:
    # refused before the padded graph or any list is built.
    for isolated in (Graph.build(5000, []), Graph.build(10**9, [])):
        for build in (mmm_to_marriage_ns, mmm_to_roommate_is):
            start = time.perf_counter()
            with pytest.raises(PreconditionError, match=f"above the limit of {MAX_LIST_ENTRIES}$"):
                build(isolated, 0)
            assert time.perf_counter() - start < 0.1
    # 400 isolated vertices pad to sides of 800, where only the roommate
    # game (3,846,400 entries) is refused; the marriage game lists 1,282,400.
    with pytest.raises(PreconditionError, match="would list 3846400 entries"):
        mmm_to_roommate_is(Graph.build(400, []), 0)


def test_marriage_reduction_soundness_single_edge_all_k():
    mmm = minimum_maximal_matching(mmm_to_marriage_ns(SINGLE_EDGE, 0).graph)
    for k in range(0, 4):
        artifact = mmm_to_marriage_ns(SINGLE_EDGE, k)
        status, found = search_status(artifact.game, Concept.NS)
        assert status in ("found", "none")
        assert (status == "found") == (mmm <= k), k
        if found is not None:
            from stablepairs import find_deviation

            assert find_deviation(artifact.game, found, Concept.NS) is None


def test_marriage_reduction_k_equals_n_always_solvable():
    for name in ("K2", "P3", "C3"):
        artifact = mmm_to_marriage_ns(SMALL_GRAPHS[name], 0)
        # k = n means no filler players at all
        full = mmm_to_marriage_ns(SMALL_GRAPHS[name], artifact.n)
        assert not [r for r in full.roles.values() if r.kind == "X"]
        status, _ = search_status(full.game, Concept.NS)
        assert status == "found"


def test_roommate_reduction_soundness_single_edge():
    mmm = minimum_maximal_matching(mmm_to_roommate_is(SINGLE_EDGE, 0).graph)
    assert mmm == 2
    for k in (1, 2, 3):
        artifact = mmm_to_roommate_is(SINGLE_EDGE, k)
        status, _ = search_status(artifact.game, Concept.IS)
        assert (status == "found") == (mmm <= k), k


def test_empty_graph_reductions():
    empty = SMALL_GRAPHS["empty"]
    marriage = mmm_to_marriage_ns(empty, 0)
    assert marriage.game.n == 1  # just the loner
    status, _ = search_status(marriage.game, Concept.NS)
    assert status == "found"
    roommate = mmm_to_roommate_is(empty, 0)
    assert roommate.game.n == 0
    status, _ = search_status(roommate.game, Concept.IS)
    assert status == "found"


def test_roles_cannot_be_changed_after_construction():
    artifact = mmm_to_roommate_is(SINGLE_EDGE, 0)
    roles = dict(artifact.roles)
    assert len(roles) == artifact.game.n
    with pytest.raises(AttributeError):
        artifact.roles.clear()
    with pytest.raises(TypeError):
        artifact.roles[1] = roles[2]
    with pytest.raises(TypeError):
        del artifact.roles[1]
    # The artifact keeps a copy of the caller's dict.
    given = dict(roles)
    built = ReductionArtifact(artifact.game, given, artifact.graph, artifact.n, 0, artifact.r)
    given.clear()
    assert built.roles == roles
    for clone in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
        assert clone == built and clone.roles == roles
        with pytest.raises(AttributeError):
            clone.roles.clear()

"""The public records: immutable, and intact through pickle and copy.

Every record is built from real generator, solver and reduction outputs.
The module also guards what a CLI call imports: no record generates code at
import, so ``dataclasses`` and its ``inspect``/``ast`` chain stay unloaded.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from stablepairs import (
    Concept,
    DeviationWitness,
    DynamicsTrace,
    Game,
    GenParams,
    Graph,
    Matching,
    PairBlockWitness,
    PlayerRole,
    PreferenceList,
    ReductionArtifact,
    SolverReport,
    compute_cns,
    find_deviation,
    find_pair_block,
    max_matching,
    mmm_to_marriage_ns,
    mmm_to_roommate_is,
    parse_instance,
    random_game,
    run_dynamics,
)
from support import CYCLIC3, SMALL_GRAPHS

SRC = Path(__file__).resolve().parent.parent / "src"


def _records() -> dict[type, tuple[object, tuple[str, ...]]]:
    """One real instance of every public record, with its field names."""
    params = GenParams(
        kind="roommate", n=9, tie_probability=0.3, acceptability_probability=0.7, seed=4
    )
    game = random_game(params)
    marriage = random_game(
        GenParams(kind="marriage", n_men=4, n_women=3, tie_probability=0.4, seed=2)
    )
    cyclic = parse_instance(CYCLIC3)
    singles = Matching.singletons(cyclic.n)
    witness = find_deviation(cyclic, singles, Concept.NS)
    block = find_pair_block(cyclic, singles, strict=False)
    trace = run_dynamics(cyclic, Concept.NS, singles, 20)
    assert witness is not None and block is not None and trace.outcome == "cycle"
    artifact = mmm_to_roommate_is(SMALL_GRAPHS["P3"], 1)
    assert artifact.r > 0 and artifact.roles
    role = next(r for r in artifact.roles.values() if r.layer is not None)
    pl = max(marriage.profile, key=lambda pl: len(pl.order))
    assert len(pl.order) > len(pl.tiers) > 1
    return {
        PreferenceList: (
            pl,
            ("owner", "order", "ranks", "self_rank", "bottom_rank", "num_acceptable"),
        ),
        Game: (marriage, ("n", "profile", "kind", "num_men")),
        GenParams: (
            params,
            (
                "kind", "n", "n_men", "n_women", "tie_probability",
                "acceptability_probability", "mutual", "complete", "seed",
            ),
        ),
        Graph: (artifact.graph, ("n", "edges")),
        Matching: (compute_cns(game).matching, ("_partner",)),
        PlayerRole: (role, ("kind", "vertex", "gadget", "layer")),
        ReductionArtifact: (artifact, ("game", "roles", "graph", "n", "k", "r")),
        DeviationWitness: (witness, ("mover", "target", "concept")),
        PairBlockWitness: (block, ("i", "j")),
        SolverReport: (compute_cns(game), ("matching", "deviation_count", "elapsed")),
        DynamicsTrace: (trace, ("steps", "outcome", "final", "cycle_start")),
    }


RECORDS = _records()


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_round_trips_and_is_immutable(cls):
    record, names = RECORDS[cls]
    assert type(record) is cls
    before = hash(record)
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(clone) is cls
        assert clone == record and not clone != record
        assert hash(clone) == before
        for name in names:
            assert getattr(clone, name) == getattr(record, name)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert hash(record) == before


def test_reduction_artifacts_differing_only_in_roles_are_equal():
    a = mmm_to_marriage_ns(SMALL_GRAPHS["P4"], 2)
    b = ReductionArtifact(game=a.game, roles={}, graph=a.graph, n=a.n, k=a.k, r=a.r)
    assert a.roles and a == b and hash(a) == hash(b)
    other_k = ReductionArtifact(a.game, a.roles, a.graph, a.n, a.k + 1, a.r)
    assert a != other_k and a.roles is other_k.roles


def test_preference_list_compares_ranks_but_does_not_hash_them():
    a = PreferenceList(1, (frozenset({2, 3}), frozenset({4})), 1, True)
    b = PreferenceList(1, (frozenset({2}), frozenset({3, 4})), 1, True)
    assert a.ranks != b.ranks and a.order == b.order
    assert a != b and not a == b and hash(a) == hash(b)
    assert a == PreferenceList(1, (frozenset({2, 3}), frozenset({4})), 1, True)


def test_frozen_records_compare_only_with_their_own_class():
    game, _ = RECORDS[Game]
    graph, _ = RECORDS[Graph]
    fields = (game.n, game.profile, game.kind, game.num_men)
    assert graph != game and not graph == game
    assert game != fields and fields != game and not game == fields
    matching, _ = RECORDS[Matching]
    assert matching != matching.as_tuple() and not matching == matching.as_tuple()


def test_matching_is_a_frozen_record():
    m = Matching([2, 1, 3])
    before = hash(m)
    assert m == Matching((2, 1, 3)) and hash(m) == hash(Matching((2, 1, 3)))
    assert m != Matching([1, 2, 3])
    with pytest.raises(AttributeError):
        m._partner = (1, 2, 3)
    with pytest.raises(AttributeError):
        del m._partner
    assert m.as_tuple() == (2, 1, 3) and hash(m) == before
    # Unpickling rebuilds through the validating constructor.
    with pytest.raises(ValueError, match="not an involution at player 1"):
        pickle.loads(pickle.dumps(Matching._trusted((2, 2))))


def test_records_built_from_a_list_or_a_set_keep_their_own_copy():
    game, _ = RECORDS[Game]
    profile = list(game.profile)
    built = Game(game.n, profile, game.kind, game.num_men)
    profile.append(PreferenceList(game.n + 1))
    assert built == game and hash(built) == hash(game) and len(built.profile) == built.n
    assert pickle.loads(pickle.dumps(built)) == game
    edges = {(1, 2)}
    graph = Graph(3, edges)
    edges.add((0, 9))
    assert graph == Graph.build(3, [(1, 2)]) and hash(graph) == hash(Graph.build(3, [(1, 2)]))
    assert max_matching(graph) == {(1, 2)}


def test_reprs_rebuild_the_record():
    namespace = {"Game": Game, "Graph": Graph, "PreferenceList": PreferenceList}
    for pl in (
        PreferenceList(1, (frozenset({2, 3}), frozenset({4})), 1, True),
        PreferenceList(2, (frozenset({1}),), 0),
        PreferenceList(3),
    ):
        assert eval(repr(pl), namespace) == pl
    game, _ = RECORDS[Game]
    assert eval(repr(game), namespace) == game
    graph = Graph.build(3, [(2, 1)])
    assert repr(graph) == "Graph(n=3, edges=frozenset({(1, 2)}))"
    assert eval(repr(graph), namespace) == graph
    assert repr(Matching([2, 1, 3])) == "Matching[(1,2) (3)]"
    assert repr(Matching(())) == "Matching[]"


def test_cli_imports_no_code_generating_modules():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = (
        "import stablepairs.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
        "'typing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []
    game = "roommate 2\n1: 2\n2: 1\n"
    solved = subprocess.run(
        [sys.executable, "-S", "-m", "stablepairs.cli", "solve", "--concept", "cns", "-"],
        env=env, input=game, capture_output=True, text=True,
    )
    assert solved.returncode == 0, solved.stderr
    assert solved.stdout.splitlines()[-1] == "1 2"

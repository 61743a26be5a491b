"""End-to-end CLI behavior: pipelines, witness lines, exit codes."""

from __future__ import annotations

import time

import pytest

from stablepairs import InternalCheckError, cli, parse_instance
from stablepairs.cli import main
from support import CYCLIC3

EMPTY_GAME = parse_instance("roommate 0\n")


@pytest.fixture
def cyclic3(tmp_path):
    path = tmp_path / "cyclic3.txt"
    path.write_text(CYCLIC3)
    return str(path)


@pytest.fixture
def tiny_marriage(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("marriage 2 2\n1: ( 3 4 )\n2: 3\n3: 2 1\n4: ( 1 self )\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_then_verify_roundtrip(capsys, tmp_path, tiny_marriage):
    code, out, _ = run(capsys, "solve", "--concept", "is", tiny_marriage)
    assert code == 0
    matching_file = tmp_path / "solved.txt"
    matching_file.write_text(out)
    code, out, _ = run(capsys, "verify", "--concept", "is", tiny_marriage, str(matching_file))
    assert code == 0
    assert out.strip() == "STABLE"


def test_solve_cns_and_cis_roundtrip(capsys, tmp_path, cyclic3):
    for concept in ("cns", "cis-ir"):
        code, out, _ = run(capsys, "solve", "--concept", concept, cyclic3)
        assert code == 0
        matching_file = tmp_path / f"{concept}.txt"
        matching_file.write_text(out)
        verify_as = "cns" if concept == "cns" else "cis"
        code, out, _ = run(capsys, "verify", "--concept", verify_as, cyclic3, str(matching_file))
        assert code == 0 and out.strip() == "STABLE"


def test_verify_unstable_prints_witness(capsys, tmp_path, cyclic3):
    matching_file = tmp_path / "m.txt"
    matching_file.write_text("1 2\n3 -\n")
    code, out, _ = run(capsys, "verify", "--concept", "ns", cyclic3, str(matching_file))
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "UNSTABLE"
    assert lines[1] == "DEVIATION mover=2 target=3 concept=NS"


def test_verify_ir_and_core_witnesses(capsys, tmp_path):
    inst = tmp_path / "i.txt"
    inst.write_text("roommate 2\n1: 2\n2:\n")
    pair = tmp_path / "pair.txt"
    pair.write_text("1 2\n")
    code, out, _ = run(capsys, "verify", "--concept", "ir", str(inst), str(pair))
    assert code == 1
    assert "UNACCEPTABLE player=2 partner=1" in out
    code, out, _ = run(capsys, "verify", "--concept", "core", str(inst), str(pair))
    assert code == 1
    assert "BLOCK i=2 j=2" in out


def test_verify_malformed_matching_is_usage_error(capsys, tmp_path, cyclic3):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n2 3\n")
    code, _, err = run(capsys, "verify", "--concept", "ns", cyclic3, str(bad))
    assert code == 2
    assert "error:" in err


def test_exists_brute_cyclic3_is_no(capsys, cyclic3):
    code, out, _ = run(capsys, "exists", "--concept", "is", "--method", "brute", cyclic3)
    assert code == 1
    assert out.strip() == "NO"


def test_exists_poly_and_auto(capsys, cyclic3, tiny_marriage):
    code, out, _ = run(capsys, "exists", "--concept", "ns", "--method", "poly", cyclic3)
    assert code == 1 and out.strip() == "NO"
    code, out, _ = run(capsys, "exists", "--concept", "is", tiny_marriage)
    assert code == 0
    assert out.splitlines()[0] == "YES"


def test_exists_poly_unavailable_is_usage_error(capsys, tmp_path):
    inst = tmp_path / "i.txt"
    inst.write_text("roommate 2\n1: 2\n2:\n")  # incomplete roommate game
    code, _, err = run(capsys, "exists", "--concept", "ns", "--method", "poly", str(inst))
    assert code == 2
    assert "brute" in err
    # auto falls back to brute force instead; this asymmetric game has no NS matching
    code, out, _ = run(capsys, "exists", "--concept", "ns", str(inst))
    assert code == 1 and out.strip() == "NO"


def test_brute_count_cyclic3(capsys, cyclic3):
    code, out, _ = run(capsys, "brute", "--concept", "is", "--count", cyclic3)
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "brute", "--concept", "cns", "--count", cyclic3)
    assert code == 0
    assert out.strip() == "3"  # each pair-plus-singleton split is CNS


def test_brute_counts_a_complete_20_player_game_fast(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "roommate", "--n", "20", "--complete", "--seed", "1")
    assert code == 0
    path = tmp_path / "k20.txt"
    path.write_text(out)
    start = time.perf_counter()
    code, out, _ = run(capsys, "brute", "--count", "--concept", "ir", "--cap", "30", str(path))
    assert time.perf_counter() - start < 2
    assert (code, out.strip()) == (0, "23758664096")


def test_brute_first_matching_or_none(capsys, cyclic3):
    code, out, _ = run(capsys, "brute", "--concept", "is", cyclic3)
    assert code == 1 and out.strip() == "NONE"
    code, out, _ = run(capsys, "brute", "--concept", "cns", cyclic3)
    assert code == 0 and out.splitlines()[0] == "1 2"


def test_dynamics_exit_codes(capsys, cyclic3, tmp_path):
    code, out, _ = run(capsys, "dynamics", "--concept", "is", "--start", "singletons", cyclic3)
    assert code == 3
    assert "CYCLE" in out
    steps = [line for line in out.splitlines() if line.startswith("STEP ")]
    assert 1 <= len(steps) <= 12

    code, out, _ = run(capsys, "dynamics", "--concept", "is", "--max-steps", "2", cyclic3)
    assert code == 4
    assert "STEP-LIMIT" in out

    # a negative limit is an input error, not a step limit reached
    code, out, err = run(capsys, "dynamics", "--concept", "is", "--max-steps", "-1", cyclic3)
    assert code == 2 and out == ""
    assert err == "error: max_steps must be non-negative\n"
    code, out, _ = run(capsys, "dynamics", "--concept", "is", "--max-steps", "0", cyclic3)
    assert code == 4
    assert out == "STEP-LIMIT steps=0\n"

    stable_start = tmp_path / "stable.txt"
    stable_start.write_text("1 2\n3 -\n")
    code, out, _ = run(capsys, "dynamics", "--concept", "cns", "--start", str(stable_start), cyclic3)
    assert code == 0
    assert "STABLE steps=0" in out


def test_reduce_emits_parseable_instance(capsys, tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("graph 2 1\n1 2\n")
    code, out, _ = run(capsys, "reduce", "ns-marriage", str(graph_file), "1")
    assert code == 0
    from stablepairs import parse_instance

    game = parse_instance(out)
    assert game.n == 9
    assert "# role player=1 kind=A" in out

    code, out, _ = run(capsys, "reduce", "is-roommate", str(graph_file), "2")
    assert code == 0
    assert parse_instance(out).n == 9


def test_reduce_refuses_an_oversized_game_fast(capsys, tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("graph 5000 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "reduce", "is-roommate", str(graph_file), "0")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_is_deterministic_and_parseable(capsys):
    args = ["gen", "roommate", "--n", "6", "--tie-prob", "0.3",
            "--accept-prob", "0.6", "--seed", "11"]
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    from stablepairs import parse_instance

    assert parse_instance(first).n == 6


def test_gen_complete_marriage_pipe_to_solve(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "marriage", "--men", "3", "--women", "3",
                       "--complete", "--tie-prob", "0.5", "--seed", "3")
    assert code == 0
    inst = tmp_path / "inst.txt"
    inst.write_text(out)
    code, out, _ = run(capsys, "solve", "--concept", "ns-complete", str(inst))
    assert code == 0
    matching = tmp_path / "m.txt"
    matching.write_text(out)
    code, out, _ = run(capsys, "verify", "--concept", "ns", str(inst), str(matching))
    assert code == 0 and out.strip() == "STABLE"


def test_usage_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", "--concept", "bogus", "nowhere.txt")
    assert code == 2
    code, _, err = run(capsys, "solve", "--concept", "is", str(tmp_path / "missing.txt"))
    assert code == 2
    code, _, err = run(capsys, "solve", "--concept", "is", __file__)
    assert code == 2  # not an instance file
    # size flags of the other kind of game
    code, out, _ = run(capsys, "gen", "marriage", "--n", "5", "--seed", "1")
    assert code == 2 and out == ""
    code, out, _ = run(capsys, "gen", "roommate", "--men", "3")
    assert code == 2 and out == ""


def test_gen_refuses_too_many_candidate_pairs(capsys, monkeypatch):
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", "roommate", "--n", "100000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "error: 9999900000 candidate pairs exceed the limit of 10000000\n"
    # Refused before random_game draws anything.
    monkeypatch.setattr(cli, "random_game", None)
    for argv in (("roommate", "--n", "3163"), ("marriage", "--men", "2237", "--women", "2237")):
        code, out, _ = run(capsys, "gen", *argv)
        assert code == 2 and out == "", argv
    # A negative count still fails random_game's own check.
    monkeypatch.undo()
    code, _, err = run(capsys, "gen", "roommate", "--n", "-100000")
    assert code == 2 and err == "error: player counts must be non-negative\n"


def test_gen_refuses_too_many_expected_list_entries(capsys, monkeypatch):
    # Each candidate pair is listed with probability --accept-prob, surely
    # under --complete; above reduce's entry limit, nothing is drawn.
    monkeypatch.setattr(cli, "random_game", None)
    code, out, err = run(capsys, "gen", "roommate", "--n", "1415")
    assert code == 2 and out == ""
    assert err == "error: 2000810 expected list entries exceed the limit of 2000000\n"
    for argv in (
        ("roommate", "--n", "2000", "--accept-prob", "0.6"),
        ("marriage", "--men", "1000", "--women", "1001", "--complete", "--accept-prob", "0.1"),
    ):
        code, out, _ = run(capsys, "gen", *argv)
        assert code == 2 and out == "", argv
    drawn = []
    monkeypatch.setattr(cli, "random_game", lambda params: drawn.append(params) or EMPTY_GAME)
    for argv in (
        ("roommate", "--n", "1414"),  # 1,997,982 entries
        ("roommate", "--n", "3000", "--accept-prob", "0.001"),
        ("marriage", "--men", "300", "--women", "300", "--complete"),
    ):
        code, _, _ = run(capsys, "gen", *argv)
        assert code == 0, argv
    assert len(drawn) == 3


@pytest.mark.parametrize(
    "header",
    ["marriage 2 1\n1: 2\n2:\n3:\n", "marriage 0 2\n1: 2\n2:\n"],
)
def test_same_sex_entry_error_names_its_line(capsys, tmp_path, header):
    # with no men, the women's potential partners are the empty range too
    inst = tmp_path / "samesex.txt"
    inst.write_text(header)
    code, out, err = run(capsys, "solve", "--concept", "is", str(inst))
    assert code == 2 and out == ""
    assert err == "error: line 2: same-sex entry 2 in list of player 1\n"


def test_brute_runs_deeper_than_the_interpreter_stack(capsys, tmp_path):
    # the search goes one level deeper per player: 3000 levels here
    code, out, _ = run(
        capsys, "gen", "roommate", "--n", "3000", "--accept-prob", "0.001", "--seed", "1"
    )
    assert code == 0
    inst = tmp_path / "sparse.txt"
    inst.write_text(out)
    code, out, err = run(capsys, "brute", "--concept", "ir", "--cap", "5000", str(inst))
    assert code == 0 and err == ""
    matching = tmp_path / "found.txt"
    matching.write_text(out)
    code, out, _ = run(capsys, "verify", "--concept", "ir", str(inst), str(matching))
    assert code == 0 and out.strip() == "STABLE"


@pytest.mark.parametrize(
    "error",
    [
        InternalCheckError("CNS deviation bound 2n^2: 19 deviations exceed 18"),
        RecursionError("maximum recursion depth exceeded"),
    ],
)
def test_internal_failures_exit_5_not_1(capsys, monkeypatch, cyclic3, error):
    def broken(game):
        raise error

    monkeypatch.setattr(cli, "compute_cns", broken)
    code, out, err = run(capsys, "solve", "--concept", "cns", cyclic3)
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err == f"error: internal: {type(error).__name__}: {error}\n"

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria with stated runtime limits assert them.
"""

from __future__ import annotations

import random
import time

from stablepairs import (
    Concept,
    GenParams,
    Matching,
    brute_force,
    compute_cis_ir,
    compute_cns,
    compute_is_marriage,
    exists_ns_is_roommate_complete,
    find_deviation,
    find_pair_block,
    gale_shapley,
    is_individually_rational,
    is_stable,
    max_matching,
    minimum_maximal_matching,
    mmm_to_marriage_ns,
    mmm_to_roommate_is,
    random_game,
    run_dynamics,
)
from stablepairs.cli import main
from support import (
    CYCLIC3,
    SMALL_GRAPHS,
    exhaustive_max_matching_size,
    random_graph,
    random_matching,
    search_status,
)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def test_criterion_01_is_existence_and_computation():
    started = time.perf_counter()
    rng = random.Random(101)
    failures = 0
    for seed in range(1000):
        game = random_game(GenParams(
            kind="marriage",
            n_men=rng.randint(1, 8),
            n_women=rng.randint(1, 8),
            tie_probability=0.3,
            acceptability_probability=0.6,
            seed=seed,
        ))
        result = compute_is_marriage(game)
        if find_deviation(game, result, Concept.IS) is not None:
            failures += 1
        if not is_individually_rational(game, result):
            failures += 1
        _found, count = brute_force(game, Concept.IS, cap=16, stop_after=1)
        if count < 1:
            failures += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        "IS existence and computation",
        failures == 0 and elapsed < 60.0,
        f"1000 games, {elapsed:.1f}s",
    )


def test_criterion_02_is_marriage_scaling():
    game = random_game(GenParams(
        kind="marriage", n_men=1000, n_women=1000,
        tie_probability=0.3, complete=True, seed=2,
    ))
    started = time.perf_counter()
    result = compute_is_marriage(game)
    elapsed = time.perf_counter() - started
    _report(
        2,
        "IS computation scales to 1000+1000",
        elapsed < 5.0 and result.n == 2000,
        f"{elapsed:.2f}s",
    )


def _roommate_corpus():
    rng = random.Random(303)
    for seed in range(1000):
        yield random_game(GenParams(
            kind="roommate", n=rng.randint(1, 8),
            tie_probability=0.3, acceptability_probability=0.6, seed=seed,
        ))


def test_criterion_03_cns_solver():
    failures = 0
    for game in _roommate_corpus():
        report = compute_cns(game)
        if find_deviation(game, report.matching, Concept.CNS) is not None:
            failures += 1
        if report.deviation_count > 2 * game.n * game.n:
            failures += 1
    big_ok = True
    times = []
    for seed in (1, 2, 3):
        big = random_game(GenParams(
            kind="roommate", n=200,
            tie_probability=0.3, acceptability_probability=0.6, seed=seed,
        ))
        started = time.perf_counter()
        report = compute_cns(big)
        elapsed = time.perf_counter() - started
        times.append(elapsed)
        if elapsed >= 1.0 or find_deviation(big, report.matching, Concept.CNS) is not None:
            big_ok = False
    _report(
        3,
        "CNS solver with deviation bound",
        failures == 0 and big_ok,
        f"n=200 times {['%.2fs' % t for t in times]}",
    )


def test_criterion_04_cis_ir_solver():
    failures = 0
    for game in _roommate_corpus():
        report = compute_cis_ir(game)
        if find_deviation(game, report.matching, Concept.CIS) is not None:
            failures += 1
        if not is_individually_rational(game, report.matching):
            failures += 1
        if report.deviation_count > game.n * (game.n - 1):
            failures += 1
    _report(4, "CIS+IR solver with deviation bound", failures == 0)


def test_criterion_05_complete_roommate_decision():
    rng = random.Random(505)
    disagreements = 0
    for seed in range(500):
        n = rng.choice([3, 5, 7])
        game = random_game(GenParams(
            kind="roommate", n=n, tie_probability=0.4, complete=True, seed=seed,
        ))
        poly = exists_ns_is_roommate_complete(game)
        found, _ = brute_force(game, Concept.NS, stop_after=1)
        if (poly is None) != (found is None):
            disagreements += 1
        if poly is not None and find_deviation(game, poly, Concept.NS) is not None:
            disagreements += 1
    even_failures = 0
    for seed in range(200):
        n = rng.choice([4, 6])
        game = random_game(GenParams(
            kind="roommate", n=n, tie_probability=0.4, complete=True, seed=10_000 + seed,
        ))
        result = exists_ns_is_roommate_complete(game)
        if result is None or find_deviation(game, result, Concept.NS) is not None:
            even_failures += 1
    _report(
        5,
        "complete-roommate NS decision matches oracle",
        disagreements == 0 and even_failures == 0,
    )


def test_criterion_06_mutual_ns_iff_is():
    rng = random.Random(606)
    violations = 0
    for seed in range(300):
        game = random_game(GenParams(
            kind="roommate", n=rng.randint(2, 7),
            tie_probability=0.3, acceptability_probability=0.6,
            mutual=True, seed=seed,
        ))
        ns_found, _ = brute_force(game, Concept.NS, stop_after=1)
        is_found, _ = brute_force(game, Concept.IS, stop_after=1)
        if (ns_found is None) != (is_found is None):
            violations += 1
    _report(6, "mutual preferences: NS exists iff IS exists", violations == 0)


def test_criterion_07_marriage_ns_reduction_soundness():
    started = time.perf_counter()
    budget = 8_000_000
    mismatches = []
    decided = 0
    skipped = []
    for name, graph in SMALL_GRAPHS.items():
        base = mmm_to_marriage_ns(graph, 0)
        bound = minimum_maximal_matching(base.graph)
        for k in range(0, base.n + 1):
            artifact = mmm_to_marriage_ns(graph, k)
            status, found = search_status(artifact.game, Concept.NS, node_budget=budget)
            if status == "budget":
                skipped.append((name, k))
                continue
            decided += 1
            if (status == "found") != (bound <= k):
                mismatches.append((name, k))
            if found is not None and find_deviation(artifact.game, found, Concept.NS):
                mismatches.append((name, k, "bad witness"))
    elapsed = time.perf_counter() - started
    # Everything must decide except the largest 3K2 cells (25..28 players),
    # whose restricted search space still exceeds any desk-scale budget.
    fully_decided = all(name == "3K2" for name, _k in skipped)
    _report(
        7,
        "marriage-NS reduction sound on all small graphs",
        not mismatches and decided >= 47 and fully_decided and elapsed < 300.0,
        f"{decided} cells decided, {len(skipped)} skipped, {elapsed:.1f}s",
    )


def test_marriage_ns_reduction_decides_every_small_cell():
    # Criterion 07 with no cell skipped: every cell decides within the budget.
    budget = 8_000_000
    cells = 0
    undecided = []
    mismatches = []
    for name, graph in SMALL_GRAPHS.items():
        base = mmm_to_marriage_ns(graph, 0)
        bound = minimum_maximal_matching(base.graph)
        for k in range(0, base.n + 1):
            cells += 1
            status, _ = search_status(mmm_to_marriage_ns(graph, k).game, Concept.NS, budget)
            if status == "budget":
                undecided.append((name, k))
            elif (status == "found") != (bound <= k):
                mismatches.append((name, k))
    assert cells == 51
    assert not undecided and not mismatches, (undecided, mismatches)


def _decide_every_cell(construction, concept: Concept) -> tuple[int, list]:
    """Decide every small-graph cell of ``construction`` through ``brute_force``.

    Returns the number of cells and those whose answer disagrees with
    ``minimum_maximal_matching`` or whose witness is not stable."""
    cells = 0
    mismatches = []
    for name, graph in SMALL_GRAPHS.items():
        base = construction(graph, 0)
        bound = minimum_maximal_matching(base.graph)
        for k in range(0, base.n + 1):
            cells += 1
            game = construction(graph, k).game
            found, _ = brute_force(game, concept, cap=game.n, stop_after=1)
            if (found is not None) != (bound <= k):
                mismatches.append((name, k))
            if found is not None and find_deviation(game, found, concept):
                mismatches.append((name, k, "bad witness"))
    return cells, mismatches


def test_marriage_ns_cells_through_brute_force():
    cells, mismatches = _decide_every_cell(mmm_to_marriage_ns, Concept.NS)
    assert cells == 51 and not mismatches, mismatches


def test_criterion_08_roommate_is_reduction_soundness():
    cells, mismatches = _decide_every_cell(mmm_to_roommate_is, Concept.IS)
    _report(
        8,
        "roommate-IS reduction sound on all small graphs",
        not mismatches and cells == 51,
        f"{cells} cells",
    )


def test_criterion_09_no_is_gadget_cli(tmp_path, capsys):
    instance = tmp_path / "cyclic3.txt"
    instance.write_text(CYCLIC3)
    code = main(["brute", "--concept", "is", "--count", str(instance)])
    out = capsys.readouterr().out
    count_ok = code == 0 and out.strip() == "0"
    code = main(["dynamics", "--concept", "is", "--start", "singletons", str(instance)])
    out = capsys.readouterr().out
    steps = [line for line in out.splitlines() if line.startswith("STEP ")]
    dynamics_ok = code == 3 and "CYCLE" in out and len(steps) <= 12
    _report(9, "cyclic gadget: zero IS matchings and an IS cycle", count_ok and dynamics_ok)


def test_criterion_10_stability_lattice():
    edges = [
        (Concept.NS, Concept.IS),
        (Concept.NS, Concept.CNS),
        (Concept.IS, Concept.CIS),
        (Concept.CNS, Concept.CIS),
        (Concept.IS, Concept.IR),
        (Concept.STRICT_CORE, Concept.IS),
        (Concept.STRICT_CORE, Concept.CORE),
        (Concept.CORE, Concept.IR),
    ]
    rng = random.Random(1010)
    violations = 0
    for trial in range(10_000):
        if trial % 2:
            game = random_game(GenParams(
                kind="roommate", n=rng.randint(1, 8),
                tie_probability=rng.choice([0.0, 0.3, 0.6]),
                acceptability_probability=rng.choice([0.3, 0.6, 1.0]),
                seed=trial,
            ))
        else:
            game = random_game(GenParams(
                kind="marriage", n_men=rng.randint(1, 4), n_women=rng.randint(1, 4),
                tie_probability=rng.choice([0.0, 0.3, 0.6]),
                acceptability_probability=rng.choice([0.3, 0.6, 1.0]),
                seed=trial,
            ))
        matching = random_matching(game.n, rng)
        verdicts = {c: is_stable(game, matching, c) for c in Concept}
        for left, right in edges:
            if verdicts[left] and not verdicts[right]:
                violations += 1
    _report(10, "stability lattice holds on 10k random pairs", violations == 0)


def test_criterion_11_blossom_against_exhaustive_search():
    rng = random.Random(1111)
    disagreements = 0
    for _ in range(500):
        n = rng.randint(0, 10)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
        if len(max_matching(g)) != exhaustive_max_matching_size(g):
            disagreements += 1
    _report(11, "blossom equals exhaustive maximum on 500 graphs", disagreements == 0)


def test_criterion_12_gale_shapley_core_baseline():
    rng = random.Random(1212)
    blocks = 0
    for seed in range(500):
        game = random_game(GenParams(
            kind="marriage",
            n_men=rng.randint(1, 8), n_women=rng.randint(1, 8),
            tie_probability=0.0, complete=True, seed=seed,
        ))
        result = gale_shapley(game, proposers="women" if seed % 2 else "men")
        if find_pair_block(game, result, strict=False) is not None:
            blocks += 1
    _report(12, "deferred acceptance leaves no core block", blocks == 0)

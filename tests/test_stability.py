"""Verifier semantics: witnesses, consent rules, pair blocks, and the lattice."""

from __future__ import annotations

import random

import pytest

from stablepairs import (
    Concept,
    DeviationWitness,
    Matching,
    find_deviation,
    find_pair_block,
    is_individually_rational,
    is_stable,
    parse_instance,
)
from stablepairs.stability import find_violation
from support import (
    CYCLIC3,
    definitional_checker,
    random_listed_game,
    random_marriage,
    random_matching,
    random_roommate,
)

LATTICE_EDGES = [
    (Concept.NS, Concept.IS),
    (Concept.NS, Concept.CNS),
    (Concept.IS, Concept.CIS),
    (Concept.CNS, Concept.CIS),
    (Concept.IS, Concept.IR),
    (Concept.STRICT_CORE, Concept.IS),
    (Concept.STRICT_CORE, Concept.CORE),
    (Concept.CORE, Concept.IR),
]


def test_ir_examples():
    game = parse_instance("roommate 2\n1: 2\n2:\n")
    assert is_individually_rational(game, Matching.singletons(2))
    assert not is_individually_rational(game, Matching([2, 1]))


def test_ir_same_sex_pair_is_irrational():
    game = parse_instance("marriage 2 2\n1: 3 4\n2: 3\n3: 1 2\n4: 1\n")
    same_sex = Matching([2, 1, 4, 3])
    assert not is_individually_rational(game, same_sex)


def test_cyclic3_witnesses():
    game = parse_instance(CYCLIC3)
    m = Matching([2, 1, 3])
    for concept in (Concept.NS, Concept.IS):
        w = find_deviation(game, m, concept)
        assert w == DeviationWitness(2, 3, concept)


def test_mutual_top_pair_is_ns():
    game = parse_instance("roommate 2\n1: 2\n2: 1\n")
    assert find_deviation(game, Matching([2, 1]), Concept.NS) is None


def test_cns_needs_consent_of_abandoned_partner():
    # 1 likes 2, 2 finds 1 unacceptable: {1,2} is CNS but not IR
    game = parse_instance("roommate 2\n1: 2\n2:\n")
    pair = Matching([2, 1])
    assert find_deviation(game, pair, Concept.CNS) is None
    assert find_deviation(game, pair, Concept.CIS) is None
    assert not is_individually_rational(game, pair)
    assert find_deviation(game, pair, Concept.NS) == DeviationWitness(2, None, Concept.NS)


def test_is_needs_consent_of_target():
    # 1 wants 2; 2 finds 1 unacceptable and is single
    game = parse_instance("roommate 3\n1: 2 3\n2:\n3: 1\n")
    m = Matching([3, 2, 1])
    assert find_deviation(game, m, Concept.NS) == DeviationWitness(1, 2, Concept.NS)
    assert find_deviation(game, m, Concept.IS) is None


def test_pair_block_examples():
    game = parse_instance("marriage 1 1\n1: 2\n2: 1\n")
    matched = Matching([2, 1])
    assert find_pair_block(game, matched, strict=False) is None
    assert find_pair_block(game, matched, strict=True) is None
    apart = Matching.singletons(2)
    block = find_pair_block(game, apart, strict=False)
    assert (block.i, block.j) == (1, 2)


def test_degenerate_block_reports_ir_violation():
    game = parse_instance("roommate 2\n1: 2\n2:\n")
    pair = Matching([2, 1])
    block = find_pair_block(game, pair, strict=False)
    assert (block.i, block.j) == (2, 2)


def test_strict_core_block_without_core_block():
    # woman 3 indifferent between men 1 and 2, matched to 1; single man 2
    # strictly prefers her to being alone
    game = parse_instance("marriage 2 2\n1: 3\n2: 3\n3: ( 1 2 )\n4:\n")
    m = Matching([3, 2, 1, 4])
    assert find_pair_block(game, m, strict=False) is None
    block = find_pair_block(game, m, strict=True)
    assert (block.i, block.j) == (2, 3)


def test_witnesses_replay_to_strict_improvement():
    for seed in range(300):
        game = random_roommate(seed) if seed % 2 else random_marriage(seed, max_side=5)
        rng = random.Random(seed)
        m = random_matching(game.n, rng)
        for concept in (Concept.NS, Concept.IS, Concept.CNS, Concept.CIS):
            w = find_deviation(game, m, concept)
            if w is None:
                continue
            after = m.with_move(w.mover, w.target)
            pl = game.prefs(w.mover)
            assert pl.rank_of(after.partner_of(w.mover)) < pl.rank_of(m.partner_of(w.mover))
            if concept in (Concept.IS, Concept.CIS) and w.target is not None:
                target = game.prefs(w.target)
                assert target.rank_of(w.mover) <= target.self_rank
            old_partner = m.partner_of(w.mover)
            if concept in (Concept.CNS, Concept.CIS) and old_partner != w.mover:
                left = game.prefs(old_partner)
                assert left.self_rank <= left.rank_of(w.mover)


def test_verifiers_are_deterministic():
    for seed in range(50):
        game = random_roommate(seed)
        m = random_matching(game.n, random.Random(seed))
        for concept in (Concept.NS, Concept.IS, Concept.CNS, Concept.CIS):
            assert find_deviation(game, m, concept) == find_deviation(game, m, concept)
        assert find_pair_block(game, m, False) == find_pair_block(game, m, False)


def test_lattice_small_scale():
    violations = []
    for seed in range(500):
        game = random_roommate(seed) if seed % 2 else random_marriage(seed, max_side=4)
        m = random_matching(game.n, random.Random(seed ^ 0xBEEF))
        verdicts = {c: is_stable(game, m, c) for c in Concept}
        for left, right in LATTICE_EDGES:
            if verdicts[left] and not verdicts[right]:
                violations.append((seed, left, right))
    assert violations == []


def test_find_deviation_rejects_non_deviation_concepts():
    game = parse_instance(CYCLIC3)
    with pytest.raises(ValueError, match="^Concept.CORE is not a single-player deviation concept$"):
        find_deviation(game, Matching.singletons(3), Concept.CORE)
    with pytest.raises(ValueError, match="^unknown concept core$"):
        is_stable(game, Matching.singletons(3), "core")


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("concept", list(Concept))
def test_verifiers_reject_a_matching_of_the_wrong_size(concept, size):
    game = parse_instance(CYCLIC3)
    with pytest.raises(ValueError, match=r"^matching has \d players, the game 3$"):
        is_stable(game, Matching.singletons(size), concept)


def test_verifiers_agree_with_the_definitional_checker():
    # random_listed_game puts self anywhere, tied or not, and random
    # matchings ignore acceptability, so IR violations, vetoes, consents and
    # weak blocks all decide verdicts here.
    rng = random.Random(26)
    verdicts = {concept: [0, 0] for concept in Concept}
    for _ in range(3000):
        game = random_listed_game(rng)
        matchings = [random_matching(game.n, rng) for _ in range(4)]
        for concept in Concept:
            stable = definitional_checker(game, concept)
            for m in matchings:
                verdict = stable(m)
                assert is_stable(game, m, concept) == verdict, (game, m, concept)
                assert (find_violation(game, m, concept) is None) == verdict
                verdicts[concept][verdict] += 1
    # Both verdicts are common under every concept.
    assert min(min(counts) for counts in verdicts.values()) >= 3000

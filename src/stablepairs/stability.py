"""Verifiers for the seven stability concepts, each returning a witness on failure.

Single-player deviations (NS, IS, CNS, CIS) move a player to an existing
singleton coalition or to the empty coalition; joining a pair would form a
size-3 coalition, which is unacceptable to the mover itself, so such moves
are pruned a priori.  Pair deviations (core, strict core) also cover the
degenerate one-player block of an individually irrational player, which is
what makes core stability imply individual rationality.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from enum import Enum

from .matching import Matching
from .model import Game, PreferenceList


class Concept(Enum):
    IR = "ir"
    NS = "ns"
    IS = "is"
    CNS = "cns"
    CIS = "cis"
    CORE = "core"
    STRICT_CORE = "strict-core"


DEVIATION_CONCEPTS = frozenset({Concept.NS, Concept.IS, Concept.CNS, Concept.CIS})


def _consent(concept: Concept) -> tuple[bool, bool]:
    """Whose consent a move needs: ``(the joined singleton's, the abandoned partner's)``.

    A consenting player must not become worse off.  IS needs the first, CNS
    the second, CIS both; NS and the concepts without single-player moves
    need neither.
    """
    return concept in (Concept.IS, Concept.CIS), concept in (Concept.CNS, Concept.CIS)


def _blocks(a: int, b: int, strict: bool) -> bool:
    """Whether two players block together; ``a`` and ``b`` are each one's rank
    of the other minus its rank of its coalition, so negative is better off.

    Under core both are strictly better off; under strict core both are
    weakly better off and one strictly.
    """
    return a <= 0 and b <= 0 and a + b < 0 if strict else a < 0 and b < 0


class DeviationWitness(namedtuple("DeviationWitness", "mover target concept")):
    """A profitable single-player move by ``mover`` under ``concept``;
    ``target is None`` means going alone."""

    __slots__ = ()


class PairBlockWitness(namedtuple("PairBlockWitness", "i j")):
    """A blocking pair; ``i == j`` encodes the degenerate one-player block."""

    __slots__ = ()


def _partners(game: Game, matching: Matching) -> tuple[int, ...]:
    """The matching's partner tuple; it must cover exactly the game's players."""
    if matching.n != game.n:
        raise ValueError(f"matching has {matching.n} players, the game {game.n}")
    return matching.as_tuple()


def find_deviation(
    game: Game, matching: Matching, concept: Concept
) -> DeviationWitness | None:
    """Search for a profitable consented move; ``None`` iff the matching is stable.

    Consent rules, as :func:`_consent` states them: IS requires the joined
    singleton not to become worse off, CNS the abandoned partner, CIS both,
    NS neither.  The witness is deterministic: smallest mover id, then the
    mover's most preferred target, ties broken by smallest target id with
    the empty coalition considered last among equally ranked targets.  Each
    player's scan stops at its current partner's rank, so one call costs
    O(n + sum of list lengths).
    """
    if concept not in DEVIATION_CONCEPTS:
        raise ValueError(f"{concept} is not a single-player deviation concept")
    need_target, need_left = _consent(concept)
    profile = game.profile
    partner_of = _partners(game, matching)
    for pl in profile:
        target = next(_move_targets(profile, partner_of, pl, need_target, need_left), None)
        if target is not None:
            i = pl.owner
            return DeviationWitness(i, None if target == i else target, concept)
    return None


def _move_targets(
    profile: tuple[PreferenceList, ...],
    partner_of: tuple[int, ...] | list[int],
    pl: PreferenceList,
    need_target: bool,
    need_left: bool,
) -> Iterator[int]:
    """The profitable consented moves of player ``pl.owner``, best first.

    ``partner_of[j - 1]`` is player ``j``'s partner.  Yields each single
    player the owner would join, then its own id if it would go alone; the
    first move yielded is the owner's deviation, if it has one.  The
    moves depend only on the owner's partner, that partner's rank of the
    owner, and which of the players it lists are single; with all of them
    single, this yields every target the owner could take from its partner.
    """
    i = pl.owner
    partner = partner_of[i - 1]
    ranks = pl.ranks
    self_rank = pl.self_rank
    cur = pl.rank_of(partner)
    if cur == 0:
        return
    if need_left and partner != i:
        left = profile[partner - 1]
        if left.self_rank > left.ranks.get(i, left.bottom_rank):
            return  # the abandoned partner would veto any move
    # Going alone is profitable when being alone ranks above the current
    # coalition; it then ends the scan, after every player ranked with it.
    alone = self_rank < cur and partner != i
    stop = self_rank + 1 if alone else cur
    for j in pl.order:
        if ranks[j] >= stop:
            break
        if partner_of[j - 1] == j:
            if need_target:
                target = profile[j - 1]
                if target.ranks.get(i, target.bottom_rank) > target.self_rank:
                    continue
            yield j
    if alone:
        yield i


def find_pair_block(
    game: Game, matching: Matching, strict: bool
) -> PairBlockWitness | None:
    """Search for a (strict-)core blocking pair; ``None`` iff stable.

    With ``strict=False`` both players must strictly prefer each other to
    their current coalitions; with ``strict=True`` both weakly and at least
    one strictly.  A player strictly preferring to be alone blocks by itself
    and is reported as the degenerate witness ``(i, i)``.  Scan order is by
    smallest first member, degenerate block first, then second member.

    Only players that ``i`` lists at or above its current rank can block
    with ``i``: an individually rational ``i`` ranks its coalition at or
    above being alone, hence above every unlisted player.  So one call costs
    O(n + sum of list lengths), at most O(n^2).
    """
    profile = game.profile
    partner_of = _partners(game, matching)
    current = [0] * (game.n + 1)
    for pl, partner in zip(profile, partner_of):
        current[pl.owner] = pl.rank_of(partner)
    for pl, partner in zip(profile, partner_of):
        i = pl.owner
        cur = current[i]
        if pl.self_rank < cur:
            return PairBlockWitness(i, i)
        ranks = pl.ranks
        best = None
        for j in pl.order:
            a = ranks[j] - cur
            if a > 0 or (a == 0 and not strict):
                break
            if j <= i or j == partner or (best is not None and j > best):
                continue
            other = profile[j - 1]
            if _blocks(a, other.ranks.get(i, other.bottom_rank) - current[j], strict):
                best = j
        if best is not None:
            return PairBlockWitness(i, best)
    return None


def find_violation(
    game: Game, matching: Matching, concept: Concept
) -> DeviationWitness | PairBlockWitness | None:
    """The witness that ``matching`` is not ``concept``-stable, or ``None``.

    NS, IS, CNS and CIS: :func:`find_deviation`'s move.  Core and strict
    core: :func:`find_pair_block`'s blocking pair.  IR: the degenerate block
    ``(i, i)`` of the lowest-id player who strictly prefers being alone.
    """
    if concept in DEVIATION_CONCEPTS:
        return find_deviation(game, matching, concept)
    if concept is Concept.CORE or concept is Concept.STRICT_CORE:
        return find_pair_block(game, matching, strict=concept is Concept.STRICT_CORE)
    if concept is not Concept.IR:
        raise ValueError(f"unknown concept {concept}")
    for pl, partner in zip(game.profile, _partners(game, matching)):
        if pl.rank_of(partner) > pl.self_rank:
            return PairBlockWitness(pl.owner, pl.owner)
    return None


def is_stable(game: Game, matching: Matching, concept: Concept) -> bool:
    """Whether :func:`find_violation` finds no witness."""
    return find_violation(game, matching, concept) is None


def is_individually_rational(game: Game, matching: Matching) -> bool:
    """True iff every player weakly prefers its coalition to being alone."""
    return find_violation(game, matching, Concept.IR) is None

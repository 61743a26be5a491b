"""Constructive solvers, the brute-force oracle, and deviation dynamics.

The better-response solvers start from the all-singletons matching and apply
the deterministic deviation scheduler (lowest mover id, most preferred
target) until stable; their deviation counters double as loud bug signals
when a proved termination bound is crossed.  The dynamics run the same
scheduler from any matching.  A player's deviation depends only on its
partner, that partner's rank of it (the CNS/CIS veto), and which of the
players it lists are single.  So after a move only the mover, its old
partner, its target, and everyone who lists a player the move left single
are flagged for a recheck.  A move leaves the old partner single, and the
mover too when it leaves a pair to go alone.  The lowest flagged player is
checked next and unflagged if it has no deviation; once no flag is left,
one full verifier scan confirms the result.

The brute-force search enumerates matchings depth first: the smallest
undecided player takes each larger undecided candidate in ascending order,
then goes alone.  It skips, provably without affecting which matchings are
stable, (b) pairs in which one member strictly prefers being alone and the
other would not veto its leaving, and (c), under core and strict core,
branches in which two already-final singletons could never coexist in a
stable matching.  Only CNS and CIS know a veto: the abandoned partner's,
when it strictly prefers the pair to being alone
(:func:`stablepairs.stability._consent`).  Without a veto the leaver
deviates to the empty coalition (NS, IS, CNS, CIS) or blocks alone (IR,
core, strict core) whatever the rest of the matching is; for every concept
but CNS and CIS, (b) keeps exactly the mutually acceptable pairs.  Rule (b)
subsumes rule (a), the skip of same-sex pairs in marriage games: such
players never list each other, and every player ranks unlisted players below
being alone, so each would leave the other and neither vetoes.  Both rules
are tabulated once, before the search, in one O(n + L) pass over the
compiled ranks (``L`` listed entries); the search keeps no dense rank table,
and its loop reads no rank outside the leaf test.

Under NS, IS, CNS and CIS a leaf is stable iff no player would move to a
single player or go alone.  :func:`_target_table` lists, once per search,
each player's moves from each partner a leaf can give it, as
:func:`stablepairs.stability._move_targets` (the rule that
:func:`stablepairs.stability.find_deviation` applies) yields them with
everyone else single; each concept keeps one definition.  Below a node,
decided players keep their partners, so (e), forward checking (Haralick &
Elliott, AI 14, 1980), drops a branch once a decided player's move targets
a decided single or going alone; rule (c) is its two-singles case.  Every
leaf reached is then stable, and the table check there is kept as an
:class:`InternalCheckError`.  Core and strict core leaves are decided by
:func:`stablepairs.stability.is_stable`: a block depends on the other
player's partner, not only on who is single.  IR leaves need no test: under
IR, rule (b) admits only mutually acceptable pairs, and a single player is
always individually rational.  So every leaf is stable, and
:func:`brute_force` counts IR matchings without visiting them: a dynamic
program over players in id order (:func:`_count_matchings`) counts the
matchings of the rule-(b) graph, keyed by which later players are already
taken.  Counting matchings is #P-complete in general (Valiant, SIAM
J. Comput. 1979), but the taken-sets are far fewer than the matchings.

In existence mode (``stop_after == 1``) it also applies (d), symmetry:
player ``i`` is paired only with the lowest-id undecided member of each
class of interchangeable players.  Players ``j < j'`` are interchangeable
when swapping them maps the game to itself: same side, equal self and bottom
ranks, ``rank[j][j'] == rank[j'][j]``, and equal ranks given to and received
from every other player.  Two such swaps compose to a third, so this is an
equivalence relation.  Rule (d) changes neither the answer nor the first
matching found.  At any node both ``j`` and ``j'`` are undecided, so the swap
fixes the decided prefix and maps the subtree under ``i-j'`` onto the
subtree under ``i-j``; every concept and rules (b), (c) and (e) read only ranks,
which the swap preserves; and the ``i-j`` subtree is searched first,
so when it holds no stable matching its image holds none either.  Count mode
(``stop_after=None``) and any larger ``stop_after`` run unreduced, so counts
stay exact.  This is the lex-leader rule of Crawford, Ginsberg, Luks & Roy,
"Symmetry-breaking predicates for search problems" (KR 1996), restricted to
transpositions.

Count mode under NS, IS, CNS and CIS caches counted subtrees by their
frontier, as #SAT counters cache components (Bacchus, Dalmao & Pitassi,
FOCS 2003; Sang et al., SAT 2004).  Where frame ``k``, the lowest undecided
player, would open, the key packs three masks into one int: ``dec``, the
decided players, which fixes ``k``; ``moves & ~dec``; and ``single &
reach[k]``, where ``reach[k]`` holds every target of a branch of a player
``>= k``.  Nothing else is read below the node: decided players keep their
partners, a decided single's bit of ``moves`` is clear, rule (e) tests a
branch only against ``single`` over its targets and the undecided player's
own bit of ``moves``, rule (d) is off, and every leaf reached is stable.
So equal keys have equal stable counts.  A frame that runs out of branches
stores its count; a hit adds it and counts as one node, and the first
matching is unchanged, since a hit repeats a subtree searched earlier.
The cache stores at most ``2**24 // max(3 * (n + 1), 256)`` keys of
``3(n + 1)`` bits (65,536 up to 84 players); past that it only looks keys
up, so counts stay exact.  Existence mode does not cache: on a benchmark
NS cell a cache raised peak RSS by a quarter for 56 hits.  Nor does IR:
on complete roommate games :func:`_count_matchings` counts 2-3 times
faster than a cached search.
"""

from __future__ import annotations

import time
from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import chain, tee
from operator import eq

from .errors import InternalCheckError, PreconditionError
from .graph_matching import Graph, max_matching
from .matching import Matching
from .model import MARRIAGE, ROOMMATE, Game, has_no_unacceptability
from .stability import (
    Concept,
    DEVIATION_CONCEPTS,
    DeviationWitness,
    _consent,
    _move_targets,
    _player_deviation,
    find_deviation,
    is_individually_rational,
    is_stable,
)


class SolverReport(namedtuple("SolverReport", "matching deviation_count elapsed")):
    """A solver's matching, the deviations it applied, and its wall time in seconds."""

    __slots__ = ()


class DynamicsTrace(
    namedtuple("DynamicsTrace", "steps outcome final cycle_start", defaults=(None,))
):
    """A better-response run: ``steps[t]`` is the matching at time ``t`` and
    the witness applied to it.  ``outcome`` is ``"stable"``, ``"cycle"`` or
    ``"step-limit"``, and ``final`` the last matching.  ``cycle_start``
    indexes the first occurrence of the repeated matching when the outcome is
    ``"cycle"``."""

    __slots__ = ()


def _listers(game: Game) -> list[list[int]]:
    """``listers[j]``: the players whose lists name ``j``, ascending; O(n + L)."""
    listers: list[list[int]] = [[] for _ in range(game.n + 1)]
    for pl in game.profile:
        for j in pl.order:
            listers[j].append(pl.owner)
    return listers


def _moves(
    game: Game, concept: Concept, partner: list[int]
) -> Iterator[tuple[int, int]]:
    """Apply the deviation scheduler's moves to ``partner`` in place, yielding each.

    ``partner[j - 1]`` is player ``j``'s partner.  A move ``(mover, target)``
    is applied before it is yielded; ``target == mover`` means going alone.
    The run ends when no player can deviate, which one full
    :func:`find_deviation` then confirms.
    """
    profile = game.profile
    need_target, need_left = _consent(concept)
    listers = _listers(game)
    # A clear flag means the player has no deviation; none is set below lo.
    dirty = bytearray(1) + b"\x01" * game.n
    lo = 1
    while (i := dirty.find(1, lo)) > 0:
        target = _player_deviation(profile, partner, profile[i - 1], need_target, need_left)
        if target is None:
            dirty[i] = 0
            lo = i + 1
            continue
        old = partner[i - 1]
        partner[old - 1] = old
        partner[i - 1] = target
        partner[target - 1] = i
        dirty[old] = dirty[target] = 1
        lo = min(i, old, target)
        if old != i:
            # Whoever the move leaves single may now be some lister's target.
            for freed in (old, i) if target == i else (old,):
                for k in listers[freed]:
                    dirty[k] = 1
                if listers[freed] and listers[freed][0] < lo:
                    lo = listers[freed][0]
        yield i, target
    if find_deviation(game, Matching._trusted(tuple(partner)), concept) is not None:
        raise InternalCheckError(
            f"better-response run stopped at a matching that is not {concept.name}-stable"
        )


def _better_response(game: Game, concept: Concept, bound: int, label: str) -> SolverReport:
    start = time.perf_counter()
    partner = list(range(1, game.n + 1))
    count = 0
    for count, _ in enumerate(_moves(game, concept, partner), 1):
        if count > bound:
            raise InternalCheckError(f"{label}: {count} deviations exceed {bound}")
    return SolverReport(
        Matching._trusted(tuple(partner)), count, time.perf_counter() - start
    )


def compute_cis_ir(game: Game) -> SolverReport:
    """A matching that is both CIS and IR, from singletons by CIS deviations.

    Every CIS deviation strictly improves the mover and hurts nobody, so no
    player ever drops below its alone level and at most ``n(n-1)`` deviations
    can occur; exceeding that signals a bug.
    """
    n = game.n
    report = _better_response(
        game, Concept.CIS, max(n * (n - 1), 0), "CIS deviation bound n(n-1)"
    )
    if not is_individually_rational(game, report.matching):
        raise InternalCheckError("CIS better-response left an IR violation")
    return report


def compute_cns(game: Game) -> SolverReport:
    """A CNS matching, from singletons by CNS deviations.

    Termination is specific to the all-singletons start: a player who has
    moved once is in a pair its partner may never abandon without its
    consent, so movers only climb.  The ``2n^2`` cap turns any silent
    non-termination into a loud failure.
    """
    n = game.n
    return _better_response(
        game, Concept.CNS, 2 * n * n, "CNS deviation bound 2n^2"
    )


def gale_shapley(game: Game, proposers: str = "women") -> Matching:
    """Deferred acceptance, with each tie broken by lowest id.

    A player accepts every partner it ranks at or above being alone, so a
    partner tied with being alone counts as acceptable.  Proposers walk their
    acceptable players in (rank, id) order; an unengaged acceptee takes any
    proposal from a player it accepts, and an engaged one trades up iff the
    proposer comes first in its (rank, id) order.  Output is the
    proposer-optimal stable matching of the strict instance that breaks ties
    by lowest id and puts being alone just below the players tied with it,
    and admits no core block with respect to that instance.
    """
    if game.kind != MARRIAGE:
        raise PreconditionError("gale_shapley needs a marriage game")
    if proposers not in ("men", "women"):
        raise ValueError("proposers must be 'men' or 'women'")
    profile = game.profile
    side = sorted(game.men if proposers == "men" else game.women)
    wishlist = {p: profile[p - 1].order[: profile[p - 1].num_acceptable] for p in side}
    match = [0] * (game.n + 1)
    cursor = dict.fromkeys(side, 0)
    free = deque(side)
    while free:
        p = free.popleft()
        row = wishlist[p]
        while cursor[p] < len(row):
            q = row[cursor[p]]
            cursor[p] += 1
            pq = profile[q - 1]
            rq = pq.ranks
            rank_p = rq.get(p, pq.bottom_rank)
            cur = match[q]
            if cur == 0:
                if rank_p <= pq.self_rank:
                    match[q] = p
                    match[p] = q
                    break
            elif (rank_p, p) < (rq.get(cur, pq.bottom_rank), cur):
                match[cur] = 0
                free.append(cur)
                match[q] = p
                match[p] = q
                break
    return Matching(match[i] if match[i] else i for i in game.players())


def compute_is_marriage(game: Game) -> Matching:
    """An individually stable (and IR) matching for any marriage game.

    Women-proposing deferred acceptance on the game as given: a partner
    tied with being alone counts as acceptable (:func:`gale_shapley`).  The
    result is verified against the same preferences; failure signals a bug,
    not bad input.
    """
    if game.kind != MARRIAGE:
        raise PreconditionError("compute_is_marriage needs a marriage game")
    result = gale_shapley(game, proposers="women")
    if not is_individually_rational(game, result):
        raise InternalCheckError("IS pipeline produced an IR violation")
    if find_deviation(game, result, Concept.IS) is not None:
        raise InternalCheckError("IS pipeline produced an IS-unstable matching")
    return result


def compute_ns_marriage_complete(game: Game) -> Matching:
    """A Nash stable matching for a marriage game with no unacceptability.

    Complete lists make acceptability mutual, and under mutual preferences an
    IS matching is already NS: any profitable unilateral move targets either
    the empty coalition (never consent-bound) or a singleton who, accepting
    the mover, would not object.
    """
    if game.kind != MARRIAGE:
        raise PreconditionError("compute_ns_marriage_complete needs a marriage game")
    if not has_no_unacceptability(game):
        raise PreconditionError(
            "compute_ns_marriage_complete requires complete preference lists"
        )
    result = compute_is_marriage(game)
    if find_deviation(game, result, Concept.NS) is not None:
        raise InternalCheckError("complete-list NS pipeline left an NS deviation")
    return result


def exists_ns_is_roommate_complete(game: Game) -> Matching | None:
    """Decide NS (equivalently IS) existence for complete-list roommate games.

    Even n: any perfect matching is NS.  Odd n: for each candidate singleton
    ``i`` build the graph on the remaining players whose edges join pairs
    that both weakly prefer each other to ``i``; a perfect matching there
    extends to an NS matching with ``i`` alone, and if no candidate works no
    NS matching exists.  O(n) perfect-matching tests of O(n^3) each.
    """
    if game.kind != ROOMMATE:
        raise PreconditionError("exists_ns_is_roommate_complete needs a roommate game")
    if not has_no_unacceptability(game):
        raise PreconditionError(
            "exists_ns_is_roommate_complete requires complete preference lists"
        )
    n = game.n
    if n == 0:
        return Matching(())
    if n % 2 == 0:
        partner = [i + 1 if i % 2 else i - 1 for i in range(1, n + 1)]
        result = Matching(partner)
        _assert_ns(game, result)
        return result
    profile = game.profile
    for single in game.players():
        # Complete lists rank everyone, so every ranks lookup below hits.
        # The graph keeps the game's ids; ``single`` gets no edges.
        limit = [0] + [pl.ranks.get(single, 0) for pl in profile]
        edges = []
        for pj in profile:
            j = pj.owner
            if j == single:
                continue
            for k in pj.up_to(limit[j]):
                if k > j and k != single and profile[k - 1].ranks[j] <= limit[k]:
                    edges.append((j, k))
        candidate = max_matching(Graph.build(n, edges))
        if 2 * len(candidate) == n - 1:
            partner = list(range(n + 1))
            for u, v in candidate:
                partner[u] = v
                partner[v] = u
            result = Matching(partner[1:])
            _assert_ns(game, result)
            return result
    return None


def _assert_ns(game: Game, matching: Matching) -> None:
    if find_deviation(game, matching, Concept.NS) is not None:
        raise InternalCheckError("constructed matching failed NS verification")


def _prune_tables(game: Game, concept: Concept) -> tuple[list[list[int]], list[int]]:
    """Rules (b) and (c) for every pair, in one O(n + L) pass over the ranks.

    For a pair ``i, j`` let ``a`` and ``b`` be each member's rank of the
    other minus its own self rank.  Rule (b) keeps the pair in ``cand[i]``
    (``i < j``, ascending) when both weakly prefer it to being alone, and
    under CNS and CIS also when one strictly does, since that member vetoes
    the other's leaving.  Rule (c), under core and strict core only, sets
    bit ``j`` of ``clash[i]`` and bit ``i`` of ``clash[j]`` when the two
    cannot both stay single: under core both would be strictly better off
    together, under strict core both weakly and one strictly.  Both rules
    need ``a <= 0`` or ``b <= 0``, so each player walks only the prefix of
    its ``order`` it ranks at or above being alone.
    """
    _, vetoes = _consent(concept)
    core = concept in (Concept.CORE, Concept.STRICT_CORE)
    weak = concept is Concept.STRICT_CORE
    profile = game.profile
    cand: list[list[int]] = [[] for _ in range(game.n + 1)]
    clash = [0] * (game.n + 1)
    for pl in profile:
        i, ranks, alone = pl.owner, pl.ranks, pl.self_rank
        for j in pl.order[: pl.num_acceptable]:
            pj = profile[j - 1]
            a = ranks[j] - alone
            b = pj.ranks.get(i, pj.bottom_rank) - pj.self_rank
            if b <= 0 and j < i:
                continue  # j accepts i too, so j's walk covers the pair
            if (a <= 0 and b <= 0) or (vetoes and (a < 0 or b < 0)):
                cand[min(i, j)].append(max(i, j))
            if core and ((a < 0 and b < 0) or (weak and a <= 0 and b <= 0 and a + b < 0)):
                clash[i] |= 1 << j
                clash[j] |= 1 << i
    for row in cand:
        row.sort()
    return cand, clash


def _target_table(
    game: Game, concept: Concept, cand: list[list[int]]
) -> tuple[list[dict[int, tuple[int, ...]]], list[int], list[list[tuple[int, int]]]]:
    """``targets[q][p]``: whom player ``q`` would move to when paired with ``p``.

    The tuple lists, best first, the moves that
    :func:`stablepairs.stability._move_targets` yields under a deviation
    concept when everyone but ``q`` and ``p`` is single, with going alone
    written as 0.  In any matching that pairs ``q`` with ``p``, q's move is
    the first of them that is single.  ``p`` ranges over ``q`` itself
    (single) and q's rule-(b) neighbours in ``cand``, the only partners a
    search leaf can give ``q``.  ``targets[0]`` maps 0 to no targets, so the
    table can be read along the whole partner list.

    Rule (e) reads the moves as bitmasks, bit ``t`` for target ``t``:
    ``alone[q]`` for q single, and ``branches[i]`` pairs each ``j`` in
    ``cand[i]`` with the pair's mask.  Set-up costs O(sum over q of
    (1 + deg_q) * len(order_q)).
    """
    need_target, need_left = _consent(concept)
    neighbours = [[q] for q in range(game.n + 1)]
    for i, row in enumerate(cand):
        for j in row:
            neighbours[i].append(j)
            neighbours[j].append(i)
    profile = game.profile
    targets: list[dict[int, tuple[int, ...]]] = [{0: ()}]
    alone = [0] * (game.n + 1)
    pair = [dict.fromkeys(row, 0) for row in cand]  # pair[i][j]: both members' masks
    # The matching that pairs q with p and leaves everyone else single.
    partner_of = list(range(1, game.n + 1))
    for pl in profile:
        q = pl.owner
        row: dict[int, tuple[int, ...]] = {}
        for p in neighbours[q]:
            partner_of[q - 1], partner_of[p - 1] = p, q
            mask = 0
            moves = []
            for t in _move_targets(profile, partner_of, pl, need_target, need_left):
                t = t if t != q else 0
                moves.append(t)
                mask |= 1 << t
            row[p] = tuple(moves)
            if p == q:
                alone[q] = mask
            elif q < p:
                pair[q][p] |= mask
            else:
                pair[p][q] |= mask
            partner_of[q - 1], partner_of[p - 1] = q, p
        targets.append(row)
    return targets, alone, [list(row.items()) for row in pair]


def _table_stable(targets: list[dict[int, tuple[int, ...]]], pi: list[int]) -> bool:
    """Whether no player has an open move; ``pi[q]`` is q's partner.

    A listed target ``t`` is open when single, ``pi[t] == t``; ``pi[0] == 0``
    makes going alone (target 0) always open.  The scan runs no Python loop
    per player and stops at the first open move, so one call costs at most
    O(n + targets read).
    """
    moves, again = tee(chain.from_iterable(map(dict.__getitem__, targets, pi)))
    return not any(map(eq, map(pi.__getitem__, moves), again))


def _earlier_twins(game: Game) -> list[int]:
    """``twin[j]``: the next lower id interchangeable with player ``j``, or 0.

    Two players are interchangeable when swapping their ids maps the game to
    itself: same side, equal self and bottom ranks, equal ranks of each
    other, and equal ranks given to and received from every other player.
    Swaps compose, so this is an equivalence relation.  Players are bucketed
    by a hash of necessary invariants (side, self and bottom rank, sorted
    row and column ranks), then checked against the class representatives in
    their bucket: expected O(n + L) time for ``L`` listed entries.
    """
    profile = game.profile
    men = game.num_men if game.kind == MARRIAGE else game.n
    listers = _listers(game)

    def swappable(r: int, j: int) -> bool:
        # Equal keys give rows of equal length and columns of equal length.
        # So once r's entries other than j recur in j's row, and everyone
        # else who lists r ranks j alike, the rows and columns agree outside
        # r and j, and the equal multisets make r and j rank each other alike.
        rr, rj = profile[r - 1].ranks, profile[j - 1].ranks
        if any(k != j and rj.get(k) != v for k, v in rr.items()):
            return False
        return all(
            k == j or profile[k - 1].ranks.get(j) == profile[k - 1].ranks[r]
            for k in listers[r]
        )

    twin = [0] * (game.n + 1)
    last: dict[int, int] = {}  # class representative -> highest member so far
    buckets: dict[tuple, list[int]] = {}
    for pl in profile:
        j = pl.owner
        key = (
            j <= men,
            pl.self_rank,
            pl.bottom_rank,
            tuple(sorted(pl.ranks.values())),
            tuple(sorted(profile[k - 1].ranks[j] for k in listers[j])),
        )
        reps = buckets.setdefault(key, [])
        for r in reps:
            if swappable(r, j):
                twin[j] = last[r]
                last[r] = j
                break
        else:
            reps.append(j)
            last[j] = j
    return twin


def _count_cache_cap(n: int) -> int:
    """Most entries the count cache of an ``n``-player search stores: keys
    of ``3(n + 1)`` bits, about 2 MiB of key bits in all."""
    return 2**24 // max(3 * (n + 1), 256)


def _run_search(
    game: Game,
    concept: Concept,
    stop_after: int | None = None,
    node_budget: int | None = None,
) -> tuple[Matching | None, int, bool]:
    """Depth-first enumeration of candidate matchings.

    The smallest undecided player takes each larger undecided candidate in
    ascending order, then goes alone; the first stable matching is the
    first in that order.  Returns ``(first stable matching or None, stable
    count, exhausted)``; ``exhausted`` is False when the search stopped
    early on ``stop_after`` or ``node_budget``.  Every visit to a search
    position counts as one node, leaves and count-cache hits included, so
    the budget counts the search as rules (b)-(e) and the cache reduce it.
    The recursion over players runs on an explicit stack, so the depth is
    not limited by the interpreter's.
    Rules (b) and (c) come from :func:`_prune_tables` in O(n + L) time and
    memory for ``L`` listed entries, and rule (e) and deviation-concept
    leaves from :func:`_target_table`; the loop reads no rank outside the
    core and strict-core leaf tests.  Rules (c) and (e) cost a branch O(1)
    operations on n-bit ints.
    """
    n = game.n
    # Each branch adds a mask of players who must not be single: alone[i]
    # when i goes alone, and a mask beside each j in branches[i] when i
    # takes j.  Rule (c) is the core case, with masks only for singles.
    cand, alone = _prune_tables(game, concept)
    ir = concept is Concept.IR
    targets = None
    if concept in DEVIATION_CONCEPTS:
        targets, alone, branches = _target_table(game, concept, cand)
    else:
        branches = [[(j, 0) for j in row] for row in cand]
    # Rule (d).  The undecided members of a class always form a suffix of
    # it, so j is the lowest one exactly when its earlier twin is decided.
    # Index 0 stands for "no earlier twin" and stays decided.
    twin = _earlier_twins(game) if stop_after == 1 else [0] * (n + 1)
    # The count cache maps a frontier key to the stable count below it (see
    # the module docstring).  reach[k] holds every target that a branch of a
    # player >= k tests against ``single``.  frame[k] holds the mask of the
    # players decided once frame k opened, its key, and the count on entry.
    memo = {} if stop_after is None and targets is not None else None
    if memo is not None:
        cap = _count_cache_cap(n)
        reach = [0] * (n + 2)
        for q in range(n, 0, -1):
            reach[q] = reach[q + 1] | alone[q]
            for _, mask in branches[q]:
                reach[q] |= mask
        frame: list = [(1, 0, 0)] * (n + 1)

    pi = list(range(n + 1))
    decided = [True] + [False] * n
    # Rules (c) and (e).  ``single`` has a bit per decided single and bit 0,
    # for going alone.  ``moves`` is the union of the masks of the decided
    # players' branches; every node keeps ``moves & single == 0``, so no
    # decided player has an open move.  ``base[i]`` is ``moves`` as frame i
    # found it, shared with the frame above while no branch changed it.
    single = 1
    moves = 0
    base = [0] * (n + 1)
    found: tuple[int, ...] | None = None
    count = 0
    left = node_budget  # nodes the budget still allows; only counted under a budget
    # A frame is owned by its branching player i: up[i] is the frame above
    # (0 above the root) and rest[i] iterates i's untried partners with
    # their pair masks.  j is the partner of the current frame's latest
    # branch, i itself when alone.
    i = j = 0
    untried = None
    up = [0] * (n + 1)
    rest: list = [None] * (n + 1)
    while True:
        # Visit the node below the current frame's latest branch.
        if left is not None:
            left -= 1
            if left < 0:
                break
        k = i + 1
        while k <= n and decided[k]:
            k += 1
        hit = None
        if memo is not None and k <= n:
            dec = frame[i][0] | 1 << j
            key = ((single & reach[k]) << n + 1 | moves & ~dec) << n + 1 | dec
            hit = memo.get(key)
        if k <= n and hit is None:
            decided[k] = True
            up[k] = i
            base[k] = moves
            i = k
            untried = rest[k] = iter(branches[k])
            if memo is not None:
                frame[k] = (dec | 1 << k, key, count)
        else:
            if hit is not None:
                count += hit
            elif targets is not None and not _table_stable(targets, pi):
                raise InternalCheckError("rule (e) kept a leaf with an open move")
            elif (
                targets is not None
                or ir
                or is_stable(game, Matching._trusted(tuple(pi[1:])), concept)
            ):
                count += 1
                if found is None:
                    found = tuple(pi[1:])
                if stop_after is not None and count >= stop_after:
                    break
            # Undo the branch that led to this leaf or cached subtree.
            if j != i:
                decided[j] = False
                pi[i] = i
                pi[j] = j
            else:
                single ^= 1 << i
        # Take the current frame's next branch: a partner, then alone.  A
        # frame done with its last branch (j == i) hands over to the frame
        # above, which first undoes its own latest branch.
        while True:
            while j == i:
                decided[i] = False
                if memo is not None and len(memo) < cap:
                    _, key, before = frame[i]
                    memo[key] = count - before
                i = up[i]
                if not i:
                    return (Matching(found) if found is not None else None), count, True
                untried = rest[i]
                j = pi[i]
                if j != i:
                    decided[j] = False
                    pi[i] = i
                    pi[j] = j
                else:
                    single ^= 1 << i
            for j, mask in untried:
                if not decided[j] and decided[twin[j]] and not mask & single:
                    decided[j] = True
                    pi[i] = j
                    pi[j] = i
                    moves = base[i] | mask
                    break
            else:
                j = i
                mask = base[i] | alone[i]
                bit = 1 << i
                if mask & (single | bit):
                    continue
                single |= bit
                moves = mask
            break
    return (Matching(found) if found is not None else None), count, False


def _count_matchings(cand: list[list[int]]) -> int:
    """The number of matchings whose pairs are ``i, j`` for ``j`` in ``cand[i]``.

    A forward dynamic program over players in id order, as the search
    decides them.  ``ways`` maps a set of later players that earlier players
    have already taken, as a bitmask, to the number of ways to reach it.
    Player ``i`` was taken (its bit is cleared), or goes alone, or takes an
    untaken ``j > i`` from ``cand[i]``; after the last player every bit is
    cleared.  Each set in a layer comes from at least one way of deciding
    the earlier players, and the search visits a distinct node for each such
    way, so no layer holds more sets than the search has nodes.  On a
    complete game a layer holds at most the subsets of the later players,
    far fewer than the matchings.
    """
    ways = {0: 1}
    for i in range(1, len(cand)):
        bit = 1 << i
        moves = [1 << j for j in cand[i]]
        after: dict[int, int] = {}
        get = after.get
        for taken, w in ways.items():
            if taken & bit:
                taken ^= bit
            else:
                for b in moves:
                    if not taken & b:
                        key = taken | b
                        after[key] = get(key, 0) + w
            after[taken] = get(taken, 0) + w
        ways = after
    return ways[0]


def brute_force(
    game: Game,
    concept: Concept,
    cap: int = 12,
    stop_after: int | None = None,
) -> tuple[Matching | None, int]:
    """First stable matching in enumeration order plus the total stable count.

    With ``stop_after`` the search stops once that many stable matchings have
    been seen, so the returned count is ``min(true count, stop_after)``.
    The full IR count comes from :func:`_count_matchings`, and its first
    matching from the existence search.  Refuses games with more than
    ``cap`` players.
    """
    if game.n > cap:
        raise PreconditionError(
            f"game has {game.n} players, above the brute-force cap {cap}"
        )
    if concept is Concept.IR and stop_after is None:
        # Every leaf is IR-stable: the first is the existence search's, and
        # the count is that of the rule-(b) graph's matchings.
        found, _, _ = _run_search(game, concept, stop_after=1)
        return found, _count_matchings(_prune_tables(game, concept)[0])
    found, count, _ = _run_search(game, concept, stop_after=stop_after)
    return found, count


def run_dynamics(
    game: Game, concept: Concept, initial: Matching, max_steps: int
) -> DynamicsTrace:
    """Iterate the deterministic deviation scheduler and watch for cycles.

    Stops at a stable matching, at the first repeated matching, or after
    ``max_steps`` deviations; the recorded witnesses replay exactly.
    """
    if concept not in DEVIATION_CONCEPTS:
        raise ValueError(f"{concept} is not a single-player deviation concept")
    if initial.n != game.n:
        raise ValueError("initial matching does not fit the game")
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    current = initial
    partner = list(initial.as_tuple())
    seen = {initial.as_tuple(): 0}
    steps: list[tuple[Matching, DeviationWitness]] = []
    for mover, target in _moves(game, concept, partner):
        if len(steps) >= max_steps:
            return DynamicsTrace(tuple(steps), "step-limit", current)
        witness = DeviationWitness(mover, None if target == mover else target, concept)
        steps.append((current, witness))
        key = tuple(partner)
        current = Matching._trusted(key)
        if key in seen:
            return DynamicsTrace(tuple(steps), "cycle", current, cycle_start=seen[key])
        seen[key] = len(steps)
    return DynamicsTrace(tuple(steps), "stable", current)

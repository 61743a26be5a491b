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
compiled ranks (``L`` listed entries): :func:`_search_tables` walks the
prefix of each list ranked at or above being alone.  The search keeps no
dense rank table, and its loop reads no rank outside the leaf test.

Under NS, IS, CNS and CIS a leaf is stable iff no player would move to a
single player or go alone.  The same walk packs into a bitmask, once per
search, each player's moves from each partner a leaf can give it, as
:func:`stablepairs.stability._move_targets` (the rule that
:func:`stablepairs.stability.find_deviation` applies) yields them with
everyone else single.  Below a node, decided players keep their partners, so
(e), forward checking (Haralick & Elliott, AI 14, 1980), drops a branch once
a decided player's mask has a decided single or going alone; rule (c) is its
two-singles case.  Every leaf reached is then stable, and
:func:`stablepairs.stability.is_stable`, the verifier that ``verify`` runs,
checks it there, so each concept keeps one definition; a failure is an
:class:`InternalCheckError`.  Core and strict core leaves are decided by the
same call: a block depends on the other player's partner, not only on who is
single.  Under IR, rule (b) admits only mutually acceptable pairs, and a
single player is always individually rational.  So every leaf is stable
(and still checked), and :func:`brute_force` counts IR matchings without
visiting them, by a dynamic program over the rule-(b) graph
(:func:`_count_matchings`).  Counting matchings is #P-complete in general
(Valiant, SIAM J. Comput. 1979), but its taken-player sets are far fewer
than the matchings.

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

Under NS, IS, CNS and CIS, :func:`brute_force` first counts the stable
matchings by :func:`_frontier_count`, a forward dynamic program over the
players (Knuth, TAOCP 4A, 7.1.4; Kawahara, Inoue, Iwashita & Minato, IEICE
Trans. Fundamentals E100-A, 2017).  It decides the players in an order of its
own and keeps layers, each mapping a state to the number of ways to reach it.
A state packs the later players already taken, ``moves`` on the undecided
players, and ``single`` on the decided players that a later branch tests;
masks are sets of player ids, so no order needs the game relabelled.  Nothing
else is read below a state: decided players keep their partners, a decided
single's bit of ``moves`` is clear, and rule (e) tests a branch only against
``single`` over its targets and the deciding player's own bit of ``moves``.
So equal states have equal counts below them.  The count does not depend on
the order: every order counts the matchings of the rule-(b) graph in which no
pair's or single's mask holds a single player or going alone, which are the
stable ones.  The order is greedy (:func:`_frontier_order`): link the members
of each rule-(b) pair, and each of them to every player in the pair's mask,
and each player to every player in its own single mask; then place the
player that adds the fewest players to the frontier.  The hardness gadgets
number their sides and fillers in blocks, so in id order the frontier holds
most of the game.

The program is linear in its starting states: the count from a layer is the
sum of the counts from the parts of any split of it.  So in count mode, once
the layer being written runs out of room, the unread rest of the layer being
read waits on a stack, and the count goes on from the part already built;
each remainder is later resumed at its own layer and its count added.  The
layer being read, the layer being written and the waiting remainders hold
about :func:`_frontier_cap` states together: the room is checked after each
state that branches, and each step reads at least one state, so the count
progresses even when one state's successors fill the room.  Existence mode
instead gives up once a layer passes the cap, and the search, which stops at
the first stable matching, runs as before; on a wide game a split count
could run far longer than that search.  A count of 0 answers NO without a
search; otherwise the existence search finds the first matching, and a
search that finds none is an :class:`InternalCheckError`.  IR keeps
:func:`_count_matchings`, this program's mask-free case, which runs about
twice as fast.
"""

from __future__ import annotations

import time
from collections import deque, namedtuple
from collections.abc import Iterator

from .errors import InternalCheckError, PreconditionError
from .graph_matching import _max_matching
from .matching import Matching
from .model import MARRIAGE, ROOMMATE, Game, has_no_unacceptability
from .stability import (
    Concept,
    DEVIATION_CONCEPTS,
    DeviationWitness,
    _blocks,
    _consent,
    _move_targets,
    find_violation,
    is_stable,
)


class SolverReport(namedtuple("SolverReport", "matching deviation_count elapsed")):
    """A solver's matching, the deviations it applied, and its wall time in seconds."""

    __slots__ = ()


class DynamicsTrace(
    namedtuple("DynamicsTrace", "steps outcome final cycle_start", defaults=(None,))
):
    """A better-response run: ``steps`` are the witnesses applied, in order,
    from the start.  ``outcome`` is ``"stable"``, ``"cycle"`` or
    ``"step-limit"``, and ``final`` the last matching.  ``cycle_start``
    indexes the first occurrence of the repeated matching when the outcome is
    ``"cycle"``."""

    __slots__ = ()


def _verified(game: Game, matching: Matching, *concepts: Concept) -> Matching:
    """``matching``, once :func:`find_violation` finds no witness under each concept."""
    for concept in concepts:
        witness = find_violation(game, matching, concept)
        if witness is not None:
            raise InternalCheckError(f"solver output is not {concept.name}-stable: {witness}")
    return matching


def _listers(game: Game) -> list[list[int]]:
    """``listers[j]``: the players whose lists name ``j``, ascending; O(n + L)."""
    listers: list[list[int]] = [[] for _ in range(game.n + 1)]
    for pl in game.profile:
        for j in pl.order:
            listers[j].append(pl.owner)
    return listers


def _moves(
    game: Game, concept: Concept, partner: list[int]
) -> Iterator[tuple[int, int, int]]:
    """Yield the deviation scheduler's moves, applying each to ``partner`` on resuming.

    ``partner[j - 1]`` is player ``j``'s partner.  A move ``(mover, old,
    target)`` is yielded before it is applied: ``old`` is the mover's
    partner, and ``target == mover`` means going alone.  One full
    :func:`_verified` scan confirms the end.
    """
    profile = game.profile
    need_target, need_left = _consent(concept)
    listers = _listers(game)
    # A clear flag means the player has no deviation.
    dirty = bytearray(1) + b"\x01" * game.n
    while (i := dirty.find(1)) > 0:
        target = next(_move_targets(profile, partner, profile[i - 1], need_target, need_left), None)
        if target is None:
            dirty[i] = 0
            continue
        old = partner[i - 1]
        yield i, old, target
        partner[old - 1] = old
        partner[i - 1] = target
        partner[target - 1] = i
        dirty[old] = dirty[target] = 1
        if old != i:
            # Whoever the move leaves single may now be some lister's target.
            for freed in (old, i) if target == i else (old,):
                for k in listers[freed]:
                    dirty[k] = 1
    _verified(game, Matching._trusted(tuple(partner)), concept)


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
    report = _better_response(game, Concept.CIS, n * (n - 1), "CIS deviation bound n(n-1)")
    _verified(game, report.matching, Concept.IR)
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
    acceptable players in (rank, id) order.  An acceptee holds the smallest
    (rank, id) offer, at first ``(self_rank, n + 1)``: being alone, just
    after its tie.  A displaced proposer proposes on.  Output is the
    proposer-optimal stable matching of the strict instance that breaks ties
    by lowest id and puts being alone just below the players tied with it,
    and admits no core block with respect to that instance.
    """
    if game.kind != MARRIAGE:
        raise PreconditionError("gale_shapley needs a marriage game")
    if proposers not in ("men", "women"):
        raise ValueError("proposers must be 'men' or 'women'")
    profile = game.profile
    n = game.n
    side = game.men if proposers == "men" else game.women
    wishlist = {p: iter(profile[p - 1].order[: profile[p - 1].num_acceptable]) for p in side}
    held = [(pl.self_rank, n + 1) for pl in profile]
    match = list(range(n + 2))  # match[n + 1] absorbs the write for an empty hold
    free = deque(side)
    while free:
        p = free.popleft()
        for q in wishlist[p]:
            pq = profile[q - 1]
            offer = (pq.ranks.get(p, pq.bottom_rank), p)
            if offer < held[q - 1]:
                cur = held[q - 1][1]
                held[q - 1] = offer
                match[cur] = cur
                match[p] = q
                match[q] = p
                if cur <= n:
                    free.append(cur)
                break
    return Matching(match[1:-1])


def compute_is_marriage(game: Game) -> Matching:
    """An individually stable (and IR) matching for any marriage game.

    Women-proposing deferred acceptance on the game as given: a partner
    tied with being alone counts as acceptable (:func:`gale_shapley`).  The
    result is verified against the same preferences; failure signals a bug,
    not bad input.
    """
    if game.kind != MARRIAGE:
        raise PreconditionError("compute_is_marriage needs a marriage game")
    return _verified(game, gale_shapley(game, proposers="women"), Concept.IR, Concept.IS)


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
    return _verified(game, compute_is_marriage(game), Concept.NS)


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
    if n % 2 == 0:
        return _verified(
            game, Matching(i + 1 if i % 2 else i - 1 for i in range(1, n + 1)), Concept.NS
        )
    profile = game.profile
    for single in game.players():
        # Complete lists rank everyone but the owner: every ranks lookup
        # below hits, and a limit of -1 gives ``single`` no edges.  Ascending
        # owners and neighbours keep each adjacency list sorted.
        limit = [0] + [pl.ranks.get(single, -1) for pl in profile]
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for j, pj in enumerate(profile, 1):
            for k in sorted(pj.up_to(limit[j])):
                if k > j and profile[k - 1].ranks[j] <= limit[k]:
                    adj[j].append(k)
                    adj[k].append(j)
        match = _max_matching(n, adj)
        if match.count(0) == 2:  # index 0 and ``single`` alone are unmatched
            match[single] = single
            return _verified(game, Matching(match[1:]), Concept.NS)
    return None


def _search_tables(game: Game, concept: Concept) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """``(branches, alone)``: rules (b), (c) and (e), from one walk of the lists.

    For a pair ``i, j`` let ``a`` and ``b`` be each member's rank of the
    other minus its own self rank.  Rule (b) keeps the pair as ``(j, mask)``
    in ``branches[i]`` (``i < j``, ascending) when both weakly prefer it to
    being alone, and under CNS and CIS also when one strictly does, since
    that member vetoes the other's leaving.  Rule (c), under core and strict
    core, sets bit ``j`` of ``alone[i]`` and bit ``i`` of ``alone[j]`` when
    the two would block together.  Both rules need ``a <= 0`` or ``b <= 0``,
    so each player walks only the prefix of its ``order`` it ranks at or
    above being alone.

    Under a deviation concept, rule (e) reads as a bitmask the moves
    :func:`stablepairs.stability._move_targets` yields for ``q`` paired with
    ``p`` (``q`` itself when single, or a rule-(b) neighbour) when everyone
    else is single: bit ``t`` for target ``t``, bit 0 for going alone.  In
    any matching that pairs them, q has a move iff one of those bits is a
    single player or 0.  ``alone[q]`` holds q's mask when single, and a
    pair's mask is the OR of both members'.  Each mask adds O(len(order_q))
    to the walk.  Under every other concept every pair's mask is 0.
    """
    need_target, vetoes = _consent(concept)
    core = concept in (Concept.CORE, Concept.STRICT_CORE)
    strict = concept is Concept.STRICT_CORE
    profile = game.profile
    branches: list[list[tuple[int, int]]] = [[] for _ in range(game.n + 1)]
    alone = [0] * (game.n + 1)
    deviation = concept in DEVIATION_CONCEPTS
    # The matching that pairs q with p and leaves everyone else single.
    partner_of = list(range(1, game.n + 1)) if deviation else []

    def moves_of(q: int, p: int) -> int:
        """The mask of q's moves when paired with p."""
        partner_of[q - 1], partner_of[p - 1] = p, q
        mask = 0
        for t in _move_targets(profile, partner_of, profile[q - 1], need_target, vetoes):
            mask |= 1 << (t if t != q else 0)
        partner_of[q - 1], partner_of[p - 1] = q, p
        return mask

    for pl in profile:
        i, ranks, self_rank = pl.owner, pl.ranks, pl.self_rank
        if deviation:
            alone[i] = moves_of(i, i)
        for j in pl.order[: pl.num_acceptable]:
            pj = profile[j - 1]
            a = ranks[j] - self_rank  # <= 0 along the prefix
            b = pj.ranks.get(i, pj.bottom_rank) - pj.self_rank
            if b <= 0 and j < i:
                continue  # j accepts i too, so j's walk covers the pair
            if b <= 0 or (vetoes and a < 0):
                mask = moves_of(i, j) | moves_of(j, i) if deviation else 0
                branches[min(i, j)].append((max(i, j), mask))
            if core and _blocks(a, b, strict):
                alone[i] |= 1 << j
                alone[j] |= 1 << i
    for row in branches:
        row.sort()
    return branches, alone


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
    position counts as one node, leaves included, so the budget counts the
    search as rules (b)-(e) reduce it.
    The recursion over players runs on an explicit stack, so the depth is
    not limited by the interpreter's.
    """
    n = game.n
    # Each branch adds a mask of players who must not be single: alone[i]
    # when i goes alone, and a mask beside each j in branches[i] when i
    # takes j.  Rule (c) is the core case, with masks only for singles.
    branches, alone = _search_tables(game, concept)
    # Rule (d).  The undecided members of a class always form a suffix of
    # it, so j is the lowest one exactly when its earlier twin is decided.
    # Index 0 stands for "no earlier twin" and, like every index up to the
    # branching player, counts as decided.
    # Not under IR: every leaf is stable there, so the first descent ends the search.
    twin = _earlier_twins(game) if stop_after == 1 and concept is not Concept.IR else [0] * (n + 1)
    # ``pi[q]`` is q's partner, q itself while single or undecided.  The
    # decided players are those up to the current frame's player i, which
    # took them in id order, and the later players they took: only frame
    # players go alone, so a player k > i is decided exactly when
    # ``pi[k] != k``.  ``pi[n + 1]`` stays n + 1, so the scan for the next
    # undecided player stops there without a bound check.
    pi = list(range(n + 2))
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
    # branch, i itself when alone, and 0 before its first branch.
    i = j = 0
    up = [0] * (n + 1)
    rest: list = [None] * (n + 1)
    while True:
        # Visit the node below the current frame's latest branch.
        if left is not None:
            left -= 1
            if left < 0:
                break
        k = i + 1
        while pi[k] != k:
            k += 1
        if k <= n:
            up[k] = i
            base[k] = moves
            rest[k] = iter(branches[k])
            i, j = k, 0
        elif is_stable(game, Matching._trusted(tuple(pi[1:-1])), concept):
            count += 1
            if found is None:
                found = tuple(pi[1:-1])
            if stop_after is not None and count >= stop_after:
                break
        elif concept not in (Concept.CORE, Concept.STRICT_CORE):
            raise InternalCheckError(f"the search kept a leaf that is not {concept.name}-stable")
        # Undo frame i's latest branch, the only undo (after the visit opened
        # frame i, j == 0 and the writes change nothing), and take its next
        # branch: a partner, then alone.  A frame whose alone branch, the
        # last, is undone or was pruned (so never taken) hands over to the
        # frame above, whose latest branch is undone next.
        while True:
            if j == i:
                single ^= 1 << i
            else:
                pi[i] = i
                pi[j] = j
                for j, mask in rest[i]:
                    if pi[j] == j and ((t := twin[j]) <= i or pi[t] != t) and not mask & single:
                        pi[i] = j
                        pi[j] = i
                        moves = base[i] | mask
                        break
                else:
                    j = i
                    mask = base[i] | alone[i]
                    bit = 1 << i
                    if not mask & (single | bit):
                        single |= bit
                        moves = mask
                        break
                if j != i:
                    break
            i = up[i]
            if not i:
                return (Matching(found) if found is not None else None), count, True
            j = pi[i]
    return (Matching(found) if found is not None else None), count, False


def _count_matchings(branches: list[list[tuple[int, int]]]) -> int:
    """The number of matchings whose pairs are ``i, j`` for ``(j, _)`` in ``branches[i]``.

    A forward dynamic program over players in id order, as the search
    decides them.  ``ways`` maps a set of later players that earlier players
    have already taken, as a bitmask, to the number of ways to reach it.
    Player ``i`` was taken (its bit is cleared), or goes alone, or takes an
    untaken ``j > i`` from ``branches[i]``; after the last player every bit is
    cleared.  Each set in a layer comes from at least one way of deciding
    the earlier players, and the search visits a distinct node for each such
    way, so no layer holds more sets than the search has nodes.  On a
    complete game a layer holds at most the subsets of the later players,
    far fewer than the matchings.
    """
    ways = {0: 1}
    for i in range(1, len(branches)):
        bit = 1 << i
        moves = [1 << j for j, _ in branches[i]]
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


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _frontier_order(n: int, pairs: list[tuple[int, int, int]], alone: list[int]) -> list[int]:
    """Players ``1..n`` in greedy low-frontier order.

    Players are linked when they form one of ``pairs`` ``(i, j, mask)``,
    and each is linked to every player in ``mask`` and in its own ``alone``
    mask.  A player joins the frontier when it or a player it is linked to
    is placed.  Each step places the unplaced player that adds the fewest
    players to the frontier, ties by lowest id.  A score only falls, once
    per linked player that joins, so this takes O(n + E) steps for ``E``
    links, each a few operations on an ``n``-bit int.
    """
    links: list[set[int]] = [set() for _ in range(n + 1)]
    for i, j, mask in pairs:
        links[i].add(j)
        links[j].add(i)
        for t in _bits(mask):
            links[t].update((i, j))
            links[i].add(t)
            links[j].add(t)
    for i, mask in enumerate(alone):
        for t in _bits(mask):
            links[t].add(i)
            links[i].add(t)
    # bucket[s] holds the unplaced players of score s as a bitmask, so its
    # lowest bit is the next player at that score.
    score = [1 + len(near) for near in links]
    bucket = [0] * (max(score) + 1)
    for v in range(1, n + 1):
        bucket[score[v]] |= 1 << v
    # Bit 0 of a mask, going alone, is no player: it counts as placed.
    placed = [True] + [False] * n
    joined = [True] + [False] * n
    order = []
    lo = 0
    for _ in range(n):
        while not bucket[lo]:
            lo += 1
        low = bucket[lo] & -bucket[lo]
        bucket[lo] ^= low
        v = low.bit_length() - 1
        placed[v] = True
        order.append(v)
        for u in (v, *links[v]):
            if joined[u]:
                continue
            joined[u] = True
            # u no longer adds itself to its own score or its neighbours'.
            for w in (u, *links[u]):
                if not placed[w]:
                    bit = 1 << w
                    bucket[score[w]] ^= bit
                    score[w] -= 1
                    bucket[score[w]] |= bit
                    lo = min(lo, score[w])
    return order


def _frontier_cap(n: int) -> int:
    """The room of the frontier count of an ``n``-player game, in states.

    In count mode it is the room for the layers and remainders held at
    once, checked after each state that branches; on a dense 19-player game
    they peak at 43,814 states and grow the peak RSS by about 4.4 MiB.  In
    existence mode it bounds each layer, so the ``n`` layers of a count
    that gives up held at most 2**22 states.  Up to 100 players the cap is
    41,943 states: more than the 40,096 in the widest layer of any IS
    gadget built on a graph of at most three edges, so no existence count
    of those gives up.
    """
    return 2**22 // max(n, 100)


def _frontier_count(game: Game, concept: Concept, cap: int, split: bool) -> int | None:
    """The number of stable matchings under NS, IS, CNS or CIS.

    A forward dynamic program over the players, taken in
    :func:`_frontier_order`; see the module docstring.  In count mode
    (``split``) the layers, and the remainders waiting, hold about ``cap``
    states at once.  Otherwise the result is None once a layer would hold
    more than ``cap`` states.
    """
    n = game.n
    branches, alone = _search_tables(game, concept)
    pairs = [(i, j, mask) for i, row in enumerate(branches) for j, mask in row]
    order = _frontier_order(n, pairs, alone)
    # A pair is decided by whichever member comes first.
    pos = [0] * (n + 1)
    for t, p in enumerate(order):
        pos[p] = t
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for i, j, mask in pairs:
        if pos[i] < pos[j]:
            rows[i].append((j, mask))
        else:
            rows[j].append((i, mask))
    # reach[t]: every player a branch at position t or later tests as single.
    reach = [0] * (n + 1)
    for t in range(n - 1, -1, -1):
        p = order[t]
        reach[t] = reach[t + 1] | alone[p]
        for _, mask in rows[p]:
            reach[t] |= mask
    # A state packs ``taken | single & reach`` below bit n + 1 and ``moves``
    # above it.  ``taken`` and ``moves`` lie within ``later``, the players
    # after the current one, and ``single`` outside it; as in the search,
    # ``single`` always holds bit 0, going alone.
    shift = n + 1
    low_mask = (1 << shift) - 1
    # The layers still to count from, each with its position and ``later``:
    # at first the whole game, then the unread rest of each split layer.
    waiting = [(0, low_mask ^ 1, {1: 1})]
    held = 1  # the states waiting
    total = 0
    while waiting:
        start, later, ways = waiting.pop()
        held -= len(ways)
        for t in range(start, n):
            p = order[t]
            bit = 1 << p
            done = low_mask ^ later
            later ^= bit
            keep = later | reach[t + 1] | 1
            passed = keep | low_mask << shift  # a taken player's step keeps ``moves``
            # A branch to q is blocked by q's bit, taken, or a single it tests.
            options = [(1 << q, 1 << q | mask & done, mask & later) for q, mask in rows[p]]
            solo = alone[p]
            solo_tested = solo & done
            room = cap - held - len(ways) if split else cap
            after: dict[int, int] = {}
            get = after.get
            items = iter(ways.items())
            for key, w in items:
                low = key & low_mask
                if low & bit:  # taken by an earlier player
                    key = (key ^ bit) & passed
                    after[key] = get(key, 0) + w
                    continue
                moves = key >> shift
                if not (moves & bit or low & solo_tested):
                    key = (low | bit) & keep | ((moves | solo) & later & ~low) << shift
                    after[key] = get(key, 0) + w
                moves &= later
                for mate, blocked, ahead in options:
                    if not low & blocked:
                        low2 = low | mate
                        key = low2 & keep | ((moves | ahead) & ~low2) << shift
                        after[key] = get(key, 0) + w
                if len(after) > room:
                    if not split:
                        return None
                    # The count is linear in the layer's states: count from
                    # the part read now, and from the rest later.
                    rest = dict(items)
                    if rest:
                        waiting.append((t, later | bit, rest))
                        held += len(rest)
                    break
            ways = after
        total += ways.get(1, 0)
    return total


def brute_force(
    game: Game,
    concept: Concept,
    cap: int = 12,
    stop_after: int | None = None,
) -> tuple[Matching | None, int]:
    """First stable matching in enumeration order plus the total stable count.

    With ``stop_after`` the search stops once that many stable matchings have
    been seen, so the returned count is ``min(true count, stop_after)``.
    Refuses games with more than ``cap`` players.  Under NS, IS, CNS and CIS
    the count comes from :func:`_frontier_count`, and the search runs only
    to find the first matching.  With ``stop_after`` a count that passes its
    cap gives up, and the search runs as under the other concepts.
    """
    if game.n > cap:
        raise PreconditionError(
            f"game has {game.n} players, above the brute-force cap {cap}"
        )
    if stop_after is not None and stop_after < 1:
        raise PreconditionError(f"stop_after must be at least 1, got {stop_after}")
    if concept is Concept.IR and stop_after is None:
        # Every leaf is IR-stable: the first is the existence search's, and
        # the count is that of the rule-(b) graph's matchings.
        found, _, _ = _run_search(game, concept, stop_after=1)
        return found, _count_matchings(_search_tables(game, concept)[0])
    if concept in DEVIATION_CONCEPTS:
        count = _frontier_count(game, concept, _frontier_cap(game.n), stop_after is None)
        if count == 0:
            return None, 0
        if count is not None:
            found, _, _ = _run_search(game, concept, stop_after=1)
            if found is None:
                raise InternalCheckError(
                    f"the frontier count is {count} but the search finds no"
                    f" {concept.name}-stable matching"
                )
            return found, count if stop_after is None else min(count, stop_after)
    found, count, _ = _run_search(game, concept, stop_after=stop_after)
    return found, count


def _zobrist(player: int, partner: int) -> int:
    """The key of ``player`` paired with ``partner`` (itself when single)."""
    return hash((player, partner))


def run_dynamics(
    game: Game, concept: Concept, initial: Matching, max_steps: int
) -> DynamicsTrace:
    """Iterate the deterministic deviation scheduler and watch for cycles.

    Stops at a stable matching, at the first repeated matching, or after
    ``max_steps`` deviations; the recorded witnesses replay exactly.  Memory
    is O(n + steps): per step, a witness and a Zobrist hash of the matching
    (Zobrist 1970), updated in O(1) per move.  A repeated hash is confirmed
    by replaying from ``initial``, so no collision fakes or hides a cycle.
    """
    if concept not in DEVIATION_CONCEPTS:
        raise ValueError(f"{concept} is not a single-player deviation concept")
    if initial.n != game.n:
        raise ValueError("initial matching does not fit the game")
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    partner = list(initial.as_tuple())
    code = 0  # the hash of the current matching, XOR that of ``initial``
    seen: set[int] = set()
    witnesses: list[DeviationWitness] = []
    for mover, old, target in _moves(game, concept, partner):
        if code in seen:
            now, replay = Matching._trusted(tuple(partner)), initial
            for t, witness in enumerate(witnesses):
                if replay == now:
                    return DynamicsTrace(tuple(witnesses), "cycle", now, t)
                replay = replay.with_move(witness.mover, witness.target)
        seen.add(code)
        if len(witnesses) >= max_steps:
            return DynamicsTrace(tuple(witnesses), "step-limit", Matching._trusted(tuple(partner)))
        witnesses.append(DeviationWitness(mover, None if target == mover else target, concept))
        # The players the move changes, with their partners after it.
        for player, mate in {old: old, target: mover, mover: target}.items():
            code ^= _zobrist(player, partner[player - 1]) ^ _zobrist(player, mate)
    return DynamicsTrace(tuple(witnesses), "stable", Matching._trusted(tuple(partner)))

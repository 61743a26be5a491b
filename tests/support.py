"""Shared helpers and independent oracles for the test suite.

Oracles here deliberately avoid the library's optimized code paths: matching
counts come from the involution recurrence, maximum matchings from plain
exhaustive search, stability counts from filtering this module's own
unrestricted enumeration of matchings through the definitional verifiers,
maximality from a direct edge scan, subdivisions from their definition,
better-response dynamics from a full verifier scan after every move, and
preference ranks, acceptability and printed instances from the public tier
fields alone.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Sequence

from stablepairs import (
    Concept,
    DynamicsTrace,
    Game,
    GenParams,
    Graph,
    Matching,
    PreferenceList,
    ReductionArtifact,
    find_deviation,
    parse_instance,
    random_game,
)
from stablepairs.solvers import _run_search

CYCLIC3 = "roommate 3\n1: 2 3\n2: 3 1\n3: 1 2\n"


def involution_count(n: int) -> int:
    """I(n) = I(n-1) + (n-1) * I(n-2), computed directly."""
    a, b = 1, 1  # I(0), I(1)
    if n == 0:
        return a
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


def definitional_rank(pl: PreferenceList, j: int) -> int:
    """Rank of player ``j`` for ``pl``, read off ``tiers``/``self_tier``/``self_tied``.

    Slots are the tiers in order, best first; the owner's singleton is tied
    into ``tiers[self_tier]`` when ``self_tied``, and otherwise is a slot of
    its own just before it.  Every unlisted player ranks one past the last
    slot.
    """
    tiers, s, tied = pl.tiers, pl.self_tier, pl.self_tied
    if j == pl.owner:
        return s
    for t, tier in enumerate(tiers):
        if j in tier:
            return t if tied or t < s else t + 1
    return len(tiers) + (0 if tied else 1)


def definitional_accepts(pl: PreferenceList, j: int) -> bool:
    return definitional_rank(pl, j) <= definitional_rank(pl, pl.owner)


def definitional_mutual(game: Game) -> bool:
    """True iff acceptability is symmetric between every pair of players."""
    players = game.players()
    return all(
        definitional_accepts(game.prefs(i), j) == definitional_accepts(game.prefs(j), i)
        for i in players
        for j in players
    )


def pairs_of(m: Matching) -> list[tuple[int, int]]:
    """The matching's pairs, ordered by their smaller member."""
    return [cell for cell in m.cells() if len(cell) == 2]


def singles_of(m: Matching) -> list[int]:
    """The matching's single players, ascending."""
    return [cell[0] for cell in m.cells() if len(cell) == 1]


def enumerate_matchings(n: int) -> Iterator[Matching]:
    """Yield every partition of ``1..n`` into pairs and singletons exactly once.

    Order: the smallest undecided player is paired with each larger
    undecided player in ascending order first, then left single, and the
    rest is enumerated the same way.  The number of results is the
    involution number I(n) with ``I(n) = I(n-1) + (n-1) * I(n-2)``.
    """
    partner = list(range(n + 1))

    def rec(undecided: list[int]) -> Iterator[Matching]:
        if not undecided:
            yield Matching(partner[1:])
            return
        i, rest = undecided[0], undecided[1:]
        for k, j in enumerate(rest):
            partner[i], partner[j] = j, i
            yield from rec(rest[:k] + rest[k + 1 :])
            partner[i], partner[j] = i, j
        yield from rec(rest)

    yield from rec(list(range(1, n + 1)))


def is_maximal_matching(g: Graph, m: Iterable[tuple[int, int]]) -> bool:
    """True iff ``m`` is a matching of ``g`` to which no edge can be added."""
    covered: set[int] = set()
    for u, v in {(min(u, v), max(u, v)) for u, v in m}:
        if (u, v) not in g.edges:
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        if u in covered or v in covered:
            raise ValueError("edge set is not a matching")
        covered.update((u, v))
    return all(u in covered or v in covered for u, v in g.edges)


def search_status(
    game: Game, concept: Concept, node_budget: int | None = None
) -> tuple[str, Matching | None]:
    """Existence-only search: ``("found", matching)``, ``("none", None)``
    after exhausting the space, or ``("budget", None)`` when ``node_budget``
    ran out undecided."""
    found, _, exhausted = _run_search(game, concept, stop_after=1, node_budget=node_budget)
    if found is not None:
        return "found", found
    return ("none" if exhausted else "budget"), None


def random_matching(n: int, rng: random.Random) -> Matching:
    """A random partition into pairs and singletons (no game constraints)."""
    players = list(range(1, n + 1))
    rng.shuffle(players)
    partner = list(range(n + 1))
    while len(players) >= 2:
        i = players.pop()
        if rng.random() < 0.7:
            j = players.pop()
            partner[i] = j
            partner[j] = i
    return Matching(partner[1:])


def definitional_move(
    game: Game, partner_of: tuple[int, ...], i: int, concept: Concept
) -> int | None:
    """Player ``i``'s best profitable consented move, read off the definitions.

    Returns the single player ``i`` would join, ``i`` itself for going alone,
    or ``None``.  Moves rank by ``i``'s preference; among equally ranked
    ones the lowest target id wins, and going alone comes last.
    """
    profile = game.profile

    def rank(a: int, b: int) -> int:
        return definitional_rank(profile[a - 1], b)

    partner = partner_of[i - 1]
    current = rank(i, partner)
    if concept in (Concept.CNS, Concept.CIS) and partner != i:
        if rank(partner, i) < rank(partner, partner):
            return None  # the abandoned partner would be worse off
    moves = []
    if partner != i and rank(i, i) < current:
        moves.append((rank(i, i), 1, i))
    for j in game.players():
        if j == i or partner_of[j - 1] != j or rank(i, j) >= current:
            continue
        if concept in (Concept.IS, Concept.CIS) and rank(j, i) > rank(j, j):
            continue  # the joined player would be worse off
        moves.append((rank(i, j), 0, j))
    return min(moves)[2] if moves else None


def random_listed_game(rng: random.Random) -> Game:
    """A small game whose lists put ``self`` anywhere, tied or not.

    ``random_game`` always lists ``self`` last, so it never lists a player
    below being alone; this draws acceptability 0.2-1 and any tie rate.
    """
    marriage = rng.random() < 0.5
    if marriage:
        men, women = rng.randint(0, 4), rng.randint(0, 4)
        n = men + women
        header = f"marriage {men} {women}"
    else:
        n = rng.randint(0, 8)
        header = f"roommate {n}"
    accept, tie = 0.2 + 0.8 * rng.random(), rng.random()
    lines = [header]
    for i in range(1, n + 1):
        if marriage:
            others = [j for j in range(1, n + 1) if (j <= men) != (i <= men)]
        else:
            others = [j for j in range(1, n + 1) if j != i]
        entries = [str(j) for j in others if rng.random() < accept]
        rng.shuffle(entries)
        entries.insert(rng.randint(0, len(entries)), "self")
        tiers: list[list[str]] = []
        for e in entries:
            if tiers and rng.random() < tie:
                tiers[-1].append(e)
            else:
                tiers.append([e])
        text = " ".join(t[0] if len(t) == 1 else "( " + " ".join(t) + " )" for t in tiers)
        lines.append(f"{i}: {text}")
    return parse_instance("\n".join(lines) + "\n")


def printed_instance(game: Game) -> str:
    """The instance text of ``game``, built from ``tiers``/``self_tier``/``self_tied`` alone.

    One entry per tier, a bare id or ``( ... )`` with ids ascending.  ``self``
    joins ``tiers[self_tier]`` when ``self_tied``, and otherwise stands just
    before it, or is left out when no tier follows it.
    """
    if game.is_marriage:
        lines = [f"marriage {game.num_men} {game.num_women}"]
    else:
        lines = [f"roommate {game.n}"]
    for pl in game.profile:
        entries = []
        for t, tier in enumerate(pl.tiers):
            names = [str(j) for j in sorted(tier)]
            if t == pl.self_tier:
                if pl.self_tied:
                    names.append("self")
                else:
                    entries.append("self")
            entries.append(names[0] if len(names) == 1 else "( " + " ".join(names) + " )")
        lines.append(" ".join([f"{pl.owner}:", *entries]))
    return "\n".join(lines) + "\n"


def definitional_checker(game: Game, concept: Concept) -> Callable[[Matching], bool]:
    """Whether a matching of ``game`` is ``concept``-stable, read off the definitions.

    Ranks come from :func:`definitional_rank`, tabulated once per call.
    NS, IS, CNS, CIS: no player gains by going alone or by joining a single
    player; under IS and CIS that player must not become worse off, and
    under CNS and CIS an abandoned partner who would become worse off
    vetoes every move of the mover, going alone included.  IR: no player
    ranks being alone above its coalition.  Core and strict core: no such
    player blocks alone, and no two players both prefer each other to
    their coalitions, strictly (core) or weakly and one strictly (strict
    core).  Every player ranks an unlisted player below being alone, so a
    same-side pair of a marriage game never blocks and no move joins one.
    """
    n = game.n
    players = game.players()
    rank = [[0] * (n + 1)]  # row 0 pads the table so that rank[i][j] is i's rank of j
    rank += [[definitional_rank(pl, j) for j in range(n + 1)] for pl in game.profile]
    deviation = concept in (Concept.NS, Concept.IS, Concept.CNS, Concept.CIS)
    need_target = concept in (Concept.IS, Concept.CIS)
    need_left = concept in (Concept.CNS, Concept.CIS)

    def pair_blocks(a: int, b: int) -> bool:
        """Whether two players block together; ``a`` and ``b`` are each one's
        rank of the other minus its rank of its coalition."""
        if concept is Concept.CORE:
            return a < 0 and b < 0
        return concept is Concept.STRICT_CORE and a <= 0 and b <= 0 and a + b < 0

    def stable(m: Matching) -> bool:
        partner = (0, *m.as_tuple())
        cur = [rank[i][partner[i]] for i in range(n + 1)]
        for i in players:
            left = partner[i]
            if need_left and rank[left][i] < rank[left][left]:
                continue  # the abandoned partner vetoes every move of i
            if rank[i][i] < cur[i]:
                return False  # i would go alone, or blocks alone
            for j in players:
                if deviation:
                    if j != i and partner[j] == j and rank[i][j] < cur[i]:
                        if not (need_target and rank[j][i] > rank[j][j]):
                            return False
                elif j > i and pair_blocks(rank[i][j] - cur[i], rank[j][i] - cur[j]):
                    return False
        return True

    return stable


def naive_stable_count(
    game: Game, concept: Concept, matchings: Iterable[Matching] | None = None
) -> tuple[Matching | None, int]:
    """Filter the full unrestricted enumeration through :func:`definitional_checker`.

    ``matchings``, when given, is that enumeration, listed once for a game
    checked under several concepts."""
    stable = definitional_checker(game, concept)
    first = None
    count = 0
    for m in enumerate_matchings(game.n) if matchings is None else matchings:
        if stable(m):
            count += 1
            if first is None:
                first = m
    return first, count


def relabelled(game: Game, new_id: Sequence[int], num_men: int | None = None) -> Game:
    """``game`` with each player ``i`` renamed ``new_id[i]`` (``new_id[0]`` is unused).

    ``new_id`` permutes ``1..n``.  In a marriage game it keeps each side
    together: it permutes players within sides, or swaps the sides, and then
    ``num_men`` is the old ``num_women``.  Each list keeps its ranks and is
    built directly by ``PreferenceList._compiled``, ordered by (rank, new id).
    """
    profile = {}
    for pl in game.profile:
        ranks = {new_id[j]: r for j, r in pl.ranks.items()}
        order = tuple(sorted(ranks, key=lambda j: (ranks[j], j)))
        owner = new_id[pl.owner]
        profile[owner] = PreferenceList._compiled(owner, order, ranks, pl.self_rank)
    lists = tuple(profile[i] for i in game.players())
    return Game(game.n, lists, game.kind, game.num_men if num_men is None else num_men)


def full_scan_dynamics(
    game: Game, concept: Concept, start: Matching, max_steps: int
) -> DynamicsTrace:
    """Better-response dynamics that rescan every player after every move and
    keep every matching visited; the trace holds the witnesses only."""
    current = start
    seen = {start: 0}
    steps = []
    while True:
        witness = find_deviation(game, current, concept)
        if witness is None:
            return DynamicsTrace(tuple(steps), "stable", current)
        if len(steps) >= max_steps:
            return DynamicsTrace(tuple(steps), "step-limit", current)
        steps.append(witness)
        current = current.with_move(witness.mover, witness.target)
        if current in seen:
            return DynamicsTrace(tuple(steps), "cycle", current, cycle_start=seen[current])
        seen[current] = len(steps)


def replay_dynamics(start: Matching, trace: DynamicsTrace) -> list[Matching]:
    """The matchings at times ``0..len(trace.steps)``, replayed from ``start``
    by :meth:`Matching.with_move`."""
    visited = [start]
    for witness in trace.steps:
        visited.append(visited[-1].with_move(witness.mover, witness.target))
    return visited


def exhaustive_max_matching_size(g: Graph) -> int:
    """Maximum matching size by branching on the lowest uncovered vertex."""
    adj = g.adjacency()

    def best(v: int, used: set[int]) -> int:
        while v <= g.n and v in used:
            v += 1
        if v > g.n:
            return 0
        skip = best(v + 1, used)
        used.add(v)
        take = 0
        for u in adj[v]:
            if u not in used:
                used.add(u)
                take = max(take, 1 + best(v + 1, used))
                used.remove(u)
        used.remove(v)
        return max(skip, take)

    return best(1, set())


def random_graph(n: int, edge_prob: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < edge_prob
    ]
    return Graph.build(n, edges)


def subdivision(g0: Graph) -> Graph:
    """Reference subdivision: each edge of ``g0`` becomes a path of two
    edges through a fresh vertex, numbered after ``g0``'s vertices."""
    edges = []
    for mid, (u, v) in enumerate(sorted(g0.edges), g0.n + 1):
        edges += [(u, mid), (v, mid)]
    return Graph.build(g0.n + len(g0.edges), edges)


def reduction_sides(artifact: ReductionArtifact) -> tuple[list[int], list[int]]:
    """The graph vertices of a reduction's A-role and B-role players."""
    roles = artifact.roles.values()
    return (
        [role.vertex for role in roles if role.kind == "A"],
        [role.vertex for role in roles if role.kind == "B"],
    )


def random_roommate(seed: int, max_n: int = 8, **kwargs) -> Game:
    rng = random.Random(seed * 7919 + 13)
    params = GenParams(
        kind="roommate",
        n=rng.randint(1, max_n),
        tie_probability=kwargs.pop("tie_probability", 0.3),
        acceptability_probability=kwargs.pop("acceptability_probability", 0.6),
        seed=seed,
        **kwargs,
    )
    return random_game(params)


def random_marriage(seed: int, max_side: int = 8, **kwargs) -> Game:
    rng = random.Random(seed * 104729 + 7)
    params = GenParams(
        kind="marriage",
        n_men=rng.randint(1, max_side),
        n_women=rng.randint(1, max_side),
        tie_probability=kwargs.pop("tie_probability", 0.3),
        acceptability_probability=kwargs.pop("acceptability_probability", 0.6),
        seed=seed,
        **kwargs,
    )
    return random_game(params)


#: Every graph with at most 3 edges and no isolated vertices, up to
#: isomorphism, plus the empty graph.
SMALL_GRAPHS: dict[str, Graph] = {
    "empty": Graph.build(0, []),
    "K2": Graph.build(2, [(1, 2)]),
    "P3": Graph.build(3, [(1, 2), (2, 3)]),
    "2K2": Graph.build(4, [(1, 2), (3, 4)]),
    "C3": Graph.build(3, [(1, 2), (2, 3), (1, 3)]),
    "P4": Graph.build(4, [(1, 2), (2, 3), (3, 4)]),
    "K13": Graph.build(4, [(1, 2), (1, 3), (1, 4)]),
    "P3+K2": Graph.build(5, [(1, 2), (2, 3), (4, 5)]),
    "3K2": Graph.build(6, [(1, 2), (3, 4), (5, 6)]),
}

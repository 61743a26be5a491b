"""Game instances whose stable matchings encode minimum-maximal-matching bounds.

Both constructions take a graph ``g0`` and an integer ``k``, subdivide and
pad ``g0`` into a balanced bipartite graph with sides of size ``n``, and emit
a game whose stability question answers "does the padded subdivision have a
maximal matching of size at most ``k``?":

* the marriage construction has a Nash stable matching iff the answer is yes;
* the roommate construction has an individually stable matching iff the
  answer is yes.

The padded subdivision of ``g0`` with ``e`` edges is numbered as follows:
``g0``'s vertices keep ids ``1..g0.n`` and form the A side; the t-th edge of
``g0`` in sorted order becomes B vertex ``g0.n + t``, joined to both its
ends.  Then come ``r = |g0.n - e|`` anchors and ``2r`` stubs, anchor t joined
to stubs ``2t - 1`` and ``2t``; the anchors join the larger side and the
stubs the smaller one, so both sides have ``n = max(g0.n, e) + r`` vertices.
Every maximal matching uses exactly one stub edge per anchor, so padding
shifts minimum maximal matching sizes by exactly ``r``.

The answer side of each game is a bank of filler players who must be absorbed
by graph players left exposed by a small maximal matching; in the roommate
variant each filler is a triplet of players wired into a deviation cycle that
only an outside partner can break.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from types import MappingProxyType

from ._frozen import Frozen
from .errors import PreconditionError
from .graph_matching import Graph
from .model import MARRIAGE, ROOMMATE, Game, PreferenceList


class PlayerRole(
    namedtuple("PlayerRole", "kind vertex gadget layer", defaults=(None, None, None))
):
    """Where a reduction player came from.

    ``kind`` is ``"A"`` or ``"B"`` for the two sides of the padded
    subdivision (``vertex`` holds the graph vertex), ``"X"`` for filler
    players (``gadget`` counts gadgets from 1, ``layer`` is 0..2 in the
    roommate construction and ``None`` in the marriage one), and ``"Y"`` for
    the marriage construction's loner."""

    __slots__ = ()


class ReductionArtifact(Frozen):
    """A constructed game plus the metadata needed to validate it.

    ``roles`` maps each player to its :class:`PlayerRole` and is left out of
    equality and hashing.  It is stored as a read-only view of a private
    copy; a read-only view is stored as given, so artifacts can share one.
    ``graph`` is the padded subdivision the game encodes, ``n`` its balanced
    side size and ``r`` its padding gadget count.
    """

    __slots__ = ("game", "roles", "graph", "n", "k", "r")

    def __init__(
        self, game: Game, roles: Mapping[int, PlayerRole], graph: Graph, n: int, k: int, r: int
    ) -> None:
        if not isinstance(roles, MappingProxyType):
            roles = MappingProxyType(dict(roles))
        Frozen.__init__(self, game, roles, graph, n, k, r)

    def _key(self) -> tuple:
        return (self.game, self.graph, self.n, self.k, self.r)

    def __reduce__(self) -> tuple:
        # The read-only ``roles`` view does not pickle; rebuild from a copy.
        return (ReductionArtifact, (self.game, dict(self.roles), self.graph, self.n, self.k, self.r))


#: Most list entries, summed over all players, that a constructed game may hold.
MAX_LIST_ENTRIES = 2_000_000


def _game_size(g0: Graph, k: int, kind: str) -> tuple[int, int, int]:
    """Side size ``n`` and padding count ``r`` of the padded subdivision of
    ``g0``, and the total list length of the game built on it.

    Subdividing ``g0`` gives sides of ``g0.n`` vertices and ``e`` edge
    vertices joined by ``2e`` edges; padding adds ``r = |g0.n - e|``
    anchors, each with two stub edges.  Graph players list their neighbors,
    and the ``n`` A-players list every filler.  A marriage filler lists the
    ``n + 1`` men, and there are ``n - k``; a roommate filler lists the
    A-players and two of its triplet, and there are ``3(n - k)``.
    """
    e = len(g0.edges)
    r = abs(g0.n - e)
    n = max(g0.n, e) + r
    fillers, listed = (n - k, n + 1) if kind == MARRIAGE else (3 * (n - k), n + 2)
    return n, r, 4 * (e + r) + fillers * (n + listed)


def _prepare(g0: Graph, k: int, kind: str) -> tuple[Graph, int, list[int], list[int], int]:
    """The padded subdivision of ``g0``, its ``r``, its sorted A and B sides
    and their size ``n``, numbered as the module docstring says."""
    # Sized before it is built, so a huge graph is refused at once.
    n, r, size = _game_size(g0, k, kind)
    if not 0 <= k <= n:
        raise PreconditionError(f"k must lie in 0..{n}, got {k}")
    if size > MAX_LIST_ENTRIES:
        raise PreconditionError(
            f"the {kind} game would list {size} entries, above the limit of {MAX_LIST_ENTRIES}"
        )
    e = len(g0.edges)
    last = g0.n + e  # the last edge vertex
    anchors = range(last + 1, last + r + 1)
    stubs = range(last + r + 1, last + 3 * r + 1)
    edges: list[tuple[int, int]] = []
    for mid, (u, v) in enumerate(sorted(g0.edges), g0.n + 1):
        edges += ((u, mid), (v, mid))
    for t, anchor in enumerate(anchors):
        edges += ((anchor, stubs[2 * t]), (anchor, stubs[2 * t + 1]))
    a_pad, b_pad = (anchors, stubs) if g0.n > e else (stubs, anchors)
    a_side = [*range(1, g0.n + 1), *a_pad]
    b_side = [*range(g0.n + 1, last + 1), *b_pad]
    return Graph(last + 3 * r, frozenset(edges)), r, a_side, b_side, n


def _graph_players(
    padded: Graph, a_side: list[int], b_side: list[int], b_first: int, fillers: frozenset[int]
) -> tuple[dict[int, PreferenceList], dict[int, PlayerRole]]:
    """Preference lists and roles of the graph players, keyed by player id.

    A-vertex ``a_side[t]`` is player ``t + 1`` and B-vertex ``b_side[t]`` is
    player ``b_first + t``.  An A-player lists its graph neighbors, then the
    ``fillers`` in one tier, then being alone; a B-player lists its neighbors.
    """
    player_of_a = {v: idx for idx, v in enumerate(a_side, 1)}
    player_of_b = {v: idx for idx, v in enumerate(b_side, b_first)}
    adjacency = padded.adjacency()
    prefs: dict[int, PreferenceList] = {}
    roles: dict[int, PlayerRole] = {}
    for kind, own, other, tail in (
        ("A", player_of_a, player_of_b, fillers),
        ("B", player_of_b, player_of_a, frozenset()),
    ):
        for v, i in own.items():
            neighbors = frozenset(other[u] for u in adjacency[v])
            tiers = tuple(tier for tier in (neighbors, tail) if tier)
            prefs[i] = PreferenceList(i, tiers, self_tier=len(tiers))
            roles[i] = PlayerRole(kind, vertex=v)
    return prefs, roles


def mmm_to_marriage_ns(g0: Graph, k: int) -> ReductionArtifact:
    """Marriage game with an NS matching iff the padded subdivision has a
    maximal matching of size at most ``k``.

    Men are the A-side vertices (players ``1..n``) plus the loner ``y``
    (player ``n+1``); women are the B-side vertices and ``n - k`` filler
    players.  A-players want their graph neighbors, then any filler, then to
    be alone; B-players want their neighbors; fillers are indifferent among
    all men and the loner wants to stay alone, so a filler left without an
    A-partner chases ``y`` forever.
    """
    padded, r, a_side, b_side, n = _prepare(g0, k, MARRIAGE)
    y_id = n + 1
    x_ids = range(2 * n + 2, 2 * n + 2 + n - k)
    prefs, roles = _graph_players(padded, a_side, b_side, n + 2, frozenset(x_ids))
    prefs[y_id] = PreferenceList(y_id)
    roles[y_id] = PlayerRole("Y")
    men = frozenset(range(1, n + 2))
    for t, i in enumerate(x_ids, 1):
        prefs[i] = PreferenceList(i, (men,), self_tier=1)
        roles[i] = PlayerRole("X", gadget=t)

    game = Game(len(prefs), tuple(prefs[i] for i in sorted(prefs)), MARRIAGE, n + 1)
    return ReductionArtifact(game, roles, padded, n, k, r)


def mmm_to_roommate_is(g0: Graph, k: int) -> ReductionArtifact:
    """Roommate game with an IS matching iff the padded subdivision has a
    maximal matching of size at most ``k``.

    Players are the A side (``1..n``), the B side (``n+1..2n``), and
    ``n - k`` filler triplets.  Graph players behave as in the marriage
    construction; each triplet member is indifferent between any A-player
    and its cyclic successor, then prefers its cyclic predecessor, so an
    unbroken triplet chases itself in a perpetual three-step deviation cycle
    that only a free A-player can stop.
    """
    padded, r, a_side, b_side, n = _prepare(g0, k, ROOMMATE)
    x_ids = range(2 * n + 1, 2 * n + 1 + 3 * (n - k))
    prefs, roles = _graph_players(padded, a_side, b_side, n + 1, frozenset(x_ids))
    a_players = frozenset(range(1, n + 1))
    for t, i in enumerate(x_ids):
        gadget, layer = divmod(t, 3)
        first = i - layer  # the gadget's layer-0 player
        successor, predecessor = first + (layer + 1) % 3, first + (layer + 2) % 3
        tiers = (a_players | {successor}, frozenset([predecessor]))
        prefs[i] = PreferenceList(i, tiers, self_tier=2)
        roles[i] = PlayerRole("X", gadget=gadget + 1, layer=layer)

    game = Game(len(prefs), tuple(prefs[i] for i in sorted(prefs)), ROOMMATE)
    return ReductionArtifact(game, roles, padded, n, k, r)

"""Players, weak preference orders with ties, and roommate/marriage games.

A preference list is a sequence of indifference tiers over other players,
most preferred first, together with a position for the owner's own singleton
("being alone").  Players ranked above that position are acceptable, players
below it are not, and every unlisted player sits in one implicit bottom tier
strictly below everything listed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable
from itertools import groupby
from types import MappingProxyType

from ._frozen import Frozen
from .errors import FormatError, _int, _lines

ROOMMATE = "roommate"
MARRIAGE = "marriage"

_SELF_TOKEN = "self"
#: How many counts follow each header keyword.
_HEADER_ARITY = {ROOMMATE: 1, MARRIAGE: 2}


class PreferenceList(Frozen):
    """One player's weak order over potential partners, compiled into ranks.

    The constructor takes the order as ``tiers``: disjoint indifference
    classes of other players, most preferred first.  ``self_tier`` and
    ``self_tied`` place the owner's own singleton: tied with the members of
    ``tiers[self_tier]`` when ``self_tied`` is set, otherwise strictly
    between ``tiers[self_tier - 1]`` and ``tiers[self_tier]`` (so
    ``self_tier == len(tiers)`` means below all listed players, the default
    for a plain list of acceptable partners).

    The order is compiled once, at construction, into rank slots numbered
    from 0 (best): one per tier, plus one for the owner's singleton unless it
    is tied into a tier.  Unlisted players share ``bottom_rank``, one past
    the last slot.  The compiled fields are read-only:

    * ``order``: every listed player, best slot first, ids ascending within
      a slot;
    * ``ranks``: slot rank of every listed player (and of no one else), as a
      read-only mapping;
    * ``self_rank``: slot rank of the owner's singleton;
    * ``bottom_rank``: rank of every unlisted player;
    * ``num_acceptable``: how many listed players rank at or above
      ``self_rank`` (they form a prefix of ``order``).

    Memory is linear in the list length.  Equality compares every field;
    the hash leaves out ``ranks``.
    """

    __slots__ = ("owner", "order", "ranks", "self_rank", "bottom_rank", "num_acceptable")

    def __init__(
        self,
        owner: int,
        tiers: tuple[frozenset[int], ...] = (),
        self_tier: int = 0,
        self_tied: bool = False,
    ) -> None:
        if owner < 1:
            raise ValueError("player ids are 1-based")
        seen: set[int] = set()
        for tier in tiers:
            if not tier:
                raise ValueError("empty preference tier")
            if owner in tier:
                raise ValueError("owner may not appear in its own tiers")
            if seen & tier:
                raise ValueError("player listed in more than one tier")
            seen |= tier
        if self_tied:
            if not 0 <= self_tier < len(tiers):
                raise ValueError("self_tier out of range for a tied self")
        elif not 0 <= self_tier <= len(tiers):
            raise ValueError("self_tier out of range")
        order: list[int] = []
        ranks: dict[int, int] = {}
        for t, tier in enumerate(tiers):
            members = sorted(tier)
            order.extend(members)
            ranks.update(dict.fromkeys(members, t if self_tied or t < self_tier else t + 1))
        self._store(owner, tuple(order), ranks, self_tier)

    @classmethod
    def _compiled(
        cls, owner: int, order: tuple[int, ...], ranks: dict[int, int], self_rank: int
    ) -> PreferenceList:
        """Wrap an already compiled order; the caller has validated it.

        ``order`` is grouped by ascending rank, ids ascending within a slot;
        ``ranks`` has exactly the players in ``order`` as keys; ``self_rank``
        is a slot number.
        """
        return cls.__new__(cls)._store(owner, order, ranks, self_rank)

    def _store(
        self, owner: int, order: tuple[int, ...], ranks: dict[int, int], self_rank: int
    ) -> PreferenceList:
        """Store a compiled order, derive ``bottom_rank`` and ``num_acceptable``, return self.

        This reads three invariants: ``order`` is grouped by ascending rank, ids
        ascending within a slot; ``ranks`` has exactly the players in ``order``
        as keys; ``self_rank`` is a slot number.
        """
        bottom = max(ranks[order[-1]] if order else 0, self_rank) + 1
        acceptable = bisect_right(order, self_rank, key=ranks.__getitem__)
        Frozen.__init__(self, owner, order, MappingProxyType(ranks), self_rank, bottom, acceptable)
        return self

    def __hash__(self) -> int:
        return hash((self.owner, self.order, self.self_rank, self.bottom_rank, self.num_acceptable))

    def __reduce__(self) -> tuple:
        # The read-only ``ranks`` view does not pickle; rebuild from the tiers.
        return (PreferenceList, (self.owner, self.tiers, self.self_tier, self.self_tied))

    @property
    def tiers(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(g) for _, g in groupby(self.order, self.ranks.__getitem__))

    @property
    def self_tier(self) -> int:
        # Slots before the owner's are exactly the tiers before its own.
        return self.self_rank

    @property
    def self_tied(self) -> bool:
        k = self.num_acceptable
        return k > 0 and self.ranks[self.order[k - 1]] == self.self_rank

    def rank_of(self, j: int) -> int:
        """Numeric rank of player ``j`` (lower is better); ``owner`` ranks as alone."""
        if j == self.owner:
            return self.self_rank
        return self.ranks.get(j, self.bottom_rank)

    def up_to(self, rank: int) -> tuple[int, ...]:
        """Listed players ranked ``rank`` or better, best first (a prefix of ``order``)."""
        return self.order[: bisect_right(self.order, rank, key=self.ranks.__getitem__)]

    def __repr__(self) -> str:
        return (
            f"PreferenceList(owner={self.owner}, tiers={self.tiers!r}, "
            f"self_tier={self.self_tier}, self_tied={self.self_tied})"
        )


class Game(Frozen):
    """A set of players with one preference list each.

    ``n`` players, ``profile`` their lists by owner id, ``kind`` is
    ``"roommate"`` or ``"marriage"``.  A marriage game's ``num_men`` men are
    players ``1..m`` and its women are ``m+1..n``, so
    ``Game(n, profile, MARRIAGE, m)`` builds one; it rejects any same-sex
    entry in a preference list.  A roommate game has ``num_men == 0`` and no
    men or women.  ``men`` and ``women`` are ranges of ids.  All values are
    immutable after construction.
    """

    __slots__ = ("n", "profile", "kind", "num_men")

    def __init__(
        self, n: int, profile: tuple[PreferenceList, ...], kind: str = ROOMMATE, num_men: int = 0
    ) -> None:
        profile = tuple(profile)
        Frozen.__init__(self, n, profile, kind, num_men)
        if kind not in (ROOMMATE, MARRIAGE):
            raise ValueError(f"unknown game kind {kind!r}")
        if n < 0:
            raise ValueError("player count must be non-negative")
        if len(profile) != n:
            raise ValueError("need exactly one preference list per player")
        for i, pl in enumerate(profile, 1):
            if pl.owner != i:
                raise ValueError("profile must be ordered by owner id 1..n")
        # A list's extreme ids decide both entry checks; only a bad list is
        # walked, to name its first offender.
        spans = [(pl, min(pl.order), max(pl.order)) for pl in profile if pl.order]
        m = num_men
        if kind == MARRIAGE:
            if not 0 <= m <= n:
                raise ValueError(f"num_men must lie in 0..{n}, got {m}")
            for pl, lo, hi in spans:
                if lo <= m if pl.owner <= m else hi > m:
                    j = next(j for j in pl.order if (j <= m) == (pl.owner <= m))
                    raise ValueError(f"same-sex entry {j} in list of player {pl.owner}")
        elif m:
            raise ValueError("roommate games carry no side assignment")
        for pl, lo, hi in spans:
            if lo < 1 or hi > n:
                j = next(j for j in pl.order if not 1 <= j <= n)
                raise ValueError(f"player id {j} out of range in list of {pl.owner}")

    def players(self) -> range:
        return range(1, self.n + 1)

    def prefs(self, i: int) -> PreferenceList:
        return self.profile[i - 1]

    @property
    def is_marriage(self) -> bool:
        return self.kind == MARRIAGE

    @property
    def men(self) -> range:
        return range(1, self.num_men + 1)

    @property
    def num_women(self) -> int:
        return self.n - self.num_men if self.kind == MARRIAGE else 0

    @property
    def women(self) -> range:
        return range(self.num_men + 1, self.num_men + self.num_women + 1)


def has_no_unacceptability(game: Game) -> bool:
    """True iff everyone accepts every potential partner.

    For marriage games only opposite-sex players count as potential partners
    (same-sex players are unacceptable by definition).  Listed players are
    distinct potential partners, so this is one count comparison per player.
    """
    if game.kind != MARRIAGE:
        return all(pl.num_acceptable == game.n - 1 for pl in game.profile)
    m = game.num_men
    return all(
        pl.num_acceptable == (game.n - m if pl.owner <= m else m) for pl in game.profile
    )


class GenParams(
    namedtuple(
        "GenParams",
        "kind n n_men n_women tie_probability acceptability_probability mutual complete seed",
        defaults=(ROOMMATE, 0, 0, 0, 0.0, 1.0, False, False, 0),
    )
):
    """Parameters for :func:`random_game`.

    ``n`` sizes a roommate game; ``n_men``/``n_women`` size a marriage game.
    ``complete`` makes every potential partner acceptable and switches the
    acceptability probability off; ``mutual`` samples acceptability per
    unordered pair so the relation comes out symmetric.
    """

    __slots__ = ()


def _game_size(params: GenParams) -> tuple[int, int]:
    """``(n, num_men)`` for ``params``, once they pass :func:`random_game`'s checks."""
    if params.kind not in (ROOMMATE, MARRIAGE):
        raise ValueError(f"unknown game kind {params.kind!r}")
    if not 0.0 <= params.tie_probability <= 1.0:
        raise ValueError("tie_probability must lie in [0, 1]")
    if not 0.0 <= params.acceptability_probability <= 1.0:
        raise ValueError("acceptability_probability must lie in [0, 1]")
    if min(params.n, params.n_men, params.n_women) < 0:
        raise ValueError("player counts must be non-negative")
    if params.kind == MARRIAGE and params.n:
        raise ValueError("n sizes a roommate game; a marriage game takes n_men and n_women")
    if params.kind == ROOMMATE and (params.n_men or params.n_women):
        raise ValueError("n_men and n_women size a marriage game; a roommate game takes n")
    if params.kind == ROOMMATE:
        return params.n, 0
    return params.n_men + params.n_women, params.n_men


def random_game(params: GenParams) -> Game:
    """Deterministically sample a game; identical params give identical games."""
    n, m = _game_size(params)
    rng = random.Random(params.seed)

    # One int object per player id, shared by every list that names it.
    ids = list(range(n + 1))
    players = ids[1:]

    def candidates(i: int) -> list[int]:
        """Potential partners of ``i``, ascending."""
        if params.kind == ROOMMATE:
            return ids[1:i] + ids[i + 1 :]
        return ids[m + 1 :] if i <= m else ids[1 : m + 1]

    accept_p = params.acceptability_probability
    tie_p = params.tie_probability
    # A complete game lists every candidate, so it builds no acceptability sets.
    acceptable: dict[int, set[int]] = {}
    if params.mutual and not params.complete:
        acceptable = {i: set() for i in players}
        for i in players:
            for j in candidates(i):
                if j < i:
                    continue
                if rng.random() < accept_p:
                    acceptable[i].add(j)
                    acceptable[j].add(i)
    elif not params.complete:
        acceptable = {
            i: {j for j in candidates(i) if rng.random() < accept_p} for i in players
        }

    profile = []
    for i in players:
        order = candidates(i) if params.complete else sorted(acceptable[i])
        rng.shuffle(order)
        runs: list[list[int]] = []
        for j in order:
            if runs and rng.random() < tie_p:
                runs[-1].append(j)
            else:
                runs.append([j])
        tied = bool(runs) and rng.random() < tie_p
        listed: list[int] = []
        ranks: dict[int, int] = {}
        for r, run in enumerate(runs):
            run.sort()
            listed.extend(run)
            for j in run:
                ranks[j] = r
        profile.append(PreferenceList._compiled(i, tuple(listed), ranks, len(runs) - tied))

    return Game(n, tuple(profile), params.kind, m)


def parse_instance(text: str) -> Game:
    """Parse a game from its instance text.

    Grammar (UTF-8, ``#`` starts a comment): a header line ``roommate <n>`` or
    ``marriage <m> <w>``, then one line per player ``<id>: <entries>`` where
    entries are space-separated ids in decreasing preference, ``( a b ... )``
    groups a tie tier, and the bare token ``self`` marks where being alone
    ranks.  Entries after ``self`` are ranked but unacceptable; unlisted
    players are unacceptable and mutually indifferent.
    """
    kind: str | None = None
    lines: dict[int, tuple[int, str]] = {}
    n = m = 0
    for lineno, content in _lines(text):
        if kind is None:
            fields = content.split()
            if _HEADER_ARITY.get(fields[0]) != len(fields) - 1:
                raise FormatError(
                    "expected header 'roommate <n>' or 'marriage <m> <w>'", lineno
                )
            kind = fields[0]
            nums = [_int(c, "non-numeric player count in header", lineno) for c in fields[1:]]
            if any(c < 0 for c in nums):
                raise FormatError("negative player count in header", lineno)
            n, m = sum(nums), (nums[0] if kind == MARRIAGE else 0)
            continue
        if ":" not in content:
            raise FormatError("expected '<id>: <entries>'", lineno)
        lhs, rhs = content.split(":", 1)
        owner = _int(lhs.strip(), "bad player id {!r}", lineno)
        if not 1 <= owner <= n:
            raise FormatError(f"player id {owner} out of range", lineno)
        if owner in lines:
            raise FormatError(f"duplicate preference line for player {owner}", lineno)
        lines[owner] = (lineno, rhs)

    if kind is None:
        raise FormatError("empty instance: missing header")

    for i in range(1, n + 1):
        if i not in lines:
            raise FormatError(f"missing preference line for player {i}")

    # One int object per player id, shared by every list that names it.  A side's
    # lookup maps the printed id of each of its potential partners to that int.
    ids = list(range(n + 1))
    names = list(map(str, ids))

    def partners(lo: int, hi: int) -> tuple[int, int, Callable[[str], int | None]]:
        return lo, hi, dict(zip(names[lo : hi + 1], ids[lo : hi + 1])).get

    if kind == MARRIAGE:
        of_man, of_woman = partners(m + 1, n), partners(1, m)
    else:
        of_man = of_woman = partners(1, n)
    # Each line is taken out as it is compiled, so its text is freed as the game grows.
    profile = [
        _parse_entries(owner, *lines.pop(owner), n, *(of_man if owner <= m else of_woman))
        for owner in ids[1:]
    ]
    return Game(n, tuple(profile), kind, m)


def _parse_entries(
    owner: int, lineno: int, rhs: str, n: int, lo: int, hi: int, lookup: Callable[[str], int | None]
) -> PreferenceList:
    """Check one entry list token by token and compile it straight into ranks.

    Each top-level id, tie group and bare ``self`` is one rank slot; ids in
    a group share the group's slot.  The owner's potential partners are
    exactly the ids in ``lo..hi``, less itself.  ``lookup(token)`` is the
    game's shared int for a token that spells such an id as the printer
    does, and None for any other token, which then takes the full checks.
    """
    tokens = rhs.replace("(", " ( ").replace(")", " ) ").split()
    # An id is ASCII and has no '_'; only a line that breaks that is walked.
    if "_" in rhs or not rhs.isascii():
        for token in tokens:
            if "_" in token or not token.isascii():
                raise FormatError(f"unexpected token {token!r}", lineno)
    order: list[int] = []
    ranks: dict[int, int] = {}  # filled as ids are read, so it also finds duplicates
    slot = 0  # rank of the slot being read
    group: list[int] | None = None
    self_rank: int | None = None

    for token in tokens:
        j = lookup(token)
        if j is not None:
            if j == owner or j in ranks:
                _reject_id(j, owner, ranks, n, lineno)
        elif token == "(":
            if group is not None:
                raise FormatError("nested tie group", lineno)
            group = []
            continue
        elif token == ")":
            if group is None:
                raise FormatError("')' without matching '('", lineno)
            # A group keeps its slot until here, so it holds 'self' iff self_rank == slot.
            if not group and self_rank != slot:
                raise FormatError("empty tie group", lineno)
            group.sort()
            order.extend(group)
            slot += 1
            group = None
            continue
        elif token == _SELF_TOKEN:
            if self_rank is not None:
                raise FormatError("'self' appears more than once", lineno)
            self_rank = slot
            if group is None:
                slot += 1
            continue
        else:
            try:
                j = int(token)
            except ValueError:
                raise FormatError(f"unexpected token {token!r}", lineno) from None
            if not lo <= j <= hi or j == owner or j in ranks:
                _reject_id(j, owner, ranks, n, lineno)
            j = lookup(str(j))
        ranks[j] = slot
        if group is not None:
            group.append(j)
        else:
            order.append(j)
            slot += 1

    if group is not None:
        raise FormatError("unclosed tie group", lineno)
    self_rank = slot if self_rank is None else self_rank
    return PreferenceList._compiled(owner, tuple(order), ranks, self_rank)


def _reject_id(j: int, owner: int, ranks: dict[int, int], n: int, lineno: int) -> None:
    """Raise the error for an id that is not a fresh potential partner of ``owner``."""
    if j == owner:
        raise FormatError(f"player {owner} lists itself by id; use 'self'", lineno)
    if not 1 <= j <= n:
        raise FormatError(f"player id {j} out of range", lineno)
    if j in ranks:
        raise FormatError(f"duplicate entry {j} in list of player {owner}", lineno)
    raise FormatError(f"same-sex entry {j} in list of player {owner}", lineno)


def serialize_instance(game: Game) -> str:
    """Render a game in the instance grammar; inverse of :func:`parse_instance`."""
    if game.kind == ROOMMATE:
        out = [f"roommate {game.n}"]
    else:
        out = [f"marriage {game.num_men} {game.num_women}"]
    names = [str(j) for j in range(game.n + 1)]
    for pl in game.profile:
        # One part per rank slot, a run of equal rank in order.  An untied 'self' has slot
        # self_rank, so it goes before group number self_rank; a trailing bare 'self' is
        # the default and is left out.
        order, self_rank = pl.order, pl.self_rank
        ranks = list(map(pl.ranks.__getitem__, order))
        parts: list[str] = []
        end = len(order)
        i = g = 0
        while i < end:
            rank = ranks[i]
            k = i + 1
            while k < end and ranks[k] == rank:
                k += 1
            if rank != self_rank and g == self_rank:
                parts.append(_SELF_TOKEN)
            if rank != self_rank and k == i + 1:
                parts.append(names[order[i]])
            else:
                tokens = [names[j] for j in order[i:k]]
                if rank == self_rank:
                    tokens.append(_SELF_TOKEN)
                parts.append("( " + " ".join(tokens) + " )")
            i = k
            g += 1
        owner = names[pl.owner]
        out.append(f"{owner}: " + " ".join(parts) if parts else f"{owner}:")
    out.append("")
    return "\n".join(out)

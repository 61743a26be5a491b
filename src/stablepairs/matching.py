"""Matchings as partitions into pairs and singletons, and their text format."""

from __future__ import annotations

from collections.abc import Iterable

from ._frozen import Frozen
from .errors import FormatError, _int, _lines
from .model import Game


class Matching(Frozen):
    """A partition of players ``1..n`` into pairs and singletons.

    Stored as a self-inverse partner map: ``partner_of(i) == i`` encodes a
    singleton.  Immutable and hashable.
    """

    __slots__ = ("_partner",)

    def __init__(self, partner: Iterable[int]):
        p = tuple(partner)
        n = len(p)
        for i, j in enumerate(p, 1):
            if not 1 <= j <= n:
                raise ValueError(f"partner {j} of player {i} out of range")
            if p[j - 1] != i:
                raise ValueError(f"partner map is not an involution at player {i}")
        Frozen.__init__(self, p)

    @classmethod
    def _trusted(cls, partner: tuple[int, ...]) -> Matching:
        """Wrap a partner tuple that is already an involution, unchecked."""
        matching = cls.__new__(cls)
        object.__setattr__(matching, "_partner", partner)
        return matching

    @classmethod
    def singletons(cls, n: int) -> Matching:
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self._partner)

    def as_tuple(self) -> tuple[int, ...]:
        return self._partner

    def partner_of(self, i: int) -> int:
        return self._partner[i - 1]

    def cells(self) -> list[tuple[int, ...]]:
        """All coalitions, ordered by their smallest member."""
        out: list[tuple[int, ...]] = []
        for i, j in enumerate(self._partner, 1):
            if i == j:
                out.append((i,))
            elif i < j:
                out.append((i, j))
        return out

    def with_move(self, mover: int, target: int | None) -> Matching:
        """Replay a single-player move: ``mover`` joins ``{target}`` or goes alone.

        The abandoned partner, if any, becomes a singleton.  ``target`` must
        currently be single; joining a pair would form a size-3 coalition.
        """
        if not 1 <= mover <= self.n:
            raise ValueError(f"mover {mover} out of range")
        p = list(self._partner)
        old = p[mover - 1]
        if old != mover:
            p[old - 1] = old
        if target is None:
            p[mover - 1] = mover
        else:
            if not 1 <= target <= self.n:
                raise ValueError(f"target {target} out of range")
            if target == mover:
                raise ValueError("mover cannot target itself; use target=None")
            if self._partner[target - 1] != target:
                raise ValueError(f"target {target} is not single")
            p[mover - 1] = target
            p[target - 1] = mover
        return Matching._trusted(tuple(p))

    def __repr__(self) -> str:
        cells = " ".join(
            f"({cell[0]},{cell[1]})" if len(cell) == 2 else f"({cell[0]})"
            for cell in self.cells()
        )
        return f"Matching[{cells}]"


def parse_matching(text: str, game: Game | int) -> Matching:
    """Parse a matching file: one ``i j`` line per pair, ``i -`` per singleton."""
    n = game if isinstance(game, int) else game.n
    assigned: dict[int, int] = {}

    def take(i: int, j: int, lineno: int) -> None:
        if not 1 <= i <= n:
            raise FormatError(f"player id {i} out of range", lineno)
        if i in assigned:
            raise FormatError(
                f"player {i} appears more than once (matching must be an involution)",
                lineno,
            )
        assigned[i] = j

    for lineno, content in _lines(text):
        fields = content.split()
        if len(fields) != 2:
            raise FormatError("expected 'i j' or 'i -'", lineno)
        i = _int(fields[0], "bad player id {!r}", lineno)
        if fields[1] == "-":
            take(i, i, lineno)
            continue
        j = _int(fields[1], "bad player id {!r}", lineno)
        if i == j:
            raise FormatError("a player cannot pair with itself; use '-'", lineno)
        take(i, j, lineno)
        take(j, i, lineno)

    for i in range(1, n + 1):
        if i not in assigned:
            raise FormatError(f"player {i} is missing from the matching")
    return Matching(assigned[i] for i in range(1, n + 1))


def serialize_matching(matching: Matching) -> str:
    """Render a matching, one cell per line ordered by smallest member."""
    out = []
    for cell in matching.cells():
        if len(cell) == 1:
            out.append(f"{cell[0]} -")
        else:
            out.append(f"{cell[0]} {cell[1]}")
    out.append("")
    return "\n".join(out)


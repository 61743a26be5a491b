"""Simple graphs: parsing, maximum matching and minimum maximal matching.

The maximum matching routine is a plain O(n^3) augmenting-path search with
blossom contraction; instance sizes here are modest, so correctness and
simplicity win over scaling tricks.  The minimum-maximal-matching oracle is
deliberately exponential and guarded by a size cap.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from ._frozen import Frozen
from .errors import FormatError, PreconditionError, _int, _lines

Edge = tuple[int, int]


def _normalize(edges: Iterable[tuple[int, int]]) -> frozenset[Edge]:
    out = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        out.add((u, v) if u < v else (v, u))
    return frozenset(out)


class Graph(Frozen):
    """Simple undirected graph on vertices ``1..n``."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[Edge]) -> None:
        Frozen.__init__(self, n, frozenset(edges))
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (1 <= u < v <= n):
                raise ValueError(f"edge ({u}, {v}) is not a normalized in-range pair")

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        return cls(n, _normalize(edges))

    def adjacency(self) -> list[list[int]]:
        """Sorted adjacency lists, index 0 unused."""
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return adj


def parse_graph(text: str) -> Graph:
    """Parse ``graph <n> <m>`` followed by ``m`` lines ``u v``; ``#`` comments."""
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    for lineno, content in _lines(text):
        fields = content.split()
        if header is None:
            if len(fields) != 3 or fields[0] != "graph":
                raise FormatError("expected header 'graph <n> <m>'", lineno)
            n, m = (_int(c, "non-numeric counts in header", lineno) for c in fields[1:])
            if n < 0 or m < 0:
                raise FormatError("negative counts in header", lineno)
            header = (n, m)
            continue
        if len(fields) != 2:
            raise FormatError("expected edge line 'u v'", lineno)
        u, v = (_int(c, "non-numeric vertex id", lineno) for c in fields)
        n = header[0]
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"vertex id out of range in edge ({u}, {v})", lineno)
        if u == v:
            raise FormatError(f"loop at vertex {u}", lineno)
        edges.append((u, v) if u < v else (v, u))
    if header is None:
        raise FormatError("empty graph file: missing header")
    if len(set(edges)) != header[1]:
        raise FormatError(
            f"header announces {header[1]} edges but {len(set(edges))} distinct edges given"
        )
    return Graph(header[0], frozenset(edges))


def max_matching(g: Graph) -> frozenset[Edge]:
    """A maximum-cardinality matching; perfect iff ``2 * len(result) == g.n``.

    Augmenting-path search from each exposed vertex with blossom contraction
    via base pointers, O(n) phases of O(n^2) work each.
    """
    match = _max_matching(g.n, g.adjacency())
    return frozenset((v, u) for v, u in enumerate(match) if v < u)


def _max_matching(n: int, adj: list[list[int]]) -> list[int]:
    """:func:`max_matching` on sorted adjacency lists, as ``match[v]`` (0: exposed)."""
    match = [0] * (n + 1)
    parent = [0] * (n + 1)
    base = list(range(n + 1))

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * (n + 1)
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == 0:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_blossom(v: int, stop: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stop:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> int:
        parent[:] = [0] * (n + 1)
        base[:] = range(n + 1)
        used = [False] * (n + 1)
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != 0 and parent[match[to]] != 0):
                    stop = lowest_common_base(v, to)
                    in_blossom = [False] * (n + 1)
                    mark_blossom(v, stop, to, in_blossom)
                    mark_blossom(to, stop, v, in_blossom)
                    for u in range(1, n + 1):
                        if in_blossom[base[u]]:
                            base[u] = stop
                            if not used[u]:
                                used[u] = True
                                queue.append(u)
                elif parent[to] == 0:
                    parent[to] = v
                    if match[to] == 0:
                        return to
                    used[match[to]] = True
                    queue.append(match[to])
        return 0

    # Greedy seed cuts the number of augmentation phases roughly in half.
    for v in range(1, n + 1):
        if match[v] == 0:
            for u in adj[v]:
                if match[u] == 0:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(1, n + 1):
        if match[v] == 0:
            end = find_augmenting_path(v)
            while end != 0:
                prev = parent[end]
                nxt = match[prev]
                match[end] = prev
                match[prev] = end
                end = nxt
    return match


def minimum_maximal_matching(g: Graph, cap: int = 20) -> int:
    """Smallest size of a maximal matching, by exhaustive search.

    Exponential in the edge count; refuses graphs with more than ``cap``
    vertices.  This is a desk-scale oracle, not an algorithm.
    """
    if g.n > cap:
        raise PreconditionError(
            f"graph has {g.n} vertices, above the exhaustive-search cap {cap}"
        )
    edges = sorted(g.edges)
    if not edges:
        return 0

    # Greedy maximal matching bounds the search from above.
    covered: set[int] = set()
    greedy = 0
    for u, v in edges:
        if u not in covered and v not in covered:
            covered.update((u, v))
            greedy += 1
    best = greedy

    in_use: set[int] = set()

    def rec(idx: int, size: int) -> None:
        nonlocal best
        if size >= best:
            return
        if idx == len(edges):
            if all(u in in_use or v in in_use for u, v in edges):
                best = size
            return
        u, v = edges[idx]
        rec(idx + 1, size)
        if u not in in_use and v not in in_use:
            in_use.update((u, v))
            rec(idx + 1, size + 1)
            in_use.difference_update((u, v))

    rec(0, 0)
    return best

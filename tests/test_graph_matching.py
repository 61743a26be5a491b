"""Blossom matching against an exhaustive oracle, plus the padded subdivision
that both reductions build, checked through their artifacts."""

from __future__ import annotations

import random

import pytest

from stablepairs import (
    FormatError,
    Graph,
    PreconditionError,
    max_matching,
    minimum_maximal_matching,
    mmm_to_marriage_ns,
    mmm_to_roommate_is,
    parse_graph,
)
from support import (
    SMALL_GRAPHS,
    exhaustive_max_matching_size,
    is_maximal_matching,
    random_graph,
    reduction_sides,
    subdivision,
)


def test_graph_parse_and_roundtrip():
    g = parse_graph("# comment\ngraph 4 3\n1 2\n2 3\n3 4\n")
    assert g.n == 4 and len(g.edges) == 3
    edge_lines = "".join(f"{u} {v}\n" for u, v in sorted(g.edges))
    assert parse_graph(f"graph {g.n} {len(g.edges)}\n{edge_lines}") == g


MALFORMED = [
    ("graph 2 1\n1 1\n", "line 2: loop at vertex 1"),
    ("graph 2 1\n1 3\n", "line 2: vertex id out of range in edge (1, 3)"),
    ("graph 2 2\n1 2\n", "header announces 2 edges but 1 distinct edges given"),
    ("graph 2 1\n1 2 3\n", "line 2: expected edge line 'u v'"),
    ("noise\n", "line 1: expected header 'graph <n> <m>'"),
    ("", "empty graph file: missing header"),
    # a count or a vertex id is an optional sign and ASCII digits
    ("graph 1_0 1\n1 2\n", "line 1: non-numeric counts in header"),
    ("graph 2 1\n1 \u0662\n", "line 2: non-numeric vertex id"),
    # a comment-only line, a blank line and line ends each count as one line
    ("# P2\ngraph 2 1\n1 3\n", "line 3: vertex id out of range in edge (1, 3)"),
    ("graph 2 1\n\n1 3\n", "line 3: vertex id out of range in edge (1, 3)"),
    ("graph 2 1\r\n1 3\r\n", "line 2: vertex id out of range in edge (1, 3)"),
    ("graph 2 1\r1 3\r", "line 2: vertex id out of range in edge (1, 3)"),
    # a form feed does not end a comment
    ("graph 3 1 # x\f1 2\n1 4\n", "line 2: vertex id out of range in edge (1, 4)"),
]


@pytest.mark.parametrize("text, message", MALFORMED, ids=[text for text, _ in MALFORMED])
def test_graph_parse_rejects_malformed(text, message):
    with pytest.raises(FormatError) as caught:
        parse_graph(text)
    assert str(caught.value) == message


def test_graph_parse_ends_lines_only_at_cr_and_lf():
    expected = Graph.build(3, [(1, 2), (2, 3)])
    for text in (
        "graph 3 2\r\n1 2\r\n2 3\r\n",
        "graph 3 2\r1 2\r2 3\r",
        "graph\f3\v2\n1\x852\n2\u20283\n",
        "graph 3 2 # x\f1 3\n1 2\n2 3\n",
    ):
        assert parse_graph(text) == expected, text


def test_graph_constructors_reject_bad_edges():
    with pytest.raises(ValueError, match="^loop at vertex 1$"):
        Graph.build(2, [(1, 1)])
    with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
        Graph(-1, frozenset())
    with pytest.raises(ValueError, match=r"^edge \(2, 1\) is not a normalized in-range pair$"):
        Graph(2, frozenset({(2, 1)}))
    assert Graph.build(2, [(2, 1)]) == Graph(2, frozenset({(1, 2)}))


def test_max_matching_triangle_and_square():
    triangle = Graph.build(3, [(1, 2), (2, 3), (1, 3)])
    assert len(max_matching(triangle)) == 1
    square = Graph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    m = max_matching(square)
    assert len(m) == 2 and 2 * len(m) == square.n


def test_max_matching_structured_cases():
    # odd cycles force blossom handling
    for n in (5, 7, 9):
        cycle = Graph.build(n, [(i, i % n + 1) for i in range(1, n + 1)])
        assert len(max_matching(cycle)) == n // 2
    petersen = Graph.build(
        10,
        [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
         (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
         (1, 6), (2, 7), (3, 8), (4, 9), (5, 10)],
    )
    assert len(max_matching(petersen)) == 5
    # two triangles joined by a bridge: perfect matching exists
    bowtie_bridge = Graph.build(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)])
    assert len(max_matching(bowtie_bridge)) == 3


def test_max_matching_agrees_with_exhaustive_oracle():
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randint(0, 10)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
        got = max_matching(g)
        # result is a valid matching
        covered = set()
        for u, v in got:
            assert (u, v) in g.edges
            assert u not in covered and v not in covered
            covered.update((u, v))
        assert len(got) == exhaustive_max_matching_size(g), f"trial {trial}"


def test_is_maximal_matching_examples():
    path3 = Graph.build(3, [(1, 2), (2, 3)])
    assert is_maximal_matching(path3, [(1, 2)])
    path4 = Graph.build(4, [(1, 2), (2, 3), (3, 4)])
    assert is_maximal_matching(path4, [(2, 3)])
    assert not is_maximal_matching(path4, [])
    with pytest.raises(ValueError):
        is_maximal_matching(path4, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        is_maximal_matching(path4, [(1, 4)])


def test_greedy_passes_are_maximal():
    rng = random.Random(23)
    for _ in range(100):
        g = random_graph(rng.randint(1, 9), 0.4, rng)
        covered: set[int] = set()
        greedy = []
        for u, v in sorted(g.edges):
            if u not in covered and v not in covered:
                covered.update((u, v))
                greedy.append((u, v))
        assert is_maximal_matching(g, greedy)


def test_minimum_maximal_matching_examples():
    assert minimum_maximal_matching(Graph.build(2, [(1, 2)])) == 1
    path4 = Graph.build(4, [(1, 2), (2, 3), (3, 4)])
    assert minimum_maximal_matching(path4) == 1  # the middle edge alone
    square = Graph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert minimum_maximal_matching(square) == 2
    assert minimum_maximal_matching(Graph.build(3, [])) == 0


def test_minimum_maximal_matching_cap():
    big = Graph.build(25, [(i, i + 1) for i in range(1, 25)])
    with pytest.raises(PreconditionError):
        minimum_maximal_matching(big)


def test_subdivision_single_edge_and_triangle():
    # The edge (1, 2) becomes the path 1 - 3 - 2; anchor 4 then pads side A.
    path = mmm_to_marriage_ns(Graph.build(2, [(1, 2)]), 0)
    assert {(u, v) for u, v in path.graph.edges if v <= 3} == {(1, 3), (2, 3)}
    assert reduction_sides(path) == ([1, 2, 4], [3, 5, 6])
    c6 = mmm_to_roommate_is(SMALL_GRAPHS["C3"], 0).graph
    assert c6.n == 6 and len(c6.edges) == 6
    degrees = [0] * (c6.n + 1)
    for u, v in c6.edges:
        degrees[u] += 1
        degrees[v] += 1
    assert all(d == 2 for d in degrees[1:])  # a 6-cycle


def test_subdivision_doubles_edges():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng.randint(1, 8), 0.4, rng)
        artifact = mmm_to_marriage_ns(g, 0)
        last = g.n + len(g.edges)  # the last edge vertex; padding follows
        sub_edges = {(u, v) for u, v in artifact.graph.edges if v <= last}
        assert len(sub_edges) == 2 * len(g.edges)
        assert sub_edges == subdivision(g).edges
        a, _ = reduction_sides(artifact)
        assert all(((u in a) != (v in a)) for u, v in artifact.graph.edges)


def test_padding_balanced_graph_unchanged():
    g = SMALL_GRAPHS["C3"]  # 3 vertices and 3 edge vertices already
    for build in (mmm_to_marriage_ns, mmm_to_roommate_is):
        artifact = build(g, 0)
        assert artifact.r == 0 and artifact.graph == subdivision(g)


def test_padding_single_edge_subdivision():
    artifact = mmm_to_marriage_ns(Graph.build(2, [(1, 2)]), 0)
    padded = artifact.graph
    assert artifact.r == 1
    assert padded.n == 6
    a, b = reduction_sides(artifact)
    assert len(a) == len(b) == 3
    anchor, s1, s2 = 4, 5, 6  # after the 2 vertices and the 1 edge vertex
    assert anchor in a and s1 in b and s2 in b  # the anchor joins the larger side
    assert (anchor, s1) in padded.edges
    assert (anchor, s2) in padded.edges


def test_padding_shifts_mmm_by_r():
    for name, g in SMALL_GRAPHS.items():
        artifact = mmm_to_marriage_ns(g, 0)
        assert minimum_maximal_matching(artifact.graph) == (
            minimum_maximal_matching(subdivision(g)) + artifact.r
        ), name

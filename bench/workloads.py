"""Workloads of the stablepairs benchmark: seeded inputs and fixed CLI scripts.

A workload is a list of input files, written from a seed by
``make_inputs.py``, and a fixed script of ``stablepairs`` CLI calls over
them.  The amount of work in a script barely depends on the seed (the same
sizes and generator settings every time, and the hardness gadgets do not
depend on it at all), so runs on different seeds are comparable.

This module imports nothing from ``stablepairs``, nor ``dataclasses``: the
benchmark driver loads it while it times the CLI, and the driver's memory
must stay below the smallest CLI child's peak (see ``run.py``).
"""

from __future__ import annotations

from typing import NamedTuple

DEFAULT_SEED = 1

#: Why each workload exists and which open ROADMAP item it should show or
#: leave flat.  Copied into every results file.
RATIONALE = {
    "marriage-large": (
        "Two 300+300 marriage games.  Parsing and preference compilation "
        "(model) and the O(n^2) pair-block scan (stability) take most of each "
        "call: measured at 500+500, parse_instance takes 1.3-1.7 s and the "
        "cold compute_is_marriage 0.7-0.9 s of a 2.2-2.6 s CLI solve.  ROADMAP "
        "item 2 (one compiled preference representation) must show its gain "
        "here; item 3 (symmetry breaking in the search) must leave it flat."
    ),
    "roommate-dynamics": (
        "Three sparse roommate games of 600 players and one complete odd game. "
        "The same stability.find_deviation runs thousands of times with early "
        "exit inside better-response loops, while parsing is a small share of "
        "each call: a different use of the layer that marriage-large loads "
        "with single full scans.  Three games rather than one, because the "
        "better-response work of a single random game varies by about 20% "
        "between seeds.  ROADMAP item 2 moves it only through "
        "solvers.step_us; item 3 must leave it flat."
    ),
    "oracle-search": (
        "The search in solvers does almost all the work.  Existence mode on "
        "hardness gadgets, whose fillers are interchangeable, exercises ROADMAP "
        "item 3 and should move exists_s; count mode on random games bypasses "
        "it, so brute_s should stay flat.  Item 2 should leave it flat.  The "
        "cells 3K2 k<=4 and P3+K2 k=0 are left out: each costs more than 4 s "
        "or exhausts any desk-scale budget, and the CLI has no node budget."
    ),
}

#: The stability concept each ``solve --concept`` result must satisfy.
SOLVE_CONCEPT = {"is": "is", "ns-complete": "ns", "cns": "cns", "cis-ir": "cis"}


class Sizes(NamedTuple):
    """Instance sizes; ``FULL`` is the benchmark, ``TOY`` the smoke test."""

    side: int  # players per side of marriage games (a) and (b)
    sparse_n: int  # players of each sparse roommate game (c1, c2, ...)
    sparse_games: int  # how many sparse roommate games
    odd_n: int  # complete roommate game (d), odd
    count_n: int  # roommate game counted under CNS and CIS
    ir_n: int  # complete roommate game counted under IR
    ns_cells: tuple[tuple[str, int], ...]  # marriage-NS gadgets (graph, k)
    is_cells: tuple[tuple[str, int], ...]  # roommate-IS gadgets (graph, k)
    max_steps: int = 5000


FULL = Sizes(
    side=300,
    sparse_n=600,
    sparse_games=3,
    odd_n=201,
    count_n=13,
    ir_n=13,
    ns_cells=(
        ("P3+K2", 1), ("P3+K2", 2), ("P3+K2", 3), ("P3+K2", 4),
        ("2K2", 0), ("2K2", 1), ("2K2", 2),
        ("3K2", 5), ("3K2", 6),
    ),
    is_cells=(("K13", 3), ("C3", 0), ("P4", 3)),
)

TOY = Sizes(
    side=12,
    sparse_n=40,
    sparse_games=2,
    odd_n=11,
    count_n=7,
    ir_n=6,
    ns_cells=(("2K2", 2), ("3K2", 6)),
    is_cells=(("C3", 0), ("P4", 3)),
    max_steps=200,
)

SIZES = {"full": FULL, "toy": TOY}

#: Graphs the gadgets are built from: every graph with at most 3 edges and
#: no isolated vertex, up to isomorphism, as (vertex count, edges).
SMALL_GRAPHS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "empty": (0, ()),
    "K2": (2, ((1, 2),)),
    "P3": (3, ((1, 2), (2, 3))),
    "2K2": (4, ((1, 2), (3, 4))),
    "C3": (3, ((1, 2), (2, 3), (1, 3))),
    "P4": (4, ((1, 2), (2, 3), (3, 4))),
    "K13": (4, ((1, 2), (1, 3), (1, 4))),
    "P3+K2": (5, ((1, 2), (2, 3), (4, 5))),
    "3K2": (6, ((1, 2), (3, 4), (5, 6))),
}


class GameInput(NamedTuple):
    """A random game, as keyword arguments of ``stablepairs.GenParams``."""

    name: str
    params: dict


class GadgetInput(NamedTuple):
    """A reduction game: ``construction`` is ``"ns"`` (marriage) or ``"is"``."""

    name: str
    construction: str
    graph: str
    k: int


class ReferenceInput(NamedTuple):
    """A matching computed from game ``game`` by solver ``concept``."""

    name: str
    game: str
    concept: str  # "is", "cns" or "cis-ir", as the CLI names them


class Call(NamedTuple):
    """One CLI call: ``stablepairs <cmd> <args...> <input files...>``."""

    cmd: str
    args: tuple[str, ...]
    inputs: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return " ".join((self.cmd, *self.args, *self.inputs))

    def option(self, flag: str) -> str | None:
        if flag in self.args:
            return self.args[self.args.index(flag) + 1]
        return None


def _gen_seed(seed: int, index: int) -> int:
    return seed * 16 + index


def _marriage(name: str, sizes: Sizes, seed: int, index: int, **extra) -> GameInput:
    params = dict(
        kind="marriage",
        n_men=sizes.side,
        n_women=sizes.side,
        tie_probability=0.3,
        seed=_gen_seed(seed, index),
    )
    params.update(extra)
    return GameInput(name, params)


def _roommate(name: str, n: int, seed: int, index: int, **extra) -> GameInput:
    params = dict(kind="roommate", n=n, tie_probability=0.3, seed=_gen_seed(seed, index))
    params.update(extra)
    return GameInput(name, params)


def _cell_name(construction: str, graph: str, k: int) -> str:
    return f"{construction}-{graph}-k{k}"


def inputs(workload: str, sizes: Sizes, seed: int) -> list:
    """The files the workload's set-up writes, in the order it writes them."""
    if workload == "marriage-large":
        return [
            _marriage("a", sizes, seed, 1, complete=True),
            _marriage("b", sizes, seed, 2, acceptability_probability=0.5),
            ReferenceInput("a.is", "a", "is"),
            ReferenceInput("b.is", "b", "is"),
        ]
    if workload == "roommate-dynamics":
        sparse = [
            _roommate(f"c{g}", sizes.sparse_n, seed, 6 + g, acceptability_probability=0.05)
            for g in range(1, sizes.sparse_games + 1)
        ]
        return sparse + [
            _roommate("d", sizes.odd_n, seed, 4, complete=True),
            ReferenceInput("c1.cns", "c1", "cns"),
            ReferenceInput("c1.cis", "c1", "cis-ir"),
        ]
    if workload == "oracle-search":
        cells = [GadgetInput(_cell_name("ns", g, k), "ns", g, k) for g, k in sizes.ns_cells]
        cells += [GadgetInput(_cell_name("is", g, k), "is", g, k) for g, k in sizes.is_cells]
        return cells + [
            _roommate("e", sizes.count_n, seed, 5, acceptability_probability=0.6),
            _roommate("f", sizes.ir_n, seed, 6, complete=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def gen_call(game: GameInput) -> Call:
    """The ``gen`` call that prints ``game`` (marriage games only)."""
    p = game.params
    args = [
        p["kind"],
        "--men", str(p["n_men"]),
        "--women", str(p["n_women"]),
        "--tie-prob", str(p["tie_probability"]),
    ]
    if p.get("complete"):
        args.append("--complete")
    args += ["--seed", str(p["seed"])]
    return Call("gen", tuple(args))


def gen_source(workload: str, sizes: Sizes, seed: int, call: Call) -> GameInput:
    """The input file whose contents the ``gen`` call ``call`` must print."""
    return next(
        s
        for s in inputs(workload, sizes, seed)
        if isinstance(s, GameInput) and s.params["kind"] == "marriage" and gen_call(s) == call
    )


def script(workload: str, sizes: Sizes, seed: int) -> list[Call]:
    """The fixed CLI script of one pass, in call order."""
    if workload == "marriage-large":
        a = inputs(workload, sizes, seed)[0]
        return [
            gen_call(a),
            Call("solve", ("--concept", "is"), ("a",)),
            Call("solve", ("--concept", "is"), ("b",)),
            Call("solve", ("--concept", "ns-complete"), ("a",)),
            Call("verify", ("--concept", "is"), ("a", "a.is")),
            Call("verify", ("--concept", "core"), ("a", "a.is")),
            Call("verify", ("--concept", "strict-core"), ("a", "a.is")),
            Call("verify", ("--concept", "is"), ("b", "b.is")),
            Call("exists", ("--concept", "is"), ("b",)),
        ]
    if workload == "roommate-dynamics":
        steps = str(sizes.max_steps)
        calls = [
            call
            for g in range(1, sizes.sparse_games + 1)
            for call in (
                Call("solve", ("--concept", "cns"), (f"c{g}",)),
                Call("solve", ("--concept", "cis-ir"), (f"c{g}",)),
                Call("dynamics", ("--concept", "is", "--max-steps", steps), (f"c{g}",)),
                Call("dynamics", ("--concept", "ns", "--max-steps", steps), (f"c{g}",)),
            )
        ]
        return calls + [
            Call("verify", ("--concept", "cns"), ("c1", "c1.cns")),
            Call("verify", ("--concept", "cis"), ("c1", "c1.cis")),
            Call("exists", ("--concept", "ns"), ("d",)),
        ]
    if workload == "oracle-search":
        calls = [
            Call("exists", ("--concept", c, "--cap", "30"), (_cell_name(c, g, k),))
            for c, cells in (("ns", sizes.ns_cells), ("is", sizes.is_cells))
            for g, k in cells
        ]
        return calls + [
            Call("brute", ("--count", "--concept", "cns", "--cap", "30"), ("e",)),
            Call("brute", ("--count", "--concept", "cis", "--cap", "30"), ("e",)),
            Call("brute", ("--count", "--concept", "ir", "--cap", "30"), ("f",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(RATIONALE)

"""Command-line surface: solve, verify, exists, brute, dynamics, reduce, gen.

Exit codes are part of the interface: 0 stable/exists/ok, 1 unstable/absent,
2 usage or input errors, 3 cycle detected, 4 step limit reached, 5 internal
failure (a failed post-solve check or any other unexpected exception, reported
as one ``error: internal: ...`` line on stderr, never as a negative answer).
"""

from __future__ import annotations

import argparse
import sys

from .errors import PreconditionError
from .graph_matching import parse_graph
from .matching import Matching, parse_matching, serialize_matching
from .model import (
    MARRIAGE,
    ROOMMATE,
    Game,
    GenParams,
    _game_size,
    has_no_unacceptability,
    parse_instance,
    random_game,
    serialize_instance,
)
from .reductions import MAX_LIST_ENTRIES, mmm_to_marriage_ns, mmm_to_roommate_is
from .solvers import (
    brute_force,
    compute_cis_ir,
    compute_cns,
    compute_is_marriage,
    compute_ns_marriage_complete,
    exists_ns_is_roommate_complete,
    run_dynamics,
)
from .stability import Concept, DeviationWitness, find_violation

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CYCLE = 3
EXIT_STEP_LIMIT = 4
EXIT_INTERNAL = 5

#: Most candidate pairs, ``n(n-1)`` or ``2 * men * women``, that ``gen`` may
#: draw for: 3,162 roommate players, or 2,236 per side of a marriage game.
MAX_GEN_PAIRS = 10_000_000


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _witness_line(witness: DeviationWitness) -> str:
    target = "alone" if witness.target is None else str(witness.target)
    return (
        f"DEVIATION mover={witness.mover} target={target} "
        f"concept={witness.concept.value.upper()}"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepairs",
        description="Compute, verify, and stress-test individual-based stable "
        "matchings in marriage and roommate games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a stable matching")
    p.add_argument("--concept", required=True, choices=["is", "cis-ir", "cns", "ns-complete"])
    p.add_argument("instance")

    p = sub.add_parser("verify", help="check a matching against a stability concept")
    p.add_argument(
        "--concept",
        required=True,
        choices=[c.value for c in Concept],
    )
    p.add_argument("instance")
    p.add_argument("matching")

    p = sub.add_parser("exists", help="decide whether a stable matching exists")
    p.add_argument("--concept", required=True, choices=["ns", "is"])
    p.add_argument("--method", choices=["auto", "poly", "brute"], default="auto")
    p.add_argument("--cap", type=int, default=12, help="player cap for brute force")
    p.add_argument("instance")

    p = sub.add_parser("brute", help="brute-force search over all matchings")
    p.add_argument("--concept", required=True, choices=[c.value for c in Concept])
    p.add_argument("--count", action="store_true", help="print the number of stable matchings")
    p.add_argument("--cap", type=int, default=12)
    p.add_argument("instance")

    p = sub.add_parser("dynamics", help="run better-response dynamics with cycle detection")
    p.add_argument("--concept", required=True, choices=["ns", "is", "cns", "cis"])
    p.add_argument(
        "--start",
        default="singletons",
        help="'singletons' or a matching file path",
    )
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("instance")

    p = sub.add_parser("reduce", help="build a hardness-gadget game from a graph")
    p.add_argument("construction", choices=["ns-marriage", "is-roommate"])
    p.add_argument("graph")
    p.add_argument("k", type=int)

    p = sub.add_parser("gen", help="generate a random game instance")
    p.add_argument("kind", choices=[ROOMMATE, MARRIAGE])
    p.add_argument("--n", type=int, default=0, help="players (roommate)")
    p.add_argument("--men", type=int, default=0)
    p.add_argument("--women", type=int, default=0)
    p.add_argument("--tie-prob", type=float, default=0.0)
    p.add_argument("--accept-prob", type=float, default=1.0)
    p.add_argument("--mutual", action="store_true")
    p.add_argument("--complete", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    game = parse_instance(_read(args.instance))
    header = f"# solve concept={args.concept}"
    if args.concept == "is":
        matching = compute_is_marriage(game)
    elif args.concept == "ns-complete":
        matching = compute_ns_marriage_complete(game)
    else:
        report = compute_cis_ir(game) if args.concept == "cis-ir" else compute_cns(game)
        matching = report.matching
        header += f" deviations={report.deviation_count}"
    print(header)
    sys.stdout.write(serialize_matching(matching))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    game = parse_instance(_read(args.instance))
    matching = parse_matching(_read(args.matching), game)
    witness = find_violation(game, matching, Concept(args.concept))
    if witness is None:
        print("STABLE")
        return EXIT_OK
    print("UNSTABLE")
    if isinstance(witness, DeviationWitness):
        print(_witness_line(witness))
    elif args.concept == "ir":
        print(f"UNACCEPTABLE player={witness.i} partner={matching.partner_of(witness.i)}")
    else:
        print(f"BLOCK i={witness.i} j={witness.j}")
    return EXIT_NEGATIVE


def _poly_exists(game: Game, concept: Concept) -> Matching | None:
    """Polynomial existence decision: a stable matching, or None if none exists.

    Raises :class:`PreconditionError` when no polynomial method applies.
    """
    if game.kind == MARRIAGE:
        if concept is Concept.IS:
            return compute_is_marriage(game)
        if has_no_unacceptability(game):
            return compute_ns_marriage_complete(game)
        raise PreconditionError(
            "no polynomial method: ns existence for marriage games needs "
            "complete lists (try --method brute)"
        )
    if has_no_unacceptability(game):
        return exists_ns_is_roommate_complete(game)
    raise PreconditionError(
        "no polynomial method: roommate existence checks need complete "
        "lists (try --method brute)"
    )


def _cmd_exists(args: argparse.Namespace) -> int:
    game = parse_instance(_read(args.instance))
    concept = Concept(args.concept)
    method = args.method
    if method != "brute":
        try:
            found = _poly_exists(game, concept)
        except PreconditionError as exc:
            if method == "poly":
                print(exc, file=sys.stderr)
                return EXIT_USAGE
            method = "brute"
    if method == "brute":
        found, _count = brute_force(game, concept, cap=args.cap, stop_after=1)
    if found is None:
        print("NO")
        return EXIT_NEGATIVE
    print("YES")
    sys.stdout.write(serialize_matching(found))
    return EXIT_OK


def _cmd_brute(args: argparse.Namespace) -> int:
    game = parse_instance(_read(args.instance))
    concept = Concept(args.concept)
    if args.count:
        _found, count = brute_force(game, concept, cap=args.cap)
        print(count)
        return EXIT_OK
    found, _count = brute_force(game, concept, cap=args.cap, stop_after=1)
    if found is None:
        print("NONE")
        return EXIT_NEGATIVE
    sys.stdout.write(serialize_matching(found))
    return EXIT_OK


def _cmd_dynamics(args: argparse.Namespace) -> int:
    game = parse_instance(_read(args.instance))
    concept = Concept(args.concept)
    if args.start == "singletons":
        initial = Matching.singletons(game.n)
    else:
        initial = parse_matching(_read(args.start), game)
    trace = run_dynamics(game, concept, initial, args.max_steps)
    for step, witness in enumerate(trace.steps, 1):
        print(f"STEP {step} {_witness_line(witness)}")
    total = len(trace.steps)
    if trace.outcome == "stable":
        print(f"STABLE steps={total}")
        sys.stdout.write(serialize_matching(trace.final))
        return EXIT_OK
    if trace.outcome == "cycle":
        length = total - (trace.cycle_start or 0)
        print(f"CYCLE start={trace.cycle_start} length={length} steps={total}")
        return EXIT_CYCLE
    print(f"STEP-LIMIT steps={total}")
    return EXIT_STEP_LIMIT


def _cmd_reduce(args: argparse.Namespace) -> int:
    graph = parse_graph(_read(args.graph))
    if args.construction == "ns-marriage":
        artifact = mmm_to_marriage_ns(graph, args.k)
    else:
        artifact = mmm_to_roommate_is(graph, args.k)
    print(f"# reduction {args.construction} n={artifact.n} k={artifact.k} r={artifact.r}")
    for player, role in sorted(artifact.roles.items()):
        fields = [f"{name}={value}" for name, value in zip(role._fields, role) if value is not None]
        print(f"# role player={player} " + " ".join(fields))
    sys.stdout.write(serialize_instance(artifact.game))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    # random_game draws a number per candidate pair whatever --accept-prob
    # is, and lists each pair with that probability (surely under
    # --complete), so a request too slow to draw or too large to hold is
    # refused before any draw, once random_game's own checks pass.
    params = GenParams(
        kind=args.kind,
        n=args.n,
        n_men=args.men,
        n_women=args.women,
        tie_probability=args.tie_prob,
        acceptability_probability=args.accept_prob,
        mutual=args.mutual,
        complete=args.complete,
        seed=args.seed,
    )
    n, m = _game_size(params)
    pairs = n * (n - 1) if params.kind == ROOMMATE else 2 * m * (n - m)
    entries = pairs * (1.0 if params.complete else params.acceptability_probability)
    if pairs > MAX_GEN_PAIRS:
        raise PreconditionError(f"{pairs} candidate pairs exceed the limit of {MAX_GEN_PAIRS}")
    if entries > MAX_LIST_ENTRIES:
        raise PreconditionError(
            f"{entries:.0f} expected list entries exceed the limit of {MAX_LIST_ENTRIES}"
        )
    game = random_game(params)
    print(
        f"# gen kind={params.kind} seed={params.seed} "
        f"tie={params.tie_probability} accept={params.acceptability_probability} "
        f"mutual={params.mutual} complete={params.complete}"
    )
    sys.stdout.write(serialize_instance(game))
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "exists": _cmd_exists,
    "brute": _cmd_brute,
    "dynamics": _cmd_dynamics,
    "reduce": _cmd_reduce,
    "gen": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # FormatError and PreconditionError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # InternalCheckError included: a bug, not an answer
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

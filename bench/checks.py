"""Correctness checks of CLI call outputs, run by the driver after all timing.

Every check is semantic and works for any seed: a printed matching must be
stable for its concept, a verdict must agree with the verifier, a ``NO``
must agree with the reduction's known answer, a dynamics transcript must
replay to what it claims, and ``gen`` must print exactly the file the
library wrote.  For the default seed at full size the driver also compares
exit codes and stdout digests with ``expected.json``.
"""

from __future__ import annotations

import re
from pathlib import Path

import workloads
from make_inputs import small_graph
from stablepairs import (
    Concept,
    Matching,
    exists_ns_is_roommate_complete,
    has_no_unacceptability,
    is_individually_rational,
    is_stable,
    minimum_maximal_matching,
    mmm_to_marriage_ns,
    mmm_to_roommate_is,
    parse_instance,
    parse_matching,
)

EXIT_OK, EXIT_NEGATIVE, EXIT_CYCLE, EXIT_STEP_LIMIT = 0, 1, 3, 4
STEP = re.compile(r"STEP (\d+) DEVIATION mover=(\d+) target=(\d+|alone) concept=[A-Z]+")


class CheckError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def involution_count(n: int) -> int:
    """Number of matchings of n players: I(n) = I(n-1) + (n-1) I(n-2)."""
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


class Checker:
    """Checks outputs of one workload's calls against the files in ``indir``."""

    def __init__(self, workload: str, sizes: workloads.Sizes, seed: int, indir: str):
        self.source = (workload, sizes, seed)
        self.specs = {s.name: s for s in workloads.inputs(workload, sizes, seed)}
        self.indir = Path(indir)
        self._games: dict = {}

    def game(self, name: str):
        if name not in self._games:
            self._games[name] = parse_instance((self.indir / name).read_text(encoding="utf-8"))
        return self._games[name]

    def check(self, call: workloads.Call, exit_code: int, stdout: bytes, stderr: bytes) -> str | None:
        """``None`` if the output is right, else what is wrong with it."""
        try:
            require(b"Traceback (most recent call last)" not in stderr, "traceback on stderr")
            getattr(self, "check_" + call.cmd)(call, exit_code, stdout.decode("utf-8").splitlines())
        except (CheckError, ValueError) as exc:
            return f"{call.label}: {exc}"
        return None

    def stable_matching(self, name: str, lines: list[str], concept: Concept) -> Matching:
        game = self.game(name)
        matching = parse_matching("\n".join(lines), game)
        require(is_stable(game, matching, concept), f"printed matching is not {concept.value}-stable")
        return matching

    def check_gen(self, call, exit_code, lines):
        require(exit_code == EXIT_OK, f"exit code {exit_code}")
        name = workloads.gen_source(*self.source, call).name
        written = (self.indir / name).read_text(encoding="utf-8").splitlines()
        require(lines[:1] and lines[0].startswith("# gen "), "missing '# gen' header")
        require(lines[1:] == written, f"output differs from the library's file {name}")

    def check_solve(self, call, exit_code, lines):
        require(exit_code == EXIT_OK, f"exit code {exit_code}")
        name = call.option("--concept")
        require(lines[:1] and lines[0].startswith(f"# solve concept={name}"), "missing header")
        matching = self.stable_matching(call.inputs[0], lines[1:], Concept(workloads.SOLVE_CONCEPT[name]))
        if name == "cis-ir":
            require(is_individually_rational(self.game(call.inputs[0]), matching), "not IR")

    def check_verify(self, call, exit_code, lines):
        game = self.game(call.inputs[0])
        text = (self.indir / call.inputs[1]).read_text(encoding="utf-8")
        stable = is_stable(game, parse_matching(text, game), Concept(call.option("--concept")))
        want = (EXIT_OK, "STABLE") if stable else (EXIT_NEGATIVE, "UNSTABLE")
        require((exit_code, lines[:1]) == (want[0], [want[1]]), f"verdict differs from {want[1]}")

    def exists_answer(self, call) -> bool:
        """The right answer: the reduction's, else the only one possible, else
        the library's in-process decision."""
        name = call.inputs[0]
        spec = self.specs[name]
        concept = Concept(call.option("--concept"))
        if isinstance(spec, workloads.GadgetInput):
            build = mmm_to_marriage_ns if spec.construction == "ns" else mmm_to_roommate_is
            artifact = build(small_graph(spec.graph), spec.k)
            return minimum_maximal_matching(artifact.graph) <= spec.k
        game = self.game(name)
        if game.is_marriage and concept is Concept.IS:
            return True
        require(not game.is_marriage and has_no_unacceptability(game), "no reference answer")
        return exists_ns_is_roommate_complete(game) is not None

    def check_exists(self, call, exit_code, lines):
        answer = self.exists_answer(call)
        if answer:
            require(exit_code == EXIT_OK and lines[:1] == ["YES"], "answer should be YES")
            self.stable_matching(call.inputs[0], lines[1:], Concept(call.option("--concept")))
        else:
            require(exit_code == EXIT_NEGATIVE and lines == ["NO"], "answer should be NO")

    def check_brute(self, call, exit_code, lines):
        require(exit_code == EXIT_OK, f"exit code {exit_code}")
        require(len(lines) == 1 and lines[0].isdigit(), "expected one count")
        game = self.game(call.inputs[0])
        if call.option("--concept") == "ir" and has_no_unacceptability(game):
            require(int(lines[0]) == involution_count(game.n), "IR count of a complete game")

    def check_dynamics(self, call, exit_code, lines):
        """Replay the printed moves from singletons and check the verdict line."""
        game = self.game(call.inputs[0])
        current = Matching.singletons(game.n)
        history = {current: 0}
        repeat = None
        steps = 0
        for line in lines:
            match = STEP.fullmatch(line)
            if match is None:
                break
            steps += 1
            require(int(match[1]) == steps and repeat is None, f"bad step line {line!r}")
            target = None if match[3] == "alone" else int(match[3])
            current = current.with_move(int(match[2]), target)
            repeat = history.get(current)
            history.setdefault(current, steps)
        verdict = lines[steps].split() if steps < len(lines) else []
        if exit_code == EXIT_CYCLE:
            length = steps - (repeat or 0)
            require(repeat is not None, "cycle claimed but no matching repeats")
            require(verdict == ["CYCLE", f"start={repeat}", f"length={length}", f"steps={steps}"], "bad CYCLE line")
        elif exit_code == EXIT_STEP_LIMIT:
            require(repeat is None and steps == int(call.option("--max-steps")), "bad step limit")
            require(verdict == ["STEP-LIMIT", f"steps={steps}"], "bad STEP-LIMIT line")
        else:
            require(exit_code == EXIT_OK and repeat is None, f"exit code {exit_code}")
            require(verdict == ["STABLE", f"steps={steps}"], "bad STABLE line")
            final = self.stable_matching(call.inputs[0], lines[steps + 1 :], Concept(call.option("--concept")))
            require(final == current, "final matching differs from the replay")

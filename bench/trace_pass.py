"""Traced in-process pass: ``trace_pass.py WORKLOAD SEED INDIR SIZES OUT``.

Makes the calls of the workload's CLI script in-process, through each
module's public functions, in the same order and on the same input files;
``solve``, for instance, becomes ``parse_instance``, the solver, then
``serialize_matching``.  Around each call into a layer it records a span
(name, start, end, parent span, and a call id shared by all spans of one
CLI-equivalent call).  Spans are named ``<layer>.<operation>``, where the
layers are the modules of ``src/stablepairs``; root spans are ``cli.<cmd>``
for CLI-equivalent calls and ``bench.<stage>`` for the benchmark's own
stages, which are:

* ``bench.setup``: the set-up's game generation, gadget construction and
  serialization, replayed;
* ``bench.check``: the post-check of each matching a call returns;
* ``bench.probe``: direct calls the script makes only inside other calls.

The pass runs twice, with spans off and on, to measure tracing overhead;
then ``parse_instance`` runs once more on the largest input under
``tracemalloc`` for its allocation peak.  Spans stay in memory and are
written with the derived metrics to ``OUT`` (JSON) at the end.  Needs
``stablepairs`` importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import workloads
from make_inputs import REDUCTIONS, small_graph
from stablepairs import (
    MARRIAGE,
    Concept,
    GenParams,
    Graph,
    Matching,
    brute_force,
    compute_cis_ir,
    compute_cns,
    compute_is_marriage,
    compute_ns_marriage_complete,
    exists_ns_is_roommate_complete,
    find_deviation,
    find_pair_block,
    has_no_unacceptability,
    is_individually_rational,
    max_matching,
    parse_instance,
    parse_matching,
    random_game,
    run_dynamics,
    serialize_instance,
    serialize_matching,
)
from stablepairs.stability import DEVIATION_CONCEPTS

# Concepts whose script results must also be individually rational; CIS
# results come only from ``solve --concept cis-ir``.
RESULT_IS_IR = {Concept.IS, Concept.NS, Concept.CIS}


class Tracer:
    """Span recorder; with ``enabled`` false, ``span`` only runs its body."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "call": len(self.spans) if parent is None else parent["call"],
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class Pass:
    """One in-process pass of a workload over the files in ``indir``."""

    def __init__(self, workload: str, sizes: workloads.Sizes, seed: int, indir: Path, tracer: Tracer):
        self.workload, self.sizes, self.seed = workload, sizes, seed
        self.specs = workloads.inputs(workload, sizes, seed)
        self.calls = workloads.script(workload, sizes, seed)
        self.indir = indir
        self.t = tracer

    def read(self, name: str) -> str:
        return (self.indir / name).read_text(encoding="utf-8")

    def parse(self, name: str):
        text = self.read(name)
        with self.t.span("model.parse"):
            return parse_instance(text)

    def run(self) -> None:
        with self.t.span("bench.setup"):
            self.replay_setup()
        for call in self.calls:
            with self.t.span(f"cli.{call.cmd}"):
                result = getattr(self, call.cmd)(call)
            if result is not None:
                with self.t.span("bench.check"):
                    self.check(*result)
        with self.t.span("bench.probe"):
            self.probe()

    def replay_setup(self) -> None:
        for spec in self.specs:
            if isinstance(spec, workloads.GameInput):
                with self.t.span("model.gen"):
                    game = random_game(GenParams(**spec.params))
            elif isinstance(spec, workloads.GadgetInput):
                graph = small_graph(spec.graph)
                with self.t.span("reductions.build"):
                    game = REDUCTIONS[spec.construction](graph, spec.k).game
            else:
                continue
            with self.t.span("model.serialize"):
                serialize_instance(game)

    def check(self, game, matching: Matching, concept: Concept) -> None:
        with self.t.span("stability.find_deviation"):
            find_deviation(game, matching, concept)
        if concept in RESULT_IS_IR:
            with self.t.span("stability.ir"):
                is_individually_rational(game, matching)

    def gen(self, call: workloads.Call):
        params = workloads.gen_source(self.workload, self.sizes, self.seed, call).params
        with self.t.span("model.gen"):
            game = random_game(GenParams(**params))
        with self.t.span("model.serialize"):
            serialize_instance(game)

    def solve(self, call: workloads.Call):
        game = self.parse(call.inputs[0])
        name = call.option("--concept")
        if name == "is":
            with self.t.span("solvers.is_marriage"):
                matching = compute_is_marriage(game)
        elif name == "ns-complete":
            with self.t.span("solvers.ns_marriage"):
                matching = compute_ns_marriage_complete(game)
        else:
            solver = compute_cis_ir if name == "cis-ir" else compute_cns
            with self.t.span("solvers.better_response"):
                report = solver(game)
            self.t.count("solvers.deviations", report.deviation_count)
            matching = report.matching
        with self.t.span("matching.serialize"):
            serialize_matching(matching)
        return game, matching, Concept(workloads.SOLVE_CONCEPT[name])

    def verify(self, call: workloads.Call):
        game = self.parse(call.inputs[0])
        text = self.read(call.inputs[1])
        with self.t.span("matching.parse"):
            matching = parse_matching(text, game)
        concept = Concept(call.option("--concept"))
        if concept is Concept.IR:
            with self.t.span("stability.ir"):
                is_individually_rational(game, matching)
        elif concept in DEVIATION_CONCEPTS:
            with self.t.span("stability.find_deviation"):
                find_deviation(game, matching, concept)
        else:
            with self.t.span("stability.find_pair_block"):
                find_pair_block(game, matching, strict=concept is Concept.STRICT_CORE)

    def exists(self, call: workloads.Call):
        game = self.parse(call.inputs[0])
        concept = Concept(call.option("--concept"))
        if game.kind == MARRIAGE and concept is Concept.IS:
            with self.t.span("solvers.is_marriage"):
                found = compute_is_marriage(game)
        else:
            with self.t.span("model.completeness"):
                complete = has_no_unacceptability(game)
            if complete and game.kind == MARRIAGE:
                with self.t.span("solvers.ns_marriage"):
                    found = compute_ns_marriage_complete(game)
            elif complete:
                with self.t.span("solvers.roommate_complete"):
                    found = exists_ns_is_roommate_complete(game)
            else:
                cap = int(call.option("--cap") or 12)
                with self.t.span("solvers.search_exists"):
                    found, _ = brute_force(game, concept, cap=cap, stop_after=1)
        if found is None:
            return None
        with self.t.span("matching.serialize"):
            serialize_matching(found)
        return game, found, concept

    def brute(self, call: workloads.Call):
        game = self.parse(call.inputs[0])
        concept = Concept(call.option("--concept"))
        with self.t.span("solvers.search_count"):
            _, count = brute_force(game, concept, cap=int(call.option("--cap")))
        self.t.count("solvers.stable_count", count)

    def dynamics(self, call: workloads.Call):
        game = self.parse(call.inputs[0])
        concept = Concept(call.option("--concept"))
        start = Matching.singletons(game.n)
        with self.t.span("solvers.dynamics"):
            trace = run_dynamics(game, concept, start, int(call.option("--max-steps")))
        self.t.count("solvers.dynamics_steps", len(trace.steps))
        if trace.outcome == "stable":
            with self.t.span("matching.serialize"):
                serialize_matching(trace.final)

    def probe(self) -> None:
        if self.workload == "marriage-large":
            # compute_ns_marriage_complete checks completeness inside the
            # solver; time the same check directly.
            game = parse_instance(self.read("a"))
            with self.t.span("model.completeness"):
                has_no_unacceptability(game)
        elif self.workload == "roommate-dynamics":
            # The graph exists_ns_is_roommate_complete builds for its first
            # candidate singleton: players other than it, joined when both
            # weakly prefer each other to it.
            game = parse_instance(self.read("d"))
            single = 1
            others = [j for j in game.players() if j != single]
            edges = []
            for a, j in enumerate(others, 1):
                pj = game.prefs(j)
                for b in range(a + 1, len(others) + 1):
                    k = others[b - 1]
                    pk = game.prefs(k)
                    if pj.rank_of(k) <= pj.rank_of(single) and pk.rank_of(j) <= pk.rank_of(single):
                        edges.append((a, b))
            with self.t.span("graph_matching.build"):
                graph = Graph.build(len(others), edges)
            with self.t.span("graph_matching.max_matching"):
                max_matching(graph)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """Per-operation totals, per-layer self times and counts of one traced pass."""
    metrics: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer, _, _ = span["name"].partition(".")
        if layer == "bench":
            continue
        if layer != "cli":
            key = span["name"] + "_s"
            metrics[key] = metrics.get(key, 0.0) + span["end"] - span["start"]
        key = layer + ".self_s"
        metrics[key] = metrics.get(key, 0.0) + own
    metrics.update(counts)
    if counts.get("solvers.deviations"):
        metrics["solvers.step_us"] = 1e6 * metrics["solvers.better_response_s"] / counts["solvers.deviations"]
    return metrics


def timed_pass(workload, sizes, seed, indir, enabled: bool) -> tuple[float, Tracer]:
    tracer = Tracer(enabled)
    start = time.perf_counter()
    Pass(workload, sizes, seed, indir, tracer).run()
    return time.perf_counter() - start, tracer


def parse_peak_mb(workload: str, sizes: workloads.Sizes, seed: int, indir: Path) -> float:
    names = [s.name for s in workloads.inputs(workload, sizes, seed) if not isinstance(s, workloads.ReferenceInput)]
    largest = max(names, key=lambda name: (indir / name).stat().st_size)
    text = (indir / largest).read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        parse_instance(text)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    workload, seed_text, indir_text, sizes_name, out = argv
    sizes = workloads.SIZES[sizes_name]
    seed, indir = int(seed_text), Path(indir_text)
    plain_s, _ = timed_pass(workload, sizes, seed, indir, enabled=False)
    traced_s, tracer = timed_pass(workload, sizes, seed, indir, enabled=True)
    metrics = layer_metrics(tracer.spans, tracer.counts)
    metrics["model.parse_peak_mb"] = parse_peak_mb(workload, sizes, seed, indir)
    metrics["trace.overhead_s"] = traced_s - plain_s
    calls_s = sum(s["end"] - s["start"] for s in tracer.spans if s["name"].startswith("cli."))
    result = {
        "plain_s": plain_s,
        "traced_s": traced_s,
        "calls_s": calls_s,
        "metrics": metrics,
        "spans": tracer.spans,
    }
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Write one workload's input files: ``make_inputs.py WORKLOAD SEED OUTDIR SIZES``.

``SIZES`` is ``full`` or ``toy``.  Also writes ``OUTDIR/inputs.sha256``, one
``<sha256> <name>`` line per input.  The benchmark driver runs this in a child
process, so that the driver itself never holds a game while it measures the
peak memory of CLI calls.  Needs ``stablepairs`` importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import workloads
from stablepairs import (
    GenParams,
    Graph,
    compute_cis_ir,
    compute_cns,
    compute_is_marriage,
    mmm_to_marriage_ns,
    mmm_to_roommate_is,
    random_game,
    serialize_instance,
    serialize_matching,
)

REDUCTIONS = {"ns": mmm_to_marriage_ns, "is": mmm_to_roommate_is}
REFERENCE_SOLVERS = {
    "is": compute_is_marriage,
    "cns": lambda game: compute_cns(game).matching,
    "cis-ir": lambda game: compute_cis_ir(game).matching,
}


def small_graph(name: str) -> Graph:
    n, edges = workloads.SMALL_GRAPHS[name]
    return Graph.build(n, edges)


def write_inputs(workload: str, sizes: workloads.Sizes, seed: int, outdir: Path) -> None:
    games = {}
    digests = []
    for spec in workloads.inputs(workload, sizes, seed):
        if isinstance(spec, workloads.GameInput):
            game = games[spec.name] = random_game(GenParams(**spec.params))
            text = serialize_instance(game)
        elif isinstance(spec, workloads.GadgetInput):
            artifact = REDUCTIONS[spec.construction](small_graph(spec.graph), spec.k)
            text = serialize_instance(artifact.game)
        else:
            text = serialize_matching(REFERENCE_SOLVERS[spec.concept](games[spec.game]))
        (outdir / spec.name).write_text(text, encoding="utf-8")
        digests.append(f"{hashlib.sha256(text.encode()).hexdigest()} {spec.name}\n")
    (outdir / "inputs.sha256").write_text("".join(digests), encoding="utf-8")


def main(argv: list[str]) -> int:
    workload, seed, outdir, sizes = argv
    outdir_path = Path(outdir)
    outdir_path.mkdir(parents=True, exist_ok=True)
    write_inputs(workload, workloads.SIZES[sizes], int(seed), outdir_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

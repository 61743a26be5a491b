"""Smoke check of the benchmark at toy sizes.

Every workload runs once untraced and once traced: every end-to-end and
per-layer metric it should report appears with its unit, no call fails, and
the driver's summary covers every metric ``BENCHMARK.json`` names.  Set-up
is deterministic in the seed.
"""

from __future__ import annotations

import os

import pytest

import run
import workloads

END_TO_END = {
    "wall_ref": "ref",
    "wall_s": "s",
    "reference_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}
COMMANDS = {
    "marriage-large": ("gen", "solve", "verify", "exists"),
    "roommate-dynamics": ("solve", "dynamics", "verify", "exists"),
    "oracle-search": ("exists", "brute"),
}
PER_LAYER_ALL = (
    "cli.startup_s",
    "cli.overhead_s",
    "cli.self_s",
    "model.parse_s",
    "model.gen_s",
    "model.serialize_s",
    "model.completeness_s",
    "model.parse_peak_mb",
    "matching.serialize_s",
    "stability.find_deviation_s",
    "stability.ir_s",
    "solvers.self_s",
    "trace.overhead_s",
)
PER_LAYER = {
    "marriage-large": (
        "matching.parse_s",
        "stability.find_pair_block_s",
        "solvers.is_marriage_s",
        "solvers.ns_marriage_s",
    ),
    "roommate-dynamics": (
        "matching.parse_s",
        "solvers.better_response_s",
        "solvers.deviations",
        "solvers.step_us",
        "solvers.dynamics_s",
        "solvers.dynamics_steps",
        "solvers.roommate_complete_s",
        "graph_matching.max_matching_s",
    ),
    "oracle-search": (
        "solvers.search_exists_s",
        "solvers.search_count_s",
        "solvers.stable_count",
        "reductions.build_s",
    ),
}


def unit(name: str) -> str:
    return {"s": "s", "us": "us", "mb": "MB"}.get(name.rsplit("_", 1)[-1], "count")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_reports_every_metric(workload, trace):
    results = run.run_benchmark(workload, seed=3, seconds=0, trace=trace, sizes_name="toy")
    assert results["correct"], results["failures"] + results["problems"]
    assert results["failed"] == 0 and results["attempted"] == len(workloads.script(workload, workloads.TOY, 3))
    metrics = results["metrics"]
    if trace:
        wanted = {name: unit(name) for name in PER_LAYER_ALL + PER_LAYER[workload]}
        assert results["spans"]
    else:
        wanted = dict(END_TO_END, **{f"{cmd}_s": "s" for cmd in COMMANDS[workload]})
    for name, want in wanted.items():
        assert metrics[name]["unit"] == want, name
    assert metrics["failed_ratio"]["value"] == 0
    summary = run.report(results, run.metric_names(trace))
    assert set(summary["metrics"]) == set(run.metric_names(trace))
    assert results["provenance"]["inputs_sha256"] and results["provenance"]["loadavg_end"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload, tmp_path):
    def digests(seed: int, name: str) -> dict:
        workdir = str(tmp_path / name)
        os.makedirs(workdir)
        return run.set_up(workload, "toy", seed, workdir, 1)[1][0]

    first = digests(5, "first")
    assert digests(5, "again") == first
    assert digests(6, "other") != first

"""Benchmark of the stablepairs CLI.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Workloads (``workloads.py`` says why each
exists): ``marriage-large``, ``roommate-dynamics`` and ``oracle-search``.

The CLI calls (``python -m stablepairs.cli`` with ``PYTHONPATH=src``, from
byte-compiled sources as an installed package runs) are made one at a time
by a single small process, ``timer.py``: a closed loop with one client and
no threads.  A pass is one run of the workload's fixed script; passes repeat
while the next one should end within ``--seconds``, at least one.  Each
timing is the median over its samples; the results file also gives the
highest percentile with at least ten samples beyond it, and the sample count.

``wall_s`` is a pass's summed call wall time.  The headline ``wall_ref``
divides it by the time ``timer.py`` took, in the same pass, for a fixed
piece of interpreter work run before each call.  On a shared host the
machine's speed drifts by 20-40% over minutes; ``wall_s`` drifts with it,
while ``wall_ref`` compares commits measured at different times.

* ``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, from
  untraced CLI calls.  Set-up (``make_inputs.py``: writing the inputs,
  including the reference matchings the verify calls read) runs in a child
  process three times, and ``setup_s`` is its median.
* ``--trace 1`` prints the per-layer metrics.  A round is one CLI pass plus
  one child running ``trace_pass.py`` (the same calls in-process, with spans
  off and then on); rounds repeat like passes.

``peak_rss_mb`` is the largest ``ru_maxrss`` of a CLI child.  That count
includes the spawning process's peak RSS, so the results file records
``timer.py``'s own peak at each spawn and marks the metric invalid if it
reaches the smallest child peak.

After timing, every distinct output is checked (``checks.py``); for the
default seed, exit codes and stdout digests must also match
``expected.json`` (``record_expected.py`` writes it).  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, with run provenance and, for
``--trace 1``, the spans, go to ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 3
STARTUP_CALLS = 5
TINY_GAME = "roommate 2\n1: 2\n2: 1\n"
STARTUP_CALL = workloads.Call("solve", ("--concept", "cns"), ("tiny",))
UNITS = {"_s": "s", "_us": "us", "_mb": "MB"}
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


class CallResult(NamedTuple):
    call: workloads.Call
    wall_s: float
    exit_code: int
    peak_rss_kb: int
    timer_peak_kb: int  # the spawning process's own peak RSS
    stem: str  # path of the call's .out and .err files, less the suffix

    def stdout(self) -> bytes:
        return read_bytes(self.stem + ".out")

    def stderr(self) -> bytes:
        return read_bytes(self.stem + ".err")


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def run_child(argv: list) -> float:
    """Run a Python helper to completion; its wall time in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *map(str, argv)], env=ENV, check=True, cwd=ROOT)
    return time.perf_counter() - start


def run_pass(calls: list[workloads.Call], workdir: str, tag: str) -> tuple[float, float, list[CallResult]]:
    """One pass of ``calls`` through ``timer.py``: the calls' summed wall
    time, the summed time of the timer's reference work, and the results."""
    stems = [os.path.join(workdir, f"{tag}-{i}") for i in range(len(calls))]
    plan, results = os.path.join(workdir, tag + ".plan"), os.path.join(workdir, tag + ".times")
    with open(plan, "w", encoding="utf-8") as handle:
        for stem, call in zip(stems, calls):
            argv = [sys.executable, "-m", "stablepairs.cli", call.cmd, *call.args]
            argv += [os.path.join(workdir, name) for name in call.inputs]
            handle.write("\t".join([stem, *argv]) + "\n")
    run_child([os.path.join(BENCH, "timer.py"), plan, results])
    with open(results, encoding="ascii") as handle:
        rows = [line.split() for line in handle]
    out = [
        CallResult(call, float(wall), int(code), int(peak), int(own), stem)
        for call, stem, (wall, code, peak, own) in zip(calls, stems, rows)
    ]
    return float(rows[-1][1]), float(rows[-1][2]), out


def set_up(workload: str, sizes_name: str, seed: int, workdir: str, repeats: int) -> tuple[list[float], list[dict]]:
    """Write the inputs ``repeats`` times; wall times and input digests."""
    walls, digests = [], []
    for _ in range(repeats):
        walls.append(run_child([os.path.join(BENCH, "make_inputs.py"), workload, seed, workdir, sizes_name]))
        with open(os.path.join(workdir, "inputs.sha256"), encoding="ascii") as handle:
            digests.append({name: digest for digest, name in map(str.split, handle)})
    return walls, digests


def summarize(samples: list[float], unit: str) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (``None`` below eleven samples), and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": round(100 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return {"value": statistics.median(ordered), "unit": unit, "n": n, "tail": tail, "samples": samples}


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


def loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return handle.read().strip()


def provenance(seed: int) -> dict:
    commit = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes_name: str = "full") -> dict:
    """Set up, time, then check one workload; the full results."""
    calls = workloads.script(workload, workloads.SIZES[sizes_name], seed)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    load_start = loadavg()
    try:
        run_child(["-m", "compileall", "-q", os.path.join(ROOT, "src", "stablepairs")])
        setup, digests = set_up(workload, sizes_name, seed, workdir, 1 if trace else SETUP_REPEATS)
        with open(os.path.join(workdir, "tiny"), "w", encoding="ascii") as handle:
            handle.write(TINY_GAME)
        _, _, startup = run_pass([STARTUP_CALL] * STARTUP_CALLS, workdir, "startup")
        passes: list[list[CallResult]] = []
        pass_walls: list[float] = []
        pass_refs: list[float] = []
        rounds: list[dict] = []
        started = time.perf_counter()
        round_wall = 0.0
        while not passes or time.perf_counter() - started + round_wall <= seconds:
            round_start = time.perf_counter()
            wall, ref, results = run_pass(calls, workdir, f"pass{len(passes)}")
            passes.append(results)
            pass_walls.append(wall)
            pass_refs.append(ref)
            if trace:
                out = os.path.join(workdir, "trace.json")
                run_child([os.path.join(BENCH, "trace_pass.py"), workload, seed, workdir, sizes_name, out])
                with open(out, encoding="utf-8") as handle:
                    rounds.append(json.load(handle))
            round_wall = time.perf_counter() - round_start
        load_end = loadavg()

        everything = [r for p in passes for r in p]
        problems = []
        if any(d != digests[0] for d in digests):
            problems.append("set-up wrote different inputs for the same seed")
        if trace:
            metrics = layer_summaries(rounds, pass_walls, startup)
        else:
            metrics = {
                "wall_ref": summarize([w / r for w, r in zip(pass_walls, pass_refs)], "ref"),
                "wall_s": summarize(pass_walls, "s"),
                "reference_s": summarize(pass_refs, "s"),
                "setup_s": summarize(setup, "s"),
            }
            for cmd in dict.fromkeys(call.cmd for call in calls):
                metrics[f"{cmd}_s"] = summarize([sum(r.wall_s for r in p if r.call.cmd == cmd) for p in passes], "s")
        peaks = [r.peak_rss_kb for r in everything]
        metrics["peak_rss_mb"] = {"value": max(peaks) / 1024, "unit": "MB"}
        timer_peak = max(r.timer_peak_kb for r in everything + startup)
        failures = check_outputs(workload, sizes_name, seed, workdir, everything, digests[0], problems)
        metrics["failed_ratio"] = {"value": len(failures) / len(everything), "unit": "ratio"}
        results = {
            "workload": workload,
            "why": workloads.RATIONALE[workload],
            "sizes": sizes_name,
            "seconds": seconds,
            "trace": trace,
            "correct": not failures and not problems,
            "attempted": len(everything),
            "failed": len(failures),
            "failures": failures,
            "problems": problems,
            "metrics": metrics,
            "call_latency": {
                cmd: summarize([r.wall_s for r in everything if r.call.cmd == cmd], "s")
                for cmd in dict.fromkeys(call.cmd for call in calls)
            },
            "peak_rss_check": {
                "timer_peak_mb_max": timer_peak / 1024,
                "child_peak_mb_min": min(peaks) / 1024,
                "valid": timer_peak < min(peaks),
            },
            "calls": [
                {"label": r.call.label, "exit": r.exit_code, "stdout_sha256": hashlib.sha256(r.stdout()).hexdigest()}
                for r in passes[0]
            ],
            "provenance": dict(provenance(seed), inputs_sha256=digests[0], loadavg_start=load_start, loadavg_end=load_end),
        }
        if trace:
            results["spans"] = rounds[-1]["spans"]
        return results
    finally:
        shutil.rmtree(workdir)


def layer_summaries(rounds: list[dict], pass_walls: list[float], startup: list[CallResult]) -> dict:
    """Per-layer metrics: medians over rounds of the traced pass's values."""
    names = dict.fromkeys(name for r in rounds for name in r["metrics"])
    metrics = {
        name: summarize([r["metrics"][name] for r in rounds if name in r["metrics"]], unit_of(name))
        for name in names
    }
    metrics["cli.startup_s"] = summarize([r.wall_s for r in startup], "s")
    metrics["cli.overhead_s"] = summarize([wall - r["calls_s"] for wall, r in zip(pass_walls, rounds)], "s")
    return metrics


def check_outputs(workload, sizes_name, seed, workdir, results, input_digests, problems) -> list[str]:
    """Check every distinct output once, and for the default seed the
    recorded digests; one entry per failed call."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from checks import Checker

    checker = Checker(workload, workloads.SIZES[sizes_name], seed, workdir)
    expected = None
    if seed == workloads.DEFAULT_SEED and sizes_name == "full":
        with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as handle:
            expected = json.load(handle)[workload]
        if expected["inputs_sha256"] != input_digests:
            problems.append("inputs differ from the recorded inputs of the default seed")
    verdicts: dict = {}
    failed = []
    for r in results:
        key = (r.call, r.exit_code, r.stdout(), r.stderr())
        if key not in verdicts:
            verdict = checker.check(*key)
            if expected and verdict is None:
                want = expected["calls"][r.call.label]
                if want != {"exit": r.exit_code, "stdout_sha256": hashlib.sha256(key[2]).hexdigest()}:
                    verdict = f"{r.call.label}: differs from the recorded output"
            verdicts[key] = verdict
        if verdicts[key] is not None:
            failed.append(verdicts[key])
    return failed


def metric_names(trace: bool) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(results: dict, names: list[str]) -> dict:
    """Print the metrics as lines, then return the one-line JSON summary."""
    print(f"# {results['workload']}: {results['why']}")
    for name, m in results["metrics"].items():
        tail = m.get("tail")
        count = f" n={m['n']}" if "n" in m else ""
        extra = f" p{tail['percentile']}={tail['value']:.6g}" if tail else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{count}{extra}")
    for problem in results["problems"] + results["failures"]:
        print(f"FAILED {problem}")
    if not results["peak_rss_check"]["valid"]:
        print("INVALID peak_rss_mb: the timer's own peak RSS reached a child's peak")
    return {
        "correct": results["correct"],
        "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": {name: {k: results["metrics"][name][k] for k in ("value", "unit")} for name in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the stablepairs CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stablepairs", "cli.py")):
        print(f"error: no stablepairs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = metric_names(bool(args.trace))
    results = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    summary = report(results, names)
    print(f"# results: {os.path.relpath(out, ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record ``expected.json``: the default seed's input digests and, for every
CLI call of every workload, its exit code and stdout digest.

    python3 bench/record_expected.py

Run from the repository root at a commit whose outputs are known to be
right; it refuses to record an output that fails its correctness check.
Output must stay byte-identical across optimizations, so re-record only on
a deliberate change of output.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import workloads
from run import BENCH, OUT, ROOT, run_child, run_pass, set_up


def record(workload: str) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from checks import Checker

    seed = workloads.DEFAULT_SEED
    workdir = os.path.join(OUT, f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run_child(["-m", "compileall", "-q", os.path.join(ROOT, "src", "stablepairs")])
        _, digests = set_up(workload, "full", seed, workdir, 1)
        checker = Checker(workload, workloads.FULL, seed, workdir)
        calls = {}
        _, results = run_pass(workloads.script(workload, workloads.FULL, seed), workdir, "record")
        for r in results:
            problem = checker.check(r.call, r.exit_code, r.stdout(), r.stderr())
            if problem:
                raise SystemExit(f"not recording a wrong output: {problem}")
            calls[r.call.label] = {"exit": r.exit_code, "stdout_sha256": hashlib.sha256(r.stdout()).hexdigest()}
        return {"inputs_sha256": digests[0], "calls": calls}
    finally:
        shutil.rmtree(workdir)


def main() -> int:
    expected = {workload: record(workload) for workload in workloads.WORKLOADS}
    with open(os.path.join(BENCH, "expected.json"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run CLI calls one at a time: ``timer.py PLAN RESULTS``.

``PLAN`` holds one call per line, tab-separated: the path stem for the
call's ``.out`` and ``.err`` files, then its argv.  ``RESULTS`` gets one line
per call, ``<wall s> <exit code> <child peak RSS KB> <own peak RSS KB>``,
the last taken just before the spawn, then ``pass <wall s> <reference s>``:
the calls' summed wall time and the summed time of ``reference()``, which
runs before each call.  The reference is fixed interpreter work that the
program under test cannot change, so the ratio of the two sums measures the
calls in units of the machine's current speed.

A child's ``ru_maxrss`` includes the peak RSS of the process that spawned
it, so this process imports nothing beyond ``os``, ``signal``, ``sys`` and
``time`` and holds no game: its own peak stays below any CLI child's.
"""

import os
import signal
import sys
import time

CHILD_TIMEOUT_S = 150
MODE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def own_peak_kb():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def reference():
    """Seconds taken by a fixed piece of dict, list and integer work."""
    start = time.perf_counter()
    table = {}
    for i in range(60000):
        key = i % 997
        table[key] = table.get(key, 0) + i
    for k in range(1000):
        table[k] = [j * k for j in range(20)]
    return time.perf_counter() - start


def run(stem, argv):
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stem + ".out", MODE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stem + ".err", MODE, 0o644),
    ]
    own = own_peak_kb()
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    return wall, f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss} {own}\n"


def main(plan, results):
    with open(plan, encoding="utf-8") as handle:
        calls = [line.rstrip("\n").split("\t") for line in handle]
    lines = []
    walls = refs = 0.0
    for stem, *argv in calls:
        refs += reference()
        wall, line = run(stem, argv)
        walls += wall
        lines.append(line)
    lines.append(f"pass {walls!r} {refs!r}\n")
    with open(results, "w", encoding="ascii") as handle:
        handle.writelines(lines)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

"""Golden CLI corpus: exit codes and output digests of fixed calls.

``data/cli_golden.json`` holds small instance, matching and graph files and
a list of calls over them, each with the exit code and the sha256 of stdout
and stderr that the CLI gave when the corpus was recorded.  Replaying the
calls through :func:`stablepairs.cli.main` pins byte-identical output across
changes to parsing, preference compilation and the solvers.

Run ``python tests/test_cli_golden.py`` (with ``stablepairs`` importable) to
re-record the expected values from the current code after an intended
output change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from stablepairs.cli import main

CORPUS = Path(__file__).with_name("data") / "cli_golden.json"


def _load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "stdout_sha256": _digest(out.getvalue()),
        "stderr_sha256": _digest(err.getvalue()),
    }


def _write_files(directory: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


_CORPUS = _load()


@pytest.mark.parametrize(
    "call", _CORPUS["calls"], ids=[" ".join(c["argv"]) for c in _CORPUS["calls"]]
)
def test_cli_call_matches_golden(call, tmp_path, monkeypatch):
    _write_files(tmp_path, _CORPUS["files"])
    monkeypatch.chdir(tmp_path)
    expected = {key: call[key] for key in ("exit", "stdout_sha256", "stderr_sha256")}
    assert _replay(call["argv"]) == expected


def test_corpus_covers_every_subcommand_and_concept():
    argvs = [c["argv"] for c in _CORPUS["calls"]]
    commands = {argv[0] for argv in argvs}
    assert commands == {"solve", "verify", "exists", "brute", "dynamics", "reduce", "gen"}
    verified = {argv[argv.index("--concept") + 1] for argv in argvs if argv[0] == "verify"}
    assert verified >= {"ir", "ns", "is", "cns", "cis", "core", "strict-core"}
    assert {c["exit"] for c in _CORPUS["calls"]} >= {0, 1, 2, 3}


def _record() -> None:
    corpus = _load()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp), corpus["files"])
        os.chdir(tmp)
        try:
            for call in corpus["calls"]:
                call.update(_replay(call["argv"]))
        finally:
            os.chdir(cwd)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(corpus['calls'])} calls into {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    _record()

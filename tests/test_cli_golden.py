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
import random
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


#: What the fuzz inserts, or puts in place of a character or a token.
FUZZ_TOKENS = ("(", ")", "self", "-", "#", ":", "0", "-1", "123456789", " ", "\n")


def _mutate(text: str, rng: random.Random) -> str:
    """``text`` after one to three random edits of characters, tokens or lines."""
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(6)
        if edit < 3:  # drop, insert or replace a character
            at = rng.randint(0, len(text))
            cut = at + (edit != 1)
            text = text[:at] + ("" if edit == 0 else rng.choice(FUZZ_TOKENS)) + text[cut:]
        elif edit < 5:  # drop or replace a whitespace-separated token
            tokens = text.split(" ")
            at = rng.randrange(len(tokens))
            tokens[at : at + 1] = [] if edit == 3 else [rng.choice(FUZZ_TOKENS)]
            text = " ".join(tokens)
        else:
            lines = text.split("\n")
            rng.shuffle(lines)
            text = "\n".join(lines)
    return text


def test_mutated_inputs_fail_cleanly(tmp_path, monkeypatch):
    # Every call of the corpus that reads files, replayed with one of its
    # input files mutated, must exit with a documented code for valid or
    # invalid input (0-4), never as an internal error (5) or a traceback.
    calls = [
        (call["argv"], [a for a in call["argv"] if a in _CORPUS["files"]])
        for call in _CORPUS["calls"]
    ]
    calls = [(argv, names) for argv, names in calls if names]
    _write_files(tmp_path, _CORPUS["files"])
    monkeypatch.chdir(tmp_path)
    rng = random.Random(20121)
    for case in range(600):
        argv, names = rng.choice(calls)
        name = rng.choice(names)
        text = _mutate(_CORPUS["files"][name], rng)
        (tmp_path / name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        (tmp_path / name).write_text(_CORPUS["files"][name], encoding="utf-8")
        failure = (case, argv, name, text, code, err.getvalue())
        assert 0 <= code <= 4, failure
        assert "error: internal" not in err.getvalue(), failure
        assert "Traceback" not in err.getvalue(), failure


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

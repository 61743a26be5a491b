"""Shared exception types, and the line and number reading of the three text formats."""

from __future__ import annotations

from collections.abc import Iterator


class FormatError(ValueError):
    """Malformed instance, matching, or graph text."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class PreconditionError(ValueError):
    """An operation was called outside its documented preconditions."""


class InternalCheckError(RuntimeError):
    """A guaranteed property failed to hold; indicates a bug, not bad input."""


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """Number the lines, which end only at ``\\n``, ``\\r\\n`` or ``\\r`` as in an
    editor, and yield each one's text before ``#``, stripped, unless blank."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), 1):
        content = line.partition("#")[0].strip()
        if content:
            yield lineno, content


def _int(token: str, message: str, lineno: int) -> int:
    """``token``, an optional sign and ASCII digits, as an int; else a FormatError whose
    message is ``message.format(token)``, formatted only then."""
    if token.isascii() and "_" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    raise FormatError(message.format(token), lineno)

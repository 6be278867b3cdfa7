"""Exception types shared across the package, and the readers every text, JSON-lines and
``.npy`` input goes through so that a malformed file is refused with an error naming it."""

import json
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class XlirError(Exception):
    """Base class for all engine errors."""


class FormatError(XlirError):
    """A file or record does not match its declared format."""


class ValidationError(XlirError):
    """A value violates a documented invariant or precondition."""


# What reading a malformed JSON record raises: bad JSON, a missing key, a wrong type.
RECORD_ERRORS = (ValueError, KeyError, TypeError, AttributeError, IndexError)


@contextmanager
def malformed(path: str | Path, what: str) -> Iterator[None]:
    """Report a missing file or a record that fails to parse as a ``FormatError`` naming ``path``.

    Malformed JSON, missing keys and values of the wrong type surface as
    ``ValueError``, ``KeyError``, ``TypeError``, ``AttributeError`` or
    ``IndexError`` while a record is read; inside this block they become one
    typed error instead of a traceback.
    """
    try:
        yield
    except FileNotFoundError:
        raise FormatError(f"{path}: missing {what}") from None
    except RECORD_ERRORS as exc:
        raise FormatError(f"{path}: malformed {what} ({type(exc).__name__}: {exc})") from None


def load_array(path: Path, ndim: int, dtype: type[np.generic]) -> np.ndarray:
    """A ``.npy`` array; a ``FormatError`` naming ``path`` if it is missing, unreadable, pickled,
    or not ``ndim``-D ``dtype``."""
    try:
        array = np.load(path)
    except (ValueError, EOFError, FileNotFoundError) as exc:
        raise FormatError(f"{path}: unreadable array ({exc})") from None
    if array.ndim != ndim or not np.issubdtype(array.dtype, dtype):
        raise FormatError(f"{path}: expected a {ndim}-D {dtype.__name__} array, got {array.ndim}-D {array.dtype}")
    return array


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each non-blank line of a UTF-8 text file, counting from 1.

    The file is read in text mode, so CRLF line ends read as line feeds. A
    byte sequence that is not UTF-8 raises a ``FormatError`` naming ``path``;
    the decoder reads ahead in chunks, so it cannot say which line.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line of a JSON-lines file."""
    for lineno, line in read_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise FormatError(f"{path}:{lineno}: expected a JSON object")
        yield lineno, record

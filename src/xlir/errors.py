"""Exception types shared across the package, the readers every text, JSON-lines and ``.npy``
input goes through so that a malformed file is refused with an error naming it, and the one rule
for what a text field written to a file can hold (``unwritable``)."""

import json
import math
import re
from collections.abc import Iterator, Sequence
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np
from numpy.lib.format import read_array_header_1_0, read_array_header_2_0, read_magic


class XlirError(Exception):
    """Base class for all engine errors."""


class FormatError(XlirError):
    """A file or record does not match its declared format."""


class ValidationError(XlirError):
    """A value violates a documented invariant or precondition."""


# What reading a malformed JSON record raises: bad or too deeply nested JSON, a missing key, a wrong type.
RECORD_ERRORS = (ValueError, RecursionError, KeyError, TypeError, AttributeError, IndexError)


@contextmanager
def malformed(path: str | Path, what: str) -> Iterator[None]:
    """Report a missing file or a record that fails to parse as a ``FormatError`` naming ``path``.

    Malformed or too deeply nested JSON, missing keys and values of the wrong
    type surface as one of ``RECORD_ERRORS`` while a record is read; inside
    this block they become one typed error instead of a traceback.
    """
    try:
        yield
    except FileNotFoundError:
        raise FormatError(f"{path}: missing {what}") from None
    except RECORD_ERRORS as exc:
        raise FormatError(f"{path}: malformed {what} ({type(exc).__name__}: {exc})") from None


# Why a text holding a lone surrogate is refused; JSON reads a "\ud800" escape as one.
LONE_SURROGATE = "holds a lone surrogate, which UTF-8 cannot encode"


def unwritable(texts: Sequence[object], forbidden: str = "") -> int | None:
    """The position of the first of ``texts`` that is not a string, or holds a lone surrogate or one of
    the ``forbidden`` characters; ``None`` if every one can be written. The common case is one scan."""
    pattern = re.compile(f"[{re.escape(forbidden)}\ud800-\udfff]")  # compiled once, then cached by re
    with suppress(TypeError):  # a text that is not a string
        if pattern.search("".join(texts)) is None:
            return None
    return next(i for i, text in enumerate(texts) if not isinstance(text, str) or pattern.search(text))


def json_int(value: object, path: str | Path, what: str) -> int:
    """``value`` if it is a JSON integer, else a ``FormatError`` naming ``path``: unlike ``int()``, it
    refuses ``2.7``, ``"3"`` and ``true`` (a bool is an ``int`` to Python, so the type is compared exactly)."""
    if type(value) is not int:
        raise FormatError(f"{path}: {what} must be a JSON integer, got {value!r}")
    return value


def load_array(path: Path, ndim: int, dtype: type[np.generic]) -> np.ndarray:
    """A ``.npy`` array; a ``FormatError`` naming ``path`` if it is missing, unreadable, pickled,
    shorter than its header's shape needs (checked before allocating), or not ``ndim``-D ``dtype``."""
    try:
        with open(path, "rb") as fh:
            read_header = read_array_header_1_0 if read_magic(fh) == (1, 0) else read_array_header_2_0
            shape, _, stored = read_header(fh)
            if not stored.hasobject and math.prod(shape) * stored.itemsize > Path(path).stat().st_size - fh.tell():
                raise FormatError(f"{path}: truncated array: its header's shape {shape} needs more bytes than follow")
            fh.seek(0)
            array = np.load(fh)
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
            record = json.loads(line)  # reads a "\ud800" escape as a lone surrogate
            if "\\u" in line and unwritable([json.dumps(record, ensure_ascii=False)]) is not None:
                raise FormatError(f"{path}:{lineno}: {LONE_SURROGATE}")
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
        except RecursionError:
            raise FormatError(f"{path}:{lineno}: JSON nested too deeply to read") from None
        if not isinstance(record, dict):
            raise FormatError(f"{path}:{lineno}: expected a JSON object")
        yield lineno, record

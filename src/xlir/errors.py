"""Exception types shared across the package."""

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

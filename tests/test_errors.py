import re
from pathlib import Path

import pytest

from xlir.errors import unwritable

SRC = Path(__file__).resolve().parent.parent / "src" / "xlir"


@pytest.mark.parametrize(
    "texts,forbidden,position",
    [
        ([], "", None),
        (["a", "б", "中文", "\U0001f600"], "", None),
        (["a", "b\ud800", "c\udfff"], "", 1),
        # JSON decodes the escape pair "\ud83d\ude00" to one character; a Python string keeps two halves.
        (["x", "\ud83d\ude00"], "", 1),
        (["a", "b", 7, "\ud800"], "", 2),
        ([None], "", 0),
        ([b"bytes"], "", 0),
        (["a\tb", "c"], "", None),
        (["a", "b\tc"], "\t\n\r", 1),
        (["a", "b\nc", "\ud800"], "\n", 1),
        (["a]", "b-c", "^"], "]-^", 0),
        (["b", "x-y"], "a-c", 1),  # each character forbidden, not the range a to c
    ],
    ids=["empty", "writable", "lone-surrogate", "surrogate-halves", "not-a-string", "none", "bytes", "tab-allowed",
         "tab-forbidden", "line-feed-forbidden", "class-metacharacters", "no-range"],
)
def test_unwritable_names_the_first_text_that_cannot_be_written(texts, forbidden, position):
    assert unwritable(texts, forbidden) == position


# A surrogate spelled as a string escape or a code point number.
_SURROGATE_SPELLING = re.compile(
    r"\\u[dD][89a-fA-F][0-9a-fA-F]{2}|\\U0000[dD][89a-fA-F][0-9a-fA-F]{2}|0x[dD][89a-fA-F][0-9a-fA-F]{2}\b"
)


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py") if path.name != "errors.py"))
def test_only_the_errors_module_spells_the_lone_surrogate_rule(module):
    # errors.unwritable is the one place that decides what a text field can hold.
    text = (SRC / module).read_text(encoding="utf-8")
    assert not _SURROGATE_SPELLING.search(text), f"{module} spells the surrogate range"
    assert "UnicodeEncodeError" not in text, f"{module} catches UnicodeEncodeError"

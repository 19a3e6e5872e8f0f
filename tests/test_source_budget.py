"""Every module of the package stays below 8,192 parser tokens.

CPython's parser doubles its token array when a module reaches 8,192
tokens.  Benchmark children compile the package from source, and a module
past that line adds about 460 KiB to the compile peak of every CLI run
(tracemalloc around compile() of sets.py: 2,797 -> 3,263 KiB at 8,193
tokens), which reads as a peak_rss_mb regression in code that did not
change.  Tokens are counted as ``tokenize`` yields them, less comments,
non-logical newlines and the encoding marker.
"""

import tokenize
from pathlib import Path

import pytest

import delone

LIMIT = 8192
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
MODULES = sorted(Path(delone.__file__).parent.glob("*.py"))


def parser_tokens(path):
    with open(path, "rb") as fh:
        return sum(1 for t in tokenize.tokenize(fh.readline) if t.type not in SKIPPED)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_is_below_the_token_array_doubling(path):
    n = parser_tokens(path)
    assert n < LIMIT, (
        f"{path.name} has {n} parser tokens, at or past {LIMIT}: CPython doubles "
        f"its token array there, about 460 KiB more compile peak per CLI run; "
        f"delete as much as the change adds, or split the module")

import re
import tokenize
from pathlib import Path

import oddmtc

# a time or memory figure: a number with a unit, an interpreter version, a core count
FIGURE = re.compile(r"(?<![\w.])\d[\d,.]*\s*(?:s|ms|MB|GB)\b|Python 3\.\d+|\b\d+ cores?\b")
TEXT = {tokenize.COMMENT, tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def test_no_measured_figure_in_comments_or_strings():
    """Docstrings and comments state definitions, invariants and proofs; a
    measured figure goes stale with the next change, so CHANGES.md holds it.
    Only comment and string tokens are read, so no code is matched."""
    found = []
    for path in sorted(Path(oddmtc.__file__).parent.glob("*.py")):
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type in TEXT:
                    for m in FIGURE.finditer(tok.string):
                        line = tok.start[0] + tok.string.count("\n", 0, m.start())
                        found.append(f"{path.name}:{line}: {m.group()}")
    assert not found

"""Text normalization helpers shared by acknowledgment mining, blocking,
and surname matching.

The pipeline is: Unicode NFKD -> strip diacritics -> case-fold -> collapse
whitespace. Punctuation is preserved at this stage, so dotted-initial
forms like "c.l." stay distinct variants. Name matching strips token-edge
punctuation (commas, periods, brackets) from both sides before comparing,
so "(c.l.)," in a sentence and the variant "c.l." meet as "c.l".

``normalize_text`` is memoized: every stage normalizes the same names,
org names and funders, and each distinct string is normalized once per
run. The memo is per run: ``run_pipeline`` empties it when the run ends,
also on error. A stage called on its own, outside ``run_pipeline``,
leaves its strings in the memo until ``normalize_text.cache_clear()``
empties it. Within a run it is unbounded on purpose. It holds one
normalized copy of each distinct input string, and a run already holds
every record those strings come from in memory. Funding sentences are
the exception: each is seen once, so ``match_tokens`` tokenizes them
without the memo. ``strip_accents`` returns ASCII text as it is, since
NFKD changes no ASCII character and none is a combining mark; most
names and acknowledgments take that path.
"""
from __future__ import annotations

import functools
import re
import unicodedata

_WS_RE = re.compile(r"\s+")
_EDGE_PUNCT = ".,;:!?()[]{}\"'"


def strip_accents(text: str) -> str:
    """Decompose and drop combining marks: "Zürich" -> "Zurich"."""
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


@functools.cache
def normalize_text(text: str) -> str:
    """Accent-strip, case-fold and collapse whitespace."""
    return _WS_RE.sub(" ", strip_accents(text).casefold()).strip()


def match_tokens(text: str) -> list[str]:
    """The tokens name matching compares: the whitespace tokens of
    ``text``, accent-stripped and case-folded, with edge punctuation
    stripped and tokens reduced to nothing dropped.

    Joined by spaces they are ``normalize_text(text)`` with edge
    punctuation stripped from each token, made in one pass and without
    entering the memo.
    """
    return [
        stripped for tok in strip_accents(text).casefold().split()
        if (stripped := tok.strip(_EDGE_PUNCT))
    ]


def contains_bounded(needle: str, haystack: str) -> bool:
    """True when needle occurs in haystack delimited by non-word characters."""
    if not needle:
        return False
    start = 0
    n = len(needle)
    while True:
        idx = haystack.find(needle, start)
        if idx < 0:
            return False
        before_ok = idx == 0 or not haystack[idx - 1].isalnum()
        after = idx + n
        after_ok = after >= len(haystack) or not haystack[after].isalnum()
        if before_ok and after_ok:
            return True
        start = idx + 1

"""Funder-mention detection, funding-sentence extraction, author name
variants, and funded-author matching.

The matching method works per record: extract the full sentences of the
acknowledgment text that mention the target funder, expand every author
into a set of name variants plus positional phrases ("the second author"),
and mark an author as funded when any variant or positional phrase occurs
in a funding sentence.

Extraction starts from the mentions, not from the sentences. One funder
pattern, which ``re`` can scan for by prefix, finds the next mention in
the whole text; only the sentence boundaries around it are classified.
The sentence start is found backwards: one search that ends at the
mention finds the last boundary before it, and while that boundary is
no sentence end the search repeats up to it. The sentence end is found
forwards, walking the boundaries from the mention itself. A mention
that runs past that end is searched for again within the sentence's own
bounds. Sentences before the next mention cannot hold one, so a text
without a mention classifies no boundary, and no character is read more
than a bounded number of times.

Variant strings are stored normalized (case-folded, diacritics stripped)
with dotted-initial forms kept as explicit entries. Each funding sentence
is tokenized once, without the ``normalize_text`` memo: it is seen once,
so a memo entry would only hold memory. Variants and sentences
are compared with token-edge punctuation stripped from both, so "Chen. L",
"C.L." and "Chen L" all resolve; a variant made only of edge punctuation
never matches. Variants of three characters or fewer ("cl", "bw") only
match whole tokens, which suppresses substring false positives inside
ordinary words. Each author's variants are walked once, longest first,
and the first that occurs in a funding sentence is the evidence; the
long ones pass a substring test before the word-edge check.
"""
from __future__ import annotations

import re
import string
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .corpus import Authorship, PublicationRecord, config_lines
from .textnorm import contains_bounded, match_tokens, normalize_text


@dataclass(frozen=True)
class FunderLexicon:
    """The surface variants of the target funder's name to search for."""

    variants: tuple[str, ...]

    def __post_init__(self) -> None:
        # no variants would compile to a pattern that matches everywhere
        if not self.variants:
            raise ValueError("lexicon has no variants")
        seen: set[str] = set()
        for variant in self.variants:
            if not variant.strip():
                raise ValueError("empty lexicon variant")
            # a variant like "--" would match between any two words
            if not any(ch.isalnum() for ch in variant):
                raise ValueError(f"lexicon variant without a letter or digit: {variant!r}")
            key = normalize_text(variant)
            if key in seen:
                raise ValueError(f"duplicate lexicon variant: {variant!r}")
            seen.add(key)

    @classmethod
    def load(cls, path: str | Path) -> "FunderLexicon":
        """Plain-text lexicon: one variant per line."""
        return cls(tuple(line for _, line in config_lines(path)))

    @cached_property
    def variant_keys(self) -> frozenset[str]:
        """The normalized variants, for exact comparison with normalized
        organization names."""
        return frozenset(normalize_text(v) for v in self.variants)

    @cached_property
    def _pattern(self) -> re.Pattern[str]:
        # longest first, so overlapping alternatives prefer the long match;
        # no capture group and no lookbehind, so re can scan for the
        # variants' prefixes; find_mention checks the left edge instead.
        # [^\W_] is str.isalnum, the word-character rule of contains_bounded
        ordered = sorted(self.variants, key=lambda v: (-len(v), v))
        body = "|".join(r"\s+".join(map(re.escape, v.split())) for v in ordered)
        return re.compile(rf"(?:{body})(?![^\W_])", re.IGNORECASE)

    def find_mention(self, text: str, pos: int = 0, endpos: int | None = None) -> re.Match[str] | None:
        """The leftmost case-insensitive, word-bounded variant occurrence
        in ``text[pos:endpos]``, the longest variant at that position, or
        None. The character before ``pos`` is read as part of the text;
        ``endpos`` acts as the end of the text.
        """
        search = self._pattern.search
        end = len(text) if endpos is None else endpos
        while (m := search(text, pos, end)) is not None:
            start = m.start()
            if start == 0 or not text[start - 1].isalnum():
                return m
            pos = start + 1
        return None


@dataclass(frozen=True)
class FundingSentence:
    text: str
    span: tuple[int, int]


class MatchKind(Enum):
    NAME = "NameMatch"
    ORDINAL = "OrdinalMatch"


@dataclass(frozen=True)
class FundedAuthorship:
    pub_id: str
    author_position: int
    evidence: str
    sentence_span: tuple[int, int]
    match_kind: MatchKind


# Tokens that may precede a period without ending a sentence. Dotted
# compound initials ("X.H.", "e.g.") are guarded structurally instead.
_ABBREVIATIONS = frozenset({
    "dr", "mr", "mrs", "ms", "prof", "st", "no", "nos", "vs", "etc", "al",
    "fig", "figs", "eq", "eqs", "ref", "refs", "inc", "ltd", "co", "jr",
    "sr", "univ", "dept", "approx", "ca", "cf", "resp",
})

_END_MARKS = ".!?"
# a boundary is a whole run of sentence-end marks and the whitespace after
# it; the lookbehind lets a match begin only where a run begins, so a long
# run is read once, not once per mark
_BOUNDARY_RE = re.compile(rf"(?<![{_END_MARKS}])([{_END_MARKS}]+)(\s+)")
# the last boundary in the searched range: re jumps to the range end and
# backs up, so each search reads only what lies after the boundary it finds
_LAST_BOUNDARY_RE = re.compile(r"(?s:.*)" + _BOUNDARY_RE.pattern)
_RIGHT_INITIAL_RE = re.compile(r"[A-Z]\.?(?![A-Za-z])")
_ASCII_LETTERS = frozenset(string.ascii_letters)
_GIVEN_PART_SPLIT_RE = re.compile(r"[\s\-]+")
# [^\W_] is str.isalnum, as in the funder pattern
_ALNUM_RE = re.compile(r"[^\W_]")


def _is_sentence_break(text: str, punct_start: int, punct_end: int, rest_start: int) -> bool:
    # reads the text in place: slicing the tail or the head at every
    # boundary would make extraction quadratic in the text length
    if rest_start >= len(text):
        return False
    first = text[rest_start]
    if not (first.isupper() or first.isdigit()):
        return False
    # initials and abbreviations only involve periods; ! and ? always break
    if set(text[punct_start:punct_end]) != {"."}:
        return True
    # "Chen. L is ..." - a bare or dotted single capital after the period
    # is an initial belonging to the previous name, not a new sentence.
    # Bare "A" and "I" are exempt: they are ordinary English words.
    initial = _RIGHT_INITIAL_RE.match(text, rest_start)
    if initial and not (initial.group() in ("A", "I")):
        return False
    # the ASCII letters right before the period, skipping one newline
    # directly before it ("Dr\n. Smith" still reads "Dr")
    token_end = punct_start - 1 if text.endswith("\n", 0, punct_start) else punct_start
    token_start = token_end
    while token_start > 0 and text[token_start - 1] in _ASCII_LETTERS:
        token_start -= 1
    if token_start < token_end:
        token = text[token_start:token_end]
        if token.lower() in _ABBREVIATIONS:
            return False
        # compound initials like "X.H." or "e.g." - single letter with a
        # dot right before it; standalone single letters ("We thank X.")
        # still end the sentence.
        if len(token) == 1 and token_start > 0 and text[token_start - 1] == ".":
            return False
    return True


def extract_funding_sentences(
    ack_text: str | None, lexicon: FunderLexicon
) -> list[FundingSentence]:
    """The sentences of ``ack_text`` that mention the funder, in order.

    Boundaries are classified only around mentions. From a sentence start,
    the next mention anywhere in the text is found first. The sentences
    before it hold no mention, since that search is leftmost. The last
    boundary before the mention is found by one backward search that ends
    at the mention; while it is no break, the search is repeated up to
    that boundary, and the first break found starts the sentence. The
    boundaries from the mention on are walked forward to the first break,
    which ends it. The sentence holds a mention when that one ends within
    it or, failing that, when a search within its own bounds finds one.
    The walk goes on after it. A text without a mention classifies no
    boundary.
    """
    if not ack_text:
        return []
    find = lexicon.find_mention
    sentences = []
    start = 0
    while (mention := find(ack_text, start)) is not None:
        limit = mention.start()
        while (m := _LAST_BOUNDARY_RE.match(ack_text, start, limit)) is not None:
            if _is_sentence_break(ack_text, m.start(1), m.end(1), m.end()):
                start = m.end()
                break
            limit = m.start(1)
        # a mention that opens with a sentence-end mark may continue a run
        # of them; the boundary is that whole run
        walk = mention.start()
        if ack_text[walk] in _END_MARKS:
            while walk > start and ack_text[walk - 1] in _END_MARKS:
                walk -= 1
        end = next_start = len(ack_text)
        for m in _BOUNDARY_RE.finditer(ack_text, walk):
            if _is_sentence_break(ack_text, m.start(1), m.end(1), m.end()):
                end, next_start = m.end(1), m.end()
                break
        while start < end and ack_text[start].isspace():
            start += 1
        while end > start and ack_text[end - 1].isspace():
            end -= 1
        # a mention that ends inside the sentence is one of its own; one
        # that runs past its end is searched for again within it. Every
        # sentence starts at 0 or after whitespace and ends before
        # whitespace or at the text end, so searching in place sees what
        # searching the slice sees
        if mention.end() <= end or find(ack_text, start, end) is not None:
            sentences.append(FundingSentence(text=ack_text[start:end], span=(start, end)))
        start = next_start
    return sentences


_ORDINAL_WORDS = (
    "first", "second", "third", "fourth", "fifth",
    "sixth", "seventh", "eighth", "ninth", "tenth",
)


def _ordinal_suffix(n: int) -> str:
    if n % 100 in (11, 12, 13):
        return "th"
    return {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")


def ordinal_phrases(position: int) -> set[str]:
    """Positional author references: word form through ten, numeric always."""
    phrases = {f"the {position}{_ordinal_suffix(position)} author"}
    if 1 <= position <= len(_ORDINAL_WORDS):
        phrases.add(f"the {_ORDINAL_WORDS[position - 1]} author")
    return phrases


def generate_name_variants(author: Authorship) -> frozenset[str]:
    """Expand one authorship into the surface forms matched in sentences.

    Covers full-name orders ("long chen", "chen long"), surname-plus-
    initial ("chen. l"), dotted and undotted initials ("c.l.", "cl"),
    initials-plus-surname ("l. chen", "x.h. li", "z.-c. wang"), and the
    de-hyphenated and spaced spellings of hyphenated given names. The
    grammar is a documented superset of the common acknowledgment styles.
    An initial is the first letter of a given-name part, and a given name
    or initials without a letter or digit count as absent. So every
    variant holds a letter or digit of the given name or the initials,
    and none strips to the bare surname.
    """
    last = normalize_text(author.last_name)
    given = normalize_text(author.first_name) if author.first_name else ""
    initials = normalize_text(author.initials) if author.initials else ""
    initial_letters = [ch for ch in initials if ch.isalpha()]
    variants: set[str] = set()

    given_forms: set[str] = set()
    # a given name or initials without a letter or digit ("-", ".") count as none
    if _ALNUM_RE.search(given):
        given_forms.add(given)
        if "-" in given:
            given_forms.add(given.replace("-", ""))
            given_forms.add(given.replace("-", " "))
    elif _ALNUM_RE.search(initials):
        given_forms.add(initials)
        if initial_letters:
            given_forms.add("".join(initial_letters))

    for form in given_forms:
        variants.add(f"{form} {last}")
        variants.add(f"{last} {form}")
        variants.add(f"{last}, {form}")

    # the first letter of each given-name part ("Zhi-Chao" -> z, c;
    # "(J.)" -> j); a part without a letter gives none, and a given name
    # without any falls back to the letters of the initials
    letters = []
    for part in _GIVEN_PART_SPLIT_RE.split(given):
        for ch in part:
            if ch.isalpha():
                letters.append(ch)
                break
    letters = letters or initial_letters
    if letters:
        dotted = "".join(f"{ch}." for ch in letters)
        variants.add(f"{dotted} {last}")
        if len(letters) > 1:
            hyphen_dotted = ".-".join(letters) + "."
            variants.add(f"{hyphen_dotted} {last}")
            # bare given-initial tokens of multi-part given names: "Zhi-Chao"
            # is also credited as "ZC", "Z.C." or "Z.-C."
            variants.add("".join(letters))
            variants.add(dotted)
            variants.add(hyphen_dotted)
        variants.add(f"{last}. {letters[0]}")
        surname_first = [last[0]] + letters
        variants.add("".join(surname_first))
        variants.add("".join(f"{ch}." for ch in surname_first))

    return frozenset(variants)


#: Variants at or below this stripped length only match whole tokens.
SHORT_VARIANT_LIMIT = 3


def _best_hit(
    forms: Iterable[str], views: list[tuple[tuple[int, int], str, frozenset[str]]]
) -> tuple[str, tuple[int, int]] | None:
    """The longest of ``forms`` that occurs in a sentence, the greatest on
    ties, with the span of the first sentence it occurs in; None when none
    occurs. ``views`` holds each sentence's span, its normalized and
    edge-stripped text, and that text's tokens, in span order.

    A form occurs where its edge-stripped form does: as a whole token
    when short, else word-bounded. The forms are walked longest first, so
    the first that occurs is the answer. A form made only of edge
    punctuation strips to "", which is short and never a token, so it
    never occurs.
    """
    # both sorts are stable, so this is the order of (len, form), descending
    for form in sorted(sorted(forms, reverse=True), key=len, reverse=True):
        stripped = " ".join(match_tokens(form))
        short = len(stripped) <= SHORT_VARIANT_LIMIT
        for span, text, tokens in views:
            # the C-level substring test rules out most long forms before
            # the word-edge check
            if stripped in tokens if short else (
                stripped in text and contains_bounded(stripped, text)
            ):
                return form, span
    return None


def match_funded_authors(
    record: PublicationRecord, sentences: list[FundingSentence]
) -> list[FundedAuthorship]:
    """Authors whose name variants or positional phrases occur in a
    funding sentence.

    At most one entry per author, sorted by position. The evidence string
    is the longest matching name variant; a name match outranks a
    positional match for the same author. The span is that of the first
    sentence the evidence occurs in.
    """
    if not sentences:
        return []
    views = []
    for sentence in sorted(sentences, key=lambda s: s.span):
        # each sentence is seen once, so it bypasses the normalize_text memo
        tokens = match_tokens(sentence.text)
        views.append((sentence.span, " ".join(tokens), frozenset(tokens)))
    funded = []
    for author in record.authors:
        kind = MatchKind.NAME
        hit = _best_hit(generate_name_variants(author), views)
        if hit is None:
            kind = MatchKind.ORDINAL
            hit = _best_hit(ordinal_phrases(author.position), views)
        if hit is not None:
            evidence, span = hit
            funded.append(
                FundedAuthorship(
                    pub_id=record.pub_id,
                    author_position=author.position,
                    evidence=evidence,
                    sentence_span=span,
                    match_kind=kind,
                )
            )
    return sorted(funded, key=lambda f: f.author_position)


def mine_record(
    record: PublicationRecord, lexicon: FunderLexicon
) -> tuple[list[FundingSentence], list[FundedAuthorship]]:
    """The funding sentences of one record and the authors they credit."""
    sentences = extract_funding_sentences(record.acknowledgment_text, lexicon)
    return sentences, match_funded_authors(record, sentences)

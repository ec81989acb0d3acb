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

The lexicon picks the funder scan. Under a lexicon of ASCII variants
every text is folded once per extraction, "İ" and "ı" to "i" and "ſ" to
"s" and then lower-cased, and searched case-sensitively with the
lower-cased variants, in the same order. Those three letters are the
ones ``re.IGNORECASE`` folds onto ASCII letters and ``str.lower`` does
not. Folding keeps every offset, every whitespace and every word
character, and the copy meets an ASCII variant exactly where the text
meets it case-insensitively, so curly quotes, dashes and accented
names need no other scan. Under a lexicon with a non-ASCII variant
every text is searched with the ``re.IGNORECASE`` pattern. Extraction,
the funded flag and any caller walking the mentions search through
``FunderLexicon.mentions``, which folds a text once, however many
times its search is called.

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

A form occurs only as a substring of a sentence's stripped text, so the
record's stripped sentences are joined once and two gates skip the forms
that cannot occur. The variants that hold the surname are built only
when the author's stripped surname is in the joined text: each one's
stripped form holds the stripped surname, since stripping works token by
token and the surname is a whole-token part of the variant. The
positional phrases are tried only when "author", which each of them
holds, is in it. The variants made of initials alone ("z.c.", "ww") are
always tried. Each form is stripped only when the walk reaches it, and a
stripped form that is not in the joined text is not looked for in the
sentences one by one.
"""
from __future__ import annotations

import re
import string
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable

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
    def _ordered(self) -> tuple[str, ...]:
        # longest first, so overlapping alternatives prefer the long match
        return tuple(sorted(self.variants, key=lambda v: (-len(v), v)))

    @cached_property
    def _scan(self) -> tuple[re.Pattern[str], bool]:
        """The pattern and whether texts are folded for it: the lower-cased
        variants, case-sensitive, when every variant is ASCII, else the
        variants under ``re.IGNORECASE``."""
        if all(v.isascii() for v in self._ordered):
            return _mention_pattern(tuple(v.lower() for v in self._ordered), 0), True
        return _mention_pattern(self._ordered, re.IGNORECASE), False

    def mentions(self, text: str) -> Callable[[int, int], re.Match[str] | None]:
        """A search of ``text``: ``find(pos, endpos)`` is the leftmost
        word-bounded variant occurrence in ``text[pos:endpos]``, the
        longest variant there, or None; the character before ``pos`` is
        read as part of the text. Under a lexicon of ASCII variants the
        text is folded once, here, and the match is over that copy; its
        span indexes ``text`` (see the module docstring)."""
        pattern, folds = self._scan
        if folds:
            # str.translate takes about ten times as long on non-ASCII text
            for letter, ascii_letter in _ASCII_FOLDS:
                text = text.replace(letter, ascii_letter)
            text = text.lower()
        search = pattern.search

        def first(pos: int, endpos: int) -> re.Match[str] | None:
            # the first match with no letter or digit right before it
            while (m := search(text, pos, endpos)) is not None:
                start = m.start()
                if start == 0 or not text[start - 1].isalnum():
                    return m
                pos = start + 1
            return None

        return first


# The letters re.IGNORECASE matches to an ASCII letter that str.lower does
# not map them to: "İ" lower-cases to "i" and a combining dot, and "ı" and
# "ſ" lower-case to themselves. The tests check that, with these mapped,
# every code point reads the same to both scans.
_ASCII_FOLDS = (("\u0130", "i"), ("\u0131", "i"), ("\u017f", "s"))


def _mention_pattern(variants: tuple[str, ...], flags: int) -> re.Pattern[str]:
    """One alternation of ``variants`` in their order, any whitespace run
    between their words, with no letter or digit right after them."""
    # no capture group and no lookbehind, so re can scan for the variants'
    # prefixes; FunderLexicon.mentions checks the left edge instead.
    # [^\W_] is str.isalnum, the word-character rule of contains_bounded
    body = "|".join(r"\s+".join(map(re.escape, v.split())) for v in variants)
    return re.compile(rf"(?:{body})(?![^\W_])", flags)


@dataclass(slots=True)
class FundingSentence:
    text: str
    span: tuple[int, int]


class MatchKind(Enum):
    NAME = "NameMatch"
    ORDINAL = "OrdinalMatch"


@dataclass(slots=True)
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
# it. The pattern opens with the mark class, so re can scan for a mark in
# C instead of trying the general matcher at every character, as it must
# when a pattern opens with a lookbehind. Once one mark is read, the
# width-2 lookbehind rejects a match whose first mark follows another:
# a match begins only where a run begins, so a long run is read once,
# not once per mark, and the matches are those of the run-start form
# (?<![.!?])([.!?]+)(\s+) for every text, pos and endpos
_BOUNDARY_RE = re.compile(rf"([{_END_MARKS}](?<![{_END_MARKS}]{{2}})[{_END_MARKS}]*)(\s+)")
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
    if text.count(".", punct_start, punct_end) != punct_end - punct_start:
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
    find = lexicon.mentions(ack_text)
    sentences = []
    start = 0
    while (mention := find(start, len(ack_text))) is not None:
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
        if mention.end() <= end or find(start, end) is not None:
            sentences.append(FundingSentence(ack_text[start:end], (start, end)))
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


def _name_parts(author: Authorship) -> tuple[str, str, str, list[str]]:
    """The normalized surname, given name and initials, and the initial
    letters: the first letter of each given-name part ("Zhi-Chao" -> z, c;
    "(J.)" -> j), where a part without a letter gives none, and the letters
    of the initials for a given name without any."""
    last = normalize_text(author.last_name)
    given = normalize_text(author.first_name) if author.first_name else ""
    initials = normalize_text(author.initials) if author.initials else ""
    letters = []
    for part in _GIVEN_PART_SPLIT_RE.split(given):
        for ch in part:
            if ch.isalpha():
                letters.append(ch)
                break
    return last, given, initials, letters or [ch for ch in initials if ch.isalpha()]


def _surname_variants(last: str, given: str, initials: str, letters: list[str]) -> set[str]:
    """The variants that hold the whole surname: full-name orders,
    initials-plus-surname and surname-plus-initial. The surname is a
    space-, comma- or period-delimited part of each, so each one's
    edge-stripped tokens hold the surname's edge-stripped tokens in a
    row. A surname without a letter or digit ("(") gives none."""
    if not _ALNUM_RE.search(last):
        return set()
    given_forms: set[str] = set()
    # a given name or initials without a letter or digit ("-", ".") count as none
    if _ALNUM_RE.search(given):
        given_forms.add(given)
        if "-" in given:
            given_forms.add(given.replace("-", ""))
            given_forms.add(given.replace("-", " "))
    elif _ALNUM_RE.search(initials):
        # a given name without a letter or digit has no letter, so
        # ``letters`` are the letters of the initials
        given_forms.add(initials)
        if letters:
            given_forms.add("".join(letters))
    variants: set[str] = set()
    for form in given_forms:
        variants.add(f"{form} {last}")
        variants.add(f"{last} {form}")
        variants.add(f"{last}, {form}")
    if letters:
        variants.add(".".join(letters) + f". {last}")
        if len(letters) > 1:
            variants.add(".-".join(letters) + f". {last}")
        variants.add(f"{last}. {letters[0]}")
    return variants


def _initials_variants(last: str, letters: list[str]) -> set[str]:
    """The variants made of initials alone: the surname's first letter
    followed by the given initials ("cl", "c.l."; "tg" for "'t Hooft,
    Gerard"), none for a surname without a letter, and the bare given
    initials of a multi-part given name ("zc", "z.c.", "z.-c.")."""
    if not letters:
        return set()
    # the first letter, not the first character: "'g" would strip to "g"
    initial = last[:1] if last[:1].isalpha() else next((ch for ch in last if ch.isalpha()), "")
    surname_first = [initial] + letters
    variants = {"".join(surname_first), ".".join(surname_first) + "."} if initial else set()
    if len(letters) > 1:
        # "Zhi-Chao" is also credited as "ZC", "Z.C." or "Z.-C."
        variants.add("".join(letters))
        variants.add(".".join(letters) + ".")
        variants.add(".-".join(letters) + ".")
    return variants


def generate_name_variants(author: Authorship) -> frozenset[str]:
    """Expand one authorship into the surface forms matched in sentences.

    Covers full-name orders ("long chen", "chen long"), surname-plus-
    initial ("chen. l"), dotted and undotted initials ("c.l.", "cl"),
    initials-plus-surname ("l. chen", "x.h. li", "z.-c. wang"), and the
    de-hyphenated and spaced spellings of hyphenated given names. The
    grammar is a documented superset of the common acknowledgment styles.
    An initial is the first letter of a given-name part, the surname's
    initial is its first letter, and a given name, initials or surname
    without a letter or digit count as absent. So every variant holds a
    letter or digit of the given name or the initials, and none strips to
    the bare surname. Every variant but the bare initials of a multi-part
    given name ("zc", "z.c.") holds a letter or digit of the surname as
    well, so none strips to the given name or an initial alone.
    """
    last, given, initials, letters = _name_parts(author)
    return frozenset(_surname_variants(last, given, initials, letters) | _initials_variants(last, letters))


#: Variants at or below this stripped length only match whole tokens.
SHORT_VARIANT_LIMIT = 3


def _best_hit(
    forms: Iterable[str], views: list[tuple[tuple[int, int], str]], joined: str
) -> tuple[str, tuple[int, int]] | None:
    """The longest of ``forms`` that occurs in a sentence, the greatest on
    ties, with the span of the first sentence it occurs in; None when none
    occurs. ``views`` holds each sentence's span and its normalized and
    edge-stripped text with a space added at each end, in span order;
    ``joined`` is those texts joined by newlines.

    A form occurs where its edge-stripped form does: as a whole token,
    between two spaces, when short, else word-bounded. The forms are
    walked longest first, so the first that occurs is the answer, and
    each is stripped only when the walk reaches it. A form that is not a
    substring of ``joined`` occurs in no sentence. A form made only of
    edge punctuation strips to "", which is short and no token, so it
    never occurs; nor does a short form with a space in it.
    """
    # both sorts are stable, so this is the order of (len, form), descending
    for form in sorted(sorted(forms, reverse=True), key=len, reverse=True):
        stripped = " ".join(match_tokens(form))
        short = len(stripped) <= SHORT_VARIANT_LIMIT
        if short:
            if not stripped or " " in stripped:
                continue
            stripped = f" {stripped} "
        if stripped not in joined:
            continue
        for span, text in views:
            # the C-level substring test rules out most long forms before
            # the word-edge check
            if stripped in text and (short or contains_bounded(stripped, text)):
                return form, span
    return None


def match_funded_authors(
    record: PublicationRecord, sentences: list[FundingSentence]
) -> list[FundedAuthorship]:
    """Authors whose name variants or positional phrases occur in a
    funding sentence.

    At most one entry per author, in position order. The evidence string
    is the longest matching name variant; a name match outranks a
    positional match for the same author. The span is that of the first
    sentence the evidence occurs in. Forms that cannot occur in the joined
    stripped sentences are skipped (see the module docstring).
    """
    if not sentences:
        return []
    # each sentence is seen once, so it bypasses the normalize_text memo
    views = [
        (sentence.span, f" {' '.join(match_tokens(sentence.text))} ")
        for sentence in sorted(sentences, key=lambda s: s.span)
    ]
    # every form that occurs is a substring of a sentence's stripped text
    texts = "\n".join(text for _, text in views)
    ordinals = "author" in texts
    funded = []
    for author in record.authors:
        last, given, initials, letters = _name_parts(author)
        forms = _initials_variants(last, letters)
        if " ".join(match_tokens(last)) in texts:
            forms |= _surname_variants(last, given, initials, letters)
        kind = MatchKind.NAME
        hit = _best_hit(forms, views, texts)
        if hit is None and ordinals:
            kind = MatchKind.ORDINAL
            hit = _best_hit(ordinal_phrases(author.position), views, texts)
        if hit is not None:
            evidence, span = hit
            funded.append(FundedAuthorship(record.pub_id, author.position, evidence, span, kind))
    return funded


def mine_record(
    record: PublicationRecord, lexicon: FunderLexicon
) -> tuple[list[FundingSentence], list[FundedAuthorship]]:
    """The funding sentences of one record and the authors they credit."""
    sentences = extract_funding_sentences(record.acknowledgment_text, lexicon)
    return sentences, match_funded_authors(record, sentences)

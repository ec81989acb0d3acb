"""Funder-mention detection, funding-sentence extraction, author name
variants, and funded-author matching.

The matching method works per record: extract the full sentences of the
acknowledgment text that mention the target funder, expand every author
into a set of name variants plus positional phrases ("the second author"),
and mark an author as funded when any variant or positional phrase occurs
in a funding sentence.

Variant strings are stored normalized (case-folded, diacritics stripped)
with dotted-initial forms kept as explicit entries. Variants and sentences
are compared with token-edge punctuation stripped from both, so "Chen. L",
"C.L." and "Chen L" all resolve; a variant made only of edge punctuation
never matches. Variants of three characters or fewer ("cl", "bw") only
match whole tokens, which suppresses substring false positives inside
ordinary words.
"""
from __future__ import annotations

import re
import string
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

from .corpus import Authorship, PublicationRecord, config_lines
from .textnorm import contains_bounded, normalize_text, strip_token_punct


@dataclass(frozen=True)
class FunderLexicon:
    """Canonical funder name plus the surface variants to search for."""

    canonical_name: str
    variants: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.canonical_name.strip():
            raise ValueError("canonical funder name is empty")
        seen: set[str] = set()
        for variant in self.variants:
            if not variant.strip():
                raise ValueError("empty lexicon variant")
            key = normalize_text(variant)
            if key in seen:
                raise ValueError(f"duplicate lexicon variant: {variant!r}")
            seen.add(key)

    @classmethod
    def load(cls, path: str | Path) -> "FunderLexicon":
        """Plain-text lexicon: one variant per line, first line canonical."""
        lines = [line for _, line in config_lines(path)]
        if not lines:
            raise ValueError(f"lexicon file {path} has no variants")
        return cls(canonical_name=lines[0], variants=tuple(lines))

    @cached_property
    def variant_keys(self) -> frozenset[str]:
        """The normalized variants, for exact comparison with normalized
        organization names."""
        return frozenset(normalize_text(v) for v in self.variants)

    @cached_property
    def _ordered_variants(self) -> tuple[str, ...]:
        # longest first, so overlapping alternatives prefer the long match
        return tuple(sorted(self.variants, key=lambda v: (-len(v), v)))

    @cached_property
    def mention_pattern(self) -> re.Pattern[str]:
        parts = []
        for i, variant in enumerate(self._ordered_variants):
            words = r"\s+".join(re.escape(w) for w in variant.split())
            parts.append(f"(?P<v{i}>{words})")
        body = "|".join(parts)
        # [^\W_] is str.isalnum, the word-character rule of contains_bounded
        return re.compile(rf"(?<![^\W_])(?:{body})(?![^\W_])", re.IGNORECASE)

    def variant_for_group(self, group_name: str) -> str:
        return self._ordered_variants[int(group_name[1:])]


@dataclass(frozen=True)
class FundingSentence:
    pub_id: str
    text: str
    span: tuple[int, int]


class MatchKind(Enum):
    NAME = "NameMatch"
    ORDINAL = "OrdinalMatch"


@dataclass(frozen=True)
class NameVariantSet:
    author_position: int
    variants: frozenset[str]
    ordinal_phrases: frozenset[str]


@dataclass(frozen=True)
class FundedAuthorship:
    pub_id: str
    author_position: int
    evidence: str
    sentence_span: tuple[int, int]
    match_kind: MatchKind


def detect_funder_mention(
    text: str, lexicon: FunderLexicon
) -> list[tuple[str, tuple[int, int]]]:
    """All case-insensitive, word-bounded lexicon occurrences in ``text``.

    Matches are reported left to right; at overlapping positions the
    longest variant wins. Spans index into the raw input text.
    """
    if not text:
        return []
    matches = []
    for m in lexicon.mention_pattern.finditer(text):
        group_name = next(name for name, val in m.groupdict().items() if val is not None)
        matches.append((lexicon.variant_for_group(group_name), m.span()))
    return matches


# Tokens that may precede a period without ending a sentence. Dotted
# compound initials ("X.H.", "e.g.") are guarded structurally instead.
_ABBREVIATIONS = frozenset({
    "dr", "mr", "mrs", "ms", "prof", "st", "no", "nos", "vs", "etc", "al",
    "fig", "figs", "eq", "eqs", "ref", "refs", "inc", "ltd", "co", "jr",
    "sr", "univ", "dept", "approx", "ca", "cf", "resp",
})

_BOUNDARY_RE = re.compile(r"([.!?]+)(\s+)")
_RIGHT_INITIAL_RE = re.compile(r"[A-Z]\.?(?![A-Za-z])")
_ASCII_LETTERS = frozenset(string.ascii_letters)


def _is_sentence_break(text: str, punct_start: int, punct_end: int, rest_start: int) -> bool:
    # reads the text in place: slicing the tail or the head at every
    # boundary would make splitting quadratic in the text length
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


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Sentence spans over ``text``.

    Splits at runs of ``.!?`` followed by whitespace and an uppercase
    letter or digit, with guards for abbreviations and name initials.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        if not _is_sentence_break(text, m.start(1), m.end(1), m.end()):
            continue
        spans.append((start, m.end(1)))
        start = m.end()
    if start < len(text):
        spans.append((start, len(text)))
    trimmed = []
    for s, e in spans:
        while s < e and text[s].isspace():
            s += 1
        while e > s and text[e - 1].isspace():
            e -= 1
        if s < e:
            trimmed.append((s, e))
    return trimmed


def extract_funding_sentences(
    ack_text: str | None, lexicon: FunderLexicon, pub_id: str = ""
) -> list[FundingSentence]:
    """The sentences of ``ack_text`` that mention the funder, in order."""
    if not ack_text:
        return []
    # every span starts at 0 or after whitespace and the search stops at
    # its end, so searching in place sees what searching the slice sees
    mentions = lexicon.mention_pattern.search
    return [
        FundingSentence(pub_id=pub_id, text=ack_text[start:end], span=(start, end))
        for start, end in split_sentences(ack_text)
        if mentions(ack_text, start, end)
    ]


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


def generate_name_variants(author: Authorship, position: int) -> NameVariantSet:
    """Expand one authorship into the surface forms matched in sentences.

    Covers full-name orders ("long chen", "chen long"), surname-plus-
    initial ("chen. l"), dotted and undotted initials ("c.l.", "cl"),
    initials-plus-surname ("l. chen", "x.h. li", "z.-c. wang"), and the
    de-hyphenated and spaced spellings of hyphenated given names. The
    grammar is a documented superset of the common acknowledgment styles.
    """
    last = normalize_text(author.last_name)
    given = normalize_text(author.first_name) if author.first_name else ""
    initials = normalize_text(author.initials) if author.initials else ""
    initial_letters = [ch for ch in initials if ch.isalpha()]
    variants: set[str] = set()

    given_forms: set[str] = set()
    if author.first_name:
        given_forms.add(given)
        if "-" in given:
            given_forms.add(given.replace("-", ""))
            given_forms.add(given.replace("-", " "))
    elif author.initials:
        given_forms.add(initials)
        if initial_letters:
            given_forms.add("".join(initial_letters))

    for form in given_forms:
        variants.add(f"{form} {last}")
        variants.add(f"{last} {form}")
        variants.add(f"{last}, {form}")

    # one letter per given-name part ("Zhi-Chao" -> z, c); a given name
    # without parts ("-") falls back to the letters of the initials
    letters = [part[0] for part in re.split(r"[\s\-]+", given) if part] or initial_letters
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

    return NameVariantSet(
        author_position=position,
        variants=frozenset(variants),
        ordinal_phrases=frozenset(ordinal_phrases(position)),
    )


#: Variants at or below this stripped length only match whole tokens.
SHORT_VARIANT_LIMIT = 3


@dataclass(frozen=True)
class _SentenceView:
    span: tuple[int, int]
    stripped: str
    tokens: frozenset[str]

    @classmethod
    def of(cls, sentence: FundingSentence) -> "_SentenceView":
        stripped = strip_token_punct(normalize_text(sentence.text))
        return cls(span=sentence.span, stripped=stripped, tokens=frozenset(stripped.split()))


def _variant_occurs(stripped: str, view: _SentenceView) -> bool:
    """Whether an edge-stripped variant occurs in the sentence: a whole
    token when short, else word-bounded. The empty variant never does."""
    if len(stripped) <= SHORT_VARIANT_LIMIT:
        return stripped in view.tokens
    return contains_bounded(stripped, view.stripped)


def match_funded_authors(
    record: PublicationRecord, sentences: list[FundingSentence]
) -> list[FundedAuthorship]:
    """Authors whose name variants or positional phrases occur in a
    funding sentence.

    At most one entry per author, sorted by position. The evidence string
    is the longest matching name variant; a name match outranks a
    positional match for the same author.
    """
    if not sentences:
        return []
    views = [_SentenceView.of(s) for s in sentences]
    funded = []
    for author in record.authors:
        variant_set = generate_name_variants(author, author.position)
        for kind, forms in (
            (MatchKind.NAME, variant_set.variants),
            (MatchKind.ORDINAL, variant_set.ordinal_phrases),
        ):
            stripped_forms = [(form, strip_token_punct(form)) for form in forms]
            hits = [
                (form, view.span)
                for view in views
                for form, stripped in stripped_forms
                if _variant_occurs(stripped, view)
            ]
            if hits:
                evidence = max((form for form, _ in hits), key=lambda v: (len(v), v))
                funded.append(
                    FundedAuthorship(
                        pub_id=record.pub_id,
                        author_position=author.position,
                        evidence=evidence,
                        sentence_span=min(span for form, span in hits if form == evidence),
                        match_kind=kind,
                    )
                )
                break
    return sorted(funded, key=lambda f: f.author_position)


def mine_record(
    record: PublicationRecord, lexicon: FunderLexicon
) -> tuple[list[FundingSentence], list[FundedAuthorship]]:
    """The funding sentences of one record and the authors they credit."""
    sentences = extract_funding_sentences(
        record.acknowledgment_text, lexicon, pub_id=record.pub_id
    )
    return sentences, match_funded_authors(record, sentences)

import re
import time
from dataclasses import dataclass, field

import pytest
from hypothesis import assume, given, strategies as st

from fundmob import ackminer
from fundmob.ackminer import (
    _ABBREVIATIONS,
    FundedAuthorship,
    FunderLexicon,
    FundingSentence,
    MatchKind,
    extract_funding_sentences,
    generate_name_variants,
    match_funded_authors,
    mine_record,
    ordinal_phrases,
)
from fundmob.textnorm import contains_bounded, normalize_text, strip_token_punct

from fundmob.corpus import Authorship, PublicationRecord, parse_corpus
from fundmob.periods import record_acknowledges_funder

from .conftest import DATA_DIR, load_bench_gen, make_author, make_record


WORKED_EXAMPLE = (
    "Long Chen is supported by a scholarship from the "
    "China Scholarship Council (CSC)."
)


class TestNormalize:
    def test_diacritics_and_case(self):
        assert normalize_text("Müller  RENÉ") == "muller rene"

    def test_token_punct_strip(self):
        assert strip_token_punct("(csc). chen. l c.l.") == "csc chen l c.l"

    def test_bounded_search(self):
        assert contains_bounded("cl", "the (cl) token")
        assert not contains_bounded("cl", "club members")
        assert contains_bounded("long chen", "by long chen.")


class TestLexicon:
    def test_load_bundled_lexicon(self, data_dir):
        lexicon = FunderLexicon.load(data_dir / "lexicon_csc.txt")
        assert lexicon.variants == (
            "China Scholarship Council", "CSC scholarship", "Chinese Scholarship Council",
        )

    def test_duplicate_variants_rejected(self):
        with pytest.raises(ValueError):
            FunderLexicon(("CSC", "csc"))

    def test_no_variants_rejected(self):
        # such a lexicon's pattern would match the empty string everywhere
        with pytest.raises(ValueError, match="no variants"):
            FunderLexicon(())

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            FunderLexicon.load(path)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes(b"\xef\xbb\xbfChina Scholarship Council\nCSC scholarship\n")
        lexicon = FunderLexicon.load(path)
        assert lexicon.variants == ("China Scholarship Council", "CSC scholarship")
        assert lexicon.find_mention("by the China Scholarship Council.") is not None

    def test_variant_without_letter_or_digit_rejected(self, tmp_path):
        # "--" would match in "2019 -- 2020" and mark the record funded
        with pytest.raises(ValueError, match="'--'"):
            FunderLexicon(("China Scholarship Council", "--"))
        path = tmp_path / "lex.txt"
        path.write_text("China Scholarship Council\n--\n")
        with pytest.raises(ValueError, match="'--'"):
            FunderLexicon.load(path)
        # one letter or one digit is enough
        assert FunderLexicon(("CSC", "(C.S.C.)", "985")).variants[2] == "985"


def find_mentions(text, lexicon):
    """(matched text, span) of every mention, left to right, from successive
    ``find_mention`` calls."""
    mentions = []
    pos = 0
    while (m := lexicon.find_mention(text, pos)) is not None:
        mentions.append((m.group(), m.span()))
        pos = m.end()
    return mentions


class TestDetectFunderMention:
    def test_single_mention_with_span(self, lexicon):
        text = "supported by the China Scholarship Council (CSC)"
        assert find_mentions(text, lexicon) == [("China Scholarship Council", (17, 42))]

    def test_empty_text(self, lexicon):
        assert find_mentions("", lexicon) == []

    def test_two_mentions_enumerated(self, lexicon):
        text = "the CSC scholarship and the Chinese Scholarship Council"
        assert find_mentions(text, lexicon) == [
            ("CSC scholarship", (4, 19)),
            ("Chinese Scholarship Council", (28, 55)),
        ]

    def test_case_insensitive(self, lexicon):
        assert find_mentions("THE CHINA SCHOLARSHIP COUNCIL", lexicon) == [
            ("CHINA SCHOLARSHIP COUNCIL", (4, 29)),
        ]

    def test_word_boundaries_respected(self, lexicon):
        assert find_mentions("the DCSC scholarship fund", lexicon) == []
        # non-ASCII letters are word characters too, as in contains_bounded
        assert find_mentions("ÉChina Scholarship Councilé", lexicon) == []
        assert find_mentions("(China Scholarship Council)", lexicon) == [
            ("China Scholarship Council", (1, 26)),
        ]

    def test_longest_variant_wins_at_overlap(self):
        lexicon = FunderLexicon(("CSC", "CSC scholarship"))
        assert find_mentions("the CSC scholarship", lexicon) == [("CSC scholarship", (4, 19))]


class TestSentenceSplitting:
    def test_worked_example_extracts_second_sentence(self, lexicon):
        text = "We thank X. " + WORKED_EXAMPLE
        sentences = extract_funding_sentences(text, lexicon)
        assert len(sentences) == 1
        assert sentences[0].text == WORKED_EXAMPLE
        start, end = sentences[0].span
        assert text[start:end] == WORKED_EXAMPLE

    def test_no_mention_gives_empty(self, lexicon):
        assert extract_funding_sentences("We thank our colleagues.", lexicon) == []

    def test_parenthesized_abbreviation_kept_in_sentence(self, lexicon):
        # boundary hand-marked after "(CSC)."; the parenthetical stays
        # inside the funding sentence and the next sentence is excluded
        text = (
            "This study was funded by the China Scholarship Council (CSC). "
            "We thank the reviewers."
        )
        sentences = extract_funding_sentences(text, lexicon)
        assert len(sentences) == 1
        assert sentences[0].text == (
            "This study was funded by the China Scholarship Council (CSC)."
        )

    def test_surname_dot_initial_not_split(self, lexicon):
        text = "We thank colleagues. Chen. L is supported by the China Scholarship Council."
        sentences = extract_funding_sentences(text, lexicon)
        assert len(sentences) == 1
        assert sentences[0].text.startswith("Chen. L is supported")

    def test_grant_number_abbreviation_not_split(self, lexicon):
        text = (
            "Funded by the China Scholarship Council under Grant No. 2017060 "
            "awarded to the first author."
        )
        sentences = extract_funding_sentences(text, lexicon)
        assert len(sentences) == 1
        assert sentences[0].text == text

    def test_every_funding_sentence_contains_mention(self, lexicon):
        text = (
            "We thank A. Smith for advice. The China Scholarship Council "
            "supported this work. Apparatus was built in-house. The CSC "
            "scholarship also funded a research stay."
        )
        for sentence in extract_funding_sentences(text, lexicon):
            assert lexicon.find_mention(sentence.text) is not None


class TestNameVariants:
    def test_chen_long(self):
        author = make_author(2, "Chen", first="Long")
        expected = {"chen long", "long chen", "chen. l", "c.l.", "cl"}
        assert expected <= generate_name_variants(author)

    def test_bernreuther_werner(self):
        author = make_author(1, "Bernreuther", first="Werner")
        expected = {"bernreuther werner", "werner bernreuther", "b.w.", "bw"}
        assert expected <= generate_name_variants(author)

    def test_initials_only_li(self):
        author = make_author(3, "Li", initials="X-H")
        variants = generate_name_variants(author)
        expected = {"li x-h", "li xh", "x.h. li"}
        assert expected <= variants
        # no invented full given name: every variant derives from the
        # surname and the initials
        for variant in variants:
            for token in variant.replace(",", "").split():
                assert set(token) <= set("lixh.-")

    def test_hyphenated_given_name(self):
        author = make_author(1, "Wang", first="Zhi-Chao")
        expected = {"z.-c. wang", "zc", "z.c.", "zhichao wang", "wang zhi-chao"}
        assert expected <= generate_name_variants(author)

    def test_initial_plus_surname_form(self):
        author = make_author(1, "Chen", first="Long")
        assert "l. chen" in generate_name_variants(author)

    def test_initial_is_first_letter_of_a_given_name_part(self):
        variants = generate_name_variants(make_author(1, "Chen", first="(J.)"))
        assert {"j. chen", "chen. j", "cj", "c.j."} <= variants
        assert not {"(. chen", "chen. ("} & variants

    def test_variants_are_normalized(self):
        author = make_author(1, "MÜLLER", first="Sören")
        for variant in generate_name_variants(author):
            assert variant == normalize_text(variant)

    def test_ordinal_word_and_numeric_forms(self):
        assert ordinal_phrases(1) == {"the first author", "the 1st author"}
        assert ordinal_phrases(3) == {"the third author", "the 3rd author"}
        assert ordinal_phrases(2) == {"the second author", "the 2nd author"}
        assert ordinal_phrases(11) == {"the 11th author"}
        assert ordinal_phrases(23) == {"the 23rd author"}


def worked_example_record():
    return make_record(
        "000373106500002",
        (
            make_author(1, "Bernreuther", first="Werner"),
            make_author(2, "Chen", first="Long"),
        ),
        ack="We are grateful for comments. " + WORKED_EXAMPLE,
        funding=("China Scholarship Council",),
    )


class TestMatchFundedAuthors:
    def test_worked_example_identifies_position_two(self, lexicon):
        record = worked_example_record()
        _, matches = mine_record(record, lexicon)
        assert len(matches) == 1
        match = matches[0]
        assert match.author_position == 2
        assert match.match_kind is MatchKind.NAME
        assert match.evidence == "long chen"

    def test_ordinal_phrase_matches_first_author(self, lexicon):
        record = make_record(
            "r1",
            (make_author(1, "Smith", first="John"), make_author(2, "Jones", first="Ann")),
            ack="The first author acknowledges the China Scholarship Council.",
        )
        _, matches = mine_record(record, lexicon)
        assert [(m.author_position, m.match_kind) for m in matches] == [
            (1, MatchKind.ORDINAL)
        ]

    def test_sentence_naming_both_authors(self, lexicon):
        record = make_record(
            "r2",
            (make_author(1, "Zhao", first="Min"), make_author(2, "Sun", first="Qiang")),
            ack=(
                "Min Zhao and Qiang Sun acknowledge scholarships from the "
                "China Scholarship Council."
            ),
        )
        _, matches = mine_record(record, lexicon)
        assert [m.author_position for m in matches] == [1, 2]
        assert all(m.match_kind is MatchKind.NAME for m in matches)

    def test_short_variant_requires_whole_token(self, lexicon):
        club = make_record(
            "r3",
            (make_author(1, "Chen", first="Long"),),
            ack="Club members thank the China Scholarship Council.",
        )
        assert mine_record(club, lexicon)[1] == []
        token = make_record(
            "r4",
            (make_author(1, "Chen", first="Long"),),
            ack="CL acknowledges the China Scholarship Council.",
        )
        _, matches = mine_record(token, lexicon)
        assert [m.author_position for m in matches] == [1]

    def test_no_match_keeps_record_unidentified(self, lexicon):
        record = make_record(
            "r5",
            (make_author(1, "Chen", first="Long"),),
            ack="This work was supported by the China Scholarship Council.",
        )
        assert mine_record(record, lexicon)[1] == []

    def test_name_match_outranks_ordinal(self, lexicon):
        record = make_record(
            "r6",
            (make_author(1, "Chen", first="Long"),),
            ack=(
                "The first author, Long Chen, is supported by the "
                "China Scholarship Council."
            ),
        )
        _, matches = mine_record(record, lexicon)
        assert matches[0].match_kind is MatchKind.NAME

    def test_dotted_initial_surname_form_matches(self, lexicon):
        record = make_record(
            "r7",
            (make_author(1, "Chen", first="Long"),),
            ack="We thank colleagues. Chen. L is supported by the China Scholarship Council.",
        )
        _, matches = mine_record(record, lexicon)
        assert [m.author_position for m in matches] == [1]

    def test_matches_only_funding_sentences(self, lexicon):
        record = make_record(
            "r8",
            (make_author(1, "Smith", first="John"), make_author(2, "Li", first="Wei")),
            ack=(
                "Li Wei thanks the CSC scholarship for support. "
                "We also thank J. Smith for helpful comments."
            ),
        )
        _, matches = mine_record(record, lexicon)
        assert [m.author_position for m in matches] == [2]

    def test_evidence_is_member_of_variant_set(self, lexicon):
        record = worked_example_record()
        for match in mine_record(record, lexicon)[1]:
            author = record.authors[match.author_position - 1]
            assert match.evidence in generate_name_variants(author)

    def test_returns_the_funding_sentences_behind_the_matches(self, lexicon):
        record = worked_example_record()
        sentences, matches = mine_record(record, lexicon)
        assert [s.span for s in sentences] == [matches[0].sentence_span]

    def test_no_acknowledgment_gives_nothing(self, lexicon):
        record = make_record("r9", (make_author(1, "Chen", first="Long"),))
        assert mine_record(record, lexicon) == ([], [])

    def test_deterministic(self, lexicon):
        record = worked_example_record()
        assert mine_record(record, lexicon) == mine_record(record, lexicon)

    def test_funding_sentences_stay_out_of_the_memo(self, lexicon):
        # each funding sentence is seen once, so a memo entry for it would
        # only hold memory; the names are normalized once per run anyway
        record = make_record(
            "memo",
            (make_author(1, "Zhang", first="Wen-Jie"), make_author(2, "Okafor", initials="C.N.")),
            ack="Lab notes 4711 were kept by others. Wen-Jie Zhang and the 2nd author "
            "thank the China Scholarship Council (grant 4711-memo).",
        )
        for author in record.authors:
            for name in (author.last_name, author.first_name, author.initials):
                if name:
                    normalize_text(name)
        before = normalize_text.cache_info().currsize
        sentences, matches = mine_record(record, lexicon)
        assert len(sentences) == 1
        assert [m.author_position for m in matches] == [1, 2]
        assert normalize_text.cache_info().currsize == before


_SURNAMES = ["Chen", "Wang", "Li", "Zhao", "Sun", "Gomez", "Smith", "Tanaka"]
_FIRSTS = ["Long", "Wei", "Min", "Zhi-Chao", None]


@st.composite
def random_authors(draw):
    n = draw(st.integers(1, 6))
    return tuple(
        make_author(
            i + 1,
            draw(st.sampled_from(_SURNAMES)),
            first=draw(st.sampled_from(_FIRSTS)),
        )
        for i in range(n)
    )


@given(random_authors(), st.sampled_from([
    "Long Chen is supported by the China Scholarship Council.",
    "The second author thanks the CSC scholarship.",
    "Wei Li and Min Zhao acknowledge the Chinese Scholarship Council.",
]))
def test_matches_are_sorted_unique_positions(authors, ack):
    lexicon = FunderLexicon(
        ("China Scholarship Council", "CSC scholarship", "Chinese Scholarship Council"),
    )
    record = make_record("h1", authors, ack=ack)
    _, matches = mine_record(record, lexicon)
    positions = [m.author_position for m in matches]
    assert positions == sorted(set(positions))
    assert set(positions) <= {a.position for a in record.authors}


@given(random_authors(), st.sampled_from(_SURNAMES), st.sampled_from(_FIRSTS))
def test_adding_author_never_removes_matches(authors, extra_last, extra_first):
    lexicon = FunderLexicon(("China Scholarship Council",))
    ack = "Long Chen and Wei Li thank the China Scholarship Council."
    base = make_record("h2", authors, ack=ack)
    extended = make_record(
        "h2",
        authors + (make_author(len(authors) + 1, extra_last, first=extra_first),),
        ack=ack,
    )
    before = {(m.author_position, m.match_kind) for m in mine_record(base, lexicon)[1]}
    after = {(m.author_position, m.match_kind) for m in mine_record(extended, lexicon)[1]}
    assert before <= after


# -- extraction against the simple splitter it replaced --------------------
#
# reference_split_sentences is the slicing splitter the package used before
# it read the text in place: it copies the tail and searches the whole head
# at every boundary, so it is quadratic in the text length, but it is the
# definition the sentences extraction finds must reproduce.

_REF_BOUNDARY_RE = re.compile(r"([.!?]+)(\s+)")
_REF_LEFT_TOKEN_RE = re.compile(r"([A-Za-z]+)$")
_REF_RIGHT_INITIAL_RE = re.compile(r"^[A-Z]\.?(?![A-Za-z])")


def _reference_is_sentence_break(text, punct_start, punct_end, rest_start):
    rest = text[rest_start:]
    if not rest or not (rest[0].isupper() or rest[0].isdigit()):
        return False
    # initials and abbreviations only involve periods; ! and ? always break
    if set(text[punct_start:punct_end]) != {"."}:
        return True
    # "Chen. L is ..." - a bare or dotted single capital after the period
    # is an initial belonging to the previous name, not a new sentence.
    # Bare "A" and "I" are exempt: they are ordinary English words.
    initial = _REF_RIGHT_INITIAL_RE.match(rest)
    if initial and not (initial.group() in ("A", "I")):
        return False
    left = _REF_LEFT_TOKEN_RE.search(text[:punct_start])
    if left:
        token = left.group(1)
        if token.lower() in _ABBREVIATIONS:
            return False
        # compound initials like "X.H." or "e.g." - single letter with a
        # dot right before it; standalone single letters ("We thank X.")
        # still end the sentence.
        if len(token) == 1:
            before = left.start(1) - 1
            if before >= 0 and text[before] == ".":
                return False
    return True


def reference_split_sentences(text):
    spans = []
    start = 0
    for m in _REF_BOUNDARY_RE.finditer(text):
        if not _reference_is_sentence_break(text, m.start(1), m.end(1), m.end()):
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


# reference_detect_funder_mention is the detector as it was with one named
# group per variant and a lookbehind for the left word edge. Neither lets re
# scan for the variants' prefixes, so it is slower, but it is the definition
# the prefix-scannable pattern and its left-edge check must reproduce.


def _reference_mention_pattern(lexicon):
    ordered = sorted(lexicon.variants, key=lambda v: (-len(v), v))
    parts = []
    for i, variant in enumerate(ordered):
        words = r"\s+".join(re.escape(w) for w in variant.split())
        parts.append(f"(?P<v{i}>{words})")
    body = "|".join(parts)
    # [^\W_] is str.isalnum, the word-character rule of contains_bounded
    return ordered, re.compile(rf"(?<![^\W_])(?:{body})(?![^\W_])", re.IGNORECASE)


def reference_detect_funder_mention(text, lexicon):
    if not text:
        return []
    ordered, pattern = _reference_mention_pattern(lexicon)
    matches = []
    for m in pattern.finditer(text):
        group_name = next(name for name, val in m.groupdict().items() if val is not None)
        matches.append((ordered[int(group_name[1:])], m.span()))
    return matches


def reference_funding_sentences(text, lexicon):
    return [
        FundingSentence(text=text[s:e], span=(s, e))
        for s, e in reference_split_sentences(text)
        if reference_detect_funder_mention(text[s:e], lexicon)
    ]


# pieces that reach every rule of the splitter: each punctuation mark, each
# kind of whitespace (a newline right before a period too), the bare "A" and
# "I", other capitals, digits, lower case, a non-ASCII capital,
# abbreviations, dotted initials, and funder names with and without letters
# glued onto them
_SPLIT_PIECES = st.sampled_from([
    ".", "!", "?", "...", " ", "  ", "\t", "\n", "\n.", " \n",
    "A", "I", "B", "L", "Q", "0", "7", "a", "x", "we", "É", "é",
    "Dr", "No", "e.g", "al", "X.", "X.H.", "Chen", "Chen. L",
    "China Scholarship Council", "CSC scholarship", "xCSC scholarship",
    "Chinese Scholarship Councilé",
])
# runs of words with sentence ends between them, so that most texts hold
# several candidate boundaries and several sentences naming the funder
_WORDS = st.sampled_from([
    "We", "thank", "the", "A", "I", "L", "3", "É", "Dr", "No", "e.g", "al",
    "X.H.", "Chen.", "China Scholarship Council", "CSC scholarship",
])
_ENDS = st.sampled_from([". ", "! ", "? ", "... ", ".\n", "\n. ", ".\t", " "])
_sentence_texts = st.lists(
    st.tuples(st.lists(_WORDS, min_size=1, max_size=5).map(" ".join), _ENDS), max_size=8,
).map(lambda parts: "".join(words + end for words, end in parts))
_texts = st.one_of(st.lists(_SPLIT_PIECES, max_size=40).map("".join), _sentence_texts)
_LEXICON = FunderLexicon(
    ("China Scholarship Council", "CSC scholarship", "Chinese Scholarship Council"),
)


# about 80k characters and 1,000 sentences, every one naming the funder
_LONG_ACKNOWLEDGMENT = " ".join(
    f"Long Chen thanks Dr. Wang, X.H. Li, e.g. the CSC scholarship "
    f"(No. {i:05d}) and others."
    for i in range(1000)
)


class TestSplitterOracle:
    @given(_texts)
    def test_funding_sentences_equal_reference(self, text):
        assert extract_funding_sentences(text, _LEXICON) == reference_funding_sentences(text, _LEXICON)

    # a funder mention sits in the sentence next to each tricky boundary,
    # before it and after it, so both walks of extraction read it
    @pytest.mark.parametrize("text", [
        "Thanks to Dr\n. Smith of the CSC scholarship for help.",
        "The CSC scholarship funded Dr\n. Smith. We thank him.",
        "We thank X\n. Y\n. Zhang of the China Scholarship Council. Funding came later.",
        "See e.g\n. The CSC scholarship funded it.",
        "Sentence one.\n\nThe CSC scholarship funded two. ",
        "We thank É. Chen and X.H. Li. A CSC scholarship grant. I agree! 3 more CSC scholarship? ok.",
        "We thank É. Chen and X.H. Li of the CSC scholarship. A grant. I agree! 3 more? ok.",
    ])
    def test_edge_cases_equal_reference(self, text):
        expected = reference_funding_sentences(text, _LEXICON)
        assert expected
        assert extract_funding_sentences(text, _LEXICON) == expected


# -- the funder scan and extraction across lexicons -------------------------
#
# Three lexicons: the stock one; one whose short variant is a prefix of a
# longer one; and one with a variant that crosses a sentence end, so that a
# mention found in the whole text can straddle two sentences.

_ORACLE_LEXICONS = (
    FunderLexicon.load(DATA_DIR / "lexicon_csc.txt"),
    FunderLexicon(("CSC", "CSC scholarship")),
    FunderLexicon(("China Scholarship Council", "Scholarship Council. The", "CSC")),
)
# word characters to glue onto the variants (letters, digits, "_", accented
# letters), whitespace runs, and the splitter's pieces around sentence ends
_GLUE = st.one_of(_SPLIT_PIECES, st.sampled_from(["_", "9", "Z", " ", "\t", "\n\n", ". ", ". The ", ".  the "]))
_GAPS = st.sampled_from([" ", "  ", "\t", "\n", "\n\n\n", " \t\n"])
_CASES = st.sampled_from([str, str.upper, str.lower, str.swapcase, str.title])


@st.composite
def lexicon_texts(draw):
    """A lexicon of _ORACLE_LEXICONS and a text gluing its variants, in
    mixed case and with whitespace runs between their words, to other
    pieces."""
    lexicon = draw(st.sampled_from(_ORACLE_LEXICONS))
    pieces = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            first, *rest = draw(st.sampled_from(lexicon.variants)).split()
            pieces.append(draw(_CASES)(first + "".join(draw(_GAPS) + word for word in rest)))
        else:
            pieces.append(draw(_GLUE))
    return lexicon, "".join(pieces)


class TestFunderScanOracle:
    @given(lexicon_texts())
    def test_detect_funder_mention_equals_reference(self, drawn):
        lexicon, text = drawn
        assert [span for _, span in find_mentions(text, lexicon)] == [
            span for _, span in reference_detect_funder_mention(text, lexicon)
        ]

    @given(lexicon_texts())
    def test_record_acknowledges_funder_equals_reference(self, drawn):
        lexicon, text = drawn
        record = make_record("f", (make_author(1, "Chen", first="Long"),), ack=text)
        assert record_acknowledges_funder(record, lexicon) == bool(
            reference_detect_funder_mention(text, lexicon)
        )

    @given(lexicon_texts())
    def test_funding_sentences_equal_reference_across_lexicons(self, drawn):
        lexicon, text = drawn
        assert extract_funding_sentences(text, lexicon) == reference_funding_sentences(text, lexicon)

    def test_variant_across_a_sentence_end_is_not_a_funding_sentence(self):
        lexicon = _ORACLE_LEXICONS[2]
        text = "We thank the China Scholarship Council. The reviewers helped."
        assert [m[0] for m in find_mentions(text, lexicon)] == ["China Scholarship Council"]
        text = "We thank the Scholarship Council. The reviewers helped."
        assert [m[0] for m in find_mentions(text, lexicon)] == ["Scholarship Council. The"]
        assert extract_funding_sentences(text, lexicon) == []

    # the mention opens inside a run of end marks, and that whole run is
    # the boundary: "!." breaks where "." alone, before an initial, would not
    @pytest.mark.parametrize("text", [
        "Wow!. L Council funds it. More.",
        "Yes?. L Council! ok",
        "We thank the CSC!. L Council. Then X.",
    ])
    def test_mention_opening_with_an_end_mark_equals_reference(self, text):
        lexicon = FunderLexicon((". L Council", "CSC"))
        assert extract_funding_sentences(text, lexicon) == reference_funding_sentences(text, lexicon)


def test_bench_corpora_mine_as_the_references(monkeypatch):
    """On every acknowledgment of the three benchmark workloads (seed 5),
    extraction equals the slicing reference with the reference detector,
    and matching equals the reference matcher."""
    gen = load_bench_gen(monkeypatch)
    lexicon = _ORACLE_LEXICONS[0]
    for workload in gen.WORKLOADS:
        records = parse_corpus(gen.generate(workload, 5, DATA_DIR).lines).records
        for record in records:
            sentences = extract_funding_sentences(record.acknowledgment_text, lexicon)
            assert sentences == reference_funding_sentences(record.acknowledgment_text or "", lexicon)
            assert match_funded_authors(record, sentences) == reference_match_funded_authors(
                record, sentences, variants_of=generate_name_variants
            )


_FILLER = "We thank Dr. Smith, X.H. Li and e.g. the reviewers (No. 7). Data were collected in 2015! "


@pytest.mark.parametrize("text, classified", [
    # no mention: no boundary is looked at
    (_FILLER * 40, 0),
    # one mention after 80 sentences: only the break right before it
    (_FILLER * 40 + "Long Chen thanks the CSC scholarship.", 1),
    # a mention opening a sentence: the break that ends right before it
    # starts its sentence, and no earlier boundary is looked at
    (_FILLER * 40 + "CSC scholarship funded Long Chen.", 1),
], ids=["no-mention", "mention-after-80-sentences", "mention-opening-a-sentence"])
def test_extraction_classifies_boundaries_only_around_mentions(monkeypatch, lexicon, text, classified):
    calls = []
    is_break = ackminer._is_sentence_break

    def counting(*args):
        calls.append(args)
        return is_break(*args)

    monkeypatch.setattr(ackminer, "_is_sentence_break", counting)
    sentences = extract_funding_sentences(text, lexicon)
    assert len(calls) == classified
    assert sentences == reference_funding_sentences(text, lexicon)


def test_long_acknowledgment_extracts_in_linear_time(lexicon):
    # the slicing reference re-scans the text at every boundary and takes
    # seconds here
    assert 75_000 <= len(_LONG_ACKNOWLEDGMENT) <= 85_000
    start = time.perf_counter()
    sentences = extract_funding_sentences(_LONG_ACKNOWLEDGMENT, lexicon)
    elapsed = time.perf_counter() - start
    assert len(sentences) == 1000
    assert elapsed < 1.0


@pytest.mark.parametrize("build, count", [
    # every boundary before the mention is no break, so the backward search
    # for the sentence start runs once per boundary
    (lambda n: "Dr. " * n + "the CSC scholarship funded it.", 20_000),
    # one run of end marks with no whitespace after it
    (lambda n: "!" * n + "CSC scholarship funded it.", 50_000),
    # no boundary at all before the mention
    (lambda n: "we thank you " * n + "and the CSC scholarship.", 80_000 // 13),
], ids=["non-breaks-before-mention", "end-mark-run-before-mention", "no-boundary-before-mention"])
def test_worst_case_acknowledgment_extracts_in_linear_time(lexicon, build, count):
    # the slicing reference takes about half a minute on the first two at
    # full size, so it is compared on a short text of the same shape; in
    # both, the whole text is the one funding sentence
    short = build(200)
    assert extract_funding_sentences(short, lexicon) == reference_funding_sentences(short, lexicon) == [
        FundingSentence(text=short, span=(0, len(short)))
    ]
    text = build(count)
    start = time.perf_counter()
    sentences = extract_funding_sentences(text, lexicon)
    elapsed = time.perf_counter() - start
    assert sentences == [FundingSentence(text=text, span=(0, len(text)))]
    assert elapsed < 1.0


# -- metamorphic properties of mining ---------------------------------------
#
# Spans move when the text around a sentence changes, so these compare what
# was matched: (author_position, evidence, match_kind).

_FUNDING_SENTENCES = [
    "Long Chen is supported by the China Scholarship Council.",
    "The second author thanks the CSC scholarship.",
    "Wei Li and Min Zhao acknowledge the Chinese Scholarship Council.",
    "The China Scholarship Council funded a visit of Zhi-Chao Wang.",
]
# none names a funder, an author or a position, and each ends on a word
# the splitter reads as the end of a sentence
_FILLER_SENTENCES = [
    "We thank the reviewers.",
    "Data were collected in 2015.",
    "The authors declare no conflict of interest!",
    "Computing time was provided by the university.",
    "Did the anonymous referees help?",
]


def _matched(record):
    return [
        (m.author_position, m.evidence, m.match_kind)
        for m in mine_record(record, _LEXICON)[1]
    ]


@given(
    random_authors(),
    st.lists(st.sampled_from(_FUNDING_SENTENCES), min_size=1, max_size=3),
    st.data(),
)
def test_non_funder_sentences_leave_matches_unchanged(authors, funding, data):
    fillers = [
        data.draw(st.lists(st.sampled_from(_FILLER_SENTENCES), max_size=2))
        for _ in range(len(funding) + 1)
    ]
    padded = list(fillers[0])
    for sentence, after in zip(funding, fillers[1:]):
        padded += [sentence, *after]
    base = make_record("m1", authors, ack=" ".join(funding))
    extended = make_record("m1", authors, ack=" ".join(padded))
    assert _matched(extended) == _matched(base)


_ACCENTED = str.maketrans("aeiouncAEIOUNC", "áéíóúñçÁÉÍÓÚÑÇ")


def _upper_first_token(name):
    first, sep, rest = name.partition(" ")
    return first.upper() + sep + rest


_NAME_EDITS = {
    "upper": str.upper,
    "lower": str.lower,
    "upper-first-token": _upper_first_token,
    "accents": lambda name: name.translate(_ACCENTED),
    "accents-upper": lambda name: name.translate(_ACCENTED).upper(),
}
_NAME_FORMS = {
    "given-surname": lambda a: f"{a.first_name} {a.last_name}",
    "surname-given": lambda a: f"{a.last_name} {a.first_name}",
    "surname-comma-given": lambda a: f"{a.last_name}, {a.first_name}",
}


@given(
    random_authors(),
    st.data(),
    st.sampled_from(sorted(_NAME_FORMS)),
    st.sampled_from(sorted(_NAME_EDITS)),
)
def test_case_and_diacritics_of_a_name_match_the_same_authors(authors, data, form, edit):
    author = data.draw(st.sampled_from(authors))
    name = _NAME_FORMS[form](author) if author.first_name else author.last_name
    # the name sits inside the sentence, away from the sentence start whose
    # case the splitter reads
    template = "We thank the reviewers. This work by {} was funded by the China Scholarship Council."
    plain = make_record("m2", authors, ack=template.format(name))
    edited = make_record("m2", authors, ack=template.format(_NAME_EDITS[edit](name)))
    assert _matched(edited) == _matched(plain)



# names none of whose variants occur in _FUNDING_SENTENCES
_STRANGERS = st.tuples(
    st.sampled_from(["Okonkwo", "Quispe", "Virtanen"]),
    st.sampled_from(["Adaeze", "Tupac", None]),
)


@given(
    random_authors(),
    st.lists(st.sampled_from(_FUNDING_SENTENCES), min_size=1, max_size=3),
    _STRANGERS,
    st.data(),
)
def test_renaming_an_unfunded_author_leaves_the_others_unchanged(authors, funding, stranger, data):
    ack = " ".join(funding)
    base = make_record("m3", authors, ack=ack)
    funded = {position for position, _, _ in _matched(base)}
    unfunded = [a.position for a in authors if a.position not in funded]
    assume(unfunded)
    position = data.draw(st.sampled_from(unfunded))
    last, first = stranger
    renamed = tuple(
        make_author(position, last, first=first) if a.position == position else a
        for a in authors
    )
    others = lambda rows: [row for row in rows if row[0] != position]
    assert others(_matched(make_record("m3", renamed, ack=ack))) == others(_matched(base))


# -- the matcher against the simple reference it replaced -------------------
#
# The functions below are the matcher as it was when every variant was
# compared with each sentence twice, verbatim and with token-edge punctuation
# stripped. Apart from the renames, the ``variants_of`` parameter and the
# plumbing of the variant set (a plain frozenset, with the positional phrases
# taken from ``ordinal_phrases``) they are copied unchanged. Comparing the stripped forms alone finds the same matches
# except for variants made only of edge punctuation ("((" from the given name
# "(a) (b)"), which the verbatim pass let match a punctuation-only token.
#
# The variant grammar has one change since, marked by ``old_grammar``: an
# initial is the first letter of a given-name part, not its first character,
# and a given name or initials without a letter or digit count as absent.
# The old grammar made "chen. (" from "(J.)", "chen. ." from "." and
# "chen,  " from "-", which all strip to the bare surname. The new grammar
# makes no variant of edge punctuation alone.

_REF_EDGE_PUNCT = ".,;:!?()[]{}\"'"


def _reference_given_parts(author: Authorship) -> list[str]:
    """Normalized pieces of the given name: "Zhi-Chao" -> ["zhi", "chao"]."""
    source = author.first_name or ""
    parts = [p for p in re.split(r"[\s\-]+", normalize_text(source)) if p]
    return parts


def _holds_letter_or_digit(name: str | None) -> bool:
    return any(ch.isalnum() for ch in normalize_text(name or ""))


def _reference_initial_letters(author: Authorship, old_grammar: bool = False) -> list[str]:
    parts = _reference_given_parts(author)
    if old_grammar:
        letters = [p[0] for p in parts]
    else:
        letters = [next(ch for ch in p if ch.isalpha()) for p in parts if any(ch.isalpha() for ch in p)]
    if letters:
        return letters
    if author.initials:
        return [ch for ch in normalize_text(author.initials) if ch.isalpha()]
    return []


def reference_generate_name_variants(author: Authorship, old_grammar: bool = False) -> frozenset[str]:
    """Expand one authorship into the surface forms matched in sentences.

    Covers full-name orders ("long chen", "chen long"), surname-plus-
    initial ("chen. l"), dotted and undotted initials ("c.l.", "cl"),
    initials-plus-surname ("l. chen", "x.h. li", "z.-c. wang"), and the
    de-hyphenated and spaced spellings of hyphenated given names. The
    grammar is a documented superset of the common acknowledgment styles.
    """
    last = normalize_text(author.last_name)
    variants: set[str] = set()

    given_forms: set[str] = set()
    if author.first_name and (old_grammar or _holds_letter_or_digit(author.first_name)):
        hyphenated = normalize_text(author.first_name)
        given_forms.add(hyphenated)
        if "-" in hyphenated:
            given_forms.add(hyphenated.replace("-", ""))
            given_forms.add(hyphenated.replace("-", " "))
    elif author.initials and (old_grammar or _holds_letter_or_digit(author.initials)):
        raw = normalize_text(author.initials)
        given_forms.add(raw)
        flattened = "".join(ch for ch in raw if ch.isalpha())
        if flattened:
            given_forms.add(flattened)

    for given in given_forms:
        variants.add(f"{given} {last}")
        variants.add(f"{last} {given}")
        variants.add(f"{last}, {given}")

    initials = _reference_initial_letters(author, old_grammar)
    if initials:
        dotted = "".join(f"{ch}." for ch in initials)
        variants.add(f"{dotted} {last}")
        if len(initials) > 1:
            hyphen_dotted = ".-".join(initials) + "."
            variants.add(f"{hyphen_dotted} {last}")
            # bare given-initial tokens of multi-part given names: "Zhi-Chao"
            # is also credited as "ZC", "Z.C." or "Z.-C."
            variants.add("".join(initials))
            variants.add(dotted)
            variants.add(hyphen_dotted)
        variants.add(f"{last}. {initials[0]}")
        surname_first = [last[0]] + initials
        variants.add("".join(surname_first))
        variants.add("".join(f"{ch}." for ch in surname_first))

    return frozenset(variants)


#: Variants at or below this stripped length only match whole tokens.
_REF_SHORT_VARIANT_LIMIT = 3


@dataclass
class _ReferenceSentenceView:
    span: tuple[int, int]
    normalized: str
    stripped: str
    tokens: set[str] = field(default_factory=set)

    @classmethod
    def of(cls, sentence: FundingSentence) -> "_ReferenceSentenceView":
        normalized = normalize_text(sentence.text)
        return cls(
            span=sentence.span,
            normalized=normalized,
            stripped=strip_token_punct(normalized),
            tokens=reference_token_forms(normalized),
        )


def _reference_with_stripped(variants: frozenset[str]) -> list[tuple[str, str]]:
    return [(v, strip_token_punct(v)) for v in variants]


def _reference_variant_occurs(variant: str, stripped: str, view: _ReferenceSentenceView) -> bool:
    if len(stripped) <= _REF_SHORT_VARIANT_LIMIT:
        return variant in view.tokens or stripped in view.tokens
    return contains_bounded(variant, view.normalized) or (
        bool(stripped) and contains_bounded(stripped, view.stripped)
    )


def reference_match_funded_authors(
    record: PublicationRecord, sentences: list[FundingSentence],
    variants_of=reference_generate_name_variants,
) -> list[FundedAuthorship]:
    """Authors whose name variants or positional phrases occur in a
    funding sentence.

    At most one entry per author, sorted by position. The evidence string
    is the longest matching name variant; a name match outranks a
    positional match for the same author.
    """
    if not sentences:
        return []
    views = [_ReferenceSentenceView.of(s) for s in sentences]
    funded = []
    for author in record.authors:
        variants = _reference_with_stripped(variants_of(author))
        phrases = _reference_with_stripped(ordinal_phrases(author.position))
        name_hits: list[tuple[str, tuple[int, int]]] = []
        ordinal_hits: list[tuple[str, tuple[int, int]]] = []
        for view in views:
            for variant, stripped in variants:
                if _reference_variant_occurs(variant, stripped, view):
                    name_hits.append((variant, view.span))
            for phrase, stripped in phrases:
                if _reference_variant_occurs(phrase, stripped, view):
                    ordinal_hits.append((phrase, view.span))
        if name_hits:
            evidence = max((h[0] for h in name_hits), key=lambda v: (len(v), v))
            span = min(h[1] for h in name_hits if h[0] == evidence)
            kind = MatchKind.NAME
        elif ordinal_hits:
            evidence = max((h[0] for h in ordinal_hits), key=lambda v: (len(v), v))
            span = min(h[1] for h in ordinal_hits if h[0] == evidence)
            kind = MatchKind.ORDINAL
        else:
            continue
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


def reference_token_forms(text: str) -> set[str]:
    """All whitespace tokens of ``text``, both raw and edge-stripped."""
    forms: set[str] = set()
    for tok in text.split():
        forms.add(tok)
        stripped = tok.strip(_REF_EDGE_PUNCT)
        if stripped:
            forms.add(stripped)
    return forms


def _grammars_may_differ(author: Authorship) -> bool:
    """Whether the old grammar may give ``author`` other variants: a given
    name holding no letter or with a part that starts with a non-letter,
    or, without a given name, initials holding no letter or digit."""
    if author.first_name:
        given = normalize_text(author.first_name)
        parts = _reference_given_parts(author)
        return not any(ch.isalpha() for ch in given) or any(not p[0].isalpha() for p in parts)
    return bool(author.initials) and not _holds_letter_or_digit(author.initials)


# letters with and without accents (one that case-folds to two letters, one
# that decomposes to two), edge punctuation, hyphens and spaces
_NAME_ALPHABET = "abcLMXZéÉüßİﬁ.,;:()'\"- "
_name_texts = st.text(alphabet=_NAME_ALPHABET, max_size=10)
_optional_names = st.one_of(st.none(), st.sampled_from(["", " ", "-", "(a) (b)"]), _name_texts)


@st.composite
def oracle_authors(draw):
    return tuple(
        Authorship(
            position=position,
            full_name="",
            # the parser rejects a last name that normalizes to nothing
            last_name=draw(_name_texts.filter(normalize_text)),
            first_name=draw(_optional_names),
            initials=draw(_optional_names),
        )
        for position in range(1, draw(st.integers(1, 4)) + 1)
    )


@st.composite
def oracle_sentences(draw, authors):
    """Sentences built from the authors' own name fields and variants,
    positional phrases and punctuation, so that most of them hit."""
    pool = ["we", "thank", "the second author", "The 1st author", "((", "-", ".", "(", ")", ","]
    for author in authors:
        pool += [author.last_name, author.first_name or "", author.initials or ""]
        pool += sorted(reference_generate_name_variants(author))
    # separators include whitespace other than " ": the matcher splits with
    # str.split, the reference normalizes with re's \s
    separators = ["", " ", ", ", ". ", " (", ") ", "-", "\u00a0", "\x1c", "\u2028", "\t\n"]
    pieces = st.tuples(st.sampled_from(pool), st.sampled_from(separators))
    case = draw(st.sampled_from([str, str.upper, str.title]))
    sentences = []
    for k in range(draw(st.integers(1, 3))):
        text = case("".join(p + sep for p, sep in draw(st.lists(pieces, max_size=8))))
        sentences.append(FundingSentence(text=text, span=(100 * k, 100 * k + len(text))))
    return sentences


class TestMatcherOracle:
    @given(oracle_authors())
    def test_name_variants_equal_reference(self, authors):
        for author in authors:
            assert generate_name_variants(author) == reference_generate_name_variants(author)

    @given(oracle_authors())
    def test_name_variants_equal_old_grammar_outside_punctuation_names(self, authors):
        for author in authors:
            if not _grammars_may_differ(author):
                assert generate_name_variants(author) == reference_generate_name_variants(
                    author, old_grammar=True
                )

    @given(oracle_authors(), st.data())
    def test_matches_equal_reference_without_punctuation_only_variants(self, authors, data):
        # the grammar makes no variant of edge punctuation alone, which is
        # where the reference's verbatim pass would differ
        sentences = data.draw(oracle_sentences(authors))
        record = make_record("o", authors)
        assert match_funded_authors(record, sentences) == reference_match_funded_authors(record, sentences)

    def test_punctuation_only_variant_credits_nobody(self, lexicon):
        author = make_author(1, "Chen", first="(a) (b)")
        # the initials are a and b; the old grammar took "(" and made "(("
        assert "((" in reference_generate_name_variants(author, old_grammar=True)
        assert all(strip_token_punct(v) for v in generate_name_variants(author))
        record = make_record(
            "o", (author,), ack="We thank (( for support from the China Scholarship Council."
        )
        assert mine_record(record, lexicon)[1] == []
        # the matcher skips such a form all the same
        views = [((0, 12), "we thank", frozenset({"we", "thank"}))]
        assert ackminer._best_hit({"(("}, views) is None

    @pytest.mark.parametrize("first, initials", [("(J.)", None), (".", None), ("-", None), (None, ".")])
    def test_punctuation_given_name_does_not_credit_another_chen(self, lexicon, first, initials):
        author = make_author(1, "Chen", first=first, initials=initials)
        record = make_record(
            "o", (author,), ack="We thank Chen Wei and the China Scholarship Council."
        )
        assert mine_record(record, lexicon)[1] == []

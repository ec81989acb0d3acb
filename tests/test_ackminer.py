import pytest
from hypothesis import given, strategies as st

from fundmob.ackminer import (
    FunderLexicon,
    MatchKind,
    detect_funder_mention,
    extract_funding_sentences,
    generate_name_variants,
    match_funded_authors,
    mine_record,
    ordinal_phrases,
    split_sentences,
)
from fundmob.textnorm import contains_bounded, normalize_text, strip_token_punct

from .conftest import make_author, make_record


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
        assert lexicon.canonical_name == "China Scholarship Council"
        assert "CSC scholarship" in lexicon.variants

    def test_duplicate_variants_rejected(self):
        with pytest.raises(ValueError):
            FunderLexicon("CSC", ("CSC", "csc"))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            FunderLexicon.load(path)


class TestDetectFunderMention:
    def test_single_mention_with_span(self, lexicon):
        text = "supported by the China Scholarship Council (CSC)"
        matches = detect_funder_mention(text, lexicon)
        assert len(matches) == 1
        variant, (start, end) = matches[0]
        assert variant == "China Scholarship Council"
        assert text[start:end] == "China Scholarship Council"

    def test_empty_text(self, lexicon):
        assert detect_funder_mention("", lexicon) == []

    def test_two_mentions_enumerated(self, lexicon):
        text = "the CSC scholarship and the Chinese Scholarship Council"
        matches = detect_funder_mention(text, lexicon)
        assert [m[0] for m in matches] == [
            "CSC scholarship",
            "Chinese Scholarship Council",
        ]

    def test_case_insensitive(self, lexicon):
        assert detect_funder_mention("THE CHINA SCHOLARSHIP COUNCIL", lexicon)

    def test_word_boundaries_respected(self, lexicon):
        assert detect_funder_mention("the DCSC scholarship fund", lexicon) == []
        # non-ASCII letters are word characters too, as in contains_bounded
        assert detect_funder_mention("ÉChina Scholarship Councilé", lexicon) == []
        assert detect_funder_mention("(China Scholarship Council)", lexicon)

    def test_longest_variant_wins_at_overlap(self):
        lexicon = FunderLexicon("CSC", ("CSC", "CSC scholarship"))
        matches = detect_funder_mention("the CSC scholarship", lexicon)
        assert [m[0] for m in matches] == ["CSC scholarship"]


class TestSentenceSplitting:
    def test_worked_example_extracts_second_sentence(self, lexicon):
        text = "We thank X. " + WORKED_EXAMPLE
        sentences = extract_funding_sentences(text, lexicon, pub_id="w")
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

    def test_spans_tile_original_text(self):
        text = "First sentence here. Second one follows! A third? Yes."
        spans = split_sentences(text)
        assert [text[s:e] for s, e in spans] == [
            "First sentence here.",
            "Second one follows!",
            "A third?",
            "Yes.",
        ]

    def test_every_funding_sentence_contains_mention(self, lexicon):
        text = (
            "We thank A. Smith for advice. The China Scholarship Council "
            "supported this work. Apparatus was built in-house. The CSC "
            "scholarship also funded a research stay."
        )
        for sentence in extract_funding_sentences(text, lexicon):
            assert detect_funder_mention(sentence.text, lexicon)


class TestNameVariants:
    def test_chen_long(self):
        author = make_author(2, "Chen", first="Long")
        variants = generate_name_variants(author, 2)
        expected = {"chen long", "long chen", "chen. l", "c.l.", "cl"}
        assert expected <= set(variants.variants)
        assert "the second author" in variants.ordinal_phrases

    def test_bernreuther_werner(self):
        author = make_author(1, "Bernreuther", first="Werner")
        variants = generate_name_variants(author, 1)
        expected = {"bernreuther werner", "werner bernreuther", "b.w.", "bw"}
        assert expected <= set(variants.variants)
        assert "the first author" in variants.ordinal_phrases

    def test_initials_only_li(self):
        author = make_author(3, "Li", initials="X-H")
        variants = generate_name_variants(author, 3)
        expected = {"li x-h", "li xh", "x.h. li"}
        assert expected <= set(variants.variants)
        assert "the third author" in variants.ordinal_phrases
        # no invented full given name: every variant derives from the
        # surname and the initials
        for variant in variants.variants:
            for token in variant.replace(",", "").split():
                assert set(token) <= set("lixh.-")

    def test_hyphenated_given_name(self):
        author = make_author(1, "Wang", first="Zhi-Chao")
        variants = generate_name_variants(author, 1)
        expected = {"z.-c. wang", "zc", "z.c.", "zhichao wang", "wang zhi-chao"}
        assert expected <= set(variants.variants)

    def test_initial_plus_surname_form(self):
        author = make_author(1, "Chen", first="Long")
        assert "l. chen" in generate_name_variants(author, 1).variants

    def test_variants_are_normalized(self):
        author = make_author(1, "MÜLLER", first="Sören")
        for variant in generate_name_variants(author, 1).variants:
            assert variant == normalize_text(variant)

    def test_ordinal_word_and_numeric_forms(self):
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
            variants = generate_name_variants(author, author.position)
            assert match.evidence in variants.variants

    def test_returns_the_funding_sentences_behind_the_matches(self, lexicon):
        record = worked_example_record()
        sentences, matches = mine_record(record, lexicon)
        assert [s.span for s in sentences] == [matches[0].sentence_span]
        assert all(s.pub_id == record.pub_id for s in sentences)

    def test_no_acknowledgment_gives_nothing(self, lexicon):
        record = make_record("r9", (make_author(1, "Chen", first="Long"),))
        assert mine_record(record, lexicon) == ([], [])

    def test_deterministic(self, lexicon):
        record = worked_example_record()
        assert mine_record(record, lexicon) == mine_record(record, lexicon)


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
        "China Scholarship Council",
        ("China Scholarship Council", "CSC scholarship", "Chinese Scholarship Council"),
    )
    record = make_record("h1", authors, ack=ack)
    _, matches = mine_record(record, lexicon)
    positions = [m.author_position for m in matches]
    assert positions == sorted(set(positions))
    assert set(positions) <= {a.position for a in record.authors}


@given(random_authors(), st.sampled_from(_SURNAMES), st.sampled_from(_FIRSTS))
def test_adding_author_never_removes_matches(authors, extra_last, extra_first):
    lexicon = FunderLexicon(
        "China Scholarship Council", ("China Scholarship Council",)
    )
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

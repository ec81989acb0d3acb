import copy
import dataclasses
import hashlib
import json
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from fundmob.corpus import (
    Affiliation,
    CorpusParseError,
    CountryAliases,
    DateSource,
    DocType,
    FieldWeight,
    ParseIssue,
    RecordError,
    filter_documents,
    load_corpus,
    parse_corpus,
    record_from_dict,
    resolve_pub_date,
    TOTAL_FIELD,
    UNKNOWN_COUNTRY,
)

from .conftest import make_author, make_record, record_as_dict
from .reference_parse import reference_record_from_dict


def line(**overrides):
    base = {
        "pub_id": "W1",
        "title": "T",
        "pub_year": 2015,
        "doc_type": "Article",
        "authors": [{"position": 1, "full_name": "Chen, Long",
                     "last_name": "Chen", "first_name": "Long"}],
    }
    base.update(overrides)
    return json.dumps(base)


class TestParseCorpus:
    def test_empty_stream(self):
        result = parse_corpus([])
        assert result.records == []
        assert result.errors == []

    def test_valid_plus_missing_authors(self):
        bad = json.dumps({"pub_id": "W2", "title": "T", "pub_year": 2015,
                          "doc_type": "Article"})
        result = parse_corpus([line(), bad])
        assert len(result.records) == 1
        assert len(result.errors) == 1
        assert result.errors[0].line_no == 2
        assert "authors" in result.errors[0].message

    def test_position_gap(self):
        bad = line(authors=[
            {"position": 1, "full_name": "A, B", "last_name": "A"},
            {"position": 3, "full_name": "C, D", "last_name": "C"},
        ])
        result = parse_corpus([line(), bad])
        assert len(result.errors) == 1
        assert "position gap" in result.errors[0].message

    def test_unknown_doc_type(self):
        result = parse_corpus([line(), line(pub_id="W2", doc_type="Poster")])
        assert len(result.errors) == 1
        assert "doc_type" in result.errors[0].message

    def test_all_lines_bad_is_fatal(self):
        with pytest.raises(CorpusParseError):
            parse_corpus(["{not json", json.dumps({"title": "no id"})])

    def test_blank_lines_skipped(self):
        result = parse_corpus(["", line(), "   "])
        assert len(result.records) == 1
        assert result.errors == []

    def test_year_out_of_range(self):
        result = parse_corpus([line(), line(pub_id="W2", pub_year=1848)])
        assert "1848" in result.errors[0].message

    def test_field_weights_must_sum_to_one(self):
        bad = line(field_weights=[{"field_id": "a", "weight": 0.5},
                                  {"field_id": "b", "weight": 0.4}])
        result = parse_corpus([line(), bad])
        assert len(result.errors) == 1

    def test_weight_outside_unit_interval(self):
        bad = line(field_weights=[{"field_id": "a", "weight": 1.5}])
        result = parse_corpus([line(), bad])
        assert len(result.errors) == 1

    @pytest.mark.parametrize(
        "weight", ["abc", "1", "1.0", True, None, [1], {"w": 1}, 10**400],
        ids=["string", "numeric-string", "float-string", "bool", "null", "list", "object",
             "huge-int"],
    )
    def test_non_numeric_weight_is_a_parse_issue(self, weight):
        bad = line(pub_id="W2", field_weights=[{"field_id": "a", "weight": weight}])
        result = parse_corpus([line(), bad])
        assert [r.pub_id for r in result.records] == ["W1"]
        assert [e.line_no for e in result.errors] == [2]
        assert "not a number" in result.errors[0].message

    @pytest.mark.parametrize("overrides", [
        {"funding_orgs": "China Scholarship Council"},
        {"funding_orgs": {"name": "China Scholarship Council"}},
        {"funding_orgs": [None]},
        {"authors": [{"position": 1, "last_name": "Chen", "affiliations": "Tsinghua"}]},
        {"authors": [{"position": 1, "last_name": "Chen",
                      "affiliations": {"org_name": "Tsinghua", "country": "CN"}}]},
        {"authors": [{"position": 1, "last_name": "Chen", "affiliations": ["Tsinghua"]}]},
        {"field_weights": 5},
        {"field_weights": True},
        {"field_weights": ""},
    ], ids=["orgs-string", "orgs-object", "orgs-null-entry", "affs-string",
            "affs-object", "affs-string-entry", "weights-number", "weights-bool",
            "weights-empty-string"])
    def test_malformed_list_field_is_a_parse_issue(self, overrides):
        result = parse_corpus([line(), line(pub_id="W2", **overrides)])
        assert [r.pub_id for r in result.records] == ["W1"]
        assert [e.line_no for e in result.errors] == [2]

    @pytest.mark.parametrize("overrides", [
        {"pub_year": 2015.9},
        {"pub_year": True},
        {"authors": [{"position": 1.5, "last_name": "Chen"}]},
        {"authors": [{"position": True, "last_name": "Chen"}]},
        {"pub_year": "2016"},
        {"pub_year": " 2016\n"},
        {"pub_year": "2_016"},
        {"authors": [{"position": "1", "last_name": "Chen"}]},
        {"authors": [{"position": "1_0", "last_name": "Chen"}]},
    ], ids=["year-fraction", "year-bool", "position-fraction", "position-bool", "year-string",
            "year-padded-string", "year-underscored-string", "position-string",
            "position-underscored-string"])
    def test_year_and_position_must_be_integral(self, overrides):
        integral = line(pub_year=2015.0, authors=[{"position": 1.0, "last_name": "Chen"}])
        result = parse_corpus([integral, line(pub_id="W2", **overrides)])
        assert [(r.pub_id, r.pub_year, r.authors[0].position)
                for r in result.records] == [("W1", 2015, 1)]
        assert [e.line_no for e in result.errors] == [2]
        assert "not an integer" in result.errors[0].message

    @pytest.mark.parametrize("field, value", [
        ("title", ["a", "list"]),
        ("doi", 10.1),
        ("acknowledgment_text", ["China Scholarship Council"]),
        ("acknowledgment_text", {"text": "China Scholarship Council"}),
        ("full_name", 1),
        ("last_name", ["Chen"]),
        ("first_name", True),
        ("initials", ["L"]),
        ("email", 0),
        ("org_name", ["Tsinghua"]),
        ("country", 86),
        ("field_id", 7),
    ])
    def test_non_string_field_is_a_parse_issue(self, field, value):
        author = {"position": 1, "full_name": "Chen, Long", "last_name": "Chen",
                  "first_name": "Long", "initials": "L", "email": "l@x.org",
                  "affiliations": [{"org_name": "Tsinghua", "country": "CN"}]}
        fields = {"title": "T", "doi": "10.1/x", "acknowledgment_text": "Thanks.",
                  "field_weights": [{"field_id": "phys", "weight": 1.0}]}
        if field in ("org_name", "country"):
            author["affiliations"][0][field] = value
        elif field == "field_id":
            fields["field_weights"][0]["field_id"] = value
        elif field in author:
            author[field] = value
        else:
            fields[field] = value
        result = parse_corpus([line(), line(pub_id="W2", authors=[author], **fields)])
        assert [r.pub_id for r in result.records] == ["W1"]
        assert [e.line_no for e in result.errors] == [2]
        assert field in result.errors[0].message
        assert "not a string" in result.errors[0].message

    def test_null_string_fields_read_as_absent(self):
        author = {"position": 1, "full_name": None, "last_name": "Chen",
                  "first_name": None, "initials": None, "email": None,
                  "affiliations": [{"org_name": None, "country": None}]}
        record = record_from_dict(json.loads(line(
            title=None, doi=None, acknowledgment_text=None, authors=[author],
        )))
        assert (record.pub_id, record.acknowledgment_text) == ("W1", None)
        parsed = record.authors[0]
        assert (parsed.full_name, parsed.first_name, parsed.initials, parsed.email) == (
            "Chen", None, None, None)
        assert parsed.affiliations[0].org_name == ""
        assert parsed.affiliations[0].country == UNKNOWN_COUNTRY

    @pytest.mark.parametrize("overrides", [
        {"authors": [{"position": 1, "last_name": None}]},
        {"field_weights": [{"field_id": None, "weight": 1.0}]},
    ], ids=["null-last-name", "null-field-id"])
    def test_null_required_string_is_a_parse_issue(self, overrides):
        result = parse_corpus([line(), line(pub_id="W2", **overrides)])
        assert [r.pub_id for r in result.records] == ["W1"]
        assert [e.line_no for e in result.errors] == [2]

    @pytest.mark.parametrize("pub_id", [["W", 1], {"id": "W2"}, True, False, 1.5, []],
                             ids=["list", "object", "true", "false", "float", "empty-list"])
    def test_non_string_pub_id_is_a_parse_issue(self, pub_id):
        result = parse_corpus([line(), line(pub_id=pub_id)])
        assert [r.pub_id for r in result.records] == ["W1"]
        assert result.errors == [ParseIssue(2, "pub_id is not a string or an integer")]

    @pytest.mark.parametrize("pub_id", [None, ""], ids=["null", "empty"])
    def test_null_or_empty_pub_id_is_missing(self, pub_id):
        result = parse_corpus([line(), line(pub_id=pub_id)])
        assert result.errors == [ParseIssue(2, "missing pub_id")]

    @pytest.mark.parametrize("bad", ["\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"])
    @pytest.mark.parametrize("overrides", [
        lambda bad: {"pub_id": f"W{bad}X"},
        lambda bad: {"authors": [{"position": 1, "full_name": f"Chen,{bad}Long",
                                  "last_name": "Chen"}]},
        lambda bad: {"authors": [{"position": 1, "last_name": f"Chen{bad}Jr"}]},
        lambda bad: {"field_weights": [{"field_id": f"odd{bad}field", "weight": 1.0}]},
    ], ids=["pub_id", "full_name", "full_name-from-last_name", "field_id"])
    def test_tab_or_line_break_in_a_tsv_value_is_a_parse_issue(self, overrides, bad):
        # each of these values is a cell of a TSV artifact
        result = parse_corpus([line(), line(**{"pub_id": "W2", **overrides(bad)})])
        assert [r.pub_id for r in result.records] == ["W1"]
        assert [e.line_no for e in result.errors] == [2]
        assert "holds a tab or a line break" in result.errors[0].message

    @pytest.mark.parametrize("overrides, field_map, value", [
        ({"pub_id": "#W2"}, {}, "pub_id '#W2'"),
        ({"field_weights": [{"field_id": "#phys", "weight": 1.0}]}, {}, "field '#phys'"),
        ({"field_weights": [{"field_id": "phys", "weight": 1.0}]}, {"phys": "#Physics"},
         "field '#Physics'"),
    ], ids=["pub_id", "raw-field", "mapped-field"])
    def test_row_opening_value_starting_with_a_hash_is_a_parse_issue(self, overrides, field_map, value):
        # a pub_id or a field name opens rows of the TSV artifacts, whose
        # readers skip every line that starts with "#" as a comment
        result = parse_corpus([line(), line(**{"pub_id": "W2", **overrides})], field_map=field_map)
        assert [r.pub_id for r in result.records] == ["W1"]
        assert result.errors == [ParseIssue(2, f"{value} starts with '#', which marks a comment line")]

    def test_hash_inside_a_row_opening_value_is_kept(self):
        weights = [{"field_id": "phys#1", "weight": 1.0}]
        result = parse_corpus([line(pub_id="W#1", field_weights=weights)])
        assert result.errors == []
        assert [(r.pub_id, r.field_weights[0].field) for r in result.records] == [("W#1", "phys#1")]

    @pytest.mark.parametrize("field_id, field_map", [
        ("Total", {}), ("Total", {"phys": "Physics"}), ("all", {"all": "Total"}),
    ], ids=["raw", "raw-beside-a-map", "mapped"])
    def test_field_resolving_to_total_is_a_parse_issue(self, field_id, field_map):
        # Total names the whole-period row of the PP(IC) table
        bad = line(pub_id="W2", field_weights=[{"field_id": field_id, "weight": 1.0}])
        result = parse_corpus([line(), bad], field_map=field_map)
        assert [r.pub_id for r in result.records] == ["W1"]
        assert result.errors == [ParseIssue(2, "field 'Total' names the whole-period row")]

    def test_field_map_names_the_fields_at_parse(self, tmp_path):
        weights = [{"field_id": "phys", "weight": 0.5}, {"field_id": "xyz", "weight": 0.25},
                   {"field_id": "Total", "weight": 0.25}]
        path = tmp_path / "corpus.jsonl"
        path.write_text(line(field_weights=weights) + "\n")
        result = load_corpus(path, None, {"phys": "Physics", "Total": "All"})
        # an unmapped id keeps its own name; a raw Total mapped away is a field
        assert result.records[0].field_weights == (
            FieldWeight("Physics", 0.5), FieldWeight("xyz", 0.25), FieldWeight("All", 0.25))

    @pytest.mark.parametrize("pub_id", [7, 0])
    def test_integer_pub_id_reads_as_its_decimal_text(self, pub_id):
        result = parse_corpus([line(pub_id=pub_id)])
        assert [r.pub_id for r in result.records] == [str(pub_id)]

    def test_overlong_integer_literal_is_a_parse_issue(self):
        # longer than the interpreter's int conversion limit (4,300 digits)
        bad = line(pub_id="W2").replace('"pub_year": 2015', '"pub_year": ' + "9" * 5000)
        result = parse_corpus([line(), bad])
        assert [r.pub_id for r in result.records] == ["W1"]
        assert [e.line_no for e in result.errors] == [2]

    def test_too_deeply_nested_line_is_a_parse_issue(self):
        deep = "[" * 100_000 + "]" * 100_000
        result = parse_corpus([deep, line()])
        assert [r.pub_id for r in result.records] == ["W1"]
        assert [e.line_no for e in result.errors] == [1]

    def test_invalid_utf8_line_is_a_parse_issue(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join([
            line().encode(),
            line(pub_id="W2").encode().replace(b'"T"', b'"T\xff"'),
            line(pub_id="W3").replace('"T"', '"Té"').encode(),
        ]))
        result = load_corpus(path)
        assert [r.pub_id for r in result.records] == ["W1", "W3"]
        assert result.errors == [ParseIssue(2, "line is not valid UTF-8")]

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + "\n".join([line(), line(pub_id="W2")]).encode())
        result = load_corpus(path)
        assert [r.pub_id for r in result.records] == ["W1", "W2"]
        assert result.errors == []

    def test_invalid_byte_after_a_byte_order_mark_is_a_parse_issue(self, tmp_path):
        # only the mark at the very start is dropped; a later line keeps
        # its number and its report
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join([
            b"\xef\xbb\xbf" + line().encode(),
            line(pub_id="W2").encode(),
            line(pub_id="W3").encode().replace(b'"T"', b'"T\xff"'),
            b"\xef\xbb\xbf" + line(pub_id="W4").encode(),
        ]))
        result = load_corpus(path)
        assert [r.pub_id for r in result.records] == ["W1", "W2"]
        assert [e.line_no for e in result.errors] == [3, 4]
        assert result.errors[0] == ParseIssue(3, "line is not valid UTF-8")

    @pytest.mark.parametrize("field", ["pub_id", "title", "acknowledgment_text"])
    @pytest.mark.parametrize("escape", ["\ud800", "\udfff", "x\udc00y"], ids=["high", "low", "inside"])
    def test_lone_surrogate_escape_is_a_parse_issue(self, field, escape):
        bad = line(**{"pub_id": "W2", field: escape})
        assert "\\ud" in bad   # json.dumps writes the surrogate as an escape
        result = parse_corpus([line(), bad])
        assert [r.pub_id for r in result.records] == ["W1"]
        assert [e.line_no for e in result.errors] == [2]

    def test_paired_surrogate_escape_reads_as_one_character(self):
        result = parse_corpus([line(acknowledgment_text="\U0001F600")])
        assert result.errors == []
        assert result.records[0].acknowledgment_text == "\U0001F600"

    # date.fromisoformat accepts both from Python 3.11 on, and not before
    @pytest.mark.parametrize("value", ["20160321", "2016-W12-1"])
    def test_only_a_dashed_calendar_date_is_a_date(self, value):
        result = parse_corpus([
            line(doi_created_date="2016-03-21"), line(pub_id="W2", doi_created_date=value),
        ])
        assert [r.doi_created_date for r in result.records] == [date(2016, 3, 21)]
        assert [e.line_no for e in result.errors] == [2]
        assert "doi_created_date" in result.errors[0].message

    # JSON values Python reads as false are no date either; only null is absent
    @pytest.mark.parametrize("value", [False, 0, 0.0, "", [], {}],
                             ids=["false", "zero", "zero-float", "empty-string", "empty-list", "empty-object"])
    def test_a_falsy_doi_created_date_is_a_parse_issue(self, value):
        result = parse_corpus([
            line(doi_created_date=None), line(pub_id="W2", doi_created_date=value),
        ])
        assert [r.pub_id for r in result.records] == ["W1"]
        assert result.records[0].doi_created_date is None
        assert [e.line_no for e in result.errors] == [2]
        assert "doi_created_date" in result.errors[0].message

    @pytest.mark.parametrize("email, stored", [
        (" ", None), ("\t\n", None), ("", None), (None, None),
        ("  Long.Chen@x.org ", "Long.Chen@x.org"),
    ])
    def test_email_is_stripped_and_blank_is_none(self, email, stored):
        author = {"position": 1, "full_name": "Chen, Long", "last_name": "Chen",
                  "first_name": "Long", "email": email}
        record = record_from_dict(json.loads(line(authors=[author])))
        assert record.authors[0].email == stored

    def test_records_keep_input_order(self):
        result = parse_corpus([line(pub_id=f"W{i}") for i in range(5)])
        assert [r.pub_id for r in result.records] == [f"W{i}" for i in range(5)]

    def test_duplicate_pub_id_is_an_error(self):
        result = parse_corpus([line(), line()])
        assert len(result.records) == 1
        assert "duplicate pub_id" in result.errors[0].message

    def test_doc_type_is_case_insensitive(self):
        result = parse_corpus([line(doc_type="article"), line(pub_id="W2", doc_type="REVIEW")])
        assert [r.doc_type for r in result.records] == [DocType.ARTICLE, DocType.REVIEW]


class TestCountryAliases:
    def test_maps_raw_names(self, data_dir):
        aliases = CountryAliases.load(data_dir / "country_aliases.tsv")
        assert aliases.normalize("Peoples R China") == "CN"
        assert aliases.normalize("  germany ") == "DE"
        assert aliases.normalize("Hong Kong") == "HK"

    def test_codes_pass_through(self, data_dir):
        aliases = CountryAliases.load(data_dir / "country_aliases.tsv")
        assert aliases.normalize("NL") == "NL"

    def test_unmapped_is_unknown(self, data_dir):
        aliases = CountryAliases.load(data_dir / "country_aliases.tsv")
        assert aliases.normalize("Atlantis") == UNKNOWN_COUNTRY
        assert aliases.normalize("") == UNKNOWN_COUNTRY
        assert aliases.normalize(None) == UNKNOWN_COUNTRY

    def test_parse_applies_aliases(self, data_dir):
        aliases = CountryAliases.load(data_dir / "country_aliases.tsv")
        raw = line(authors=[{
            "position": 1, "full_name": "Chen, Long", "last_name": "Chen",
            "affiliations": [{"org_name": "X", "country": "Peoples R China"}],
        }])
        result = parse_corpus([raw], aliases)
        assert result.records[0].authors[0].affiliations[0].country == "CN"

    @pytest.mark.parametrize("raw, plain, aliased", [
        (None, UNKNOWN_COUNTRY, UNKNOWN_COUNTRY),
        ("", UNKNOWN_COUNTRY, UNKNOWN_COUNTRY),
        ("  ", UNKNOWN_COUNTRY, UNKNOWN_COUNTRY),
        (" DE ", "DE", "DE"),
        ("Germany", "Germany", "DE"),
    ])
    def test_parsed_country_with_and_without_aliases(self, data_dir, raw, plain, aliased):
        # without aliases a country is only trimmed; with them it is mapped
        raw_line = line(authors=[{
            "position": 1, "full_name": "Chen, Long", "last_name": "Chen",
            "affiliations": [{"org_name": "X", "country": raw}],
        }])
        aliases = CountryAliases.load(data_dir / "country_aliases.tsv")
        for table, expected in ((None, plain), (aliases, aliased)):
            result = parse_corpus([raw_line], table)
            assert result.records[0].authors[0].affiliations[0].country == expected

    def test_raw_name_given_twice_is_an_error(self, tmp_path):
        # the second line repeats the first once normalized
        path = tmp_path / "aliases.tsv"
        path.write_text("# raw<TAB>code\nGermany\tDE\n  GERMANY \tAT\n")
        with pytest.raises(ValueError, match="'GERMANY' given twice, on lines 2 and 3"):
            CountryAliases.load(path)


    def test_code_holding_a_tab_is_an_error(self, tmp_path):
        path = tmp_path / "aliases.tsv"
        path.write_text("Germany\tDE\nChina\tC\tN\n")
        with pytest.raises(ValueError, match="country code on line 2 holds a tab"):
            CountryAliases.load(path)


class TestFilterDocuments:
    def test_keeps_articles_and_reviews(self):
        records = [
            make_record("a", (make_author(1, "X"),), doc_type=DocType.ARTICLE),
            make_record("b", (make_author(1, "Y"),), doc_type=DocType.OTHER),
            make_record("c", (make_author(1, "Z"),), doc_type=DocType.REVIEW),
        ]
        assert [r.pub_id for r in filter_documents(records)] == ["a", "c"]

    def test_all_other_gives_empty(self):
        records = [make_record("a", (make_author(1, "X"),), doc_type=DocType.OTHER)]
        assert filter_documents(records) == []

    def test_empty_input(self):
        assert filter_documents([]) == []

    def test_idempotent(self):
        records = [
            make_record("a", (make_author(1, "X"),), doc_type=DocType.ARTICLE),
            make_record("b", (make_author(1, "Y"),), doc_type=DocType.OTHER),
        ]
        once = filter_documents(records)
        assert filter_documents(once) == once


class TestResolvePubDate:
    def test_doi_date_passthrough(self):
        rec = make_record("a", (make_author(1, "X"),),
                          doi_created=date(2016, 3, 21))
        resolved = resolve_pub_date(rec)
        assert resolved.date == date(2016, 3, 21)
        assert resolved.source is DateSource.DOI_CREATED

    def test_year_fallback_is_july_first(self):
        rec = make_record("a", (make_author(1, "X"),), year=2014)
        resolved = resolve_pub_date(rec)
        assert resolved.date == date(2014, 7, 1)
        assert resolved.source is DateSource.YEAR_FALLBACK

    def test_doi_date_wins_over_year(self):
        rec = make_record("a", (make_author(1, "X"),), year=2016,
                          doi_created=date(2015, 12, 30))
        resolved = resolve_pub_date(rec)
        assert resolved.date == date(2015, 12, 30)
        assert resolved.source is DateSource.DOI_CREATED

    def test_fallback_iff_doi_date_absent(self):
        with_doi = make_record("a", (make_author(1, "X"),),
                               doi_created=date(2015, 1, 1))
        without = make_record("b", (make_author(1, "X"),))
        assert resolve_pub_date(with_doi).source is DateSource.DOI_CREATED
        assert resolve_pub_date(without).source is DateSource.YEAR_FALLBACK


# -- valid records and arbitrary lines -----------------------------------

_names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll")), min_size=1, max_size=8
)
#: a pub_id is a TSV cell, so it holds no tab and no line break, and it
#: opens artifact rows, so it does not start with "#"
_pub_ids = st.text(min_size=1, max_size=10).filter(
    lambda text: "\t" not in text and "".join(text.splitlines()) == text
    and not text.startswith("#")
)


@st.composite
def records(draw):
    n_authors = draw(st.integers(1, 4))
    authors = []
    for position in range(1, n_authors + 1):
        countries = draw(st.lists(
            st.sampled_from(["CN", "US", "DE", UNKNOWN_COUNTRY]), max_size=2))
        authors.append({
            "position": position,
            "full_name": draw(_names),
            "last_name": draw(_names),
            "first_name": draw(st.one_of(st.none(), _names)),
            "initials": draw(st.one_of(st.none(), _names)),
            "email": draw(st.one_of(st.none(), st.just("a@b.c"))),
            "affiliations": [{"org_name": f"O{i}", "country": c}
                             for i, c in enumerate(countries)],
        })
    n_fields = draw(st.integers(0, 3))
    weights = []
    if n_fields:
        cuts = sorted(draw(st.lists(
            st.floats(0.01, 0.99), min_size=n_fields - 1, max_size=n_fields - 1,
            unique=True)))
        edges = [0.0] + cuts + [1.0]
        weights = [
            {"field_id": f"f{i}", "weight": edges[i + 1] - edges[i]}
            for i in range(n_fields)
            if edges[i + 1] - edges[i] > 0
        ]
    doi_date = draw(st.one_of(st.none(), st.dates(date(2000, 1, 1), date(2020, 1, 1))))
    return {
        "pub_id": draw(_pub_ids),
        "title": draw(st.text(max_size=20)),
        "pub_year": draw(st.integers(1900, 2100)),
        "doc_type": draw(st.sampled_from(["Article", "Review", "Other"])),
        "doi": None,
        "doi_created_date": doi_date.isoformat() if doi_date else None,
        "acknowledgment_text": draw(st.one_of(st.none(), st.text(max_size=40))),
        "funding_orgs": draw(st.lists(_names, max_size=2)),
        "authors": authors,
        "field_weights": weights,
    }


@given(records())
def test_parse_serialize_roundtrip(obj):
    result = parse_corpus([json.dumps(obj)])
    assert result.errors == []
    assert result.records == [record_from_dict(obj)]


# every field of the record dataclasses is read back under its own name,
# but a field weight's field, which is read from field_id
@given(records())
def test_to_dict_from_dict_roundtrip(obj):
    record = record_from_dict(obj)
    assert record_from_dict(record_as_dict(record)) == record


# st.text() never draws a surrogate, so one is spliced in half the time;
# json.dumps writes it as a "\ud800"-style escape
_json_texts = st.text(max_size=8) | st.tuples(
    st.text(max_size=3), st.integers(0xD800, 0xDFFF).map(chr), st.text(max_size=3)
).map("".join)
_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | _json_texts
# scalars half the time: left to itself, st.recursive draws mostly containers
_json_values = _json_scalars | st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_json_texts, children, max_size=3),
    max_leaves=8,
)


_FULL_RECORD = json.loads(line(
    doi="10.1/x", doi_created_date="2015-03-02", acknowledgment_text="Thanks.",
    funding_orgs=["China Scholarship Council"],
    authors=[{"position": 1, "full_name": "Chen, Long", "last_name": "Chen",
              "first_name": "Long", "initials": "L", "email": "l@x.org",
              "affiliations": [{"org_name": "Tsinghua", "country": "CN"}]}],
    field_weights=[{"field_id": "phys", "weight": 1.0}],
))


@st.composite
def mutated_records(draw):
    """A record with every field set, and up to three fields of it, its
    author, affiliation or field weight set to arbitrary JSON values.
    Setting the unread key "extra" leaves the record valid."""
    obj = copy.deepcopy(_FULL_RECORD)
    author = obj["authors"][0]
    targets = [obj, author, author["affiliations"][0], obj["field_weights"][0]]
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(targets))
        target[draw(st.sampled_from(sorted(target) + ["extra"]))] = draw(_json_values)
    return json.dumps(obj)


@st.composite
def undecodable_lines(draw):
    """A record line or some text with bytes that are not valid UTF-8
    spliced in, decoded as :func:`load_corpus` decodes a file: each such
    byte becomes a lone surrogate."""
    raw = draw(mutated_records() | st.text(max_size=30)).encode()
    at = draw(st.integers(0, len(raw)))
    bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]))
    return (raw[:at] + bad + raw[at:]).decode("utf-8", "surrogateescape")


_other_lines = _json_values.map(json.dumps) | st.text(max_size=30) | undecodable_lines()


def _parsed(parse, source):
    """The records and issues of a parse, also when it raises."""
    try:
        result = parse(source)
    except CorpusParseError as exc:
        return [], exc.errors
    return result.records, result.errors


def _is_utf8(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# a crash may need one field set to one kind of value, so this runs more
# examples than the default
@settings(max_examples=300)
@given(
    st.lists(mutated_records(), max_size=3), st.lists(_other_lines, max_size=3), st.data()
)
def test_every_line_is_a_record_or_a_parse_issue(tmp_path_factory, record_lines, other_lines, data):
    lines = data.draw(st.permutations(record_lines + other_lines))
    content = [no for no, text in enumerate(lines, start=1) if text.strip()]
    records, issues = _parsed(parse_corpus, lines)
    issue_lines = [issue.line_no for issue in issues]
    assert len(set(issue_lines)) == len(issue_lines)
    assert set(issue_lines) <= set(content)
    assert len(records) + len(issues) == len(content)
    # no surrogate, raw or escaped, gets into a record, where it would
    # fail the UTF-8 artifact writer
    assert {no for no in content if not _is_utf8(lines[no - 1])} <= set(issue_lines)
    for record in records:
        assert _is_utf8(json.dumps(dataclasses.asdict(record), default=str, ensure_ascii=False))
    # the same lines as the bytes of a file, where no line holds a line break
    if not any("\n" in text or "\r" in text for text in lines):
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
        from_file = _parsed(load_corpus, path)
        assert from_file[0] == records
        assert [issue.line_no for issue in from_file[1]] == issue_lines


# -- hashing while reading ------------------------------------------------


def test_load_corpus_hashes_every_byte_it_reads(tmp_path):
    # larger than the reader's buffers, with a byte-order mark, CRLF line
    # ends and an undecodable byte, which the text layer handles as before
    lines = [line(pub_id=f"W{i}", title="T" * 500).encode() for i in range(400)]
    lines[7] = lines[7].replace(b'"T', b'"\xffT', 1)
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + b"\r\n".join(lines))
    result = load_corpus(path)
    assert result.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert len(result.records) == 399
    assert result.errors == [ParseIssue(8, "line is not valid UTF-8")]
    assert parse_corpus([line()]).sha256 is None


# -- interned affiliations --------------------------------------------------


def test_equal_raw_affiliations_share_one_object_within_a_parse(data_dir):
    def author(position, country="Peoples R China"):
        return {"position": position, "last_name": "Chen",
                "affiliations": [{"org_name": "Tsinghua", "country": country}]}

    lines = [
        line(pub_id="W1", authors=[author(1), author(2)]),
        line(pub_id="W2", authors=[author(1), author(2, "China")]),
    ]
    aliases = CountryAliases.load(data_dir / "country_aliases.tsv")
    first = parse_corpus(lines, aliases)
    parsed = [a.affiliations[0] for r in first.records for a in r.authors]
    assert parsed == [Affiliation("Tsinghua", "CN")] * 4
    # equal raw values share one object; other raw values get their own
    assert parsed[0] is parsed[1] is parsed[2]
    assert parsed[3] is not parsed[0]
    # no memo outlives a parse: a second one builds its own objects, and
    # reads the countries through its own alias table
    second = parse_corpus(lines, aliases)
    assert all(a.affiliations[0] is not parsed[0] for r in second.records for a in r.authors)
    unaliased = parse_corpus(lines)
    assert unaliased.records[0].authors[0].affiliations[0].country == "Peoples R China"


@pytest.mark.parametrize("aff, message", [
    ({"org_name": ["Tsinghua"], "country": "CN"}, "author 1 org_name is not a string"),
    ({"org_name": "Tsinghua", "country": {"code": "CN"}}, "author 1 country is not a string"),
    ({"org_name": {}, "country": []}, "author 1 country is not a string"),
], ids=["list-org", "object-country", "both"])
def test_unhashable_affiliation_value_is_a_parse_issue(aff, message):
    bad = line(pub_id="W2", authors=[{"position": 1, "last_name": "Chen", "affiliations": [aff]}])
    result = parse_corpus([line(), bad])
    assert [r.pub_id for r in result.records] == ["W1"]
    assert result.errors == [ParseIssue(2, message)]


# -- the parser against its reference -------------------------------------

_BAD_VALUES = [
    None, True, False, 0, 7, 1.5, "7", "", "  ", "Chen\tJr", "Chen\nJr", "a b",
    [], ["Chen"], {}, {"name": "Chen"},
]
_AUTHOR_KEYS = ["position", "last_name", "full_name", "first_name", "initials",
                "email", "affiliations", "extra"]
_ORG_NAMES = ["Tsinghua", "MIT", "Tsinghua ", " ", "", None]
_COUNTRIES = ["CN", "Germany", " DE ", "Peoples R China", "Atlantis", "", None]


@st.composite
def _affiliations(draw):
    """Zero to three affiliations from small pools, so raw values repeat;
    a None value is a null or a missing key."""
    return [
        {key: value for key, value in (("org_name", draw(st.sampled_from(_ORG_NAMES))),
                                       ("country", draw(st.sampled_from(_COUNTRIES))))
         if value is not None or draw(st.booleans())}
        for _ in range(draw(st.integers(0, 3)))
    ]


def _fault(draw, author):
    """Apply one fault to the author dict ``author``; returns the author,
    or what replaces it in the list. A bad value is a copy, so no fault
    writes into the shared lists and dicts of ``_BAD_VALUES``."""
    kind = draw(st.sampled_from(["set", "set", "delete", "affiliation", "not-an-object"]))
    if kind == "set":
        author[draw(st.sampled_from(_AUTHOR_KEYS))] = copy.deepcopy(draw(st.sampled_from(_BAD_VALUES)))
    elif kind == "delete":
        author.pop(draw(st.sampled_from(_AUTHOR_KEYS)), None)
    elif kind == "affiliation":
        affs = author.get("affiliations")
        if not isinstance(affs, list) or not affs:
            affs = author["affiliations"] = [{"org_name": "MIT", "country": "US"}]
        at = draw(st.integers(0, len(affs) - 1))
        if isinstance(affs[at], dict) and draw(st.booleans()):
            affs[at][draw(st.sampled_from(["org_name", "country"]))] = copy.deepcopy(
                draw(st.sampled_from(_BAD_VALUES)))
        else:
            affs[at] = copy.deepcopy(draw(st.sampled_from(_BAD_VALUES)))
    else:
        return copy.deepcopy(draw(st.sampled_from(_BAD_VALUES)))
    return author


def test_faults_leave_the_bad_values_unchanged():
    """Two faults on one affiliation: the first puts the shared ``{}`` in
    its place, the second sets a key of what now stands there to ``{}``
    again. Neither may write into ``_BAD_VALUES``."""
    before = copy.deepcopy(_BAD_VALUES)
    empty = _BAD_VALUES[_BAD_VALUES.index({})]
    script = iter([
        "affiliation", 0, False, empty,
        # the value is drawn before the key it is set under
        "affiliation", 0, True, empty, "org_name",
    ])
    author = {"position": 1, "last_name": "Chen", "affiliations": [{"org_name": "MIT"}]}
    for _ in range(2):
        author = _fault(lambda strategy: next(script), author)
    assert next(script, None) is None
    assert author["affiliations"] == [{"org_name": {}}]
    assert _BAD_VALUES == before


@st.composite
def oracle_records(draw):
    """A valid record whose affiliations repeat raw values, with zero to
    three faults in its authors: a bad value in any author field or
    affiliation, a deleted key, or an author that is not an object."""
    obj = draw(records())
    authors = obj["authors"]
    for author in authors:
        author["affiliations"] = draw(_affiliations())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(authors) - 1))
        if isinstance(authors[at], dict):
            authors[at] = _fault(draw, authors[at])
    return obj


def _outcome(parse, obj, aliases):
    try:
        return parse(obj, aliases)
    except RecordError as exc:
        return str(exc)


@settings(max_examples=300)
@given(st.lists(oracle_records(), min_size=1, max_size=4), st.booleans())
def test_parse_equals_the_reference_parser(data_dir, objs, with_aliases):
    """Every record equals the reference parser's, and every fault is
    reported with the reference's text, so the checks run in its order."""
    aliases = CountryAliases.load(data_dir / "country_aliases.tsv") if with_aliases else None
    lines, expected_records, expected_issues = [], [], []
    for line_no, obj in enumerate(objs, start=1):
        obj["pub_id"] = f"W{line_no}"
        lines.append(json.dumps(obj))
        expected = _outcome(reference_record_from_dict, obj, aliases)
        assert _outcome(record_from_dict, obj, aliases) == expected
        if isinstance(expected, str):
            expected_issues.append(ParseIssue(line_no, expected))
        else:
            expected_records.append(expected)
    assert _parsed(lambda ls: parse_corpus(ls, aliases), lines) == (expected_records, expected_issues)


# a loaded field map names no field Total; keys leave Total out, since the
# reference rejects the raw id where a map could rename it
_field_maps = st.dictionaries(
    st.sampled_from(["f0", "f1", "f2", "fx"]), st.sampled_from(["F", "G", "f1"]), max_size=4)


@settings(max_examples=200)
@given(st.lists(st.tuples(oracle_records(), st.booleans()), min_size=1, max_size=4), _field_maps)
def test_parse_with_a_field_map_equals_the_reference_renamed(data_dir, drawn, field_map):
    """Reading the field ids through the map at parse equals the reference
    parse with each field weight renamed through ``field_map.get(id, id)``
    afterwards; a raw id of Total is a fault in both."""
    aliases = CountryAliases.load(data_dir / "country_aliases.tsv")
    lines, expected_records, expected_issues = [], [], []
    for line_no, (obj, with_total) in enumerate(drawn, start=1):
        obj["pub_id"] = f"W{line_no}"
        if with_total and obj["field_weights"]:
            obj["field_weights"][-1]["field_id"] = TOTAL_FIELD
        lines.append(json.dumps(obj))
        expected = _outcome(reference_record_from_dict, obj, aliases)
        if isinstance(expected, str):
            expected_issues.append(ParseIssue(line_no, expected))
        else:
            expected_records.append(dataclasses.replace(expected, field_weights=tuple(
                FieldWeight(field_map.get(fw.field, fw.field), fw.weight)
                for fw in expected.field_weights
            )))
    assert _parsed(lambda ls: parse_corpus(ls, aliases, field_map), lines) == (
        expected_records, expected_issues)

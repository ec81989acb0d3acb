import json
import math
import random

import pytest

from fundmob.corpus import UNKNOWN_COUNTRY, parse_corpus
from fundmob.indicators import (
    TOTAL_FIELD,
    field_distribution,
    known_countries,
    pp_ic,
    temporal_distribution,
)
from fundmob.periods import Label

from .conftest import make_author, make_record, record_as_dict


def paper(pub_id, countries, weights=(), year=2015):
    authors = tuple(
        make_author(i + 1, f"Author{i}", countries=(c,) if c else ())
        for i, c in enumerate(countries)
    )
    return make_record(pub_id, authors, year=year, weights=weights)


def is_international_collab(record):
    """The reference rule: affiliations from two or more known countries."""
    return len(known_countries(record)) >= 2


def counted_international(record):
    """Whether :func:`pp_ic` counts the record, alone, as internationally
    co-authored."""
    cell = pp_ic([record], {record.pub_id: Label.DURING}).cells[(Label.DURING.value, TOTAL_FIELD)]
    return cell.numerator == 1.0


class TestInternationalCollab:
    def test_two_countries(self):
        assert counted_international(paper("a", ["CN", "DE"]))

    def test_single_country(self):
        assert not counted_international(paper("a", ["CN"]))

    def test_unknown_dropped(self):
        record = paper("a", ["CN", "CN", UNKNOWN_COUNTRY])
        assert known_countries(record) == {"CN"}
        assert not counted_international(record)

    def test_invariant_under_author_order_and_duplicates(self):
        record = paper("a", ["CN", "DE"])
        reversed_record = paper("a", ["DE", "CN", "DE", "CN"])
        assert counted_international(record) == counted_international(reversed_record)


FIXTURE_LABELS = {}


def ppic_fixture():
    rows = [
        # pub_id, label, weights, international
        ("d1", Label.DURING, (("fa", 0.5), ("fb", 0.5)), True),
        ("d2", Label.DURING, (("fa", 1.0),), False),
        ("d3", Label.DURING, (("fb", 1.0),), True),
        ("d4", Label.DURING, (), True),
        ("b1", Label.BEFORE, (("fa", 0.25), ("fb", 0.75)), False),
        ("b2", Label.BEFORE, (("fa", 1.0),), True),
        ("b3", Label.BEFORE, (), False),
        ("a1", Label.AFTER, (("fb", 1.0),), True),
        ("a2", Label.AFTER, (("fa", 0.5), ("fb", 0.5)), False),
        ("a3", Label.AFTER, (("fa", 1.0),), True),
        ("x1", Label.EXCLUDED_CONFLICT, (("fa", 1.0),), True),
        ("x2", Label.EXCLUDED_WINDOW_GAP, (("fb", 1.0),), True),
    ]
    records = [
        paper(pub_id, ["CN", "DE"] if intl else ["CN", "CN"], weights)
        for pub_id, _, weights, intl in rows
    ]
    labels = {pub_id: label for pub_id, label, _, _ in rows}
    return records, labels


class TestPpIc:
    def test_simple_ratio(self):
        records = [paper("a", ["CN", "DE"]), paper("b", ["CN"]), paper("c", ["US", "CN"])]
        labels = {p: Label.DURING for p in "abc"}
        report = pp_ic(records, labels)
        cell = report.cells[("During", TOTAL_FIELD)]
        assert cell.value == pytest.approx(2 / 3)

    def test_empty_group_is_undefined_not_zero(self):
        report = pp_ic([], {})
        assert report.cells == {}
        # a degenerate cell constructed by grouping nothing stays undefined
        records = [paper("a", ["CN"], (("fa", 1.0),))]
        report = pp_ic(records, {"a": Label.DURING})
        assert report.cells[("During", "fa")].value == 0.0

    def test_hand_computed_weighted_fixture(self):
        records, labels = ppic_fixture()
        report = pp_ic(records, labels)
        cells = report.cells
        assert cells[("During", TOTAL_FIELD)].value == pytest.approx(3 / 4)
        assert cells[("During", "fa")].value == pytest.approx(0.5 / 1.5)
        assert cells[("During", "fb")].value == pytest.approx(1.0)
        assert cells[("Before", TOTAL_FIELD)].value == pytest.approx(1 / 3)
        assert cells[("Before", "fa")].value == pytest.approx(1.0 / 1.25)
        assert cells[("Before", "fb")].value == pytest.approx(0.0)
        assert cells[("After", TOTAL_FIELD)].value == pytest.approx(2 / 3)
        assert cells[("After", "fa")].value == pytest.approx(1.0 / 1.5)
        assert cells[("After", "fb")].value == pytest.approx(1.0 / 1.5)

    def test_excluded_labels_omitted(self):
        records, labels = ppic_fixture()
        report = pp_ic(records, labels)
        periods = {period for period, _ in report.cells}
        assert periods == {"During", "Before", "After"}

    def test_whole_count_mode(self):
        records, labels = ppic_fixture()
        report = pp_ic(records, labels, whole_count=True)
        assert report.cells[("During", "fa")].value == pytest.approx(1 / 2)
        assert report.cells[("During", "fb")].value == pytest.approx(2 / 2)

    def test_field_map_groups_ids(self):
        # the map is read at parse; pp_ic groups the fields the records hold
        records, labels = ppic_fixture()
        lines = [json.dumps(record_as_dict(r)) for r in records]
        parsed = parse_corpus(lines, field_map={"fa": "F", "fb": "F"})
        report = pp_ic(parsed.records, labels)
        assert report.cells[("During", "F")].denominator == pytest.approx(3.0)

    def test_field_named_total_stays_out_of_the_whole_period_row(self):
        # a record whose field resolves to Total is a parse issue, so the
        # (Before, Total) cell counts the phys record alone
        records = [paper("t", ["CN"], (("Total", 1.0),)), paper("p", ["CN"], (("phys", 1.0),))]
        parsed = parse_corpus([json.dumps(record_as_dict(r)) for r in records],
                              field_map={"phys": "Physics"})
        assert [e.line_no for e in parsed.errors] == [1]
        report = pp_ic(parsed.records, {"t": Label.BEFORE, "p": Label.BEFORE})
        assert report.cells[("Before", TOTAL_FIELD)].denominator == 1.0
        assert report.cells[("Before", "Physics")].denominator == 1.0

    def test_zero_country_coverage_counter(self):
        records = [paper("a", []), paper("b", ["CN"])]
        report = pp_ic(records, {"a": Label.DURING, "b": Label.DURING})
        assert report.zero_country_records == 1


class TestFieldDistribution:
    def test_even_split(self):
        records = [paper("a", ["CN"], (("fa", 0.5), ("fb", 0.5)))]
        dist = field_distribution(records, identified_ids=set())
        assert dist["fa"].total == pytest.approx(0.5)
        assert dist["fb"].total == pytest.approx(0.5)

    def test_empty_corpus(self):
        assert field_distribution([], set()) == {}

    def test_identified_split_hand_sums(self):
        records = [
            paper("a", ["CN"], (("fa", 0.6), ("fb", 0.4))),
            paper("b", ["CN"], (("fa", 1.0),)),
            paper("c", ["CN"], (("fb", 1.0),)),
            paper("d", ["CN"], (("fa", 0.3), ("fb", 0.7))),
        ]
        dist = field_distribution(records, identified_ids={"a", "c"})
        assert dist["fa"].identified == pytest.approx(0.6)
        assert dist["fa"].unidentified == pytest.approx(1.3)
        assert dist["fb"].identified == pytest.approx(1.4)
        assert dist["fb"].unidentified == pytest.approx(0.7)
        total = sum(share.total for share in dist.values())
        assert total == pytest.approx(4.0, abs=1e-9)


class TestTemporalDistribution:
    def test_empty(self):
        assert temporal_distribution([], lambda r: "All") == {}

    def test_year_counts(self):
        records = [paper("a", [], year=2009), paper("b", [], year=2009),
                   paper("c", [], year=2010)]
        dist = temporal_distribution(records, lambda r: "All")
        assert dist[2009][TOTAL_FIELD] == 2
        assert dist[2010][TOTAL_FIELD] == 1
        assert list(dist) == [2009, 2010]

    def test_per_tag_counts_sum_to_totals(self):
        records = [paper(f"p{i}", [], year=2009 + (i % 3)) for i in range(10)]
        tags = {r.pub_id: ("SCIE" if i % 2 else "SSCI")
                for i, r in enumerate(records)}
        dist = temporal_distribution(records, lambda r: tags[r.pub_id])
        for year, row in dist.items():
            assert sum(v for tag, v in row.items() if tag != TOTAL_FIELD) == row[TOTAL_FIELD]


    def test_a_record_tagged_total_is_rejected(self):
        records = [paper("a", [], year=2010), paper("b", [], year=2010)]
        tags = {"a": TOTAL_FIELD, "b": "SCIE"}
        with pytest.raises(ValueError, match="record a"):
            temporal_distribution(records, lambda r: tags[r.pub_id])

# -- randomized conservation ---------------------------------------------------

def random_corpus(rng: random.Random, size: int):
    records = []
    labels = {}
    for i in range(size):
        n_fields = rng.randint(0, 3)
        weights = ()
        if n_fields:
            raw = [rng.random() + 0.05 for _ in range(n_fields)]
            total = sum(raw)
            weights = tuple((f"f{j}", w / total) for j, w in enumerate(raw))
        countries = rng.choice([[], ["CN"], ["CN", "DE"], ["US", "JP", "CN"],
                                [UNKNOWN_COUNTRY], ["CN", UNKNOWN_COUNTRY]])
        records.append(paper(f"p{i:04d}", countries, weights,
                             year=rng.randint(2009, 2017)))
        labels[f"p{i:04d}"] = rng.choice(list(Label))
    return records, labels


def test_field_distribution_conserves_fractional_counts():
    rng = random.Random(37)
    records, _ = random_corpus(rng, 300)
    dist = field_distribution(
        records, identified_ids={r.pub_id for r in records[::2]}
    )
    total = math.fsum(share.total for share in dist.values())
    expected = math.fsum(fw.weight for r in records for fw in r.field_weights)
    assert abs(total - expected) < 1e-9


def test_ppic_cells_are_well_formed():
    rng = random.Random(39)
    records, labels = random_corpus(rng, 300)
    report = pp_ic(records, labels)
    for cell in report.cells.values():
        assert 0 <= cell.numerator <= cell.denominator
        if cell.value is not None:
            assert 0.0 <= cell.value <= 1.0


def test_ppic_groups_recombine_to_pooled_proportion():
    rng = random.Random(41)
    records, labels = random_corpus(rng, 300)
    report = pp_ic(records, labels)
    counted = [r for r in records
               if labels[r.pub_id] in (Label.BEFORE, Label.DURING, Label.AFTER)]
    pooled_num = sum(1 for r in counted if is_international_collab(r))
    pooled_den = len(counted)
    total_cells = [cell for (period, field), cell in report.cells.items()
                   if field == TOTAL_FIELD]
    assert abs(math.fsum(c.numerator for c in total_cells) - pooled_num) < 1e-9
    assert abs(math.fsum(c.denominator for c in total_cells) - pooled_den) < 1e-9
    if pooled_den:
        recombined = (
            math.fsum(c.numerator for c in total_cells)
            / math.fsum(c.denominator for c in total_cells)
        )
        assert abs(recombined - pooled_num / pooled_den) < 1e-9


def test_ppic_field_denominators_recombine_per_period():
    rng = random.Random(43)
    records, labels = random_corpus(rng, 200)
    report = pp_ic(records, labels)
    for period in ("Before", "During", "After"):
        field_cells = [cell for (p, field), cell in report.cells.items()
                       if p == period and field != TOTAL_FIELD]
        if not field_cells:
            continue
        weighted = math.fsum(c.denominator for c in field_cells)
        counted = [r for r in records
                   if labels[r.pub_id].value == period and r.field_weights]
        expected = math.fsum(fw.weight for r in counted for fw in r.field_weights)
        assert abs(weighted - expected) < 1e-9


def test_rescaling_one_paper_leaves_other_shares_unchanged():
    # swapping one paper's weights for a different renormalized split must
    # not disturb any other paper's contribution
    fixed = paper("a", ["CN"], (("fa", 0.5), ("fb", 0.5)))
    original = paper("b", ["CN"], (("fa", 0.25), ("fb", 0.75)))
    rescaled = paper("b", ["CN"], (("fa", 0.2), ("fb", 0.8)))
    alone = field_distribution([fixed], set())
    with_original = field_distribution([fixed, original], set())
    with_rescaled = field_distribution([fixed, rescaled], set())
    for field, b_orig, b_new in (("fa", 0.25, 0.2), ("fb", 0.75, 0.8)):
        assert with_original[field].total - b_orig == pytest.approx(
            alone[field].total, abs=1e-12)
        assert with_rescaled[field].total - b_new == pytest.approx(
            alone[field].total, abs=1e-12)


def test_undefined_proportion_reported_as_none():
    from fundmob.indicators import Proportion

    assert Proportion(0.0, 0.0).value is None
    assert Proportion(1.0, 2.0).value == pytest.approx(0.5)


def test_temporal_tags_conserved_on_random_corpus():
    rng = random.Random(47)
    records, _ = random_corpus(rng, 250)
    tags = {r.pub_id: rng.choice(["SCIE", "SSCI", "ESCI"]) for r in records}
    dist = temporal_distribution(records, lambda r: tags[r.pub_id])
    assert sum(row[TOTAL_FIELD] for row in dist.values()) == len(records)
    for row in dist.values():
        assert sum(v for tag, v in row.items() if tag != TOTAL_FIELD) == row[TOTAL_FIELD]

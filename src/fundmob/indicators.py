"""Corpus-level indicators: international-collaboration proportions,
fractional field distributions, and temporal distributions.

Proportions with an empty denominator are reported as None, never zero:
downstream consumers must be able to tell "no data" from "no
collaboration". All fractional aggregation uses math.fsum so conservation
identities hold to 1e-9.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .corpus import TOTAL_FIELD, UNKNOWN_COUNTRY, PublicationRecord
from .periods import Label


def known_countries(record: PublicationRecord) -> set[str]:
    """Distinct non-Unknown affiliation countries across all authors."""
    return {
        aff.country
        for author in record.authors
        for aff in author.affiliations
        if aff.country != UNKNOWN_COUNTRY
    }


@dataclass(frozen=True)
class Proportion:
    numerator: float
    denominator: float

    @property
    def value(self) -> float | None:
        if self.denominator == 0:
            return None
        return self.numerator / self.denominator


@dataclass
class PpIcReport:
    #: (period, field) -> proportion; field is TOTAL_FIELD for the
    #: whole-period rows
    cells: dict[tuple[str, str], Proportion]
    #: records whose author affiliations named no known country at all
    zero_country_records: int


_EXCLUDED = {Label.EXCLUDED_CONFLICT, Label.EXCLUDED_WINDOW_GAP}


def _field_shares(record: PublicationRecord, whole_count: bool) -> dict[str, float]:
    shares: dict[str, float] = {}
    for fw in record.field_weights:
        shares[fw.field] = 1.0 if whole_count else shares.get(fw.field, 0.0) + fw.weight
    return shares


def pp_ic(
    records: Sequence[PublicationRecord],
    labels: Mapping[str, Label],
    whole_count: bool = False,
) -> PpIcReport:
    """Proportion of internationally co-authored papers per period and
    per period x field.

    Excluded labels are omitted. Field cells weight both numerator and
    denominator fractionally by default; whole_count counts each paper
    once in every field it touches. Records without field weights appear
    in the Total rows only.
    """
    sums: dict[tuple[str, str], list[list[float]]] = {}
    zero_country = 0

    def add(period: str, field: str, weight: float, international: bool) -> None:
        cell = sums.setdefault((period, field), [[], []])
        cell[1].append(weight)
        if international:
            cell[0].append(weight)

    for record in records:
        label = labels.get(record.pub_id)
        if label is None or label in _EXCLUDED:
            continue
        countries = known_countries(record)
        if not countries:
            zero_country += 1
        international = len(countries) >= 2
        add(label.value, TOTAL_FIELD, 1.0, international)
        for field, share in _field_shares(record, whole_count).items():
            add(label.value, field, share, international)

    cells = {
        key: Proportion(numerator=math.fsum(num), denominator=math.fsum(den))
        for key, (num, den) in sums.items()
    }
    return PpIcReport(cells=cells, zero_country_records=zero_country)


@dataclass(frozen=True)
class FieldShare:
    identified: float
    unidentified: float

    @property
    def total(self) -> float:
        return self.identified + self.unidentified


def field_distribution(
    records: Sequence[PublicationRecord],
    identified_ids: set[str],
) -> dict[str, FieldShare]:
    """Fractional paper counts per field, in field order, split by whether
    an identified funded scholar authored the record."""
    identified: dict[str, list[float]] = {}
    unidentified: dict[str, list[float]] = {}
    for record in records:
        bucket = identified if record.pub_id in identified_ids else unidentified
        for fw in record.field_weights:
            bucket.setdefault(fw.field, []).append(fw.weight)
    fields = sorted(set(identified) | set(unidentified))
    return {
        name: FieldShare(
            identified=math.fsum(identified.get(name, [])),
            unidentified=math.fsum(unidentified.get(name, [])),
        )
        for name in fields
    }


def temporal_distribution(
    records: Sequence[PublicationRecord],
    tag_of: Callable[[PublicationRecord], str],
) -> dict[int, dict[str, int]]:
    """Publication counts per year per ``tag_of(record)``, with a Total
    column per year; a record tagged Total raises ValueError."""
    years: dict[int, dict[str, int]] = {}
    for record in records:
        row = years.setdefault(record.pub_year, {})
        tag = tag_of(record)
        if tag == TOTAL_FIELD:
            raise ValueError(f"record {record.pub_id} is tagged {tag!r}, the name of the Total column")
        row[tag] = row.get(tag, 0) + 1
        row[TOTAL_FIELD] = row.get(TOTAL_FIELD, 0) + 1
    return {year: years[year] for year in sorted(years)}

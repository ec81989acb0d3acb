"""Mobility-destination inference for funded scholars from mainland China.

Scholars are kept when their modal surname appears in a configurable list
of romanized mainland-Chinese surnames. Destination inference looks at
the distinct affiliation countries on the scholar's during-sponsorship
papers: their own, then their co-authors'. The rules fire in a fixed
order; own-affiliation evidence outranks co-author evidence, and mainland
China is never a destination.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import MAINLAND_CHINA, TOTAL_FIELD, UNKNOWN_COUNTRY, PublicationRecord, config_lines, config_pairs
from .disambig import ResearcherCluster, most_frequent
from .textnorm import normalize_text


class Outcome(Enum):
    DESTINATION = "Destination"
    UNIDENTIFIED_MULTI_FOREIGN = "UnidentifiedMultiForeign"
    UNIDENTIFIED_CHINA_ONLY = "UnidentifiedChinaOnly"


class Rule(Enum):
    OWN_SINGLE_FOREIGN = "OwnSingleForeign"
    OWN_CHINA_PLUS_ONE = "OwnChinaPlusOne"
    COAUTHOR_SINGLE_FOREIGN = "CoauthorSingleForeign"
    MULTI_FOREIGN_OWN = "MultiForeignOwn"
    NO_FOREIGN_SIGNAL = "NoForeignSignal"


#: the outcome each rule decides
_RULE_OUTCOMES = {
    Rule.OWN_SINGLE_FOREIGN: Outcome.DESTINATION,
    Rule.OWN_CHINA_PLUS_ONE: Outcome.DESTINATION,
    Rule.COAUTHOR_SINGLE_FOREIGN: Outcome.DESTINATION,
    Rule.MULTI_FOREIGN_OWN: Outcome.UNIDENTIFIED_MULTI_FOREIGN,
    Rule.NO_FOREIGN_SIGNAL: Outcome.UNIDENTIFIED_CHINA_ONLY,
}


@dataclass(frozen=True)
class MobilityAssignment:
    """The rule that fired for one scholar, and the destination it found.

    The outcome follows from the rule alone; ``destination`` is set
    exactly when that outcome is Destination, and is never mainland China.
    """

    cluster_id: str
    rule_fired: Rule
    destination: str | None = None

    def __post_init__(self) -> None:
        if self.destination == MAINLAND_CHINA:
            raise ValueError("mainland China cannot be a mobility destination")
        if (self.destination is not None) != (self.outcome is Outcome.DESTINATION):
            raise ValueError("destination set iff outcome is Destination")

    @property
    def outcome(self) -> Outcome:
        return _RULE_OUTCOMES[self.rule_fired]


@dataclass(frozen=True)
class SurnameList:
    surnames: frozenset[str]

    def __post_init__(self) -> None:
        if not self.surnames:
            raise ValueError("surname list is empty")

    @classmethod
    def load(cls, path: str | Path) -> "SurnameList":
        return cls(frozenset(normalize_text(line) for _, line in config_lines(path)))

    def __contains__(self, surname: str) -> bool:
        return normalize_text(surname) in self.surnames


def modal_surname(cluster: ResearcherCluster, records: Mapping[str, PublicationRecord]) -> str:
    """Most frequent normalized surname; ties break lexicographically."""
    return most_frequent([normalize_text(records[p].authors[n - 1].last_name) for p, n in cluster.members])


def is_mainland_chinese_scholar(
    cluster: ResearcherCluster, surnames: SurnameList, records: Mapping[str, PublicationRecord]
) -> bool:
    return modal_surname(cluster, records) in surnames


def collect_countries(
    cluster: ResearcherCluster,
    records: Mapping[str, PublicationRecord],
    during_pub_ids: set[str],
) -> tuple[dict[str, int], dict[str, int]]:
    """Own and co-author affiliation countries on the cluster's
    during-sponsorship papers, each with its count, from one pass over
    them.

    Own: the scholar's affiliations on those papers. Co-author: the
    affiliations of every other author on the same papers. Unknown
    countries are dropped. The counts are plain dicts: a Counter's first
    count of each country goes through a Python-level ``__missing__``.
    """
    own: dict[str, int] = {}
    coauthor: dict[str, int] = {}
    for pub_id, position in cluster.members:
        if pub_id not in during_pub_ids:
            continue
        for author in records[pub_id].authors:
            counts = own if author.position == position else coauthor
            for aff in author.affiliations:
                country = aff.country
                if country != UNKNOWN_COUNTRY:
                    counts[country] = counts.get(country, 0) + 1
    return own, coauthor


def infer_destination(
    own: Iterable[str], coauthor: Iterable[str], cluster_id: str = ""
) -> MobilityAssignment:
    """Apply the destination rules to distinct own/co-author country sets.

    Rule order: own single foreign country; own China plus one other;
    China-only (or no) own affiliation with a single foreign co-author
    country; two or more foreign own countries; otherwise no usable
    foreign signal. Multiplicity is ignored.
    """
    own_set = set(own)
    foreign_own = own_set - {MAINLAND_CHINA}
    foreign_coauthor = set(coauthor) - {MAINLAND_CHINA}

    if len(own_set) == 1 and own_set != {MAINLAND_CHINA}:
        return MobilityAssignment(cluster_id, Rule.OWN_SINGLE_FOREIGN, next(iter(own_set)))
    if len(own_set) == 2 and MAINLAND_CHINA in own_set:
        return MobilityAssignment(cluster_id, Rule.OWN_CHINA_PLUS_ONE, next(iter(foreign_own)))
    if own_set <= {MAINLAND_CHINA} and len(foreign_coauthor) == 1:
        return MobilityAssignment(
            cluster_id, Rule.COAUTHOR_SINGLE_FOREIGN, next(iter(foreign_coauthor))
        )
    if len(foreign_own) >= 2:
        return MobilityAssignment(cluster_id, Rule.MULTI_FOREIGN_OWN)
    return MobilityAssignment(cluster_id, Rule.NO_FOREIGN_SIGNAL)


def assign_mobility(
    cluster: ResearcherCluster,
    records: Mapping[str, PublicationRecord],
    during_pub_ids: set[str],
) -> MobilityAssignment:
    own, coauthor = collect_countries(cluster, records, during_pub_ids)
    return infer_destination(own, coauthor, cluster_id=cluster.cluster_id)


@dataclass(frozen=True)
class FlowTable:
    destinations: tuple[tuple[str, int], ...]
    unidentified: tuple[tuple[str, int], ...]


def aggregate_flows(assignments: Sequence[MobilityAssignment]) -> FlowTable:
    """Scholar counts per destination, plus unidentified-case rows."""
    destinations: Counter[str] = Counter()
    unidentified: Counter[str] = Counter()
    for assignment in assignments:
        if assignment.outcome is Outcome.DESTINATION:
            destinations[assignment.destination] += 1
        else:
            unidentified[assignment.outcome.value] += 1
    return FlowTable(
        destinations=tuple(
            sorted(destinations.items(), key=lambda kv: (-kv[1], kv[0]))
        ),
        unidentified=tuple(sorted(unidentified.items())),
    )


def load_field_map(path: str | Path) -> dict[str, str]:
    """Tab-delimited field map: field_id<TAB>top-level field name."""
    mapping: dict[str, str] = {}
    for line_no, field_id, name in config_pairs(path, "\t", "field_id", "field name"):
        if name == TOTAL_FIELD:
            raise ValueError(f"field name {name!r} on line {line_no} names the whole-period row")
        if name.startswith("#"):
            raise ValueError(f"field name {name!r} on line {line_no} starts with '#', "
                             "which marks a comment line")
        mapping[field_id] = name
    return mapping


@dataclass(frozen=True)
class FieldDestinations:
    #: field -> ranked (destination, fractional scholar count)
    per_field: dict[str, list[tuple[str, float]]]
    #: scholars with a destination but no during-sponsorship field weights
    excluded_scholars: int


def scholar_field_profile(during_pub_ids: set[str], records: Mapping[str, PublicationRecord]) -> dict[str, float]:
    """Unit-mass field profile from a scholar's during-sponsorship
    publications.

    Field weights are summed per top-level field over the scholar's
    during papers, then normalized so each scholar contributes exactly
    one scholar-unit split across fields.
    """
    raw: dict[str, float] = {}
    for pub_id in sorted(during_pub_ids):
        for fw in records[pub_id].field_weights:
            raw[fw.field] = raw.get(fw.field, 0.0) + fw.weight
    total = sum(raw.values())
    if total <= 0:
        return {}
    return {field: weight / total for field, weight in raw.items()}


def top_destinations_by_field(
    assignments: Sequence[MobilityAssignment],
    records: Mapping[str, PublicationRecord],
    during_by_cluster: Mapping[str, set[str]],
    k: int,
) -> FieldDestinations:
    """Top-k destinations per top-level field by fractional scholar count.

    Each destination scholar adds their field profile to the destination;
    scholars without usable field weights are counted as excluded.
    """
    matrix: dict[str, dict[str, float]] = {}
    excluded = 0
    for assignment in assignments:
        if assignment.outcome is not Outcome.DESTINATION:
            continue
        profile = scholar_field_profile(
            during_by_cluster.get(assignment.cluster_id, set()), records
        )
        if not profile:
            excluded += 1
            continue
        for field, share in profile.items():
            row = matrix.setdefault(field, {})
            row[assignment.destination] = row.get(assignment.destination, 0.0) + share
    per_field = {
        field: sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        for field, row in sorted(matrix.items())
    }
    return FieldDestinations(per_field=per_field, excluded_scholars=excluded)

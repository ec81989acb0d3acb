"""Sponsorship-period classification of a funded scholar's publications.

A scholar's sponsorship window spans the resolved dates of their first
and last funder-acknowledging publications. Funder-acknowledging papers
are During regardless of date; other papers are Before when strictly
earlier than the window, After when strictly later, and excluded as
window-gap papers when they fall inside the window without acknowledging
the funder (publication delay makes those ambiguous). Papers shared by
several funded scholars take a single label: During when acknowledged,
the unanimous per-scholar label otherwise, and excluded as conflicting
when the scholars disagree.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .ackminer import FunderLexicon
from .corpus import PubDate, PublicationRecord, resolve_pub_date
from .disambig import ResearcherCluster
from .textnorm import normalize_text


class Label(Enum):
    BEFORE = "Before"
    DURING = "During"
    AFTER = "After"
    EXCLUDED_CONFLICT = "ExcludedConflict"
    EXCLUDED_WINDOW_GAP = "ExcludedWindowGap"


@dataclass(slots=True)
class PeriodLabel:
    pub_id: str
    cluster_id: str
    label: Label


@dataclass(frozen=True)
class SponsorshipWindow:
    first_funded_date: date
    last_funded_date: date

    def __post_init__(self) -> None:
        if self.first_funded_date > self.last_funded_date:
            raise ValueError("window start after window end")


class NoFundedPapers(Exception):
    """The cluster has no funder-acknowledging publication, so no window
    can be computed; such clusters must not reach this stage."""


def record_acknowledges_funder(record: PublicationRecord, lexicon: FunderLexicon) -> bool:
    """True when the standardized funding organizations or the raw
    acknowledgment text mention the target funder."""
    for org in record.funding_orgs:
        if normalize_text(org) in lexicon.variant_keys:
            return True
    text = record.acknowledgment_text
    return bool(text) and lexicon.mentions(text)(0, len(text)) is not None


def funded_pub_ids(
    corpus: Iterable[PublicationRecord], lexicon: FunderLexicon
) -> set[str]:
    return {r.pub_id for r in corpus if record_acknowledges_funder(r, lexicon)}


def compute_window(
    cluster: ResearcherCluster,
    dates: Mapping[str, PubDate],
    funded_ids: set[str],
) -> SponsorshipWindow:
    """Min and max resolved dates of the cluster's funded publications."""
    funded_dates = [dates[pub_id].date for pub_id, _ in cluster.members if pub_id in funded_ids]
    if not funded_dates:
        raise NoFundedPapers(cluster.cluster_id)
    return SponsorshipWindow(min(funded_dates), max(funded_dates))


def classify_publication(
    pub_date: PubDate,
    window: SponsorshipWindow,
    funded: bool,
) -> Label:
    """Single-scholar view of one publication's date against one window.

    Boundary dates count as inside the closed window, so an unfunded
    paper dated exactly on a window edge is a window-gap exclusion.
    """
    if funded:
        return Label.DURING
    if pub_date.date < window.first_funded_date:
        return Label.BEFORE
    if pub_date.date > window.last_funded_date:
        return Label.AFTER
    return Label.EXCLUDED_WINDOW_GAP


def reconcile_multi_scholar(labels: Iterable[Label]) -> Label:
    """The single label of one record shared by several funded scholars,
    from their per-scholar labels (:func:`classify_publication`).

    The label stands only when every scholar agrees on it; any
    disagreement (including window-gap vs. before/after mixtures) excludes
    the record as conflicting. A funder-acknowledging record is During for
    every scholar already, so it stays During.
    """
    distinct = set(labels)
    if len(distinct) == 1:
        return distinct.pop()
    return Label.EXCLUDED_CONFLICT


@dataclass
class LabelingResult:
    pairs: list[PeriodLabel]
    windows: dict[str, SponsorshipWindow]
    record_labels: dict[str, Label]
    #: resolved date of every labeled publication
    dates: dict[str, PubDate]
    #: each scholar's funded pub ids, the pubs of its During pairs: a
    #: funded paper is During for every scholar and no other paper is
    during: dict[str, set[str]]


def label_corpus(
    clusters: Sequence[ResearcherCluster],
    funded_ids: set[str],
    records: Mapping[str, PublicationRecord],
) -> LabelingResult:
    """Classify every publication of every funded scholar, given the
    funder-acknowledging pub ids (:func:`funded_pub_ids`) and the records
    by ``pub_id``.

    Clusters without a funded publication are skipped. Every other
    cluster is labeled, a co-author of a funded paper included, since it
    holds that paper: the pipeline keeps co-authors out by passing only
    the clusters that hold an identified authorship. Each labeled
    publication's date is resolved once.
    """
    scholar_pubs = {c.cluster_id: {key[0] for key in c.members} for c in clusters}
    scholars = [c for c in clusters if not scholar_pubs[c.cluster_id].isdisjoint(funded_ids)]
    during = {c.cluster_id: scholar_pubs[c.cluster_id] & funded_ids for c in scholars}
    labeled = set().union(*(scholar_pubs[c.cluster_id] for c in scholars))
    dates = {pub_id: resolve_pub_date(records[pub_id]) for pub_id in labeled}
    windows = {c.cluster_id: compute_window(c, dates, funded_ids) for c in scholars}

    per_record: dict[str, dict[str, Label]] = {}
    for cid, window in windows.items():
        for pub_id in scholar_pubs[cid]:
            label = classify_publication(dates[pub_id], window, pub_id in funded_ids)
            per_record.setdefault(pub_id, {})[cid] = label

    pairs: list[PeriodLabel] = []
    record_labels: dict[str, Label] = {}
    for pub_id in sorted(per_record):
        label = reconcile_multi_scholar(per_record[pub_id].values())
        pairs.extend(PeriodLabel(pub_id, cid, label) for cid in sorted(per_record[pub_id]))
        record_labels[pub_id] = label
    return LabelingResult(pairs, windows, record_labels, dates, during)

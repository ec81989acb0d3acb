"""Authorship clustering: blocking by surname + first initial, pairwise
evidence scoring, and single-linkage clustering over a score threshold.

This is a transparent, configurable stand-in for a production-scale name
disambiguator. Scoring sums the weights of triggered boolean features
(shared email, shared affiliation, shared co-author, shared funder,
matching full first names); conflicting full first names veto the pair
outright. Clustering is connected components of the threshold graph, so
results are independent of input order. A manual-override file can force
pairs together or suppress their direct edge, standing in for the manual
cleaning pass that production pipelines apply.

Scoring is exact but not all-pairs. Each block of two or more
authorships gets one feature row per member, built once and dropped when
the block is done, and only pairs that share an *indexed* feature value
are scored. Which features are indexed follows from the weights alone
(see :func:`indexed_features`), so a pair that is never scored could
not have reached the threshold. The scorer and the index add weights
through one helper, in one order, so they round alike by construction.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus import Authorship, PublicationRecord, config_lines
from .textnorm import normalize_text

AuthorshipKey = tuple[str, int]

#: the scored features, in the order the scorer adds their weights
FEATURES = ("email", "affiliation", "coauthor", "funder", "first_name")
#: on equal weights, the order in which features are left unindexed: the
#: ones most members of a surname + initial block share come first
_UNINDEXED_FIRST = ("funder", "first_name", "affiliation", "coauthor", "email")


@dataclass(frozen=True)
class ScoringWeights:
    email: float = 10.0
    affiliation: float = 2.0
    coauthor: float = 4.0
    funder: float = 1.0
    first_name: float = 2.0
    threshold: float = 5.0

    def __post_init__(self) -> None:
        for name in (*FEATURES, "threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"weight {name} must be finite")
        for name in FEATURES:
            if getattr(self, name) < 0:
                raise ValueError(f"weight {name} must be >= 0")
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")

    @classmethod
    def load(cls, path: str | Path) -> "ScoringWeights":
        """Key-value config: ``name = value`` per line, # comments."""
        values: dict[str, float] = {}
        line_of: dict[str, int] = {}
        known = set(cls.__dataclass_fields__)
        for line_no, line in config_lines(path):
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in known:
                raise ValueError(f"unknown disambiguation weight: {key!r}")
            if key in line_of:
                raise ValueError(f"weight {key!r} given twice, on lines {line_of[key]} and {line_no}")
            line_of[key] = line_no
            try:
                values[key] = float(raw)
            except ValueError:
                raise ValueError(
                    f"weight {key!r} on line {line_no} is not a number: {raw!r}"
                ) from None
        return cls(**values)


@dataclass(frozen=True)
class ManualOverride:
    a: AuthorshipKey
    b: AuthorshipKey
    action: str  # MERGE | SPLIT


def load_overrides(path: str | Path) -> list[ManualOverride]:
    """Tab-delimited: pub_id, position, pub_id, position, MERGE|SPLIT."""
    overrides = []
    for line_no, line in config_lines(path):
        parts = line.split("\t")
        if len(parts) != 5 or parts[4].upper() not in ("MERGE", "SPLIT"):
            raise ValueError(f"bad override on line {line_no}: {line!r}")
        try:
            a, b = (parts[0], int(parts[1])), (parts[2], int(parts[3]))
        except ValueError:
            raise ValueError(f"override position on line {line_no} is not an integer: {line!r}") from None
        overrides.append(ManualOverride(a=a, b=b, action=parts[4].upper()))
    return overrides


@dataclass(frozen=True)
class ResearcherCluster:
    cluster_id: str
    members: frozenset[AuthorshipKey]
    display_name: str


class CorpusIndex:
    """Fast lookup from keys to records and authorships."""

    def __init__(self, records: Iterable[PublicationRecord]):
        self.records: dict[str, PublicationRecord] = {}
        self.authorships: dict[AuthorshipKey, Authorship] = {}
        for record in records:
            if record.pub_id in self.records:
                raise ValueError(f"duplicate pub_id: {record.pub_id}")
            self.records[record.pub_id] = record
            for author in record.authors:
                self.authorships[(record.pub_id, author.position)] = author

    def record(self, pub_id: str) -> PublicationRecord:
        return self.records[pub_id]

    def author(self, key: AuthorshipKey) -> Authorship:
        return self.authorships[key]


def _surname_key(author: Authorship) -> str:
    return normalize_text(author.last_name).replace(" ", "").replace("-", "")


def _first_initial(author: Authorship) -> str:
    for source in (author.first_name, author.initials):
        if source:
            for ch in normalize_text(source):
                if ch.isalpha():
                    return ch
    return ""


def block_key(author: Authorship) -> tuple[str, str]:
    return (_surname_key(author), _first_initial(author))


def block_authorships(
    corpus: Sequence[PublicationRecord],
) -> list[list[AuthorshipKey]]:
    """Partition all authorships by (surname, first initial), sorted."""
    blocks: dict[tuple[str, str], list[AuthorshipKey]] = {}
    for record in corpus:
        for author in record.authors:
            blocks.setdefault(block_key(author), []).append(
                (record.pub_id, author.position)
            )
    return [sorted(blocks[key]) for key in sorted(blocks)]


def _full_first_name(author: Authorship) -> set[str]:
    """The flattened given name if it has two or more letters."""
    flattened = "".join(
        ch for ch in normalize_text(author.first_name or "") if ch.isalpha()
    )
    return {flattened} if len(flattened) >= 2 else set()


def _org_keys(author: Authorship) -> set[str]:
    return {normalize_text(a.org_name) for a in author.affiliations if a.org_name.strip()}


class _FeatureRow(NamedTuple):
    """What scoring reads of one authorship: one set per feature, in
    ``FEATURES`` order. ``email`` and ``first_name`` hold at most one
    value."""

    email: set[str]
    affiliation: set[str]
    coauthor: set[tuple[str, str]]
    funder: set[str]
    first_name: set[str]


def _feature_row(index: CorpusIndex, key: AuthorshipKey) -> _FeatureRow:
    author, record = index.author(key), index.record(key[0])
    email = (author.email or "").strip().lower()
    return _FeatureRow(
        email={email} if email else set(),
        affiliation=_org_keys(author),
        coauthor={block_key(a) for a in record.authors if a.position != key[1]},
        funder={normalize_text(f) for f in record.funding_orgs},
        first_name=_full_first_name(author),
    )


def _weight_sum(weights: ScoringWeights, triggered: Iterable[bool]) -> float:
    """The weights of the triggered features, one flag per feature in
    ``FEATURES`` order, added in that order from 0.0."""
    total = 0.0
    for name, hit in zip(FEATURES, triggered):
        if hit:
            total += getattr(weights, name)
    return total


def _score_rows(a: _FeatureRow, b: _FeatureRow, weights: ScoringWeights) -> float:
    """Sum of triggered feature weights; conflicting full first names
    force 0 regardless of any other evidence."""
    if a.first_name and b.first_name and a.first_name != b.first_name:
        return 0.0
    return _weight_sum(weights, [not x.isdisjoint(y) for x, y in zip(a, b)])


def score_pair(
    index: CorpusIndex,
    a: AuthorshipKey,
    b: AuthorshipKey,
    weights: ScoringWeights,
) -> float:
    """Sum of triggered feature weights for a candidate pair.

    Symmetric in its arguments. Conflicting full first names force 0
    regardless of any other evidence.
    """
    return _score_rows(_feature_row(index, a), _feature_row(index, b), weights)


def indexed_features(weights: ScoringWeights) -> tuple[str, ...]:
    """The features whose shared values make a pair a scoring candidate.

    Features are taken cheapest first; the longest such run whose weights
    sum below the threshold is left unindexed, since a pair sharing none
    of the other features scores at most that sum. The sum goes through
    the scorer's own helper, so it is exactly the score of such a pair.
    """
    ordered = sorted(_UNINDEXED_FIRST, key=lambda name: getattr(weights, name))
    for count in range(len(ordered)):
        unindexed = ordered[: count + 1]
        if _weight_sum(weights, [n in unindexed for n in FEATURES]) >= weights.threshold:
            return tuple(ordered[count:])
    return ()


def _candidate_pairs(
    rows: Sequence[_FeatureRow], features: Sequence[str]
) -> Iterator[tuple[int, int]]:
    """Each pair ``(i, j)``, ``i < j``, of rows sharing a value of one of
    ``features``, once."""
    row_keys = [
        [(feature, value) for feature in features for value in getattr(row, feature)]
        for row in rows
    ]
    postings: dict[tuple[str, object], list[int]] = {}
    for i, keys in enumerate(row_keys):
        for key in keys:
            postings.setdefault(key, []).append(i)
    for i, keys in enumerate(row_keys):
        partners: set[int] = set()
        for key in keys:
            partners.update(postings[key])
        for j in partners:
            if j > i:
                yield i, j


class _UnionFind:
    def __init__(self, items: Iterable[AuthorshipKey]):
        self.parent = {item: item for item in items}

    def find(self, item: AuthorshipKey) -> AuthorshipKey:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: AuthorshipKey, b: AuthorshipKey) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # anchor on the smaller key for deterministic roots
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def most_frequent(values: Iterable[str]) -> str:
    """The most frequent of ``values``, the smallest on ties."""
    counts = Counter(values)
    best = max(counts.values())
    return min(value for value, count in counts.items() if count == best)


def _make_clusters(
    groups: Iterable[Sequence[AuthorshipKey]], index: CorpusIndex
) -> list[ResearcherCluster]:
    clusters = []
    for members in groups:
        ordered = sorted(members)
        anchor = ordered[0]
        clusters.append(
            ResearcherCluster(
                cluster_id=f"{anchor[0]}#{anchor[1]}",
                members=frozenset(ordered),
                display_name=most_frequent(index.author(key).full_name for key in ordered),
            )
        )
    return sorted(clusters, key=lambda c: min(c.members))


def _cluster_keys(
    blocks: Iterable[Sequence[AuthorshipKey]],
    index: CorpusIndex,
    weights: ScoringWeights,
    overrides: Iterable[ManualOverride] | None,
) -> list[ResearcherCluster]:
    overrides = list(overrides or [])
    splits = {frozenset((o.a, o.b)) for o in overrides if o.action == "SPLIT"}
    blocks = [sorted(block) for block in blocks]
    uf = _UnionFind(key for block in blocks for key in block)
    features = indexed_features(weights)
    for block in blocks:
        if len(block) < 2:
            continue
        rows = [_feature_row(index, key) for key in block]
        for i, j in _candidate_pairs(rows, features):
            a, b = block[i], block[j]
            if frozenset((a, b)) in splits:
                continue
            if _score_rows(rows[i], rows[j], weights) >= weights.threshold:
                uf.union(a, b)
    for o in overrides:
        if o.action == "MERGE" and o.a in uf.parent and o.b in uf.parent:
            uf.union(o.a, o.b)
    groups: dict[AuthorshipKey, list[AuthorshipKey]] = {}
    for block in blocks:
        for key in block:
            groups.setdefault(uf.find(key), []).append(key)
    return _make_clusters(groups.values(), index)


def cluster_block(
    block: Sequence[AuthorshipKey],
    index: CorpusIndex,
    weights: ScoringWeights,
    overrides: Iterable[ManualOverride] | None = None,
) -> list[ResearcherCluster]:
    """Single-linkage clusters of one block: connected components of the
    graph whose edges are pairs scoring at or above the threshold.

    A SPLIT override suppresses the direct edge of that pair only; the two
    authorships can still end up together through transitive links.
    """
    return _cluster_keys([block], index, weights, overrides)


def cluster_corpus(
    corpus: Sequence[PublicationRecord],
    weights: ScoringWeights,
    overrides: Iterable[ManualOverride] | None = None,
    index: CorpusIndex | None = None,
) -> list[ResearcherCluster]:
    """Cluster every authorship of the corpus.

    Scoring only happens within blocks, but MERGE overrides join across
    blocks, mirroring a manual-cleaning pass that may repair blocking
    mistakes.
    """
    index = index or CorpusIndex(corpus)
    return _cluster_keys(block_authorships(corpus), index, weights, overrides)

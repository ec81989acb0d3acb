"""Authorship clustering: blocking by surname + first initial, and
single-linkage clustering over a threshold on summed evidence weights.

This is a transparent, configurable stand-in for a production-scale name
disambiguator. A pair's score sums the weights of triggered boolean
features (shared email, shared affiliation, shared co-author, shared
funder, matching full first names); conflicting full first names veto
the pair outright. Clustering is connected components of the threshold
graph, so results are independent of input order. A manual-override
file can force pairs together or suppress their direct edge, standing
in for the manual cleaning pass that production pipelines apply.

Clustering scores no pair: components need only a spanning forest of
the threshold graph. A *minimal linking set* is a set of features whose
weights reach the threshold while no proper subset's do (see
:func:`_linking_sets`); a pair at or above the threshold shares every
value of at least one such set. So each block of two or more
authorships gets one feature row per member, and for each linking set
its rows are grouped by the values they share. Inside a group a pair
reaches the threshold exactly when its full first names do not
conflict, so first names and SPLIT overrides alone decide its edges.
In :func:`cluster_corpus` a co-author is known by the index of its
block in the one blocking pass, so each block key is computed once per
run. :func:`score_pair` is the pairwise reference that clustering
agrees with.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import Authorship, PublicationRecord, config_lines
from .textnorm import normalize_text

AuthorshipKey = tuple[str, int]

#: the scored features, in the order the scorer adds their weights
FEATURES = ("email", "affiliation", "coauthor", "funder", "first_name")


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
    coauthor: set[Hashable]
    funder: set[str]
    first_name: set[str]


def _feature_row(
    index: CorpusIndex, key: AuthorshipKey, block_of: Mapping[AuthorshipKey, Hashable]
) -> _FeatureRow:
    """The row of ``key``. ``block_of`` gives each co-author an id that two
    authorships share exactly when they share a block key."""
    author, record = index.author(key), index.record(key[0])
    email = (author.email or "").strip().lower()
    return _FeatureRow(
        email={email} if email else set(),
        affiliation=_org_keys(author),
        coauthor={block_of[(key[0], a.position)] for a in record.authors if a.position != key[1]},
        funder={normalize_text(f) for f in record.funding_orgs},
        first_name=_full_first_name(author),
    )


def _block_keys_of(index: CorpusIndex, pub_ids: Iterable[str]) -> dict[AuthorshipKey, tuple[str, str]]:
    """The block key of every author of the records ``pub_ids``."""
    return {(p, a.position): block_key(a) for p in pub_ids for a in index.record(p).authors}


def _first_names_conflict(a: _FeatureRow, b: _FeatureRow) -> bool:
    return bool(a.first_name and b.first_name and a.first_name != b.first_name)


def _weight_sum(weights: ScoringWeights, triggered: Iterable[bool]) -> float:
    """The weights of the triggered features, one flag per feature in
    ``FEATURES`` order, added in that order from 0.0."""
    total = 0.0
    for name, hit in zip(FEATURES, triggered):
        if hit:
            total += getattr(weights, name)
    return total


def score_pair(
    index: CorpusIndex,
    a: AuthorshipKey,
    b: AuthorshipKey,
    weights: ScoringWeights,
) -> float:
    """Sum of triggered feature weights for a pair of authorships.

    Symmetric in its arguments. Conflicting full first names force 0
    regardless of any other evidence. This is the pairwise reference;
    clustering never calls it.
    """
    block_of = _block_keys_of(index, {a[0], b[0]})
    row_a, row_b = (_feature_row(index, key, block_of) for key in (a, b))
    if _first_names_conflict(row_a, row_b):
        return 0.0
    return _weight_sum(weights, [not x.isdisjoint(y) for x, y in zip(row_a, row_b)])


def _linking_sets(weights: ScoringWeights) -> list[tuple[str, ...]]:
    """The minimal linking sets, smallest first: each set of features, in
    ``FEATURES`` order, whose weights reach the threshold through the
    scorer's own helper while no proper subset's do.

    Adding non-negative weights in a fixed order never lowers the sum, so
    a pair sharing a value of every feature of such a set scores at least
    the threshold exactly when its full first names do not conflict, and
    a pair at or above the threshold shares every value of one such set.
    """
    found: list[tuple[str, ...]] = []
    for size in range(1, len(FEATURES) + 1):
        for names in itertools.combinations(FEATURES, size):
            if any(set(linking) <= set(names) for linking in found):
                continue
            if _weight_sum(weights, [n in names for n in FEATURES]) >= weights.threshold:
                found.append(names)
    return found


def _linked_groups(
    rows: Sequence[_FeatureRow], linking: Sequence[tuple[str, ...]]
) -> Iterator[list[int]]:
    """For each linking set, the indices of rows sharing one value of each
    of its features: one list, in row order, per combination of values
    that two or more rows share.

    Rows are grouped one feature at a time and only groups of two or more
    are split further, so sets that start with the same features share
    those steps.
    """
    refined: dict[tuple[str, ...], list[list[int]]] = {(): [list(range(len(rows)))]}
    for names in linking:
        for size in range(1, len(names) + 1):
            if names[:size] in refined:
                continue
            field = FEATURES.index(names[size - 1])
            groups: list[list[int]] = []
            for group in refined[names[: size - 1]]:
                by_value: dict[object, list[int]] = {}
                for i in group:
                    for value in rows[i][field]:
                        by_value.setdefault(value, []).append(i)
                groups.extend(g for g in by_value.values() if len(g) > 1)
            refined[names[:size]] = groups
        yield from refined[names]


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
    for ordered in sorted((sorted(members) for members in groups), key=lambda o: o[0]):
        anchor = ordered[0]
        if len(ordered) == 1:
            display_name = index.author(anchor).full_name
        else:
            display_name = most_frequent(index.author(key).full_name for key in ordered)
        clusters.append(
            ResearcherCluster(
                cluster_id=f"{anchor[0]}#{anchor[1]}",
                members=frozenset(ordered),
                display_name=display_name,
            )
        )
    return clusters


def _union_linked(
    keys: Sequence[AuthorshipKey],
    rows: Sequence[_FeatureRow],
    splits: dict[AuthorshipKey, set[AuthorshipKey]],
    uf: _UnionFind,
) -> None:
    """Union one linking group: authorships sharing every value of a
    minimal linking set, so each pair of them reaches the threshold unless
    its full first names conflict or a SPLIT override suppresses its edge.

    A member with a SPLIT partner in the group joins each other member it
    is not split from and whose first name does not conflict with its
    own. The rest form one component when one of them has no full first
    name, and one component per full first name otherwise; each component
    is joined along a chain.
    """
    split = [i for i, key in enumerate(keys) if key in splits and not splits[key].isdisjoint(keys)]
    free = [i for i in range(len(keys)) if i not in split]
    components: Iterable[list[int]] = [free]
    if all(rows[i].first_name for i in free):
        by_name: dict[str, list[int]] = {}
        for i in free:
            by_name.setdefault(min(rows[i].first_name), []).append(i)
        components = by_name.values()
    for component in components:
        for i, j in zip(component, component[1:]):
            uf.union(keys[i], keys[j])
    for n, i in enumerate(split):
        for j in free + split[n + 1:]:
            if keys[j] not in splits[keys[i]] and not _first_names_conflict(rows[i], rows[j]):
                uf.union(keys[i], keys[j])


def _cluster_keys(
    blocks: Iterable[Sequence[AuthorshipKey]],
    block_of: Mapping[AuthorshipKey, Hashable],
    index: CorpusIndex,
    weights: ScoringWeights,
    overrides: Iterable[ManualOverride] | None,
) -> list[ResearcherCluster]:
    overrides = list(overrides or [])
    splits: dict[AuthorshipKey, set[AuthorshipKey]] = {}
    for o in overrides:
        if o.action == "SPLIT":
            splits.setdefault(o.a, set()).add(o.b)
            splits.setdefault(o.b, set()).add(o.a)
    blocks = [sorted(block) for block in blocks]
    uf = _UnionFind(key for block in blocks for key in block)
    linking = _linking_sets(weights)
    for block in blocks:
        if len(block) < 2:
            continue
        rows = [_feature_row(index, key, block_of) for key in block]
        for group in _linked_groups(rows, linking):
            _union_linked([block[i] for i in group], [rows[i] for i in group], splits, uf)
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
    Co-authors are compared by block key, computed for the block's
    records alone.
    """
    block_of = _block_keys_of(index, {key[0] for key in block})
    return _cluster_keys([block], block_of, index, weights, overrides)


def cluster_corpus(
    corpus: Sequence[PublicationRecord],
    weights: ScoringWeights,
    overrides: Iterable[ManualOverride] | None = None,
    index: CorpusIndex | None = None,
) -> list[ResearcherCluster]:
    """Cluster every authorship of the corpus.

    Evidence links authorships only within blocks, but MERGE overrides
    join across blocks, mirroring a manual-cleaning pass that may repair
    blocking mistakes.
    """
    index = index or CorpusIndex(corpus)
    blocks = block_authorships(corpus)
    # blocks are sorted by key, so a block's index stands for its key
    block_of = {key: i for i, block in enumerate(blocks) for key in block}
    return _cluster_keys(blocks, block_of, index, weights, overrides)

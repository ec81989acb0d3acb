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

In :func:`cluster_corpus` each authorship gets a dense integer id in
``(pub_id, position)`` order: :class:`CorpusIndex` refuses a duplicate
``pub_id``, the indexed records are sorted by ``pub_id`` once, and the
ids follow. :func:`block_authorships` numbers the authorships the same way
and hands each block over as its ascending ids. The feature rows, the
grouping, the overrides and the union-find work on ids: each group comes
as ascending ids, and :func:`_union_linked` holds the one pair rule. Only
:func:`_make_clusters` builds key tuples, after the rows are dropped. A
component's smallest id is its smallest key, so a cluster's ``members``
is a key-ordered tuple and clusters come in the order of their first
members. A co-author is known by the index of its block in the one
blocking pass, so each block key is computed once per run. A row is a
plain tuple in ``FEATURES`` order, holding each feature as a tuple of
distinct values: funder keys made once per record, email, first-name and
org keys once per distinct value, co-authors as block indices. The tests
keep the pairwise scorer that clustering agrees with, as its reference.
"""
from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import Authorship, PublicationRecord, config_lines, config_pairs
from .textnorm import normalize_text

logger = logging.getLogger(__name__)

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
        known = set(cls.__dataclass_fields__)
        for line_no, key, raw in config_pairs(path, "=", "weight", "value"):
            if key not in known:
                raise ValueError(f"unknown disambiguation weight {key!r} on line {line_no}")
            try:
                # float() also reads "1_0" as 10 and non-ASCII digits
                if "_" in raw or not raw.isascii():
                    raise ValueError
                values[key] = float(raw)
            except ValueError:
                raise ValueError(
                    f"weight {key!r} on line {line_no} is not a number: {raw!r}"
                ) from None
            try:
                # the range rules of __post_init__, with the line named
                cls(**{key: values[key]})
            except ValueError as exc:
                raise ValueError(f"{exc}, on line {line_no}") from None
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
        # ASCII only: "ſplit".upper() is "SPLIT"
        if len(parts) != 5 or not parts[4].isascii() or parts[4].upper() not in ("MERGE", "SPLIT"):
            raise ValueError(f"bad override on line {line_no}: {line!r}")
        try:
            # ASCII digits only: int() also reads "+2", "1_0" and "٣"
            if not all(p.isascii() and p.isdigit() for p in (parts[1], parts[3])):
                raise ValueError
            a, b = (parts[0], int(parts[1])), (parts[2], int(parts[3]))
        except ValueError:
            raise ValueError(f"override position on line {line_no} is not an integer: {line!r}") from None
        overrides.append(ManualOverride(a=a, b=b, action=parts[4].upper()))
    return overrides


@dataclass(slots=True)
class ResearcherCluster:
    cluster_id: str
    members: tuple[AuthorshipKey, ...]  # in key order
    display_name: str


class CorpusIndex(dict[str, PublicationRecord]):
    """The records by ``pub_id``, refusing a duplicate: the one duplicate
    check, which :func:`cluster_corpus` makes on its input. Authorship
    ``(pub_id, p)`` is ``index[pub_id].authors[p - 1]``: parsing checks
    that a record's author positions run 1, 2, ... in order."""

    def __init__(self, records: Iterable[PublicationRecord]):
        super().__init__()
        for record in records:
            if record.pub_id in self:
                raise ValueError(f"duplicate pub_id: {record.pub_id}")
            self[record.pub_id] = record


def block_key(author: Authorship) -> tuple[str, str]:
    surname = normalize_text(author.last_name).replace(" ", "").replace("-", "")
    for source in (author.first_name, author.initials):
        if source:
            for ch in normalize_text(source):
                if ch.isalpha():
                    return (surname, ch)
    return (surname, "")


def block_authorships(corpus: Iterable[PublicationRecord]) -> list[list[int]]:
    """Partition all authorships by :func:`block_key`, blocks in key order,
    each block the ascending ids of its authorships. Id ``i`` is the i-th
    authorship of ``corpus``: records as given, each record's authors in
    position order."""
    blocks: dict[tuple[str, str], list[int]] = {}
    authors = (author for record in corpus for author in record.authors)
    for i, author in enumerate(authors):
        blocks.setdefault(block_key(author), []).append(i)
    return [blocks[key] for key in sorted(blocks)]


#: the values of a feature an authorship has no value of
_NONE: tuple = ()


def _full_first_name(first_name: str | None) -> tuple[str, ...]:
    """The flattened given name if it has two or more letters."""
    flattened = "".join(ch for ch in normalize_text(first_name or "") if ch.isalpha())
    return (flattened,) if len(flattened) >= 2 else _NONE


def _org_key(org_name: str) -> tuple[str, ...]:
    return (normalize_text(org_name),) if org_name.strip() else _NONE


#: the index of the first name in a feature row
_FIRST_NAME = FEATURES.index("first_name")


def _feature_rows(
    records: Iterable[PublicationRecord], block_of: Sequence[int], linked: Sequence[bool]
) -> list[tuple | None]:
    """The row of every authorship whose block index ``linked`` marks, by
    authorship id, from one pass over ``records`` in id order; None for
    the rest. A row is a plain tuple of each feature's distinct values,
    in ``FEATURES`` order: the email and the first name hold at most one
    value, the co-authors are block indices. A co-author is known by its
    block index, which two authorships share exactly when they share a
    block key. Funder keys are made once per record; email, first-name and
    org keys once per distinct value."""
    emails: dict[str | None, tuple[str, ...]] = {}
    first_names: dict[str | None, tuple[str, ...]] = {}
    orgs: dict[str, tuple[str, ...]] = {}
    rows: list[tuple | None] = [None] * len(block_of)
    start = 0
    for record in records:
        authors = record.authors
        # a record's authorships have consecutive ids
        in_block = tuple(block_of[start:start + len(authors)])
        # grouping by value must list a row once, so each feature keeps a
        # value once: a co-author block two co-authors share, an org or a
        # funder named twice
        distinct = len(set(in_block)) == len(in_block)
        funder: tuple[str, ...] | None = None
        for i, author in enumerate(authors):
            if not linked[in_block[i]]:
                continue
            if funder is None:
                funder = tuple(dict.fromkeys([normalize_text(f) for f in record.funding_orgs]))
            first = first_names.get(author.first_name)
            if first is None:
                first = first_names[author.first_name] = _full_first_name(author.first_name)
            affiliation = _NONE
            for aff in author.affiliations:
                org = orgs.get(aff.org_name)
                if org is None:
                    org = orgs[aff.org_name] = _org_key(aff.org_name)
                # () + org is org itself, so a one-org row shares the key
                if org and org[0] not in affiliation:
                    affiliation += org
            email = emails.get(author.email)
            if email is None:
                lowered = (author.email or "").strip().lower()
                email = emails[author.email] = (lowered,) if lowered else _NONE
            coauthor = in_block[:i] + in_block[i + 1:]
            rows[start + i] = (
                email, affiliation,
                coauthor if distinct else tuple(dict.fromkeys(coauthor)), funder, first,
            )
        start += len(authors)
    return rows


def _first_names_conflict(a: tuple, b: tuple) -> bool:
    first_a, first_b = a[_FIRST_NAME], b[_FIRST_NAME]
    return bool(first_a and first_b and first_a != first_b)


def _weight_sum(weights: ScoringWeights, triggered: Iterable[bool]) -> float:
    """The weights of the triggered features, one flag per feature in
    ``FEATURES`` order, added in that order from 0.0."""
    total = 0.0
    for name, hit in zip(FEATURES, triggered):
        if hit:
            total += getattr(weights, name)
    return total


def _linking_sets(weights: ScoringWeights) -> list[tuple[str, ...]]:
    """The minimal linking sets, smallest first: each set of features, in
    ``FEATURES`` order, whose weights reach the threshold through
    :func:`_weight_sum` while no proper subset's do.

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


#: one grouping step: a prefix of a linking set, the prefix it refines,
#: the index of its last feature, and whether it is a linking set itself
_Step = tuple[tuple[str, ...], tuple[str, ...], int, bool]


def _refinements(linking: Sequence[tuple[str, ...]]) -> list[_Step]:
    """The steps that group rows by every linking set one feature at a
    time, each prefix of a set once, in the order the sets need them."""
    steps: list[_Step] = []
    seen: set[tuple[str, ...]] = {()}
    for names in linking:
        for size in range(1, len(names) + 1):
            if names[:size] not in seen:
                seen.add(names[:size])
                steps.append((names[:size], names[: size - 1],
                              FEATURES.index(names[size - 1]), size == len(names)))
    return steps


def _linked_groups(block: list[int], rows: Sequence[tuple], steps: Sequence[_Step]) -> Iterator[list[int]]:
    """For each linking set, the ids of the block's authorships sharing
    one value of each of its features, read from ``rows`` by id: one
    ascending list per combination of values that two or more of them
    share, and one for a pair however many values it shares.

    Rows are grouped one feature at a time along ``steps`` (see
    :func:`_refinements`) and only groups of two or more are split
    further, so sets that start with the same features share those steps.
    """
    refined: dict[tuple[str, ...], list[list[int]]] = {(): [block]}
    for prefix, parent, field, is_linking in steps:
        groups: list[list[int]] = []
        for group in refined[parent]:
            if len(group) == 2:
                a, b = group
                if not frozenset(rows[a][field]).isdisjoint(rows[b][field]):
                    groups.append(group)
                continue
            by_value: dict[object, list[int]] = {}
            for i in group:
                for value in rows[i][field]:
                    same = by_value.get(value)
                    if same is None:
                        by_value[value] = [i]
                    else:
                        same.append(i)
            groups += [g for g in by_value.values() if len(g) > 1]
        refined[prefix] = groups
        if is_linking:
            yield from groups


class _UnionFind:
    """Union-find over the authorship ids ``0 .. size - 1``. Each root is
    its component's smallest id, and every ``parent[i] <= i``."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, item: int) -> int:
        parent = self.parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # anchor on the smaller id, the smaller key, so each root is
            # the first member of its component
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def most_frequent(values: Sequence[str]) -> str:
    """The most frequent of ``values``, the smallest on ties. Most
    clusters hold one name, so a list of equal values is answered by one
    count, without a Counter."""
    first = values[0]
    if values.count(first) == len(values):
        return first
    counts = Counter(values)
    best = max(counts.values())
    return min(value for value, count in counts.items() if count == best)


def _make_clusters(records: Sequence[PublicationRecord], uf: _UnionFind) -> list[ResearcherCluster]:
    """One cluster per union-find component, its keys and display name
    read from ``records`` in id order. Ids follow key order, and each
    root is its component's first id."""
    keys = [(record.pub_id, author.position) for record in records for author in record.authors]
    full_names = [author.full_name for record in records for author in record.authors]
    # every parent is a smaller id or the id itself, so in id order each
    # parent's parent is already its root: one pass points every id there
    parent = uf.parent
    for i in range(len(parent)):
        parent[i] = parent[parent[i]]
    root_of = parent.__getitem__
    clusters = []
    # a stable sort by root keeps each component's ids in order, and puts
    # the components in the order of their roots, their first ids
    for _, group in itertools.groupby(sorted(range(len(keys)), key=root_of), root_of):
        ids = list(group)
        anchor = keys[ids[0]]
        clusters.append(ResearcherCluster(
            f"{anchor[0]}#{anchor[1]}",
            tuple([keys[i] for i in ids]),
            most_frequent([full_names[i] for i in ids]),
        ))
    return clusters


def _union_linked(
    ids: Sequence[int],
    rows: Sequence[tuple],
    splits: dict[int, set[int]],
    uf: _UnionFind,
) -> None:
    """Union one linking group: the ids of authorships sharing every value
    of a minimal linking set, so each pair of them reaches the threshold
    unless its full first names conflict or a SPLIT override vetoes it.

    A pair, the most common group, is joined unless a veto holds. In a
    larger group, a member with a SPLIT partner in it joins each other
    member it is not split from and whose first name does not conflict.
    The rest form one component when one has no full first name, and one
    component per full first name otherwise, each joined along a chain.
    """
    if len(ids) == 2:
        a, b = ids
        if b not in splits.get(a, ()) and not _first_names_conflict(rows[a], rows[b]):
            uf.union(a, b)
        return
    split = [i for i in ids if i in splits and not splits[i].isdisjoint(ids)]
    free = [i for i in ids if i not in split]
    components: Iterable[list[int]] = [free]
    if all(rows[i][_FIRST_NAME] for i in free):
        by_name: dict[str, list[int]] = {}
        for i in free:
            by_name.setdefault(min(rows[i][_FIRST_NAME]), []).append(i)
        components = by_name.values()
    for component in components:
        for i, j in zip(component, component[1:]):
            uf.union(i, j)
    for n, i in enumerate(split):
        for j in free + split[n + 1:]:
            if j not in splits[i] and not _first_names_conflict(rows[i], rows[j]):
                uf.union(i, j)


def _link_authorships(
    records: Sequence[PublicationRecord],
    weights: ScoringWeights,
    overrides: Iterable[ManualOverride],
) -> _UnionFind:
    """The union-find over the authorship ids of ``records``, which hold
    distinct pub ids, joined along a spanning forest of the threshold
    graph less the SPLIT pairs, and along the MERGE pairs. The feature
    rows live only while it runs. An override naming an authorship
    outside ``records`` is ignored, with one warning each, in override order."""
    # authorship (pub_id, p) has id ids_of[pub_id][p - 1], as in blocking
    ids_of: dict[str, range] = {}
    size = 0
    for record in records:
        ids_of[record.pub_id] = range(size, size + len(record.authors))
        size += len(record.authors)
    # blocks come in key order, so a block's index stands for its key
    blocks = block_authorships(records)
    splits: dict[int, set[int]] = {}
    merges = []
    for o in overrides:
        if not all(0 < n <= len(ids_of.get(p, ())) for p, n in (o.a, o.b)):
            logger.warning("%s override of %s %d and %s %d names no authorship of the corpus; "
                           "ignored", o.action, *o.a, *o.b)
            continue
        a, b = (ids_of[p][n - 1] for p, n in (o.a, o.b))
        if o.action == "MERGE":
            merges.append((a, b))
        else:
            splits.setdefault(a, set()).add(b)
            splits.setdefault(b, set()).add(a)
    block_of = [0] * size
    for b, block in enumerate(blocks):
        for i in block:
            block_of[i] = b
    rows = _feature_rows(records, block_of, [len(block) > 1 for block in blocks])
    uf = _UnionFind(size)
    steps = _refinements(_linking_sets(weights))
    for block in blocks:
        if len(block) > 1:
            for group in _linked_groups(block, rows, steps):
                _union_linked(group, rows, splits, uf)
    for a, b in merges:
        uf.union(a, b)
    return uf


def cluster_corpus(
    corpus: Sequence[PublicationRecord],
    weights: ScoringWeights,
    overrides: Iterable[ManualOverride] | None = None,
) -> list[ResearcherCluster]:
    """Cluster every authorship of the corpus: single-linkage clusters of
    each block, the connected components of the graph whose edges are the
    pairs scoring at or above the threshold.

    A SPLIT override suppresses the direct edge of that pair only; the two
    authorships can still end up together through transitive links.
    Evidence links authorships only within blocks, but MERGE overrides
    join across blocks, mirroring a manual-cleaning pass that may repair
    blocking mistakes. Raises ValueError on a duplicate ``pub_id``.
    """
    # authorship ids follow (pub_id, position) order: the records sorted by
    # pub_id, each record's authors in position order, as parsing checks
    records = sorted(CorpusIndex(corpus).values(), key=attrgetter("pub_id"))
    uf = _link_authorships(records, weights, overrides or ())
    return _make_clusters(records, uf)

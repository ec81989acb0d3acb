import itertools
import random

import pytest
from hypothesis import given, strategies as st

from fundmob.corpus import PublicationRecord
from fundmob.disambig import (
    CorpusIndex,
    ManualOverride,
    ScoringWeights,
    block_authorships,
    block_key,
    cluster_block,
    cluster_corpus,
    load_overrides,
    score_pair,
)

from .conftest import make_author, make_record

WEIGHTS = ScoringWeights(
    email=10, affiliation=2, coauthor=4, funder=1, first_name=2, threshold=5
)


class TestBlocking:
    def test_full_name_and_initial_share_block(self):
        records = [
            make_record("a", (make_author(1, "Chen", first="Long"),)),
            make_record("b", (make_author(1, "Chen", initials="L."),)),
        ]
        blocks = block_authorships(records)
        assert blocks == [[("a", 1), ("b", 1)]]

    def test_different_surnames_split(self):
        records = [
            make_record("a", (make_author(1, "Chen", first="Long"),)),
            make_record("b", (make_author(1, "Cheng", first="Long"),)),
        ]
        assert len(block_authorships(records)) == 2

    def test_six_distinct_keys_six_blocks(self):
        surnames = [("Hu", "Jun"), ("Li", "Wei"), ("Ma", "Kai"),
                    ("Xu", "Bo"), ("Yu", "Tao"), ("Wu", "Lan")]
        records = [
            make_record(
                f"p{i}",
                (
                    make_author(1, surnames[2 * i][0], first=surnames[2 * i][1]),
                    make_author(2, surnames[2 * i + 1][0], first=surnames[2 * i + 1][1]),
                ),
            )
            for i in range(3)
        ]
        blocks = block_authorships(records)
        assert len(blocks) == 6
        assert all(len(b) == 1 for b in blocks)

    def test_partition_and_sorted(self):
        records = [
            make_record("a", (make_author(1, "Chen", first="Long"),
                              make_author(2, "Hu", first="Jun"))),
            make_record("b", (make_author(1, "Chen", first="Lei"),)),
        ]
        blocks = block_authorships(records)
        flat = [key for block in blocks for key in block]
        assert sorted(flat) == sorted({("a", 1), ("a", 2), ("b", 1)})
        keys = [block_key(CorpusIndex(records).author(block[0])) for block in blocks]
        assert keys == sorted(keys)


def pair_fixture(author_a, author_b, funding_a=(), funding_b=()):
    records = [
        make_record("a", (author_a,), funding=funding_a),
        make_record("b", (author_b,), funding=funding_b),
    ]
    return CorpusIndex(records), ("a", 1), ("b", 1)


class TestScorePair:
    def test_shared_email_reaches_floor(self):
        index, a, b = pair_fixture(
            make_author(1, "Chen", first="Long", email="x@y.z"),
            make_author(1, "Chen", first="Long", email="X@Y.Z"),
        )
        assert score_pair(index, a, b, WEIGHTS) >= 10

    def test_no_shared_evidence_scores_zero(self):
        index, a, b = pair_fixture(
            make_author(1, "Chen", first="Long"),
            make_author(1, "Chen"),
        )
        assert score_pair(index, a, b, WEIGHTS) == 0

    def test_affiliation_plus_coauthor_sums_to_six(self):
        records = [
            make_record("a", (
                make_author(1, "Chen", first="Long", countries=("CN",), orgs=("Tsinghua",)),
                make_author(2, "Hu", first="Jun"),
            ), funding=("Funder A",)),
            make_record("b", (
                make_author(1, "Chen", countries=("CN",), orgs=("Tsinghua",)),
                make_author(2, "Hu", first="Jian"),
            ), funding=("Funder B",)),
        ]
        index = CorpusIndex(records)
        assert score_pair(index, ("a", 1), ("b", 1), WEIGHTS) == 6

    def test_conflicting_first_names_veto(self):
        index, a, b = pair_fixture(
            make_author(1, "Chen", first="Long", email="x@y.z"),
            make_author(1, "Chen", first="Lei", email="x@y.z"),
        )
        assert score_pair(index, a, b, WEIGHTS) == 0

    def test_initial_only_first_name_is_compatible(self):
        index, a, b = pair_fixture(
            make_author(1, "Chen", first="Long", email="x@y.z"),
            make_author(1, "Chen", first="L.", email="x@y.z"),
        )
        assert score_pair(index, a, b, WEIGHTS) == 10

    def test_hyphenation_does_not_conflict(self):
        index, a, b = pair_fixture(
            make_author(1, "Wang", first="Zhi-Chao", email="x@y.z"),
            make_author(1, "Wang", first="Zhichao", email="x@y.z"),
        )
        # flattened given names match: email + first-name bonus
        assert score_pair(index, a, b, WEIGHTS) == 12

    def test_shared_funder_weight(self):
        index, a, b = pair_fixture(
            make_author(1, "Chen", first="Long"),
            make_author(1, "Chen"),
            funding_a=("China Scholarship Council",),
            funding_b=("china scholarship council",),
        )
        assert score_pair(index, a, b, WEIGHTS) == 1


# -- random fixtures shared with the acceptance suite ------------------------

_FIRSTS = ["Wei", "Wen", "W.", None]
_EMAILS = [None, None, "a@example.org", "b@example.org"]
_ORGS = ["Inst One", "Inst Two", "Inst Three"]
_FUNDERS = ["Funder A", "Funder B"]
_COAUTHORS = [None, ("Zhu", "Kai"), ("Zhu", "Lan")]


def random_block(rng: random.Random, size: int):
    """A block of ``size`` same-surname authorships with random evidence."""
    records: list[PublicationRecord] = []
    keys = []
    for i in range(size):
        authors = [
            make_author(
                1, "Lin",
                first=rng.choice(_FIRSTS),
                email=rng.choice(_EMAILS),
                countries=("CN",),
                orgs=(rng.choice(_ORGS),),
            )
        ]
        co = rng.choice(_COAUTHORS)
        if co:
            authors.append(make_author(2, co[0], first=co[1]))
        record = make_record(f"b{i:02d}", tuple(authors), funding=(rng.choice(_FUNDERS),))
        records.append(record)
        keys.append((record.pub_id, 1))
    return records, keys


def components_oracle(keys, index, weights):
    """Independent connected components of the threshold graph (BFS)."""
    adjacency = {key: set() for key in keys}
    for a, b in itertools.combinations(sorted(keys), 2):
        if score_pair(index, a, b, weights) >= weights.threshold:
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen: set = set()
    components = set()
    for key in sorted(keys):
        if key in seen:
            continue
        frontier = [key]
        component = set()
        while frontier:
            current = frontier.pop()
            if current in component:
                continue
            component.add(current)
            frontier.extend(adjacency[current] - component)
        seen |= component
        components.add(frozenset(component))
    return components


class TestClusterBlock:
    def test_singleton_block(self):
        records = [make_record("a", (make_author(1, "Chen", first="Long"),))]
        clusters = cluster_block([("a", 1)], CorpusIndex(records), WEIGHTS)
        assert len(clusters) == 1
        assert clusters[0].members == frozenset({("a", 1)})
        assert clusters[0].cluster_id == "a#1"

    def test_chain_is_single_linkage(self):
        # a-b linked by email (10), b-c by org+coauthor (6), a-c only by
        # matching first names (2, below threshold): still one cluster
        records = [
            make_record("a", (
                make_author(1, "Chen", first="Long", email="one@x.y",
                            countries=("CN",), orgs=("Org A",)),
                make_author(2, "Hu", first="Jun"),
            )),
            make_record("b", (
                make_author(1, "Chen", email="one@x.y",
                            countries=("CN",), orgs=("Shared Org",)),
                make_author(2, "Zhu", first="Kai"),
            )),
            make_record("c", (
                make_author(1, "Chen", first="Long",
                            countries=("CN",), orgs=("Shared Org",)),
                make_author(2, "Zhu", first="Kai"),
            )),
        ]
        index = CorpusIndex(records)
        keys = [("a", 1), ("b", 1), ("c", 1)]
        assert score_pair(index, ("a", 1), ("b", 1), WEIGHTS) >= WEIGHTS.threshold
        assert score_pair(index, ("b", 1), ("c", 1), WEIGHTS) >= WEIGHTS.threshold
        assert score_pair(index, ("a", 1), ("c", 1), WEIGHTS) < WEIGHTS.threshold
        clusters = cluster_block(keys, index, WEIGHTS)
        assert [c.members for c in clusters] == [frozenset(keys)]

    def test_random_blocks_match_components_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            records, keys = random_block(rng, rng.randint(1, 12))
            index = CorpusIndex(records)
            clusters = cluster_block(keys, index, WEIGHTS)
            assert {c.members for c in clusters} == components_oracle(keys, index, WEIGHTS)
            # partition
            union = set()
            for c in clusters:
                assert not (union & c.members)
                union |= c.members
            assert union == set(keys)

    def test_permutation_invariance(self):
        rng = random.Random(11)
        records, keys = random_block(rng, 10)
        index = CorpusIndex(records)
        reference = cluster_block(keys, index, WEIGHTS)
        for _ in range(5):
            shuffled = keys[:]
            rng.shuffle(shuffled)
            assert cluster_block(shuffled, index, WEIGHTS) == reference

    def test_raising_threshold_only_refines(self):
        rng = random.Random(13)
        for _ in range(20):
            records, keys = random_block(rng, 8)
            index = CorpusIndex(records)
            low = cluster_block(keys, index, WEIGHTS)
            high_weights = ScoringWeights(
                email=10, affiliation=2, coauthor=4, funder=1,
                first_name=2, threshold=WEIGHTS.threshold + 4,
            )
            high = cluster_block(keys, index, high_weights)
            for cluster in high:
                assert any(cluster.members <= parent.members for parent in low)

    def test_display_name_is_modal_with_tie_break(self):
        records = [
            make_record("a", (make_author(1, "Chen", first="Long", email="e@x.y"),)),
            make_record("b", (make_author(1, "Chen", first="Long", email="e@x.y"),)),
        ]
        clusters = cluster_block([("a", 1), ("b", 1)], CorpusIndex(records), WEIGHTS)
        assert clusters[0].display_name == "Chen, Long"


@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_score_pair_symmetry(size, seed):
    records, keys = random_block(random.Random(seed), size)
    index = CorpusIndex(records)
    a, b = keys[0], keys[-1]
    assert score_pair(index, a, b, WEIGHTS) == score_pair(index, b, a, WEIGHTS)


class TestOverridesAndConfig:
    def test_load_weights(self, data_dir):
        weights = ScoringWeights.load(data_dir / "disambig_weights.cfg")
        assert weights.email == 10
        assert weights.threshold == 5

    def test_unknown_weight_key_rejected(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("emial = 3\n")
        with pytest.raises(ValueError):
            ScoringWeights.load(path)

    def test_self_citation_weight_rejected(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("email = 10\nself_citation = 0\n")
        with pytest.raises(ValueError, match="self_citation"):
            ScoringWeights.load(path)

    def test_split_suppresses_direct_edge(self):
        records = [
            make_record("a", (make_author(1, "Chen", first="Long", email="e@x.y"),)),
            make_record("b", (make_author(1, "Chen", first="Long", email="e@x.y"),)),
        ]
        index = CorpusIndex(records)
        override = ManualOverride(a=("a", 1), b=("b", 1), action="SPLIT")
        clusters = cluster_block([("a", 1), ("b", 1)], index, WEIGHTS, [override])
        assert len(clusters) == 2

    def test_merge_forces_pair_together(self):
        records = [
            make_record("a", (make_author(1, "Chen", first="Long"),)),
            make_record("b", (make_author(1, "Chen", first="Lei"),)),
        ]
        index = CorpusIndex(records)
        override = ManualOverride(a=("a", 1), b=("b", 1), action="MERGE")
        clusters = cluster_block([("a", 1), ("b", 1)], index, WEIGHTS, [override])
        assert len(clusters) == 1

    def test_merge_joins_across_blocks(self):
        records = [
            make_record("a", (make_author(1, "Zhang", first="Wei"),)),
            make_record("b", (make_author(1, "Chang", first="Wei"),)),
        ]
        override = ManualOverride(a=("a", 1), b=("b", 1), action="MERGE")
        clusters = cluster_corpus(records, WEIGHTS, [override])
        assert len(clusters) == 1

    def test_load_overrides_file(self, tmp_path):
        path = tmp_path / "ov.tsv"
        path.write_text("# comment\na\t1\tb\t1\tMERGE\nc\t2\td\t3\tsplit\n")
        overrides = load_overrides(path)
        assert overrides == [
            ManualOverride(("a", 1), ("b", 1), "MERGE"),
            ManualOverride(("c", 2), ("d", 3), "SPLIT"),
        ]

    def test_bad_override_line_rejected(self, tmp_path):
        path = tmp_path / "ov.tsv"
        path.write_text("a\t1\tb\t1\tFUSE\n")
        with pytest.raises(ValueError):
            load_overrides(path)


def test_cluster_corpus_permutation_invariance():
    rng = random.Random(17)
    records, _ = random_block(rng, 9)
    reference = cluster_corpus(records, WEIGHTS)
    for _ in range(5):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert cluster_corpus(shuffled, WEIGHTS) == reference

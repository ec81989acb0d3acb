import dataclasses
import gc
import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fundmob import disambig, textnorm
from fundmob.corpus import PublicationRecord, filter_documents, parse_corpus, record_from_dict
from fundmob.disambig import (
    FEATURES,
    CorpusIndex,
    ManualOverride,
    ScoringWeights,
    block_authorships,
    block_key,
    cluster_corpus,
    load_overrides,
    most_frequent,
)
from fundmob.textnorm import normalize_text

from .conftest import DATA_DIR, authorship_table, load_bench_gen, make_author, make_record

WEIGHTS = ScoringWeights(
    email=10, affiliation=2, coauthor=4, funder=1, first_name=2, threshold=5
)


class TestBlocking:
    def test_full_name_and_initial_share_block(self):
        records = [
            make_record("a", (make_author(1, "Chen", first="Long"),)),
            make_record("b", (make_author(1, "Chen", initials="L."),)),
        ]
        keys = list(authorship_table(records))
        blocks = block_authorships(records)
        assert [[keys[i] for i in block] for block in blocks] == [[("a", 1), ("b", 1)]]

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
        table = authorship_table(records)
        keys = list(table)
        blocks = block_authorships(records)
        flat = [keys[i] for block in blocks for i in block]
        assert sorted(flat) == sorted({("a", 1), ("a", 2), ("b", 1)})
        block_keys = [block_key(table[keys[block[0]]]) for block in blocks]
        assert block_keys == sorted(block_keys)


def _reference_surname_key(author):
    return normalize_text(author.last_name).replace(" ", "").replace("-", "")


def _reference_first_initial(author):
    for source in (author.first_name, author.initials):
        if source:
            for ch in normalize_text(source):
                if ch.isalpha():
                    return ch
    return ""


def reference_block_key(author):
    """The block key composed of two helpers, the surname key and the
    first initial: the reference block_key is checked against."""
    return (_reference_surname_key(author), _reference_first_initial(author))


def reference_blocks(records):
    """The key-based reference partition: the keys of all authorships by
    reference block key, blocks in key order, each block's keys sorted."""
    blocks: dict = {}
    for key, author in authorship_table(records).items():
        blocks.setdefault(reference_block_key(author), []).append(key)
    return [sorted(blocks[k]) for k in sorted(blocks)]


#: letters that decompose or case-fold to more than one letter, a bare
#: combining mark, a letter with no case, a space, a hyphen and a dot;
#: and names with no letter, which leave the initial to the initials
_names = (st.text(alphabet="aAbé\u0301ßİﬁØ李 -.", max_size=6)
          | st.text(alphabet=" -.\u0301", max_size=3))
#: a tighter alphabet, so that drawn names often share a block
_short_names = st.text(alphabet="aAé\u0301李 -", max_size=3)


@given(st.builds(make_author, st.just(1), _names,
                 first=st.none() | _names, initials=st.none() | _names))
def test_block_key_is_the_two_helper_reference(author):
    assert block_key(author) == reference_block_key(author)


@st.composite
def shuffled_blocking_corpora(draw):
    """Records whose authors have short, often colliding names, in any
    order, so ids do not follow key order."""
    records = []
    for n in range(draw(st.integers(0, 8))):
        authors = tuple(
            make_author(position, draw(_short_names), first=draw(st.none() | _short_names),
                        initials=draw(st.none() | _short_names))
            for position in range(1, draw(st.integers(1, 4)) + 1)
        )
        records.append(make_record(f"r{n}", authors))
    return draw(st.permutations(records))


@given(shuffled_blocking_corpora())
def test_blocks_are_the_ids_of_the_reference_partition(records):
    # id i is the i-th authorship of the records as given
    keys = list(authorship_table(records))
    blocks = block_authorships(records)
    assert sorted(i for block in blocks for i in block) == list(range(len(keys)))
    assert all(a < b for block in blocks for a, b in itertools.pairwise(block))
    assert [sorted(keys[i] for i in block) for block in blocks] == reference_blocks(records)


def pair_fixture(author_a, author_b, funding_a=(), funding_b=()):
    records = [
        make_record("a", (author_a,), funding=funding_a),
        make_record("b", (author_b,), funding=funding_b),
    ]
    return CorpusIndex(records), ("a", 1), ("b", 1)


class TestReferenceScorePair:
    """The all-pairs reference scorer below, which the clustering oracles use."""

    def test_shared_email_reaches_floor(self):
        index, a, b = pair_fixture(
            make_author(1, "Chen", first="Long", email="x@y.z"),
            make_author(1, "Chen", first="Long", email="X@Y.Z"),
        )
        assert reference_score_pair(index, a, b, WEIGHTS) >= 10

    def test_no_shared_evidence_scores_zero(self):
        index, a, b = pair_fixture(
            make_author(1, "Chen", first="Long"),
            make_author(1, "Chen"),
        )
        assert reference_score_pair(index, a, b, WEIGHTS) == 0

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
        assert reference_score_pair(index, ("a", 1), ("b", 1), WEIGHTS) == 6

    def test_conflicting_first_names_veto(self):
        index, a, b = pair_fixture(
            make_author(1, "Chen", first="Long", email="x@y.z"),
            make_author(1, "Chen", first="Lei", email="x@y.z"),
        )
        assert reference_score_pair(index, a, b, WEIGHTS) == 0

    def test_initial_only_first_name_is_compatible(self):
        index, a, b = pair_fixture(
            make_author(1, "Chen", first="Long", email="x@y.z"),
            make_author(1, "Chen", first="L.", email="x@y.z"),
        )
        assert reference_score_pair(index, a, b, WEIGHTS) == 10

    def test_hyphenation_does_not_conflict(self):
        index, a, b = pair_fixture(
            make_author(1, "Wang", first="Zhi-Chao", email="x@y.z"),
            make_author(1, "Wang", first="Zhichao", email="x@y.z"),
        )
        # flattened given names match: email + first-name bonus
        assert reference_score_pair(index, a, b, WEIGHTS) == 12

    def test_whitespace_only_emails_are_not_shared(self):
        records = [
            record_from_dict({
                "pub_id": pub_id, "pub_year": 2015, "doc_type": "Article",
                "authors": [{"position": 1, "last_name": "Chen",
                             "first_name": "Long", "email": " "}],
            })
            for pub_id in ("a", "b")
        ]
        index = CorpusIndex(records)
        # only the first-name bonus: a blank email is no email
        assert reference_score_pair(index, ("a", 1), ("b", 1), WEIGHTS) == 2
        assert len(cluster_corpus(records, WEIGHTS)) == 2

    def test_shared_funder_weight(self):
        index, a, b = pair_fixture(
            make_author(1, "Chen", first="Long"),
            make_author(1, "Chen"),
            funding_a=("China Scholarship Council",),
            funding_b=("china scholarship council",),
        )
        assert reference_score_pair(index, a, b, WEIGHTS) == 1


# -- the all-pairs reference scorer ------------------------------------------
# The original all-pairs scoring definition, kept verbatim with its helpers so
# the oracles below share no scoring code with the package.
# One difference is intended: the package treats an email that is blank after
# stripping as no email, so no fixture here draws such an email.


def _full_first_name(author):
    """A flattened given name of two or more letters, else None."""
    if not author.first_name:
        return None
    flattened = "".join(
        ch for ch in normalize_text(author.first_name) if ch.isalpha()
    )
    return flattened if len(flattened) >= 2 else None


def _org_keys(author):
    return {normalize_text(a.org_name) for a in author.affiliations if a.org_name.strip()}


def _coauthor_keys(record, position):
    return {
        block_key(a) for a in record.authors if a.position != position
    }


def reference_score_pair(index, a, b, weights):
    record_a, record_b = index[a[0]], index[b[0]]
    author_a, author_b = authorship_table([record_a])[a], authorship_table([record_b])[b]

    first_a, first_b = _full_first_name(author_a), _full_first_name(author_b)
    if first_a and first_b and first_a != first_b:
        return 0.0

    score = 0.0
    if author_a.email and author_b.email:
        if author_a.email.strip().lower() == author_b.email.strip().lower():
            score += weights.email
    if _org_keys(author_a) & _org_keys(author_b):
        score += weights.affiliation
    if _coauthor_keys(record_a, a[1]) & _coauthor_keys(record_b, b[1]):
        score += weights.coauthor
    funders_a = {normalize_text(f) for f in record_a.funding_orgs}
    funders_b = {normalize_text(f) for f in record_b.funding_orgs}
    if funders_a & funders_b:
        score += weights.funder
    if first_a and first_b and first_a == first_b:
        score += weights.first_name
    return score


def _components(nodes, edges):
    """Connected components of an undirected graph (BFS), each a sorted
    tuple, as a cluster's members are."""
    adjacency = {node: set() for node in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen: set = set()
    components = set()
    for node in sorted(nodes):
        if node in seen:
            continue
        frontier = [node]
        component = set()
        while frontier:
            current = frontier.pop()
            if current in component:
                continue
            component.add(current)
            frontier.extend(adjacency[current] - component)
        seen |= component
        components.add(tuple(sorted(component)))
    return components


# -- random fixtures shared with the acceptance suite ------------------------

_FIRSTS = ["Wei", "Wen", "W.", None]
_EMAILS = [None, None, "a@example.org", "b@example.org"]
_ORGS = ["Inst One", "Inst Two", "Inst Three"]
_FUNDERS = ["Funder A", "Funder B"]
_COAUTHORS = [None, ("Zhu", "Kai"), ("Zhu", "Lan")]


def random_block(rng: random.Random, size: int):
    """A block of ``size`` authorships with random evidence. Every one has
    the initials "W.", so all share the block key ("lin", "w")."""
    records: list[PublicationRecord] = []
    keys = []
    for i in range(size):
        authors = [
            make_author(
                1, "Lin",
                first=rng.choice(_FIRSTS),
                initials="W.",
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


def cluster_block(keys, index, weights, overrides=None):
    """The clusters holding the authorships ``keys``, which share one block
    key, from :func:`cluster_corpus` over their records, taken in the
    order ``keys`` names them."""
    records = [index[pub_id] for pub_id in dict.fromkeys(pub_id for pub_id, _ in keys)]
    assert len({block_key(authorship_table(records)[key]) for key in keys}) == 1
    wanted = set(keys)
    return [c for c in cluster_corpus(records, weights, overrides) if not wanted.isdisjoint(c.members)]


def components_oracle(keys, index, weights, overrides=()):
    """Independent connected components of the threshold graph, scoring
    every pair with :func:`reference_score_pair`, without the pairs a
    SPLIT override names."""
    splits = {frozenset((o.a, o.b)) for o in overrides if o.action == "SPLIT"}
    edges = [
        (a, b) for a, b in itertools.combinations(sorted(keys), 2)
        if frozenset((a, b)) not in splits
        and reference_score_pair(index, a, b, weights) >= weights.threshold
    ]
    return _components(keys, edges)


class TestClusterBlock:
    def test_singleton_block(self):
        records = [make_record("a", (make_author(1, "Chen", first="Long"),))]
        clusters = cluster_block([("a", 1)], CorpusIndex(records), WEIGHTS)
        assert len(clusters) == 1
        assert clusters[0].members == (("a", 1),)
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
                make_author(1, "Chen", initials="L.", email="one@x.y",
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
        assert reference_score_pair(index, ("a", 1), ("b", 1), WEIGHTS) >= WEIGHTS.threshold
        assert reference_score_pair(index, ("b", 1), ("c", 1), WEIGHTS) >= WEIGHTS.threshold
        assert reference_score_pair(index, ("a", 1), ("c", 1), WEIGHTS) < WEIGHTS.threshold
        clusters = cluster_block(keys, index, WEIGHTS)
        assert [c.members for c in clusters] == [tuple(keys)]

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
                assert union.isdisjoint(c.members)
                union.update(c.members)
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
                assert any(set(cluster.members) <= set(parent.members) for parent in low)

    def test_coauthors_are_compared_by_block_across_spellings(self):
        # "Hu, Jun" and "HU, J." share a block, so g0 and g1 share a
        # co-author (4) and an org (2); g2's co-author is alone in its
        # block and links g2 to nobody
        records = [
            make_record("g0", (
                make_author(1, "Lin", first="Wei", countries=("CN",), orgs=("Inst One",)),
                make_author(2, "Hu", first="Jun"),
            )),
            make_record("g1", (
                make_author(1, "Lin", initials="W.", countries=("CN",), orgs=("Inst One",)),
                make_author(2, "HU", initials="J."),
            )),
            make_record("g2", (
                make_author(1, "Lin", first="Wei", countries=("CN",), orgs=("Inst One",)),
                make_author(2, "Zhao", first="Min"),
            )),
        ]
        index = CorpusIndex(records)
        keys = list(authorship_table(records))
        assert [[keys[i] for i in block] for block in block_authorships(records)] == [
            [("g0", 2), ("g1", 2)], [("g0", 1), ("g1", 1), ("g2", 1)], [("g2", 2)],
        ]
        lin = [("g0", 1), ("g1", 1), ("g2", 1)]
        block = {c.members for c in cluster_block(lin, index, WEIGHTS)}
        assert block == components_oracle(lin, index, WEIGHTS)
        assert block == {tuple(lin[:2]), tuple(lin[2:])}
        everyone = list(authorship_table(records))
        corpus = {c.members for c in cluster_corpus(records, WEIGHTS)}
        assert corpus == components_oracle(everyone, index, WEIGHTS)
        assert block <= corpus

    def test_display_name_is_modal_with_tie_break(self):
        records = [
            make_record("a", (make_author(1, "Chen", first="Long", email="e@x.y"),)),
            make_record("b", (make_author(1, "Chen", first="Long", email="e@x.y"),)),
        ]
        clusters = cluster_block([("a", 1), ("b", 1)], CorpusIndex(records), WEIGHTS)
        assert clusters[0].display_name == "Chen, Long"


class TestMostFrequent:
    def test_most_frequent_value_wins(self):
        assert most_frequent(["b", "a", "b"]) == "b"

    def test_tie_breaks_to_smallest(self):
        assert most_frequent(["li", "lee", "li", "lee", "chen"]) == "lee"
        assert most_frequent(["Chen, Long", "Chen, L."]) == "Chen, L."

    def test_one_value(self):
        assert most_frequent(["wang"]) == "wang"

    def test_all_values_equal(self):
        assert most_frequent(["Li, Wei"] * 4) == "Li, Wei"

    def test_tie_goes_to_the_smallest_value_even_when_first_is_larger(self):
        # the first value is not the answer unless every value equals it
        assert most_frequent(["zhao", "zhao", "an", "an"]) == "an"
        assert most_frequent(["zhao", "an"]) == "an"


@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_reference_score_pair_symmetry(size, seed):
    records, keys = random_block(random.Random(seed), size)
    index = CorpusIndex(records)
    a, b = keys[0], keys[-1]
    assert reference_score_pair(index, a, b, WEIGHTS) == reference_score_pair(index, b, a, WEIGHTS)


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", [*FEATURES, "threshold"])
    def test_non_finite_weight_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ScoringWeights(**{name: value})

    def test_non_finite_weight_in_file_rejected(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("email = 10\nthreshold = nan\n")
        with pytest.raises(ValueError, match="threshold must be finite, on line 2"):
            ScoringWeights.load(path)

    @pytest.mark.parametrize("text, message", [
        ("coauthor = -1", "weight coauthor must be >= 0, on line 2"),
        ("threshold = 0", "threshold must be > 0, on line 2"),
    ])
    def test_weight_out_of_range_in_file_names_line(self, tmp_path, text, message):
        path = tmp_path / "w.cfg"
        path.write_text(f"# weights\n{text}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScoringWeights.load(path)

    @pytest.mark.parametrize("text", [
        "coauthor = four",
        # float() reads these as 10, 3 and 4
        "coauthor = 1_0", "coauthor = \u0663", "coauthor = \uff14.0",
    ])
    def test_non_numeric_weight_names_key_and_line(self, tmp_path, text):
        path = tmp_path / "w.cfg"
        path.write_text(f"# weights\nemail = 10\n{text}\n")
        with pytest.raises(ValueError, match="'coauthor' on line 3 is not a number"):
            ScoringWeights.load(path)

    @pytest.mark.parametrize("text", ["coauthor", "coauthor = "])
    def test_weight_without_value_is_malformed(self, tmp_path, text):
        path = tmp_path / "w.cfg"
        path.write_text(f"# weights\nemail = 10\n{text}\n")
        with pytest.raises(ValueError, match="malformed line 3"):
            ScoringWeights.load(path)

    @pytest.mark.parametrize("key", ["email", "threshold"])
    def test_weight_given_twice_is_an_error(self, tmp_path, key):
        path = tmp_path / "w.cfg"
        path.write_text(f"{key} = 10\n# again\ncoauthor = 4\n{key} = 7\n")
        with pytest.raises(ValueError, match=f"'{key}' given twice, on lines 1 and 4"):
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

    @pytest.mark.parametrize("line, message", [
        ("a\t1\tb\t1\tFUSE", "bad override on line 2"),
        ("a\tone\tb\t1\tMERGE", "override position on line 2 is not an integer"),
        # int() reads these as 10, 2, 3, 2 and -1
        ("a\t1_0\tb\t1\tMERGE", "override position on line 2 is not an integer"),
        ("a\t1\tb\t+2\tMERGE", "override position on line 2 is not an integer"),
        ("a\t\u0663\tb\t1\tSPLIT", "override position on line 2 is not an integer"),
        ("a\t 2\tb\t1\tMERGE", "override position on line 2 is not an integer"),
        ("a\t-1\tb\t1\tSPLIT", "override position on line 2 is not an integer"),
        # str.upper() maps "ſ" (long s) to "S"
        ("a\t1\tb\t1\t\u017fplit", "bad override on line 2"),
    ])
    def test_bad_override_line_rejected(self, tmp_path, line, message):
        path = tmp_path / "ov.tsv"
        path.write_text(f"# comment\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_overrides(path)


def test_cluster_corpus_permutation_invariance():
    rng = random.Random(17)
    records, _ = random_block(rng, 9)
    reference = cluster_corpus(records, WEIGHTS)
    for _ in range(5):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert cluster_corpus(shuffled, WEIGHTS) == reference


# -- minimal linking sets -------------------------------------------------------


class TestLinkingSets:
    def test_stock_weights_give_five_sets(self, data_dir):
        weights = ScoringWeights.load(data_dir / "disambig_weights.cfg")
        assert disambig._linking_sets(weights) == [
            ("email",),
            ("affiliation", "coauthor"),
            ("coauthor", "funder"),
            ("coauthor", "first_name"),
            ("affiliation", "funder", "first_name"),
        ]

    def test_low_threshold_links_on_each_feature_alone(self):
        weights = ScoringWeights(threshold=0.5)
        assert disambig._linking_sets(weights) == [(name,) for name in FEATURES]

    def test_unreachable_threshold_gives_no_set(self):
        # every weight together adds up to 19
        weights = ScoringWeights(threshold=20)
        assert disambig._linking_sets(weights) == []
        records, _ = random_block(random.Random(3), 12)
        clusters = cluster_corpus(records, weights)
        assert len(clusters) == len(authorship_table(records))

    @pytest.mark.parametrize("name", FEATURES)
    @pytest.mark.parametrize("threshold", [0.5, 2, 5, 9])
    def test_zero_weight_feature_is_in_no_set(self, name, threshold):
        weights = dataclasses.replace(WEIGHTS, threshold=threshold, **{name: 0.0})
        sets = disambig._linking_sets(weights)
        assert sets
        assert all(name not in linking for linking in sets)


def _funder_first_name_block():
    """50 same-block authorships sharing no email, org or co-author; some
    share a full first name or a funder."""
    rng = random.Random(23)
    records = []
    for i in range(50):
        author = make_author(
            1, "Lin", first=rng.choice(["Wei", "Wen", "W.", None]), initials="W.",
            email=f"lin{i}@example.org", countries=("CN",), orgs=(f"Org {i}",),
        )
        funding = tuple(rng.sample(["Funder A", "Funder B", "Funder C", "Funder D"],
                                   rng.randint(0, 1)))
        records.append(make_record(f"w{i:02d}", (author,), funding=funding))
    return records


@pytest.mark.parametrize("patch_sum", [False, True], ids=["plain", "fsum"])
def test_pair_scoring_exactly_the_threshold_is_scored(monkeypatch, patch_sum):
    """affiliation + funder + first_name adds up to 0.6000000000000001 in
    the scorer's order, and to 0.6 when rounded once, as ``math.fsum`` and
    Python 3.12's ``sum`` do. The index must leave affiliation indexed
    whichever way the interpreter's ``sum`` rounds."""
    if patch_sum:
        monkeypatch.setattr(disambig, "sum", math.fsum, raising=False)
    weights = ScoringWeights(email=10, affiliation=0.3, coauthor=4, funder=0.1,
                             first_name=0.2, threshold=0.6000000000000001)
    records = [
        make_record(pub_id, (make_author(1, "Lin", first="Wei", email=email,
                                         countries=("CN",), orgs=("Inst One",)),),
                    funding=("Funder A",))
        for pub_id, email in (("a", "a@example.org"), ("b", "b@example.org"))
    ]
    index = CorpusIndex(records)
    assert reference_score_pair(index, ("a", 1), ("b", 1), weights) == weights.threshold
    clusters = cluster_corpus(records, weights)
    assert [c.members for c in clusters] == [(("a", 1), ("b", 1))]
    assert {c.members for c in clusters} == components_oracle(
        list(authorship_table(records)), index, weights
    )


def _count_unions(monkeypatch):
    unions = []
    union = disambig._UnionFind.union

    def counting(self, a, b):
        unions.append((a, b))
        return union(self, a, b)

    monkeypatch.setattr(disambig._UnionFind, "union", counting)
    return unions


class TestLinkedBlocks:
    def test_block_sharing_no_linking_set_stays_apart(self, monkeypatch):
        # funder 1 + first_name 2 = 3 < 5: shared funders and first names link nobody
        records = _funder_first_name_block()
        assert len(block_authorships(records)) == 1
        unions = _count_unions(monkeypatch)
        clusters = cluster_corpus(records, WEIGHTS)
        assert unions == []
        assert len(clusters) == 50
        index = CorpusIndex(records)
        assert {c.members for c in clusters} == components_oracle(
            list(authorship_table(records)), index, WEIGHTS
        )

    def test_funder_and_first_name_link_when_they_reach_threshold(self):
        records = _funder_first_name_block()
        weights = ScoringWeights(funder=3, first_name=3, threshold=5)
        assert ("funder", "first_name") in disambig._linking_sets(weights)
        clusters = cluster_corpus(records, weights)
        assert len(clusters) < 50
        index = CorpusIndex(records)
        assert {c.members for c in clusters} == components_oracle(
            list(authorship_table(records)), index, weights
        )


def _linked_block(firsts, overrides=()):
    """The clusters of a block of one Lin authorship per given name in
    ``firsts``, each pair sharing an org and a co-author (2 + 4 = 6 >= 5),
    after checking them against the all-pairs reference."""
    records = [
        make_record(f"g{i}", (
            make_author(1, "Lin", first=first, initials="W.",
                        countries=("CN",), orgs=("Inst One",)),
            make_author(2, "Zhu", first="Kai"),
        ))
        for i, first in enumerate(firsts)
    ]
    keys = [(r.pub_id, 1) for r in records]
    index = CorpusIndex(records)
    clusters = cluster_block(keys, index, WEIGHTS, overrides)
    assert {c.members for c in clusters} == components_oracle(keys, index, WEIGHTS, overrides)
    return [sorted(c.members) for c in clusters]


class TestLinkingGroups:
    def test_member_without_full_first_name_bridges_first_names(self):
        assert _linked_block(["Wei", "Wen"]) == [[("g0", 1)], [("g1", 1)]]
        assert _linked_block(["Wei", "W.", "Wen"]) == [[("g0", 1), ("g1", 1), ("g2", 1)]]

    def test_full_first_names_split_the_group(self):
        assert _linked_block(["Wei", "Wen", "Wei", "Wen"]) == [
            [("g0", 1), ("g2", 1)],
            [("g1", 1), ("g3", 1)],
        ]

    def test_group_of_two_with_its_split_pair_stays_split(self, monkeypatch):
        split = ManualOverride(("g0", 1), ("g1", 1), "SPLIT")
        unions = _count_unions(monkeypatch)
        assert _linked_block(["Wei", "Wei"], [split]) == [[("g0", 1)], [("g1", 1)]]
        # union-find works on authorship ids in key order: ("g0", 1) is 0,
        # ("g0", 2) is 1, ("g1", 1) is 2 and ("g1", 2) is 3. Only the
        # co-authors, Zhu Kai on both records, are joined
        assert unions == [(1, 3)]

    def test_group_of_four_with_one_split_pair_stays_one_cluster(self):
        # g0 and g2 are split; each still joins g1 and g3, whose first
        # names do not conflict with "Wei"
        split = ManualOverride(("g2", 1), ("g0", 1), "SPLIT")
        clusters = _linked_block(["Wei", None, "Wei", "W."], [split])
        assert clusters == [[("g0", 1), ("g1", 1), ("g2", 1), ("g3", 1)]]

    def test_split_member_does_not_join_a_conflicting_first_name(self):
        split = ManualOverride(("g0", 1), ("g1", 1), "SPLIT")
        clusters = _linked_block(["Wei", "Wei", "Wen", "Wen"], [split])
        assert clusters == [[("g0", 1)], [("g1", 1)], [("g2", 1), ("g3", 1)]]


# -- linking-set clustering against the all-pairs reference -------------------

_H_SURNAMES = ["Lin", "Li", "Chen"]
_H_FIRSTS = ["Wei", "Wen", "Lei", "W.", None]
_H_EMAILS = [None, "a@example.org", " A@Example.org", "b@example.org"]
_H_ORGS = ["Inst One", "inst one", "Inst Two", "Inst Three"]
_H_FUNDERS = ["Funder A", "funder a", "Funder B", "Funder C"]
_H_WEIGHTS = [0.0, 0.1, 0.2, 1.0, 2.0, 4.0, 10.0]


@st.composite
def corpora_with_overrides(draw):
    """Several records whose authors fall into a few surname + initial
    blocks, sharing orgs, co-authors, emails and funders, plus MERGE and
    SPLIT overrides between random authorships."""
    records = []
    for i in range(draw(st.integers(1, 14))):
        authors = []
        for position in range(1, draw(st.integers(1, 4)) + 1):
            orgs = tuple(draw(st.lists(st.sampled_from(_H_ORGS), max_size=2)))
            authors.append(make_author(
                position, draw(st.sampled_from(_H_SURNAMES)),
                first=draw(st.sampled_from(_H_FIRSTS)),
                initials=draw(st.sampled_from([None, "W.", "L."])),
                email=draw(st.sampled_from(_H_EMAILS)),
                countries=("CN",) * len(orgs), orgs=orgs,
            ))
        funding = tuple(draw(st.lists(st.sampled_from(_H_FUNDERS), max_size=2)))
        records.append(make_record(f"r{i:02d}", tuple(authors), funding=funding))
    keys = [(r.pub_id, a.position) for r in records for a in r.authors]
    overrides = draw(st.lists(
        st.builds(ManualOverride, st.sampled_from(keys), st.sampled_from(keys),
                  st.sampled_from(["MERGE", "SPLIT"])),
        max_size=4,
    ))
    return records, overrides


@st.composite
def scoring_weights(draw):
    values = {name: draw(st.sampled_from(_H_WEIGHTS)) for name in FEATURES}
    if draw(st.booleans()):
        # funder + first_name alone reach the threshold: a linking set of their own
        values["funder"] = draw(st.sampled_from([2.0, 4.0]))
        values["first_name"] = draw(st.sampled_from([2.0, 4.0]))
        threshold = draw(st.sampled_from([0.3, 2.0, 4.0]))
    else:
        threshold = draw(st.sampled_from([0.3, 1.0, 3.0, 5.0, 8.0, 15.0]))
    return ScoringWeights(threshold=threshold, **values)


@settings(max_examples=150, deadline=None)
@given(corpora_with_overrides(), scoring_weights())
def test_cluster_corpus_equals_all_pairs_reference(scenario, weights):
    """cluster_corpus equals the connected components of: every within-block
    pair scoring at least the threshold under reference_score_pair, minus
    SPLIT pairs, plus MERGE pairs."""
    records, overrides = scenario
    index = CorpusIndex(records)
    authorships = authorship_table(records)
    blocks: dict = {}
    for key, author in authorships.items():
        blocks.setdefault(block_key(author), []).append(key)
    splits = {frozenset((o.a, o.b)) for o in overrides if o.action == "SPLIT"}
    edges = [
        (a, b)
        for block in blocks.values()
        for a, b in itertools.combinations(block, 2)
        if frozenset((a, b)) not in splits
        and reference_score_pair(index, a, b, weights) >= weights.threshold
    ]
    edges += [(o.a, o.b) for o in overrides if o.action == "MERGE"]
    clusters = cluster_corpus(records, weights, overrides)
    assert {c.members for c in clusters} == _components(list(authorships), edges)


def _all_pairs_components(records, overrides, weights):
    """The connected components of every within-block pair scoring at least
    the threshold under reference_score_pair, minus SPLIT pairs, plus MERGE
    pairs."""
    index = CorpusIndex(records)
    authorships = authorship_table(records)
    blocks: dict = {}
    for key, author in authorships.items():
        blocks.setdefault(block_key(author), []).append(key)
    splits = {frozenset((o.a, o.b)) for o in overrides if o.action == "SPLIT"}
    edges = [
        (a, b)
        for block in blocks.values()
        for a, b in itertools.combinations(block, 2)
        if frozenset((a, b)) not in splits
        and reference_score_pair(index, a, b, weights) >= weights.threshold
    ]
    edges += [(o.a, o.b) for o in overrides if o.action == "MERGE"]
    return _components(list(authorships), edges)


@st.composite
def corpora_with_block_splits(draw):
    """Records as in corpora_with_overrides, with SPLIT overrides drawn only
    between two authorships of one block, where they can suppress an edge."""
    records, _ = draw(corpora_with_overrides())
    blocks: dict = {}
    for record in records:
        for author in record.authors:
            blocks.setdefault(block_key(author), []).append((record.pub_id, author.position))
    pairs = [pair for block in blocks.values() for pair in itertools.combinations(block, 2)]
    if not pairs:
        return records, []
    drawn = draw(st.lists(st.sampled_from(pairs), max_size=6))
    return records, [ManualOverride(a, b, "SPLIT") for a, b in drawn]


@settings(max_examples=150, deadline=None)
@given(corpora_with_block_splits(), scoring_weights())
def test_block_splits_equal_all_pairs_reference(scenario, weights):
    records, overrides = scenario
    clusters = cluster_corpus(records, weights, overrides)
    assert {c.members for c in clusters} == _all_pairs_components(records, overrides, weights)


@settings(max_examples=150, deadline=None)
@given(corpora_with_overrides(), scoring_weights())
def test_every_parent_is_a_smaller_id_after_linking(scenario, weights):
    """_make_clusters finds every root in one pass in id order, which
    holds only while no id's parent is a larger id: each union anchors
    on the smaller root, and path compression points at a root. The
    overrides MERGE across blocks and SPLIT within and across them."""
    records, overrides = scenario
    uf = disambig._link_authorships(sorted(records, key=lambda r: r.pub_id), weights, overrides)
    assert all(parent <= i for i, parent in enumerate(uf.parent))


# -- authorship ids in key order ----------------------------------------------


def _p_records(firsts):
    """One Lin authorship, with the given name ``firsts[n]``, and a Zhu Kai
    co-author on each record ``P<n>``, all sharing an org, so every Lin
    pair reaches the threshold unless first names conflict."""
    return [
        make_record(f"P{n}", (
            make_author(1, "Lin", first=first, initials="W.",
                        countries=("CN",), orgs=("Inst One",)),
            make_author(2, "Zhu", first="Kai"),
        ))
        for n, first in firsts.items()
    ]


def _check_key_order(clusters):
    """Clusters come ordered by their first member, each anchored on its
    smallest key."""
    anchors = [min(c.members) for c in clusters]
    assert anchors == sorted(anchors)
    assert [c.cluster_id for c in clusters] == [f"{p}#{i}" for p, i in anchors]


class TestAuthorshipIdOrder:
    def test_string_order_of_pub_ids_decides_anchors_and_order(self):
        # "P10" < "P11" < "P2" < "P9" as strings
        records = _p_records({9: "Wei", 10: "Wen", 2: "Wei", 11: None})
        clusters = cluster_corpus(records, WEIGHTS)
        assert {c.members for c in clusters} == _all_pairs_components(records, [], WEIGHTS)
        _check_key_order(clusters)
        # P11 has no full first name, so it bridges Wei and Wen
        assert [c.cluster_id for c in clusters] == ["P10#1", "P10#2"]
        rng = random.Random(5)
        for _ in range(4):
            rng.shuffle(records)
            assert cluster_corpus(records, WEIGHTS) == clusters

    def test_overrides_naming_absent_authorships_are_ignored(self, caplog):
        records = _p_records({9: "Wei", 10: "Wen", 2: "Wei"})
        stray = [
            ManualOverride(("P9", 1), ("P3", 1), "MERGE"),
            ManualOverride(("P10", 1), ("P9", 7), "MERGE"),
            ManualOverride(("P2", 1), ("P1", 1), "SPLIT"),
            ManualOverride(("X", 1), ("Y", 1), "SPLIT"),
        ]
        with caplog.at_level("WARNING", logger="fundmob"):
            clusters = cluster_corpus(records, WEIGHTS, stray)
        assert caplog.messages == [
            f"{o.action} override of {o.a[0]} {o.a[1]} and {o.b[0]} {o.b[1]} "
            "names no authorship of the corpus; ignored"
            for o in stray
        ]
        assert clusters == cluster_corpus(records, WEIGHTS)
        assert {c.members for c in clusters} == _all_pairs_components(records, [], WEIGHTS)

    def test_duplicate_pub_id_is_rejected(self):
        records = _p_records({9: "Wei", 10: "Wen", 2: "Wei"})
        with pytest.raises(ValueError, match="duplicate pub_id: P9"):
            cluster_corpus(records + records[:1], WEIGHTS)

    def test_corpus_index_is_the_records_dict_refusing_a_duplicate(self):
        records = _p_records({9: "Wei", 10: "Wen", 2: "Wei"})
        index = CorpusIndex(records)
        assert isinstance(index, dict)
        assert index == {record.pub_id: record for record in records}
        with pytest.raises(ValueError, match="duplicate pub_id: P9"):
            CorpusIndex(records + records[:1])

    @pytest.mark.parametrize("action", ["MERGE", "SPLIT"])
    def test_override_naming_one_authorship_on_both_sides(self, action):
        records = _p_records({9: "Wei", 10: "Wen", 2: "Wei"})
        for key in (("P9", 1), ("P10", 2), ("P2", 1)):
            overrides = [ManualOverride(key, key, action)]
            clusters = cluster_corpus(records, WEIGHTS, overrides)
            assert clusters == cluster_corpus(records, WEIGHTS)
            assert {c.members for c in clusters} == _all_pairs_components(records, overrides, WEIGHTS)


@st.composite
def shuffled_corpora_with_stray_overrides(draw):
    """Records as in corpora_with_overrides, renamed ``P<n>`` so that the
    string order of their ids is not their numeric order, in any order,
    with overrides that name one authorship on both sides."""
    records, overrides = draw(corpora_with_overrides())
    numbers = draw(st.lists(st.integers(1, 120), min_size=len(records),
                            max_size=len(records), unique=True))
    names = {r.pub_id: f"P{n}" for r, n in zip(records, numbers)}
    rename = lambda key: (names[key[0]], key[1])
    records = [dataclasses.replace(r, pub_id=names[r.pub_id]) for r in records]
    overrides = [ManualOverride(rename(o.a), rename(o.b), o.action) for o in overrides]
    keys = [(r.pub_id, a.position) for r in records for a in r.authors]
    overrides += draw(st.lists(
        st.builds(lambda key, action: ManualOverride(key, key, action),
                  st.sampled_from(keys), st.sampled_from(["MERGE", "SPLIT"])),
        max_size=2,
    ))
    return draw(st.permutations(records)), draw(st.permutations(overrides))


@settings(max_examples=100, deadline=None)
@given(shuffled_corpora_with_stray_overrides(), scoring_weights())
def test_shuffled_records_cluster_in_key_order(scenario, weights):
    records, overrides = scenario
    clusters = cluster_corpus(records, weights, overrides)
    assert {c.members for c in clusters} == _all_pairs_components(records, overrides, weights)
    _check_key_order(clusters)
    # members strictly increase and clusters come in anchor order, so
    # clusters.tsv lists every authorship in key order without a sort
    assert all(type(c.members) is tuple for c in clusters)
    assert all(a < b for c in clusters for a, b in itertools.pairwise(c.members))
    anchors = [c.members[0] for c in clusters]
    assert all(a < b for a, b in itertools.pairwise(anchors))
    ordered = sorted(records, key=lambda r: r.pub_id)
    assert clusters == cluster_corpus(ordered, weights, overrides)
    stray = [ManualOverride(("P0", 1), o.b, o.action) for o in overrides]
    assert cluster_corpus(records, weights, overrides + stray) == clusters


# -- work counters at 1x and 4x a benchmark corpus ------------------------------


def test_normalizations_per_authorship_do_not_grow_with_the_corpus(monkeypatch):
    """Clustering normalizes each distinct string once, so the work per
    authorship stays flat, and below one, as the corpus grows. Only a miss
    of the ``normalize_text`` memo reaches ``strip_accents``. Each
    authorship's block key is computed once, in the blocking pass, and
    unions stay below one per authorship."""
    gen = load_bench_gen(monkeypatch)
    calls, keyed = [], []
    strip_accents, real_block_key = textnorm.strip_accents, disambig.block_key

    def counting(text):
        calls.append(text)
        return strip_accents(text)

    def counting_keys(author):
        keyed.append(author)
        return real_block_key(author)

    monkeypatch.setattr(textnorm, "strip_accents", counting)
    monkeypatch.setattr(disambig, "block_key", counting_keys)
    unions = _count_unions(monkeypatch)
    per_authorship = []
    for scale in (1, 4):
        spec = dataclasses.replace(gen.SPECS["cn-skewed"], records=1800 * scale)
        lines = gen.generate("cn-skewed", 5, DATA_DIR, spec=spec).lines
        records = filter_documents(parse_corpus(lines).records)
        normalize_text.cache_clear()
        calls.clear()
        keyed.clear()
        unions.clear()
        cluster_corpus(records, WEIGHTS)
        authorships = sum(len(r.authors) for r in records)
        per_authorship.append(len(calls) / authorships)
        assert len(keyed) == authorships
        assert len(unions) / authorships < 1
    at_1x, at_4x = per_authorship
    assert at_4x <= at_1x < 1


@pytest.mark.parametrize(
    "workload, authorship_count", [("cn-skewed", 7560), ("initials-dense", 5590)]
)
def test_clustering_memory_per_authorship_is_bounded(monkeypatch, workload, authorship_count):
    """The traced peak of one ``cluster_corpus`` call, per authorship, on
    a benchmark corpus at seed 3: about 340 bytes on cn-skewed and 360 on
    initials-dense, whose authors hold several affiliations. The feature
    rows hold every feature as a tuple of distinct values and are dropped
    before the key tuples and clusters are built, and no authorship table
    is built. A row table that holds frozensets or lives on through
    cluster building breaks the bound. Resident memory cannot show this:
    a process never gives its high-water mark back.

    A full collection first empties the interpreter's free lists, so the
    reading does not depend on what ran before: an object taken from a
    free list is not traced, and one freed into it stays counted."""
    gen = load_bench_gen(monkeypatch)
    records = filter_documents(parse_corpus(gen.generate(workload, 3, DATA_DIR).lines).records)
    authorships = sum(len(r.authors) for r in records)
    # the first call fills the normalize_text memo, which outlives it
    expected = cluster_corpus(records, WEIGHTS)
    gc.collect()
    tracemalloc.start()
    try:
        clusters = cluster_corpus(records, WEIGHTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clusters == expected
    assert authorships == authorship_count
    assert peak / authorships < 400

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fundmob.disambig import CorpusIndex, ResearcherCluster
from fundmob.mobility import (
    FlowTable,
    MobilityAssignment,
    Outcome,
    Rule,
    SurnameList,
    aggregate_flows,
    collect_countries,
    infer_destination,
    is_mainland_chinese_scholar,
    load_field_map,
    modal_surname,
    scholar_field_profile,
    top_destinations_by_field,
)

from .conftest import make_author, make_record

SURNAMES = SurnameList(frozenset({"chen", "wang", "li", "zhao", "sun"}))


def cluster_for(cid, members):
    return ResearcherCluster(cluster_id=cid, members=tuple(sorted(members)),
                             display_name=cid)


class TestChineseScholarFilter:
    def test_modal_surname_in_list(self):
        records = [make_record("a", (make_author(1, "Chen", first="Long"),))]
        cluster = cluster_for("c", [("a", 1)])
        assert is_mainland_chinese_scholar(cluster, SURNAMES, CorpusIndex(records))

    def test_non_chinese_surname(self):
        records = [make_record("a", (make_author(1, "Bernreuther", first="Werner"),))]
        cluster = cluster_for("c", [("a", 1)])
        assert not is_mainland_chinese_scholar(cluster, SURNAMES, CorpusIndex(records))

    def test_tie_breaks_to_lexicographic_smallest(self):
        records = [
            make_record("a", (make_author(1, "Li", first="Wei"),)),
            make_record("b", (make_author(1, "Li", first="Wei"),)),
            make_record("c", (make_author(1, "Lee", first="Wei"),)),
            make_record("d", (make_author(1, "Lee", first="Wei"),)),
        ]
        index = CorpusIndex(records)
        cluster = cluster_for("c", [("a", 1), ("b", 1), ("c", 1), ("d", 1)])
        # "lee" < "li", and "lee" is not a listed mainland surname
        assert modal_surname(cluster, index) == "lee"
        assert not is_mainland_chinese_scholar(cluster, SURNAMES, index)


class TestCollectCountries:
    def test_own_countries_on_during_papers(self):
        records = [make_record("a", (
            make_author(1, "Chen", countries=("CN", "NL")),
        ))]
        cluster = cluster_for("c", [("a", 1)])
        own, _ = collect_countries(cluster, CorpusIndex(records), {"a"})
        assert set(own) == {"CN", "NL"}

    def test_no_affiliations_gives_empty(self):
        records = [make_record("a", (make_author(1, "Chen"),))]
        cluster = cluster_for("c", [("a", 1)])
        assert collect_countries(cluster, CorpusIndex(records), {"a"}) == (Counter(), Counter())

    def test_coauthor_distinct_set(self):
        records = [
            make_record("a", (
                make_author(1, "Chen", countries=("CN",)),
                make_author(2, "Smith", countries=("US",)),
            )),
            make_record("b", (
                make_author(1, "Chen", countries=("CN",)),
                make_author(2, "Jones", countries=("US", "CN")),
            )),
        ]
        cluster = cluster_for("c", [("a", 1), ("b", 1)])
        _, coauthor = collect_countries(cluster, CorpusIndex(records), {"a", "b"})
        assert set(coauthor) == {"US", "CN"}

    def test_own_and_coauthor_from_one_call(self):
        records = [
            make_record("a", (
                make_author(1, "Chen", countries=("CN", "NL")),
                make_author(2, "Smith", countries=("US", "Unknown")),
            )),
            # the cluster holds both authorships of this paper: each is
            # the other's co-author
            make_record("b", (
                make_author(1, "Chen", countries=("DE",)),
                make_author(2, "Chen", countries=("FR",)),
            )),
            make_record("c", (make_author(1, "Chen", countries=("JP",)),)),
        ]
        cluster = cluster_for("c", [("a", 1), ("b", 1), ("b", 2), ("c", 1)])
        own, coauthor = collect_countries(cluster, CorpusIndex(records), {"a", "b"})
        assert own == Counter({"CN": 1, "NL": 1, "DE": 1, "FR": 1})
        assert coauthor == Counter({"US": 1, "DE": 1, "FR": 1})

    def test_unknown_dropped_and_non_during_ignored(self):
        records = [
            make_record("a", (make_author(1, "Chen", countries=("Unknown", "DE")),)),
            make_record("b", (make_author(1, "Chen", countries=("FR",)),)),
        ]
        cluster = cluster_for("c", [("a", 1), ("b", 1)])
        own, _ = collect_countries(cluster, CorpusIndex(records), {"a"})
        assert set(own) == {"DE"}


def reference_collect_countries(cluster, index, during_pub_ids):
    """The Counter-based definition: one pass per authorship of the
    cluster on a during paper, own countries from it, co-author countries
    from every other author of the paper."""
    own, coauthor = Counter(), Counter()
    for pub_id, position in cluster.members:
        if pub_id in during_pub_ids:
            for author in index[pub_id].authors:
                countries = [a.country for a in author.affiliations if a.country != "Unknown"]
                (own if author.position == position else coauthor).update(countries)
    return own, coauthor


@st.composite
def country_clusters(draw):
    """Papers of one to four authors with zero to three countries each,
    Unknown among them, a cluster of some of their authorships (two of one
    paper at times), and a during set that leaves some papers out."""
    countries = st.lists(st.sampled_from(["CN", "US", "DE", "Unknown"]), max_size=3)
    records = [
        make_record(f"p{i}", tuple(
            make_author(n, "Chen", countries=tuple(draw(countries)))
            for n in range(1, draw(st.integers(1, 4)) + 1)
        ))
        for i in range(draw(st.integers(1, 5)))
    ]
    keys = [(r.pub_id, a.position) for r in records for a in r.authors]
    members = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    during = set(draw(st.lists(st.sampled_from([r.pub_id for r in records]))))
    return cluster_for("c", members), CorpusIndex(records), during


class TestCollectCountriesContract:
    def test_counts_are_plain_dicts(self):
        records = [make_record("a", (
            make_author(1, "Chen", countries=("CN", "NL")),
            make_author(2, "Smith", countries=("US",)),
        ))]
        own, coauthor = collect_countries(cluster_for("c", [("a", 1)]), CorpusIndex(records), {"a"})
        assert type(own) is dict and type(coauthor) is dict
        assert (own, coauthor) == ({"CN": 1, "NL": 1}, {"US": 1})

    @given(country_clusters())
    def test_counts_equal_the_counter_reference(self, drawn):
        cluster, index, during = drawn
        assert collect_countries(cluster, index, during) == reference_collect_countries(
            cluster, index, during)


class TestInferDestination:
    def test_own_single_foreign(self):
        a = infer_destination({"DE"}, set())
        assert (a.outcome, a.destination, a.rule_fired) == (
            Outcome.DESTINATION, "DE", Rule.OWN_SINGLE_FOREIGN)

    def test_own_china_plus_one(self):
        a = infer_destination({"CN", "NL"}, set())
        assert (a.outcome, a.destination, a.rule_fired) == (
            Outcome.DESTINATION, "NL", Rule.OWN_CHINA_PLUS_ONE)

    def test_coauthor_single_foreign(self):
        a = infer_destination({"CN"}, {"CN", "US"})
        assert (a.outcome, a.destination, a.rule_fired) == (
            Outcome.DESTINATION, "US", Rule.COAUTHOR_SINGLE_FOREIGN)

    def test_multi_foreign_own(self):
        a = infer_destination({"FR", "DE"}, set())
        assert a.outcome is Outcome.UNIDENTIFIED_MULTI_FOREIGN
        assert a.rule_fired is Rule.MULTI_FOREIGN_OWN

    def test_china_only(self):
        a = infer_destination({"CN"}, {"CN"})
        assert a.outcome is Outcome.UNIDENTIFIED_CHINA_ONLY
        assert a.rule_fired is Rule.NO_FOREIGN_SIGNAL

    def test_empty_own_with_single_foreign_coauthor(self):
        a = infer_destination(set(), {"JP"})
        assert (a.outcome, a.destination, a.rule_fired) == (
            Outcome.DESTINATION, "JP", Rule.COAUTHOR_SINGLE_FOREIGN)

    def test_hong_kong_is_a_valid_destination(self):
        a = infer_destination({"CN", "HK"}, set())
        assert a.destination == "HK"


_OUTCOME_OF = {
    Rule.OWN_SINGLE_FOREIGN: Outcome.DESTINATION,
    Rule.OWN_CHINA_PLUS_ONE: Outcome.DESTINATION,
    Rule.COAUTHOR_SINGLE_FOREIGN: Outcome.DESTINATION,
    Rule.MULTI_FOREIGN_OWN: Outcome.UNIDENTIFIED_MULTI_FOREIGN,
    Rule.NO_FOREIGN_SIGNAL: Outcome.UNIDENTIFIED_CHINA_ONLY,
}
_DESTINATION_RULES = {rule for rule, outcome in _OUTCOME_OF.items() if outcome is Outcome.DESTINATION}


class TestAssignment:
    @pytest.mark.parametrize("rule", list(Rule))
    def test_every_rule_has_an_outcome(self, rule):
        destination = "US" if rule in _DESTINATION_RULES else None
        assert MobilityAssignment("c", rule, destination).outcome is _OUTCOME_OF[rule]

    @pytest.mark.parametrize("rule", list(Rule))
    def test_destination_set_exactly_for_destination(self, rule):
        with pytest.raises(ValueError, match="destination set iff"):
            if rule in _DESTINATION_RULES:
                MobilityAssignment("c", rule)
            else:
                MobilityAssignment("c", rule, "US")

    def test_mainland_china_is_never_a_destination(self):
        with pytest.raises(ValueError, match="mainland China"):
            MobilityAssignment("c", Rule.OWN_SINGLE_FOREIGN, "CN")


def oracle_decision(own: frozenset, coauthor: frozenset):
    """Independent decision table: five mutually-exclusive predicates."""
    foreign_own = own - {"CN"}
    foreign_co = coauthor - {"CN"}
    predicates = {
        Rule.OWN_SINGLE_FOREIGN: len(own) == 1 and "CN" not in own,
        Rule.OWN_CHINA_PLUS_ONE: len(own) == 2 and "CN" in own,
        Rule.COAUTHOR_SINGLE_FOREIGN: own <= {"CN"} and len(foreign_co) == 1,
        Rule.MULTI_FOREIGN_OWN: len(foreign_own) >= 2,
        Rule.NO_FOREIGN_SIGNAL: own <= {"CN"} and len(foreign_co) != 1,
    }
    fired = [rule for rule, hit in predicates.items() if hit]
    assert len(fired) == 1, (own, coauthor, fired)
    rule = fired[0]
    if rule is Rule.OWN_SINGLE_FOREIGN:
        destination = next(iter(own))
    elif rule is Rule.OWN_CHINA_PLUS_ONE:
        destination = next(iter(foreign_own))
    elif rule is Rule.COAUTHOR_SINGLE_FOREIGN:
        destination = next(iter(foreign_co))
    else:
        destination = None
    return rule, destination


def all_subsets(universe):
    return [
        frozenset(combo)
        for size in range(len(universe) + 1)
        for combo in itertools.combinations(universe, size)
    ]


class TestDecisionTableOracle:
    def test_exhaustive_three_country_universe(self):
        universe = ("CN", "US", "DE")
        cases = 0
        for own in all_subsets(universe):
            for coauthor in all_subsets(universe):
                cases += 1
                expected_rule, expected_dest = oracle_decision(own, coauthor)
                got = infer_destination(own, coauthor)
                assert got.rule_fired is expected_rule
                assert got.destination == expected_dest
                assert got.destination != "CN"
        assert cases == 64

    def test_randomized_ten_country_universe(self):
        universe = ["CN", "US", "DE", "UK", "FR", "NL", "JP", "AU", "CA", "SE"]
        rng = random.Random(31)
        for _ in range(500):
            own = frozenset(rng.sample(universe, rng.randint(0, 4)))
            coauthor = frozenset(rng.sample(universe, rng.randint(0, 5)))
            expected_rule, expected_dest = oracle_decision(own, coauthor)
            got = infer_destination(own, coauthor)
            assert got.rule_fired is expected_rule
            assert got.destination == expected_dest
            assert got.destination != "CN"


class TestAggregateFlows:
    def test_empty(self):
        flows = aggregate_flows([])
        assert flows == FlowTable(destinations=(), unidentified=())

    def test_counts_and_order(self):
        assignments = [
            MobilityAssignment("c1", Rule.OWN_SINGLE_FOREIGN, "US"),
            MobilityAssignment("c2", Rule.OWN_SINGLE_FOREIGN, "US"),
            MobilityAssignment("c3", Rule.OWN_CHINA_PLUS_ONE, "US"),
            MobilityAssignment("c4", Rule.OWN_SINGLE_FOREIGN, "DE"),
            MobilityAssignment("c5", Rule.NO_FOREIGN_SIGNAL),
        ]
        flows = aggregate_flows(assignments)
        assert flows.destinations == (("US", 3), ("DE", 1))
        assert flows.unidentified == (("UnidentifiedChinaOnly", 1),)

    def test_conservation(self):
        assignments = [
            MobilityAssignment("c1", Rule.OWN_SINGLE_FOREIGN, "US"),
            MobilityAssignment("c2", Rule.MULTI_FOREIGN_OWN),
            MobilityAssignment("c3", Rule.NO_FOREIGN_SIGNAL),
        ]
        flows = aggregate_flows(assignments)
        assert sum(n for _, n in flows.destinations + flows.unidentified) == len(assignments)


# records hold top-level field names: corpus.parse_corpus reads the field map
FA, FB = "Field A", "Field B"


def destination(cid, code):
    return MobilityAssignment(cid, Rule.OWN_SINGLE_FOREIGN, code)


def top_destinations_fixture():
    records = [
        make_record("r1", (make_author(1, "Chen"),),
                    weights=((FA, 0.6), (FB, 0.4))),
        make_record("r2", (make_author(1, "Wang"),), weights=((FA, 1.0),)),
        make_record("r3", (make_author(1, "Li"),), weights=((FA, 1.0),)),
        make_record("r4", (make_author(1, "Li"),), weights=((FB, 1.0),)),
        make_record("r5", (make_author(1, "Sun"),)),
    ]
    during = {"s1": {"r1"}, "s2": {"r2"}, "s3": {"r3", "r4"}, "s4": {"r5"}}
    assignments = [
        destination("s1", "US"),
        destination("s2", "US"),
        destination("s3", "DE"),
        destination("s4", "NL"),
    ]
    return records, during, assignments


class TestTopDestinations:
    def test_single_scholar_single_field(self):
        records = [make_record("r", (make_author(1, "Chen"),), weights=((FA, 1.0),))]
        result = top_destinations_by_field(
            [destination("s", "US")], CorpusIndex(records),
            {"s": {"r"}}, k=10,
        )
        assert result.per_field == {"Field A": [("US", 1.0)]}
        assert result.excluded_scholars == 0

    def test_even_split_contributes_half_to_each(self):
        records = [make_record("r", (make_author(1, "Chen"),),
                               weights=((FA, 0.5), (FB, 0.5)))]
        result = top_destinations_by_field(
            [destination("s", "US")], CorpusIndex(records),
            {"s": {"r"}}, k=10,
        )
        assert result.per_field == {
            "Field A": [("US", 0.5)],
            "Field B": [("US", 0.5)],
        }

    def test_four_scholar_fixture_matches_hand_table(self):
        records, during, assignments = top_destinations_fixture()
        index = CorpusIndex(records)
        result = top_destinations_by_field(
            assignments, index, during, k=10
        )
        # hand-computed: s1 splits 0.6/0.4; s2 adds 1.0 to A; s3 has two
        # during papers, one per field, so 0.5 each; s4 has no weights
        assert result.per_field["Field A"] == [("US", 1.6), ("DE", 0.5)]
        assert result.per_field["Field B"] == [("DE", 0.5), ("US", 0.4)]
        assert result.excluded_scholars == 1

    def test_matrix_mass_conserved(self):
        records, during, assignments = top_destinations_fixture()
        index = CorpusIndex(records)
        # k covers every destination, so no ranking is cut
        k = len({a.destination for a in assignments})
        result = top_destinations_by_field(
            assignments, index, during, k=k
        )
        total = sum(n for ranking in result.per_field.values() for _, n in ranking)
        scholars_with_weights = len(assignments) - result.excluded_scholars
        assert abs(total - scholars_with_weights) < 1e-9

    def test_profile_normalizes_to_unit_mass(self):
        records, during, _ = top_destinations_fixture()
        profile = scholar_field_profile(during["s3"], CorpusIndex(records))
        assert abs(sum(profile.values()) - 1.0) < 1e-12

    def test_unmapped_field_ids_kept(self):
        # an id the field map leaves unmapped keeps its own name, as in the
        # PP(IC) and field-distribution tables
        records = [make_record("r", (make_author(1, "Chen"),),
                               weights=(("mystery", 1.0),))]
        result = top_destinations_by_field(
            [destination("s", "US")], CorpusIndex(records),
            {"s": {"r"}}, k=10,
        )
        assert result.per_field == {"mystery": [("US", 1.0)]}
        assert result.excluded_scholars == 0


def test_load_field_map(data_dir):
    mapping = load_field_map(data_dir / "field_map.tsv")
    assert mapping["phys"] == "Physical Sciences and Engineering"
    assert mapping["soc"] == "Social Sciences and Humanities"


def test_field_id_given_twice_is_an_error(tmp_path):
    path = tmp_path / "fields.tsv"
    path.write_text("phys\tPhysics\nchem\tChemistry\n phys \tPhysical Sciences\n")
    with pytest.raises(ValueError, match="'phys' given twice, on lines 1 and 3"):
        load_field_map(path)


def test_field_name_holding_a_tab_is_an_error(tmp_path):
    path = tmp_path / "fields.tsv"
    path.write_text("# field_id<TAB>name\nphys\tPhysics\tand Engineering\n")
    with pytest.raises(ValueError, match="field name on line 2 holds a tab"):
        load_field_map(path)


def test_field_named_total_is_an_error(tmp_path):
    # pp_ic already adds every record to the (period, "Total") row
    path = tmp_path / "fields.tsv"
    path.write_text("phys\tPhysics\nchem\tTotal\n")
    with pytest.raises(ValueError, match="'Total' on line 2 names the whole-period row"):
        load_field_map(path)


def test_field_name_starting_with_a_hash_is_an_error(tmp_path):
    # a field name opens rows of field_distribution.tsv, whose readers
    # skip a line starting with "#" as a comment
    path = tmp_path / "fields.tsv"
    path.write_text("# field_id<TAB>name\nphys\tPhysics\nchem\t#Chemistry\n")
    with pytest.raises(ValueError, match="'#Chemistry' on line 3 starts with '#'"):
        load_field_map(path)


def test_leading_byte_order_mark_is_dropped_from_surnames(tmp_path):
    path = tmp_path / "surnames.txt"
    path.write_bytes(b"\xef\xbb\xbfwang\nli\n")
    surnames = SurnameList.load(path)
    assert "wang" in surnames
    assert "li" in surnames


def test_load_surnames(data_dir):
    surnames = SurnameList.load(data_dir / "surnames_cn.txt")
    assert "chen" in surnames
    assert "Chen" in surnames
    assert "bernreuther" not in surnames

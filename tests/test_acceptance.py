"""Acceptance suite: one test per criterion, each at its stated tolerance
and time budget. The conftest terminal hook prints a pass/fail line per
criterion at the end of the run."""
import json
import math
import random
import time

import pytest

from fundmob.ackminer import MatchKind, mine_record
from fundmob.disambig import CorpusIndex
from fundmob.indicators import TOTAL_FIELD, field_distribution, pp_ic, temporal_distribution
from fundmob.mobility import infer_destination
from fundmob.periods import Label, funded_pub_ids, label_corpus
from fundmob.pipeline import PipelineConfig, run_pipeline

from .conftest import make_author, make_record
from .test_disambig import WEIGHTS, cluster_block, components_oracle, random_block
from .test_indicators import is_international_collab, random_corpus
from .test_mobility import all_subsets, oracle_decision
from .test_periods import _COARSE, random_scenario, transcribed_labels


@pytest.fixture
def demo_config_factory(data_dir, tmp_path):
    def factory(out_name="out", **overrides):
        kwargs = dict(
            input=data_dir / "demo" / "corpus.jsonl",
            lexicon=data_dir / "lexicon_csc.txt",
            surnames=data_dir / "surnames_cn.txt",
            field_map=data_dir / "field_map.tsv",
            country_aliases=data_dir / "country_aliases.tsv",
            disambig_config=data_dir / "disambig_weights.cfg",
            out_dir=tmp_path / out_name,
        )
        kwargs.update(overrides)
        return PipelineConfig(**kwargs)
    return factory


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.monotonic() - self.start < self.seconds


def test_criterion_1_worked_example_fidelity(data_dir, tmp_path, demo_config_factory, lexicon):
    """Paper 000373106500002 fixture: exactly author position 2 (Chen, L)
    is identified as funded, via the name "Long Chen"."""
    with Budget(1.0):
        lines = (data_dir / "demo" / "corpus.jsonl").read_text().splitlines()
        worked = json.loads(lines[0])
        assert worked["authors"][0]["full_name"] == "Bernreuther, Werner"
        assert worked["authors"][1]["full_name"] == "Chen, Long"
        single = tmp_path / "worked.jsonl"
        single.write_text(lines[0] + "\n")

        config = demo_config_factory("worked_out", input=single)
        run_pipeline(config)
        rows = [
            line.split("\t")
            for line in (config.out_dir / "funded_scholars.tsv").read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        assert [(r[0], int(r[1])) for r in rows] == [("P001", 2)]
        assert rows[0][4] == "NameMatch"
        assert rows[0][5] == "long chen"


def test_criterion_2_ordinal_matching(lexicon):
    """"The Nth author acknowledges ..." identifies exactly author N for
    N = 1..10 on a ten-author fixture, in word and numeric form."""
    with Budget(1.0):
        surnames = ["Abbott", "Becker", "Carter", "Dalton", "Ellis",
                    "Foster", "Garner", "Harper", "Irwin", "Jenkins"]
        authors = tuple(
            make_author(i + 1, last, first="Pat") for i, last in enumerate(surnames)
        )
        words = ["first", "second", "third", "fourth", "fifth",
                 "sixth", "seventh", "eighth", "ninth", "tenth"]
        suffixes = ["1st", "2nd", "3rd", "4th", "5th",
                    "6th", "7th", "8th", "9th", "10th"]
        for n in range(1, 11):
            for phrase in (words[n - 1], suffixes[n - 1]):
                record = make_record(
                    f"ord{n}",
                    authors,
                    ack=(
                        f"The {phrase} author acknowledges the "
                        "China Scholarship Council."
                    ),
                )
                _, matches = mine_record(record, lexicon)
                assert [m.author_position for m in matches] == [n], phrase
                assert matches[0].match_kind is MatchKind.ORDINAL


def test_criterion_3_mobility_decision_table_oracle():
    """infer_destination agrees with an independent decision-table oracle
    on all 64 own/co-author set pairs over {CN, US, DE} and on 1,000
    randomized pairs over a ten-country universe; exactly one rule fires;
    the destination is never mainland China."""
    with Budget(1.0):
        cases = 0
        for own in all_subsets(("CN", "US", "DE")):
            for coauthor in all_subsets(("CN", "US", "DE")):
                cases += 1
                rule, destination = oracle_decision(own, coauthor)
                got = infer_destination(own, coauthor)
                assert got.rule_fired is rule
                assert got.destination == destination
                assert got.destination != "CN"
        assert cases == 64

        universe = ["CN", "US", "DE", "UK", "FR", "NL", "JP", "AU", "CA", "SE"]
        rng = random.Random(101)
        for _ in range(1000):
            own = frozenset(rng.sample(universe, rng.randint(0, 5)))
            coauthor = frozenset(rng.sample(universe, rng.randint(0, 6)))
            rule, destination = oracle_decision(own, coauthor)
            got = infer_destination(own, coauthor)
            assert got.rule_fired is rule
            assert got.destination == destination
            assert got.destination != "CN"


def test_criterion_4_period_classification_oracle(lexicon):
    """On 500 randomized synthetic scholar timelines the classify and
    reconcile output equals a direct transcription of the textual rules."""
    with Budget(5.0):
        rng = random.Random(103)
        for _ in range(500):
            papers, records, clusters = random_scenario(rng)
            funded = funded_pub_ids(records, lexicon)
            result = label_corpus(clusters, funded, CorpusIndex(records))
            got = {
                (pair.pub_id, int(pair.cluster_id[1:])): _COARSE[pair.label]
                for pair in result.pairs
            }
            assert got == transcribed_labels(papers)


def test_criterion_5_clustering_oracle():
    """Clustering equals connected components of the threshold graph on
    200 random blocks of up to 12 members; permuting the input leaves the
    output identical, cluster ids included. ``cluster_block`` runs
    ``cluster_corpus`` over the block's records in the order given."""
    with Budget(5.0):
        rng = random.Random(107)
        for _ in range(200):
            records, keys = random_block(rng, rng.randint(1, 12))
            index = CorpusIndex(records)
            clusters = cluster_block(keys, index, WEIGHTS)
            assert {c.members for c in clusters} == components_oracle(
                keys, index, WEIGHTS
            )
            shuffled = keys[:]
            rng.shuffle(shuffled)
            assert cluster_block(shuffled, index, WEIGHTS) == clusters


def test_criterion_6_indicator_conservation():
    """On random corpora of up to 1,000 records, field totals conserve
    fractional counts to 1e-9, group proportions recombine to the pooled
    proportion to 1e-9, and temporal per-tag counts sum exactly."""
    with Budget(5.0):
        rng = random.Random(109)
        for size in (50, 400, 1000):
            records, labels = random_corpus(rng, size)

            dist = field_distribution(records, {r.pub_id for r in records[::3]})
            total = math.fsum(share.total for share in dist.values())
            expected = math.fsum(
                fw.weight for r in records for fw in r.field_weights
            )
            assert abs(total - expected) < 1e-9

            report = pp_ic(records, labels)
            counted = [
                r for r in records
                if labels[r.pub_id] in (Label.BEFORE, Label.DURING, Label.AFTER)
            ]
            pooled_num = sum(1 for r in counted if is_international_collab(r))
            pooled_den = len(counted)
            totals = [cell for (p, f), cell in report.cells.items() if f == TOTAL_FIELD]
            assert abs(math.fsum(c.numerator for c in totals) - pooled_num) < 1e-9
            assert abs(math.fsum(c.denominator for c in totals) - pooled_den) < 1e-9
            if pooled_den:
                recombined = (
                    math.fsum(c.numerator for c in totals)
                    / math.fsum(c.denominator for c in totals)
                )
                assert abs(recombined - pooled_num / pooled_den) < 1e-9

            tags = {r.pub_id: rng.choice(["SCIE", "SSCI"]) for r in records}
            temporal = temporal_distribution(records, lambda r: tags[r.pub_id])
            assert sum(row[TOTAL_FIELD] for row in temporal.values()) == len(records)
            for row in temporal.values():
                assert sum(v for t, v in row.items() if t != TOTAL_FIELD) == row[TOTAL_FIELD]


def _snapshot(out_dir):
    return {
        path.name: path.read_bytes()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def test_criterion_7_end_to_end_determinism(demo_config_factory):
    """Two pipeline runs on the demo corpus produce byte-identical artifact
    directories."""
    with Budget(10.0):
        first = demo_config_factory("run1")
        second = demo_config_factory("run2")
        run_pipeline(first)
        run_pipeline(second)
        a, b = _snapshot(first.out_dir), _snapshot(second.out_dir)
        assert a.keys() == b.keys()
        assert a == b


def test_criterion_8_demo_corpus_trace(data_dir, demo_config_factory):
    """The bundled 12-record demo corpus reproduces the hand-derived stage
    counts committed alongside the fixture, exactly."""
    expected = json.loads((data_dir / "demo" / "expected_trace.json").read_text())
    expected.pop("_comment", None)
    manifest = run_pipeline(demo_config_factory("trace_out"))
    stages = manifest["stages"]
    assert {key: stages[key] for key in expected} == expected

import random
from datetime import date, timedelta

import pytest

from fundmob.corpus import resolve_pub_date
from fundmob.disambig import CorpusIndex, ResearcherCluster
from fundmob.periods import (
    Label,
    NoFundedPapers,
    classify_publication,
    compute_window,
    funded_pub_ids,
    label_corpus,
    reconcile_multi_scholar,
    record_acknowledges_funder,
)

from .conftest import make_author, make_record

CSC = ("China Scholarship Council",)


def cluster_for(cid, members):
    return ResearcherCluster(
        cluster_id=cid, members=tuple(sorted(members)), display_name=cid
    )


def dates_of(records):
    return {r.pub_id: resolve_pub_date(r) for r in records}


class TestFundedPredicate:
    def test_funding_orgs_hit(self, lexicon):
        record = make_record("a", (make_author(1, "X"),), funding=CSC)
        assert record_acknowledges_funder(record, lexicon)

    def test_ack_text_hit(self, lexicon):
        record = make_record(
            "a", (make_author(1, "X"),),
            ack="Supported by the CSC scholarship.",
        )
        assert record_acknowledges_funder(record, lexicon)

    def test_unrelated_record(self, lexicon):
        record = make_record(
            "a", (make_author(1, "X"),),
            ack="Supported by the Marie Curie program.",
            funding=("European Commission",),
        )
        assert not record_acknowledges_funder(record, lexicon)


class TestComputeWindow:
    def test_singleton_window(self, lexicon):
        record = make_record("a", (make_author(1, "X"),), funding=CSC,
                             doi_created=date(2015, 6, 1))
        window = compute_window(
            cluster_for("c", [("a", 1)]), dates_of([record]),
            funded_pub_ids([record], lexicon),
        )
        assert window.first_funded_date == date(2015, 6, 1)
        assert window.last_funded_date == date(2015, 6, 1)

    def test_min_max(self, lexicon):
        records = [
            make_record("a", (make_author(1, "X"),), funding=CSC,
                        doi_created=date(2014, 3, 1)),
            make_record("b", (make_author(1, "X"),), funding=CSC,
                        doi_created=date(2016, 9, 10)),
        ]
        window = compute_window(
            cluster_for("c", [("a", 1), ("b", 1)]), dates_of(records),
            funded_pub_ids(records, lexicon),
        )
        assert window.first_funded_date == date(2014, 3, 1)
        assert window.last_funded_date == date(2016, 9, 10)

    def test_mixed_doi_and_fallback_dates(self, lexicon):
        records = [
            make_record("a", (make_author(1, "X"),), funding=CSC, year=2013),
            make_record("b", (make_author(1, "X"),), funding=CSC,
                        doi_created=date(2013, 5, 20)),
            make_record("c", (make_author(1, "X"),), funding=CSC,
                        doi_created=date(2014, 1, 2)),
        ]
        window = compute_window(
            cluster_for("c", [("a", 1), ("b", 1), ("c", 1)]), dates_of(records),
            funded_pub_ids(records, lexicon),
        )
        # hand sort: 2013-05-20 (doi) < 2013-07-01 (fallback) < 2014-01-02
        resolved = sorted(resolve_pub_date(r).date for r in records)
        assert window.first_funded_date == resolved[0] == date(2013, 5, 20)
        assert window.last_funded_date == resolved[-1] == date(2014, 1, 2)

    def test_no_funded_papers_raises(self, lexicon):
        record = make_record("a", (make_author(1, "X"),))
        with pytest.raises(NoFundedPapers):
            compute_window(cluster_for("c", [("a", 1)]), dates_of([record]), set())


def window_fixture(lexicon):
    records = [
        make_record("w1", (make_author(1, "X"),), funding=CSC,
                    doi_created=date(2015, 1, 10)),
        make_record("w2", (make_author(1, "X"),), funding=CSC,
                    doi_created=date(2016, 8, 5)),
    ]
    return compute_window(
        cluster_for("c", [("w1", 1), ("w2", 1)]), dates_of(records),
        funded_pub_ids(records, lexicon),
    )


class TestClassifyPublication:
    def test_funded_is_during_regardless_of_date(self, lexicon):
        window = window_fixture(lexicon)
        early = make_record("p", (make_author(1, "X"),), funding=CSC,
                            doi_created=date(2001, 1, 1))
        assert classify_publication(resolve_pub_date(early), window, funded=True) is Label.DURING

    def test_before(self, lexicon):
        window = window_fixture(lexicon)
        record = make_record("p", (make_author(1, "X"),),
                             doi_created=date(2014, 12, 31))
        assert classify_publication(resolve_pub_date(record), window, funded=False) is Label.BEFORE

    def test_after(self, lexicon):
        window = window_fixture(lexicon)
        record = make_record("p", (make_author(1, "X"),),
                             doi_created=date(2016, 8, 6))
        assert classify_publication(resolve_pub_date(record), window, funded=False) is Label.AFTER

    def test_inside_window_unfunded_excluded(self, lexicon):
        window = window_fixture(lexicon)
        record = make_record("p", (make_author(1, "X"),),
                             doi_created=date(2015, 6, 15))
        assert classify_publication(resolve_pub_date(record), window, funded=False) is Label.EXCLUDED_WINDOW_GAP

    def test_boundary_tie_counts_as_inside(self, lexicon):
        window = window_fixture(lexicon)
        record = make_record("p", (make_author(1, "X"),),
                             doi_created=date(2015, 1, 10))
        assert classify_publication(resolve_pub_date(record), window, funded=False) is Label.EXCLUDED_WINDOW_GAP


class TestReconcile:
    def test_unanimous_before(self):
        assert reconcile_multi_scholar([Label.BEFORE, Label.BEFORE]) is Label.BEFORE

    @pytest.mark.parametrize("label", list(Label))
    def test_unanimous_label_stands(self, label):
        assert reconcile_multi_scholar([label] * 3) is label

    def test_before_after_conflict(self):
        assert reconcile_multi_scholar([Label.BEFORE, Label.AFTER]) is Label.EXCLUDED_CONFLICT

    def test_gap_and_before_is_conflict(self):
        labels = [Label.EXCLUDED_WINDOW_GAP, Label.BEFORE]
        assert reconcile_multi_scholar(labels) is Label.EXCLUDED_CONFLICT

    def test_single_scholar_label_stands(self):
        assert reconcile_multi_scholar([Label.EXCLUDED_WINDOW_GAP]) is Label.EXCLUDED_WINDOW_GAP

    @pytest.mark.parametrize("funded", [False, True])
    def test_funded_shared_paper_is_during_for_both_scholars(self, lexicon, funded):
        # "a" is funded in 2014 and "b" in 2018; the shared paper of 2016
        # is After for "a" and Before for "b" unless it acknowledges the
        # funder, which puts it inside both windows
        records = [
            make_record("a1", (make_author(1, "A"),), funding=CSC, doi_created=date(2014, 1, 1)),
            make_record("b1", (make_author(1, "B"),), funding=CSC, doi_created=date(2018, 1, 1)),
            make_record("s", (make_author(1, "A"), make_author(2, "B")),
                        funding=CSC if funded else (), doi_created=date(2016, 1, 1)),
        ]
        clusters = [cluster_for("a", [("a1", 1), ("s", 1)]), cluster_for("b", [("b1", 1), ("s", 2)])]
        result = label_corpus(clusters, funded_pub_ids(records, lexicon), CorpusIndex(records))
        expected = Label.DURING if funded else Label.EXCLUDED_CONFLICT
        assert [(p.cluster_id, p.label) for p in result.pairs if p.pub_id == "s"] == [
            ("a", expected), ("b", expected),
        ]
        assert result.record_labels["s"] is expected


# -- randomized equivalence with a direct transcription of the rules ---------

_DAY_POOL = [date(2014, 1, 1) + timedelta(days=45 * k) for k in range(16)]


def random_scenario(rng: random.Random):
    """A mini-corpus of scholars sharing random funded/unfunded papers."""
    n_scholars = rng.randint(1, 4)
    n_papers = rng.randint(1, 20)
    papers = []
    for i in range(n_papers):
        owners = sorted(rng.sample(range(n_scholars), rng.randint(1, n_scholars)))
        funded = rng.random() < 0.45
        doi_created = rng.choice(_DAY_POOL + [None, None])
        year = rng.choice([2014, 2015, 2016])
        papers.append((f"p{i:02d}", owners, funded, doi_created, year))
    records = [
        make_record(
            pub_id,
            tuple(
                make_author(pos, f"Scholar{owner}", first="Ming")
                for pos, owner in enumerate(owners, start=1)
            ),
            year=year,
            funding=CSC if funded else (),
            doi_created=doi_created,
        )
        for pub_id, owners, funded, doi_created, year in papers
    ]
    clusters = [
        cluster_for(
            f"s{j}",
            [
                (pub_id, owners.index(j) + 1)
                for pub_id, owners, _, _, _ in papers
                if j in owners
            ],
        )
        for j in range(n_scholars)
    ]
    return papers, records, clusters


def transcribed_labels(papers):
    """Direct transcription of the classification rules, kept independent
    of the library code: funded papers are During; otherwise strictly
    earlier than the scholar's first funded date is Before, strictly later
    than the last is After, anything else is Excluded; disagreeing
    scholars exclude the paper."""
    resolved = {
        pub_id: doi_created if doi_created else date(year, 7, 1)
        for pub_id, _, _, doi_created, year in papers
    }
    scholars = sorted({s for _, owners, _, _, _ in papers for s in owners})
    funded_dates = {
        s: [resolved[pid] for pid, owners, funded, _, _ in papers
            if funded and s in owners]
        for s in scholars
    }
    labels = {}
    for pub_id, owners, funded, _, _ in papers:
        with_window = [s for s in owners if funded_dates[s]]
        if not with_window:
            continue
        if funded:
            for s in with_window:
                labels[(pub_id, s)] = "During"
            continue
        views = []
        for s in with_window:
            if resolved[pub_id] < min(funded_dates[s]):
                views.append("Before")
            elif resolved[pub_id] > max(funded_dates[s]):
                views.append("After")
            else:
                views.append("Excluded")
        if all(v == "Before" for v in views):
            final = "Before"
        elif all(v == "After" for v in views):
            final = "After"
        else:
            final = "Excluded"
        for s in with_window:
            labels[(pub_id, s)] = final
    return labels


_COARSE = {
    Label.BEFORE: "Before",
    Label.DURING: "During",
    Label.AFTER: "After",
    Label.EXCLUDED_CONFLICT: "Excluded",
    Label.EXCLUDED_WINDOW_GAP: "Excluded",
}


def test_random_scenarios_match_transcription(lexicon):
    rng = random.Random(23)
    for _ in range(100):
        papers, records, clusters = random_scenario(rng)
        funded = funded_pub_ids(records, lexicon)
        result = label_corpus(clusters, funded, CorpusIndex(records))
        got = {
            (pair.pub_id, int(pair.cluster_id[1:])): _COARSE[pair.label]
            for pair in result.pairs
        }
        assert got == transcribed_labels(papers)


def during_from_pairs(result):
    """Each scholar's During pub ids, gathered from the labeled pairs:
    the derivation ``LabelingResult.during`` replaces, kept as its oracle."""
    during = {}
    for pair in result.pairs:
        if pair.label is Label.DURING:
            during.setdefault(pair.cluster_id, set()).add(pair.pub_id)
    return during


def test_during_is_each_scholars_funded_pubs(lexicon):
    rng = random.Random(31)
    for _ in range(100):
        papers, records, clusters = random_scenario(rng)
        funded = funded_pub_ids(records, lexicon)
        result = label_corpus(clusters, funded, CorpusIndex(records))
        assert result.during == during_from_pairs(result)
        for c in clusters:
            funded_pubs = {pub_id for pub_id, _ in c.members} & funded
            assert result.during.get(c.cluster_id, set()) == funded_pubs


def test_partition_and_window_bounds(lexicon):
    rng = random.Random(29)
    for _ in range(50):
        papers, records, clusters = random_scenario(rng)
        funded = funded_pub_ids(records, lexicon)
        result = label_corpus(clusters, funded, CorpusIndex(records))
        seen = set()
        index = CorpusIndex(records)
        for pair in result.pairs:
            key = (pair.pub_id, pair.cluster_id)
            assert key not in seen
            seen.add(key)
            window = result.windows[pair.cluster_id]
            pub_date = resolve_pub_date(index[pair.pub_id]).date
            if pair.label is Label.BEFORE:
                assert pub_date < window.first_funded_date
            elif pair.label is Label.AFTER:
                assert pub_date > window.last_funded_date
        # every labeled record acknowledges the funder iff During
        funded = funded_pub_ids(records, lexicon)
        for pair in result.pairs:
            if pair.label is Label.DURING:
                assert pair.pub_id in funded
            else:
                assert pair.pub_id not in funded or pair.label is Label.DURING

"""Demonstrate the destination-inference rules and period classification.

The rules run on distinct country sets (own affiliations first, then
co-author affiliations) and fire in a fixed order. Periods hinge on the
scholar's sponsorship window: the span between their first and last
funder-acknowledging publications.

Run from the repository root:

    python3 demos/infer_mobility.py
"""
from datetime import date

from fundmob.corpus import Affiliation, Authorship, DocType, PublicationRecord
from fundmob.ackminer import FunderLexicon
from fundmob.disambig import ResearcherCluster
from fundmob.mobility import aggregate_flows, infer_destination
from fundmob.periods import funded_pub_ids, label_corpus

print("destination rules on (own countries, co-author countries):")
cases = [
    ({"DE"}, set()),
    ({"CN", "NL"}, set()),
    ({"CN"}, {"CN", "US"}),
    ({"FR", "DE"}, {"JP"}),
    ({"CN"}, {"ES", "JP"}),
]
assignments = []
for i, (own, coauthor) in enumerate(cases):
    assignment = infer_destination(own, coauthor, cluster_id=f"s{i}")
    assignments.append(assignment)
    target = assignment.destination or assignment.outcome.value
    print(f"  own={sorted(own) or '{}'} coauthor={sorted(coauthor) or '{}'}"
          f" -> {target} [{assignment.rule_fired.value}]")

flows = aggregate_flows(assignments)
print("\naggregated flows:")
for code, count in flows.destinations:
    print(f"  {code}: {count}")
for reason, count in flows.unidentified:
    print(f"  {reason}: {count}")


def paper(pub_id, year, doi_created, funded):
    return PublicationRecord(
        pub_id=pub_id,
        pub_year=year,
        doc_type=DocType.ARTICLE,
        doi_created_date=doi_created,
        funding_orgs=("China Scholarship Council",) if funded else (),
        authors=(
            Authorship(1, "Chen, Long", "Chen", first_name="Long",
                       affiliations=(Affiliation("Lab", "DE"),)),
        ),
    )


print("\nperiod classification for one scholar:")
records = [
    paper("early", 2013, None, funded=False),          # falls back to 1 July
    paper("fundedA", 2015, date(2015, 3, 1), True),
    paper("gap", 2015, date(2015, 12, 24), funded=False),
    paper("fundedB", 2016, date(2016, 6, 30), True),
    paper("late", 2018, date(2018, 2, 2), funded=False),
]
cluster = ResearcherCluster(
    cluster_id="chen",
    members=tuple(sorted((r.pub_id, 1) for r in records)),
    display_name="Chen, Long",
)
lexicon = FunderLexicon(("China Scholarship Council",))
funded_ids = funded_pub_ids(records, lexicon)
# label_corpus reads each paper by pub_id from any mapping
result = label_corpus([cluster], funded_ids, {r.pub_id: r for r in records})
window = result.windows["chen"]
print(f"  window: {window.first_funded_date} .. {window.last_funded_date}")
for pair in result.pairs:
    print(f"  {pair.pub_id}: {pair.label.value}")
print("\nThe unfunded paper inside the window is excluded rather than")
print("guessed: publication delay makes its true period ambiguous.")

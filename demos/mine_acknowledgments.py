"""Walk through the acknowledgment-mining method step by step.

Shows, on a two-author physics paper, how the funded author is found:
find each funder mention (the text it matched and where), keep the
sentences containing them, expand each author into name variants and
positional phrases, then match those against the funding sentences.

Run from the repository root:

    python3 demos/mine_acknowledgments.py
"""
from pathlib import Path

from fundmob.ackminer import (
    FunderLexicon,
    extract_funding_sentences,
    generate_name_variants,
    match_funded_authors,
    ordinal_phrases,
)
from fundmob.corpus import Affiliation, Authorship, DocType, PublicationRecord

DATA = Path(__file__).resolve().parent.parent / "data"

lexicon = FunderLexicon.load(DATA / "lexicon_csc.txt")
print("funder lexicon:", ", ".join(lexicon.variants))

ack = (
    "We are grateful to the referees for helpful comments. "
    "Long Chen is supported by a scholarship from the "
    "China Scholarship Council (CSC)."
)
print("\nacknowledgment text:")
print(" ", ack)

print("\nstep 1: funder mentions (matched text, character span)")
pos = 0
while (mention := lexicon.find_mention(ack, pos)) is not None:
    print(f"  {mention.group()!r} at {mention.span()}")
    pos = mention.end()

print("\nstep 2: funding sentences")
sentences = extract_funding_sentences(ack, lexicon)
for sentence in sentences:
    print(f"  span {sentence.span}: {sentence.text!r}")

record = PublicationRecord(
    pub_id="demo",
    title="Top-quark pair production asymmetries",
    pub_year=2016,
    doc_type=DocType.ARTICLE,
    acknowledgment_text=ack,
    funding_orgs=("China Scholarship Council",),
    authors=(
        Authorship(1, "Bernreuther, Werner", "Bernreuther", first_name="Werner",
                   affiliations=(Affiliation("RWTH Aachen University", "DE"),)),
        Authorship(2, "Chen, Long", "Chen", first_name="Long",
                   affiliations=(Affiliation("RWTH Aachen University", "DE"),)),
    ),
)

print("\nstep 3: name variants per author")
for author in record.authors:
    print(f"  {author.full_name} (position {author.position}):")
    print("    names:   ", ", ".join(sorted(generate_name_variants(author))))
    print("    ordinals:", ", ".join(sorted(ordinal_phrases(author.position))))

print("\nstep 4: matched funded authorships")
for match in match_funded_authors(record, sentences):
    print(
        f"  position {match.author_position}: {match.match_kind.value} "
        f"via {match.evidence!r}"
    )

print("\nOnly the second author matches: the co-author's variants never")
print("occur in the funding sentence, so the record's funded scholar is")
print("pinned to one authorship, not the whole author list.")

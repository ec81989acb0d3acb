"""Seeded synthetic corpora for the fundmob benchmark (standard library only).

    python3 bench/gen.py --workload cn-skewed --seed 1 --out DIR

writes ``DIR/corpus.jsonl`` (README input format), ``DIR/overrides.tsv``
(``initials-dense`` only) and ``DIR/truth.json``. The pipeline reads only
the corpus, the overrides file and the stock configs in ``data/``;
``truth.json`` is a sidecar for the benchmark's correctness checks and
holds the workload descriptors.

Block sizes are fixed by construction: authorship slots are allotted to
(surname, first initial) blocks by quota (Zipf over the surname list,
a fixed initial table) and split into persons by a fixed productivity
cycle. The seed picks which surname takes which rank, the given names,
who writes with whom, dates, affiliations, acknowledgment wording and
funding. So the quadratic disambiguation work, which block sizes decide,
is the same for every seed, and seeds vary only the content.
"""
from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from datetime import date
from pathlib import Path

WORKLOADS = ("cn-skewed", "ack-heavy", "initials-dense")

CANONICAL_FUNDER = "China Scholarship Council"

# pinyin syllables by initial, and how often given names start with each
SYLLABLES = {
    "b": ("bo", "bin", "bing", "bao"),
    "c": ("chao", "chen", "cheng", "chun", "cong"),
    "d": ("dan", "dong", "de", "da"),
    "f": ("fang", "fei", "feng", "fu"),
    "g": ("gang", "guo", "guang"),
    "h": ("hua", "hui", "hong", "hai", "hao", "heng"),
    "j": ("jing", "jun", "jie", "jian", "jia", "jin"),
    "k": ("kai", "kun"),
    "l": ("li", "lei", "lin", "long", "liang", "lu"),
    "m": ("min", "ming", "mei", "meng"),
    "n": ("na", "ning", "nan"),
    "p": ("ping", "peng", "pei"),
    "q": ("qiang", "qing", "qi", "qian"),
    "r": ("rui", "rong", "ran"),
    "s": ("shan", "song", "sheng", "shu"),
    "t": ("tao", "ting", "tian"),
    "w": ("wei", "wen", "wu"),
    "x": ("xin", "xiao", "xue", "xiu", "xia", "xu"),
    "y": ("yang", "yan", "yu", "yun", "yi", "ying", "yong"),
    "z": ("zhi", "zhen", "zhong", "zhao", "ze"),
}
INITIAL_WEIGHTS = {
    "x": 12, "y": 12, "j": 10, "l": 8, "h": 8, "z": 8, "w": 7, "m": 5,
    "q": 5, "s": 5, "c": 4, "f": 4, "t": 3, "d": 3, "g": 2, "b": 2,
    "p": 2, "n": 2, "r": 2, "k": 2,
}
ALL_SYLLABLES = tuple(s for group in SYLLABLES.values() for s in group)

WESTERN_HEADS = (
    "Bern", "Mull", "Hart", "Wilk", "Ander", "Peters", "Kowal", "Schmid",
    "Ferr", "Garc", "Mart", "Ross", "Lars", "Henn", "Vog", "Brand", "Klein",
    "Dub", "Fisch", "Morr", "Hol", "Jans", "Nov", "Rich", "Stein",
)
WESTERN_TAILS = (
    "er", "son", "sen", "ski", "mann", "ard", "ini", "ez", "berg", "ley",
    "ton", "ova", "is", "ow", "ner",
)
WESTERN_GIVEN = (
    "Anna", "Werner", "Maria", "Thomas", "Sarah", "David", "Laura", "Peter",
    "Elena", "Jonas", "Claire", "Marco", "Sofia", "Henrik", "Julia", "Pablo",
    "Emma", "Lukas", "Nora", "Oliver", "Ines", "Victor", "Ruth", "Stefan",
    "Alice", "Bruno", "Greta", "Ivan", "Karen", "Felix",
)
CN_CITIES = (
    "Beijing", "Shanghai", "Nanjing", "Wuhan", "Chengdu", "Xiamen", "Tianjin",
    "Harbin", "Changsha", "Hefei", "Jinan", "Dalian", "Lanzhou", "Xian",
    "Hangzhou", "Guangzhou", "Shenyang", "Kunming", "Fuzhou", "Zhengzhou",
)
CN_KINDS = (
    "University", "Normal University", "University of Technology",
    "Institute of Physics", "Medical University", "Agricultural University",
)
# raw country string as written in records -> host cities
ABROAD = {
    "USA": ("Boston", "Austin", "Seattle", "Chicago", "Denver"),
    "England": ("Leeds", "Bristol", "Oxford", "York"),
    "Germany": ("Aachen", "Bonn", "Munich", "Jena"),
    "Netherlands": ("Delft", "Utrecht", "Leiden"),
    "Australia": ("Sydney", "Perth", "Adelaide"),
    "Canada": ("Toronto", "Calgary", "Ottawa"),
    "Japan": ("Kyoto", "Osaka", "Sendai"),
    "France": ("Lyon", "Grenoble", "Lille"),
    "Singapore": ("Singapore",),
    "Sweden": ("Lund", "Uppsala"),
}
CHINA_RAW = ("Peoples R China", "China", "PR China")
FIELD_CHOICES = (
    "phys", "chem", "mater", "energy", "biomed", "clinmed", "pharma", "ecol",
    "agri", "geo", "math", "cs", "stat", "soc", "econ", "edu", "law",
)
# weights are binary fractions, so sums are exact and the 1e-9 check holds
WEIGHT_SPLITS = ((1.0,), (0.5, 0.5), (0.75, 0.25))
ORDINALS = (
    "first", "second", "third", "fourth", "fifth",
    "sixth", "seventh", "eighth", "ninth", "tenth",
)
GENERIC_SENTENCES = (
    "We thank the anonymous reviewers for their constructive comments.",
    "The authors are grateful to {person} for helpful discussions.",
    "This work was supported by the National Natural Science Foundation of China (Grant No. {num}).",
    "Computations were performed on the cluster of {org}.",
    "We acknowledge the use of the {city} synchrotron facility under proposal {num}.",
    "Part of this work was carried out at {org}.",
    "Data were provided by the {city} regional archive.",
    "The funders had no role in study design, data collection and analysis, decision to publish, or preparation of the manuscript.",
    "Any opinions, findings and conclusions expressed here are those of the authors.",
    "Open access funding was provided by {org}.",
    "We thank {person} and {person} for technical assistance with the measurements.",
    "Support from the Fundamental Research Funds for the Central Universities (No. {num}) is acknowledged.",
    "This research used resources of the {city} Computing Center.",
    "We are indebted to the staff of {org} for sample preparation.",
    "The project was also funded by the {city} Municipal Science and Technology Commission (Grant {num}).",
    "The authors declare no competing financial interests.",
    "Samples were kindly provided by {person}.",
    "We thank the {city} Key Laboratory for access to its instruments.",
)
FUNDER_TAILS = (
    "acknowledges financial support from the China Scholarship Council (CSC)",
    "is supported by a scholarship from the China Scholarship Council",
    "was sponsored by the China Scholarship Council (No. {num})",
    "thanks the China Scholarship Council for a visiting scholarship",
)
FUNDER_TAILS_PLURAL = (
    "acknowledge financial support from the China Scholarship Council (CSC)",
    "are supported by scholarships from the China Scholarship Council (No. {num})",
    "were sponsored by the China Scholarship Council",
    "thank the China Scholarship Council for visiting scholarships",
)
UNNAMED_FUNDER = (
    "This work was supported by the China Scholarship Council.",
    "Financial support from the China Scholarship Council (CSC) is gratefully acknowledged.",
)


@dataclass(frozen=True)
class Spec:
    """One workload's traffic: sizes, name skew, funding and wording."""

    records: int                     # Article/Review records
    other_records: int               # doc_type "Other": parsed, then filtered
    sizes: tuple[tuple[int, int], ...]  # (authors per record, share in %)
    cn_share: float                  # share of authorship slots with a Chinese surname
    zipf: float | None               # surname skew; None spreads surnames evenly
    full_given: float                # share of Chinese persons with a full given name
    funded_share: float
    generic_sentences: tuple[int, int]   # per acknowledgment, funded records
    funder_sentences: tuple[int, int]
    names_per_sentence: tuple[int, int]
    styles: tuple[tuple[str, int], ...]  # how funded authors are named
    distinct_surnames: bool = False  # co-authors of one record never share a surname
    labs: int = 0                    # >0: everyone works in one of these labs
    overrides: int = 0               # MERGE and SPLIT lines each
    productivity: tuple[int, ...] = (1, 1, 2, 1, 3, 1, 2, 5, 1, 2, 8, 1, 3)


SPECS = {
    # The paper's traffic: Zipf surnames make a few huge blocks.
    "cn-skewed": Spec(
        records=1800, other_records=40,
        sizes=((2, 15), (3, 22), (4, 23), (5, 18), (6, 12), (7, 10)),
        cn_share=0.6, zipf=1.4, full_given=0.95, funded_share=0.3,
        generic_sentences=(1, 4), funder_sentences=(1, 1), names_per_sentence=(1, 2),
        styles=(("full", 40), ("surname_first", 15), ("surname_initial", 15),
                ("ordinal", 15), ("unnamed", 15)),
    ),
    # Long multi-grant acknowledgments; tiny blocks bypass disambiguation.
    "ack-heavy": Spec(
        records=1000, other_records=20,
        sizes=((2, 10), (3, 25), (4, 30), (5, 20), (6, 15)),
        cn_share=0.8, zipf=None, full_given=0.9, funded_share=0.9,
        generic_sentences=(18, 24), funder_sentences=(3, 5), names_per_sentence=(2, 3),
        styles=(("full", 45), ("surname_initial", 30), ("ordinal", 20), ("unnamed", 5)),
        distinct_surnames=True, productivity=(1, 2, 1, 3, 2, 1, 4, 2),
    ),
    # Initials-only names in a few labs sharing orgs and co-authors.
    "initials-dense": Spec(
        records=1300, other_records=25,
        sizes=((3, 25), (4, 35), (5, 25), (6, 15)),
        cn_share=0.85, zipf=1.0, full_given=0.0, funded_share=0.3,
        generic_sentences=(1, 4), funder_sentences=(1, 1), names_per_sentence=(1, 2),
        styles=(("surname_initial", 35), ("initial_first", 25), ("surname_initials_bare", 15),
                ("ordinal", 15), ("unnamed", 10)),
        labs=6, overrides=60,
    ),
}


@dataclass
class Person:
    pid: int
    surname: str
    given: str | None       # None: initials only
    initials: str
    chinese: bool
    productivity: int
    email: str | None
    home: tuple[tuple[str, str], ...]   # (org, raw country)
    abroad: tuple[str, str]             # host (org, raw country) when funded
    lab: int = 0

    @property
    def block(self) -> tuple[str, str]:
        return (self.surname.lower(), self.initials[0].lower())


@dataclass
class Generated:
    lines: list[str]
    overrides: list[str]
    truth: dict


def _quota(total: int, weights: dict) -> dict:
    """Split ``total`` over the keys in proportion to ``weights``
    (largest remainder, ties by key order), so the split is exact."""
    wsum = sum(weights.values())
    raw = {k: total * w / wsum for k, w in weights.items()}
    out = {k: int(v) for k, v in raw.items()}
    left = total - sum(out.values())
    for k in sorted(raw, key=lambda k: (out[k] - raw[k], list(raw).index(k)))[:left]:
        out[k] += 1
    return out


def _split_productivity(n: int, cycle: tuple[int, ...], start: int) -> list[int]:
    parts, i = [], start
    while n > 0:
        take = min(cycle[i % len(cycle)], n)
        parts.append(take)
        n -= take
        i += 1
    return parts


class _Builder:
    def __init__(self, workload: str, seed: int, surnames: list[str], spec: Spec):
        self.spec = spec
        self.rng = random.Random(f"{workload}:{seed}")
        self.surnames = surnames
        self.persons: list[Person] = []
        rng = self.rng
        self.cn_orgs = [
            f"{city} {kind}" for city in CN_CITIES for kind in CN_KINDS
        ]
        rng.shuffle(self.cn_orgs)
        self.used_emails: set[str] = set()

    # -- people -------------------------------------------------------
    def _given(self, initial: str) -> tuple[str, str]:
        """A pinyin given name starting with ``initial`` and its initials."""
        rng = self.rng
        first = rng.choice(SYLLABLES[initial])
        if rng.random() < 0.4:
            second = rng.choice(ALL_SYLLABLES[::4])
            if rng.random() < 0.1:
                return f"{first.capitalize()}-{second.capitalize()}", f"{first[0]}{second[0]}".upper()
            return f"{first}{second}".capitalize(), first[0].upper()
        return first.capitalize(), first[0].upper()

    def _abroad(self) -> tuple[str, str]:
        country = self.rng.choice(sorted(ABROAD))
        city = self.rng.choice(ABROAD[country])
        return (f"University of {city}", country)

    def _cn_home(self) -> tuple[str, str]:
        return (self.rng.choice(self.cn_orgs[:40]), self.rng.choice(CHINA_RAW))

    def _email(self, surname: str, given: str | None) -> str | None:
        if self.rng.random() >= 0.3:
            return None
        stem = f"{(given or 'x').lower().replace('-', '')}.{surname.lower()}"
        email = f"{stem}{self.rng.randrange(1000)}@example.org"
        if email in self.used_emails:
            return None
        self.used_emails.add(email)
        return email

    def add_person(self, surname: str, initial: str, chinese: bool, prod: int) -> None:
        rng, spec = self.rng, self.spec
        if chinese:
            given, initials = self._given(initial)
            if rng.random() >= spec.full_given:
                given = None
            home = (self._cn_home(),) if rng.random() < 0.85 else (self._abroad(),)
        else:
            pool = [g for g in WESTERN_GIVEN if g[0].lower() == initial] or list(WESTERN_GIVEN)
            given = rng.choice(pool)
            initials = given[0]
            if rng.random() >= spec.full_given:
                given = None
            home = (self._abroad(),)
        self.persons.append(Person(
            pid=len(self.persons), surname=surname, given=given, initials=initials,
            chinese=chinese, productivity=prod, email=self._email(surname, given),
            home=home, abroad=self._abroad(),
        ))

    def build_people(self, slots: int) -> None:
        spec, rng = self.spec, self.rng
        cn_slots = round(slots * spec.cn_share)
        ranked = list(self.surnames)
        rng.shuffle(ranked)
        if spec.zipf is None:
            surname_w = {s: 1.0 for s in ranked}
        else:
            surname_w = {s: 1.0 / (r + 1) ** spec.zipf for r, s in enumerate(ranked)}
        start = 0
        for surname, n in _quota(cn_slots, surname_w).items():
            for initial, m in _quota(n, INITIAL_WEIGHTS).items():
                for prod in _split_productivity(m, spec.productivity, start):
                    self.add_person(surname.capitalize(), initial, True, prod)
                start += 1
        western = [h + t for h in WESTERN_HEADS for t in WESTERN_TAILS]
        rng.shuffle(western)
        left, i = slots - cn_slots, 0
        while left > 0:
            prod = min(spec.productivity[i % len(spec.productivity)], left)
            given = WESTERN_GIVEN[rng.randrange(len(WESTERN_GIVEN))]
            self.add_person(western[i % len(western)], given[0].lower(), False, prod)
            left -= prod
            i += 1
        if spec.labs:
            for person in self.persons:
                person.lab = rng.randrange(spec.labs)

    # -- who writes with whom -------------------------------------------
    def deal(self, sizes: list[int]) -> list[list[int]]:
        """Deal every person's slots into records of the given sizes, with
        no person twice in a record (nor a surname twice, if the spec says)."""
        rng = self.rng
        groups: dict[int, list[int]] = {}
        for p in self.persons:
            groups.setdefault(p.lab, []).extend([p.pid] * p.productivity)
        # records are handed to labs in proportion to their slots
        papers: list[list[int]] = []
        order = list(sizes)
        rng.shuffle(order)
        for lab in sorted(groups):
            slots = groups[lab]
            rng.shuffle(slots)
            mine = []
            while slots:
                k = min(order.pop() if order else 3, len(slots))
                if len(slots) - k == 1:
                    k += 1
                mine.append(slots[:k])
                slots = slots[k:]
            papers.extend(mine)
        self._repair(papers)
        return papers

    def _key(self, pid: int):
        return self.persons[pid].surname if self.spec.distinct_surnames else pid

    def _repair(self, papers: list[list[int]]) -> None:
        rng = self.rng
        by_lab: dict[int, list[int]] = {}
        for i, paper in enumerate(papers):
            by_lab.setdefault(self.persons[paper[0]].lab, []).append(i)
        for _ in range(20):
            bad = 0
            for i, paper in enumerate(papers):
                for j in range(len(paper)):
                    keys = [self._key(p) for p in paper]
                    if keys.count(keys[j]) < 2 or keys.index(keys[j]) == j:
                        continue
                    bad += 1
                    peers = by_lab[self.persons[paper[j]].lab]
                    for _ in range(200):
                        o = papers[rng.choice(peers)]
                        if o is paper:
                            continue
                        k = rng.randrange(len(o))
                        a, b = paper[j], o[k]
                        ka, kb = self._key(a), self._key(b)
                        if kb in keys or ka in [self._key(p) for q, p in enumerate(o) if q != k]:
                            continue
                        paper[j], o[k] = b, a
                        break
            if not bad:
                return
        raise RuntimeError("could not deal authors into records without repeats")


def _sizes(spec: Spec) -> list[int]:
    counts = _quota(spec.records, dict(spec.sizes))
    return [k for k, n in sorted(counts.items()) for _ in range(n)]


def _render_name(person: Person, position: int, style: str) -> str:
    """Surface form of a funded author in a funder sentence."""
    if style == "ordinal":
        return f"the {ORDINALS[position - 1]} author"
    if style == "full" and person.given:
        return f"{person.given} {person.surname}"
    if style == "surname_first" and person.given:
        return f"{person.surname} {person.given}"
    if style == "initial_first":
        return ".".join(person.initials) + f". {person.surname}"
    if style == "surname_initials_bare":
        return f"{person.surname} {person.initials}"
    return f"{person.surname} {person.initials}."


def _fill(template: str, b: _Builder) -> str:
    rng = b.rng
    while "{" in template:
        template = template.replace("{person}", f"{rng.choice(WESTERN_GIVEN)} {rng.choice(WESTERN_HEADS)}{rng.choice(WESTERN_TAILS)}", 1)
        template = template.replace("{num}", str(rng.randrange(10**7, 10**8)), 1)
        template = template.replace("{org}", rng.choice(b.cn_orgs), 1)
        template = template.replace("{city}", rng.choice(CN_CITIES), 1)
    return template


def _funder_sentence(names: list[str], b: _Builder) -> str:
    rng = b.rng
    if len(names) == 1:
        subject = names[0]
        tail = rng.choice(FUNDER_TAILS)
    else:
        subject = ", ".join(names[:-1]) + " and " + names[-1]
        tail = rng.choice(FUNDER_TAILS_PLURAL)
    subject = subject[0].upper() + subject[1:]
    return _fill(f"{subject} {tail}.", b)


def _author_dict(person: Person, position: int, affs) -> dict:
    full = f"{person.surname}, {person.given or person.initials}"
    return {
        "position": position,
        "full_name": full,
        "last_name": person.surname,
        "first_name": person.given,
        "initials": person.initials,
        "email": person.email,
        "affiliations": [{"org_name": org, "country": country} for org, country in affs],
    }


def generate(workload: str, seed: int, data_dir: str | Path, spec: Spec | None = None) -> Generated:
    """The workload's corpus lines, overrides lines and truth sidecar.

    ``spec`` replaces the workload's own sizes, for small test corpora.
    """
    if workload not in SPECS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    data_dir = Path(data_dir)
    surnames = [
        line.strip() for line in (data_dir / "surnames_cn.txt").read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    field_map = {}
    for line in (data_dir / "field_map.tsv").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            fid, _, name = line.partition("\t")
            field_map[fid.strip()] = name.strip()

    b = _Builder(workload, seed, surnames, spec or SPECS[workload])
    spec, rng = b.spec, b.rng
    sizes = _sizes(spec)
    b.build_people(sum(sizes))
    papers = b.deal(sizes)
    persons = b.persons
    lab_orgs = [b.cn_orgs[40 + i] for i in range(spec.labs)]
    university = (b.cn_orgs[-1], CHINA_RAW[0])

    n_docs = len(papers)
    funded_target = round(n_docs * spec.funded_share)
    candidates = [i for i, p in enumerate(papers) if any(persons[q].chinese for q in p)]
    rng.shuffle(candidates)
    funded = set(candidates[:funded_target])
    review = set(rng.sample(range(n_docs), n_docs // 12))
    style_w = dict(spec.styles)

    records, named = [], []
    field_totals: dict[str, float] = {}
    sentence_counts, full_given_slots, slot_count = [], 0, 0
    for i, paper in enumerate(papers):
        pub_id = f"{workload[:2].upper()}{i:05d}"
        year = rng.randrange(2008, 2021)
        is_funded = i in funded
        named_positions: set[int] = set()
        sentences: list[str] = []
        if is_funded:
            cn_positions = [pos for pos, q in enumerate(paper, 1) if persons[q].chinese]
            for _ in range(rng.randint(*spec.funder_sentences)):
                style = rng.choices(list(style_w), weights=list(style_w.values()))[0]
                if style == "unnamed":
                    sentences.append(rng.choice(UNNAMED_FUNDER))
                    continue
                k = min(rng.randint(*spec.names_per_sentence), len(cn_positions))
                chosen = sorted(rng.sample(cn_positions, k))
                names = []
                for pos in chosen:
                    person = persons[paper[pos - 1]]
                    names.append(_render_name(person, pos, style))
                    named_positions.add(pos)
                sentences.append(_funder_sentence(names, b))
            generic = rng.randint(*spec.generic_sentences)
        else:
            generic = rng.randint(*spec.generic_sentences) if rng.random() < 0.5 else 0
        for _ in range(generic):
            sentences.insert(rng.randrange(len(sentences) + 1), _fill(rng.choice(GENERIC_SENTENCES), b))
        if sentences:
            sentence_counts.append(len(sentences))

        authors = []
        for pos, pid in enumerate(paper, 1):
            person = persons[pid]
            if spec.labs:
                affs = (university, (lab_orgs[person.lab], university[1]))
            else:
                affs = person.home
            if pos in named_positions:
                # mostly the host abroad, sometimes with the home org, sometimes home only
                r = rng.random()
                if r < 0.85:
                    affs = (person.abroad,) + (affs[:1] if r >= 0.6 else ())
            authors.append(_author_dict(person, pos, affs))
            slot_count += 1
            full_given_slots += person.given is not None
        split = rng.choice(WEIGHT_SPLITS) if rng.random() < 0.95 else ()
        fields = rng.sample(FIELD_CHOICES, len(split))
        weights = [{"field_id": f, "weight": w} for f, w in zip(fields, split)]
        if is_funded:
            for fw in weights:
                name = field_map.get(fw["field_id"], fw["field_id"])
                field_totals[name] = field_totals.get(name, 0.0) + fw["weight"]
        doi_date = None
        if rng.random() < 0.7:
            doi_date = date(year, rng.randint(1, 12), rng.randint(1, 28)).isoformat()
        records.append({
            "pub_id": pub_id,
            "title": f"{_fill('{city}', b)} study {rng.randrange(10**6)}",
            "pub_year": year,
            "doc_type": "Review" if i in review else "Article",
            "doi": f"10.5555/{pub_id.lower()}",
            "doi_created_date": doi_date,
            "acknowledgment_text": " ".join(sentences) or None,
            "funding_orgs": ([CANONICAL_FUNDER] if is_funded and rng.random() < 0.9 else [])
                            + (["National Natural Science Foundation of China"] if rng.random() < 0.4 else []),
            "authors": authors,
            "field_weights": weights,
        })
        named.extend([pub_id, pos] for pos in sorted(named_positions))

    others = []
    for j in range(spec.other_records):
        paper = rng.choice(papers)
        others.append({
            "pub_id": f"OT{workload[:2].upper()}{j:04d}",
            "title": "Editorial note",
            "pub_year": rng.randrange(2008, 2021),
            "doc_type": "Other",
            "authors": [_author_dict(persons[q], pos, persons[q].home) for pos, q in enumerate(paper, 1)],
            "field_weights": [],
        })
    all_records = records + others
    rng.shuffle(all_records)
    lines = [json.dumps(r, ensure_ascii=False) for r in all_records]

    overrides = _overrides(records, papers, persons, spec.overrides, rng)

    blocks: dict[tuple[str, str], int] = {}
    for paper in papers:
        for q in paper:
            blocks[persons[q].block] = blocks.get(persons[q].block, 0) + 1
    block_sizes = sorted(blocks.values(), reverse=True)
    truth = {
        "workload": workload,
        "seed": seed,
        "records_in": len(all_records),
        "parse_errors": 0,
        "records_after_doc_filter": n_docs,
        "authorships_total": slot_count,
        "funded_records": len(funded),
        "funded_pub_ids": sorted(records[i]["pub_id"] for i in funded),
        "named_funded_authorships": sorted(named),
        "field_totals": dict(sorted(field_totals.items())),
        "descriptors": {
            "blocks": len(block_sizes),
            "largest_blocks": block_sizes[:5],
            "block_pairs": sum(n * (n - 1) // 2 for n in block_sizes),
            "block_size_histogram": _histogram(block_sizes),
            "full_given_name_share": round(full_given_slots / slot_count, 4),
            "funded_share": round(len(funded) / n_docs, 4),
            "sentences_per_acknowledgment": round(sum(sentence_counts) / max(1, len(sentence_counts)), 2),
            "authors_per_record": round(slot_count / n_docs, 3),
            "overrides": len(overrides),
        },
    }
    return Generated(lines=lines, overrides=overrides, truth=truth)


def _histogram(sizes: list[int]) -> dict[str, int]:
    edges = ((1, 1), (2, 4), (5, 16), (17, 64), (65, 256), (257, 10**9))
    out = {}
    for lo, hi in edges:
        label = f"{lo}" if lo == hi else (f"{lo}+" if hi == 10**9 else f"{lo}-{hi}")
        out[label] = sum(1 for n in sizes if lo <= n <= hi)
    return out


def _overrides(records, papers, persons, count, rng) -> list[str]:
    """MERGE lines join two authorships of one person; SPLIT lines part two
    people who share a block. Both come from generator truth."""
    if not count:
        return []
    by_person: dict[int, list[tuple[str, int]]] = {}
    by_block: dict[tuple[str, str], list[tuple[int, tuple[str, int]]]] = {}
    for record, paper in zip(records, papers):
        for pos, q in enumerate(paper, 1):
            key = (record["pub_id"], pos)
            by_person.setdefault(q, []).append(key)
            by_block.setdefault(persons[q].block, []).append((q, key))
    lines = []
    multi = sorted(q for q, keys in by_person.items() if len(keys) >= 2)
    for q in rng.sample(multi, min(count, len(multi))):
        a, b = rng.sample(by_person[q], 2)
        lines.append(f"{a[0]}\t{a[1]}\t{b[0]}\t{b[1]}\tMERGE")
    crowded = sorted(k for k, members in by_block.items() if len({q for q, _ in members}) >= 2)
    for _ in range(count):
        members = by_block[rng.choice(crowded)]
        (qa, a), (qb, b) = rng.sample(members, 2)
        if qa != qb:
            lines.append(f"{a[0]}\t{a[1]}\t{b[0]}\t{b[1]}\tSPLIT")
    return lines


def write(gen: Generated, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"corpus": out / "corpus.jsonl", "truth": out / "truth.json"}
    paths["corpus"].write_text("\n".join(gen.lines) + "\n", encoding="utf-8")
    if gen.overrides:
        paths["overrides"] = out / "overrides.tsv"
        paths["overrides"].write_text("\n".join(gen.overrides) + "\n", encoding="utf-8")
    paths["truth"].write_text(json.dumps(gen.truth, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--data", default=str(Path(__file__).resolve().parent.parent / "data"))
    args = parser.parse_args()
    gen = generate(args.workload, args.seed, args.data)
    write(gen, args.out)
    print(json.dumps(gen.truth["descriptors"], sort_keys=True))


if __name__ == "__main__":
    main()

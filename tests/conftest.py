from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from datetime import date
from pathlib import Path
from typing import Iterable

import pytest

from fundmob.ackminer import FunderLexicon
from fundmob.corpus import (
    Affiliation,
    Authorship,
    DocType,
    FieldWeight,
    PublicationRecord,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def lexicon() -> FunderLexicon:
    return FunderLexicon((
        "China Scholarship Council",
        "CSC scholarship",
        "Chinese Scholarship Council",
    ))


def make_author(
    position: int,
    last: str,
    first: str | None = None,
    initials: str | None = None,
    email: str | None = None,
    countries: tuple[str, ...] = (),
    orgs: tuple[str, ...] = (),
) -> Authorship:
    if orgs and len(orgs) != len(countries):
        raise ValueError("orgs and countries must align")
    affiliations = tuple(
        Affiliation(org_name=orgs[i] if orgs else f"Org-{c}", country=c)
        for i, c in enumerate(countries)
    )
    full = f"{last}, {first}" if first else last
    return Authorship(
        position=position,
        full_name=full,
        last_name=last,
        first_name=first,
        initials=initials,
        email=email,
        affiliations=affiliations,
    )


def make_record(
    pub_id: str,
    authors: tuple[Authorship, ...],
    year: int = 2015,
    doc_type: DocType = DocType.ARTICLE,
    ack: str | None = None,
    funding: tuple[str, ...] = (),
    doi_created: date | None = None,
    weights: tuple[tuple[str, float], ...] = (),
) -> PublicationRecord:
    return PublicationRecord(
        pub_id=pub_id,
        pub_year=year,
        doc_type=doc_type,
        doi_created_date=doi_created,
        acknowledgment_text=ack,
        funding_orgs=funding,
        authors=authors,
        field_weights=tuple(FieldWeight(f, w) for f, w in weights),
    )


def authorship_table(records: Iterable[PublicationRecord]) -> dict[tuple[str, int], Authorship]:
    """Each authorship of ``records`` by its key ``(pub_id, position)``,
    as the reference oracles look authorships up."""
    return {(record.pub_id, author.position): author
            for record in records for author in record.authors}


def record_as_dict(record: PublicationRecord) -> dict:
    """The input-format dict of a record: its dataclass fields, with the
    enum and the date in their JSON forms, and each field weight's field
    under its input key ``field_id``."""
    def encode(value):
        return value.value if isinstance(value, DocType) else value.isoformat()
    obj = json.loads(json.dumps(dataclasses.asdict(record), default=encode))
    obj["field_weights"] = [{"field_id": fw["field"], "weight": fw["weight"]}
                            for fw in obj["field_weights"]]
    return obj


def load_bench_gen(monkeypatch):
    """``bench/gen.py``, the benchmark's corpus generator, loaded by path.
    It is registered in ``sys.modules`` first, as its dataclasses need."""
    path = DATA_DIR.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("fundmob_bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of a run."""
    rows = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", "call") == "call":
                rows.append((nodeid.split("::")[-1], outcome == "passed"))
    for rep in terminalreporter.stats.get("error", []):
        nodeid = getattr(rep, "nodeid", "")
        if "test_acceptance" in nodeid:
            rows.append((nodeid.split("::")[-1], False))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, passed in sorted(rows):
            terminalreporter.write_line(f"[{'PASS' if passed else 'FAIL'}] {name}")

"""Bibliographic data model, corpus parsing/validation, and date resolution.

Input corpora are UTF-8 line-delimited JSON, one record per line. Parsing
validates structural invariants (author positions, field-weight sums,
plausible years) and collects per-line errors instead of dropping bad
lines silently. Affiliation countries are normalized through a
configurable alias table; anything outside the configured vocabulary is
marked Unknown. Field ids are read through the field map to their
top-level field names; field ids missing from the field map keep their
own name, and a field that resolves to the whole-period row is reported.

Each field is read with one lookup and one type test, and an error
names its author only when it is raised. Affiliations are interned per
:func:`parse_corpus` call: every raw ``(org_name, country)`` pair is
parsed once, and the authorships that list it share one
:class:`Affiliation`; no memo outlives the call. :func:`load_corpus`
hashes the file's bytes as it reads them, so the corpus is read once.

Records, authorships and field weights are built once per input item,
positionally, as plain slotted dataclasses: a frozen one sets every
field through ``object.__setattr__``. They compare by value and are not
hashable, and no stage changes them once parsed.
"""
from __future__ import annotations

import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .textnorm import normalize_text

UNKNOWN_COUNTRY = "Unknown"

#: the field name of the report tables' whole-period rows
TOTAL_FIELD = "Total"

#: Code used for mainland China throughout the mobility rules. Hong Kong,
#: Macau and Taiwan carry their own codes and count as non-mainland.
MAINLAND_CHINA = "CN"


class DocType(Enum):
    ARTICLE = "Article"
    REVIEW = "Review"
    OTHER = "Other"


class DateSource(Enum):
    DOI_CREATED = "DoiCreated"
    YEAR_FALLBACK = "YearFallback"


@dataclass(frozen=True, slots=True)
class Affiliation:
    org_name: str
    country: str = UNKNOWN_COUNTRY


@dataclass(slots=True)
class Authorship:
    position: int
    full_name: str
    last_name: str
    first_name: str | None = None
    initials: str | None = None
    email: str | None = None
    affiliations: tuple[Affiliation, ...] = ()


@dataclass(slots=True)
class FieldWeight:
    #: the record's field_id, read through the field map to its top-level name
    field: str
    weight: float


@dataclass(slots=True)
class PublicationRecord:
    pub_id: str
    pub_year: int
    doc_type: DocType
    doi_created_date: date | None = None
    acknowledgment_text: str | None = None
    funding_orgs: tuple[str, ...] = ()
    authors: tuple[Authorship, ...] = ()
    field_weights: tuple[FieldWeight, ...] = ()


@dataclass(frozen=True, slots=True)
class PubDate:
    """A resolved publication date and where it came from."""

    date: date
    source: DateSource


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


@dataclass
class ParseResult:
    records: list[PublicationRecord] = field(default_factory=list)
    errors: list[ParseIssue] = field(default_factory=list)
    #: the SHA-256 of the file's bytes, when :func:`load_corpus` read them
    sha256: str | None = None


class CorpusParseError(Exception):
    """Raised when an input stream yields lines but not a single record."""

    def __init__(self, errors: list[ParseIssue]):
        self.errors = errors
        preview = "; ".join(str(e) for e in errors[:3])
        super().__init__(f"no records parsed ({len(errors)} bad lines: {preview})")


class RecordError(ValueError):
    """A single record object violated the schema or an invariant."""


def config_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The 1-based line number and stripped text of every line of a
    config file that is neither blank nor a ``#`` comment. A UTF-8
    byte-order mark at the start of the file is dropped."""
    text = Path(path).read_text(encoding="utf-8-sig")
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def config_pairs(
    path: str | Path, separator: str, key_label: str, value_label: str,
    key_of: Callable[[str], str] = str,
) -> Iterator[tuple[int, str, str]]:
    """The line number, key and value of every ``key<separator>value``
    line that :func:`config_lines` yields, split at the first separator
    and stripped. A line without a value is malformed; a value holding a
    tab, and a key given twice as ``key_of`` reads it, are rejected."""
    shown = "<TAB>" if separator == "\t" else separator
    line_of: dict[str, int] = {}
    for line_no, line in config_lines(path):
        key, _, value = line.partition(separator)
        key, value = key.strip(), value.strip()
        if not value:
            raise ValueError(f"malformed line {line_no} (need {key_label}{shown}{value_label}): {line!r}")
        if "\t" in value:
            raise ValueError(f"{value_label} on line {line_no} holds a tab: {value!r}")
        seen = key_of(key)
        if seen in line_of:
            raise ValueError(f"{key_label} {key!r} given twice, on lines {line_of[seen]} and {line_no}")
        line_of[seen] = line_no
        yield line_no, key, value


class CountryAliases:
    """Maps raw affiliation country strings to normalized codes.

    The vocabulary is closed: a value is either an alias, already a code,
    or Unknown. Lookup is case-insensitive on the trimmed raw string.
    """

    def __init__(self, aliases: dict[str, str]):
        """``aliases`` maps normalized raw names to codes."""
        self._aliases = aliases
        self._codes = set(aliases.values())

    @classmethod
    def load(cls, path: str | Path) -> "CountryAliases":
        """Read a two-column delimited file: raw_name<TAB>code per line;
        raw names compare as lookup reads them, normalized."""
        pairs = config_pairs(path, "\t", "country name", "country code", normalize_text)
        return cls({normalize_text(raw): code for _, raw, code in pairs})

    def normalize(self, raw: str | None) -> str:
        if raw is None:
            return UNKNOWN_COUNTRY
        value = raw.strip()
        if not value:
            return UNKNOWN_COUNTRY
        mapped = self._aliases.get(normalize_text(value))
        if mapped is not None:
            return mapped
        if value in self._codes:
            return value
        return UNKNOWN_COUNTRY


#: the one date form accepted; ``date.fromisoformat`` alone accepts more
#: forms on newer Pythons ("20160321", "2016-W12-1")
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
#: each doc type by its lower-cased value
_DOC_TYPES = {member.value.lower(): member for member in DocType}


def _parse_date(value: object, label: str) -> date:
    if not isinstance(value, str):
        raise RecordError(f"{label} must be an ISO-8601 string")
    if _DATE_RE.fullmatch(value):
        try:
            return date.fromisoformat(value)
        except ValueError:
            pass  # a day or month out of range, such as "2016-02-30"
    raise RecordError(f"{label} is not a valid YYYY-MM-DD date: {value!r}")


def _parse_doc_type(value: object) -> DocType:
    if not isinstance(value, str):
        raise RecordError("doc_type must be a string")
    member = _DOC_TYPES.get(value.strip().lower())
    if member is None:
        raise RecordError(f"unknown doc_type string: {value!r}")
    return member


def _parse_int(value: object, label: str) -> int:
    """An integer field: a JSON integer, or a JSON float with no fraction.
    Strings, bools and non-integral numbers are rejected rather than
    coerced or truncated."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise RecordError(f"{label} is not an integer: {value!r}")


def _parse_list(obj: dict, key: str, label: str) -> list:
    """A list field; missing or null is empty, any other non-list is an error."""
    value = obj.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise RecordError(f"{label} is not a list")
    return value


def _tsv_cell(value: str, label: str) -> str:
    """``value``, which an artifact writes into one TSV cell, so that it
    may hold neither a tab nor a character ``str.splitlines`` splits at.
    Every such character is unprintable, so a printable value passes
    without the split."""
    if not value.isprintable() and ("\t" in value or "".join(value.splitlines()) != value):
        raise RecordError(f"{label} holds a tab or a line break: {value!r}")
    return value


def _row_start(value: str, label: str) -> str:
    """``value``, which can open a row of an artifact, so that it may not
    start with ``#``: a reader skips such a line as a comment."""
    if value.startswith("#"):
        raise RecordError(f"{label} {value!r} starts with '#', which marks a comment line")
    return value


#: each raw affiliation of one parse, ``(org_name, country)`` as read,
#: mapped to the one affiliation it parses to
_Interned = dict[tuple[str | None, str | None], Affiliation]


def _parse_authorship(
    obj: object, aliases: CountryAliases | None, interned: _Interned
) -> Authorship:
    """One author. Errors name the field alone; the caller prefixes the
    author ("author 2 ")."""
    if not isinstance(obj, dict):
        raise RecordError("is not an object")
    if "position" not in obj or "last_name" not in obj:
        raise RecordError("missing position/last_name")
    position = obj["position"]
    if type(position) is not int:
        position = _parse_int(position, "position")
    last_name = obj["last_name"]
    if last_name is None:
        last_name = ""
    elif not isinstance(last_name, str):
        raise RecordError("last_name is not a string")
    if not normalize_text(last_name):
        raise RecordError("has an empty last_name")
    affs = obj.get("affiliations")
    if affs is not None and not isinstance(affs, list):
        raise RecordError("affiliations is not a list")
    affiliations: list[Affiliation] = []
    for aff in affs or ():
        if not isinstance(aff, dict):
            raise RecordError("has an affiliation that is not an object")
        # both are typed before the lookup, so neither can be unhashable
        country = aff.get("country")
        if country is not None and not isinstance(country, str):
            raise RecordError("country is not a string")
        org_name = aff.get("org_name")
        if org_name is not None and not isinstance(org_name, str):
            raise RecordError("org_name is not a string")
        affiliation = interned.get((org_name, country))
        if affiliation is None:
            affiliation = interned[(org_name, country)] = Affiliation(
                org_name=org_name or "",
                country=(aliases.normalize(country) if aliases is not None
                         else (country or "").strip() or UNKNOWN_COUNTRY),
            )
        affiliations.append(affiliation)
    email = obj.get("email")
    if email is not None:
        if not isinstance(email, str):
            raise RecordError("email is not a string")
        email = email.strip() or None
    full_name = obj.get("full_name")
    if full_name is None:
        full_name = last_name
    elif not isinstance(full_name, str):
        raise RecordError("full_name is not a string")
    _tsv_cell(full_name, "full_name")
    first_name = obj.get("first_name")
    if first_name is not None and not isinstance(first_name, str):
        raise RecordError("first_name is not a string")
    initials = obj.get("initials")
    if initials is not None and not isinstance(initials, str):
        raise RecordError("initials is not a string")
    return Authorship(
        position, full_name, last_name, first_name or None, initials or None,
        email, tuple(affiliations),
    )


def record_from_dict(obj: object, aliases: CountryAliases | None = None) -> PublicationRecord:
    """Build and validate one record from a decoded JSON object; field ids stay raw."""
    return _record_from_dict(obj, aliases, {}, {})


def _record_from_dict(
    obj: object, aliases: CountryAliases | None, field_map: Mapping[str, str], interned: _Interned
) -> PublicationRecord:
    """:func:`record_from_dict`, naming fields through ``field_map`` and
    reusing the affiliations ``interned`` holds, adding new ones to it."""
    if not isinstance(obj, dict):
        raise RecordError("record is not an object")
    pub_id = obj.get("pub_id")
    if pub_id is None or pub_id == "":
        raise RecordError("missing pub_id")
    # integer ids keep their decimal text form; any other non-string,
    # false included, is an error rather than its str()
    if isinstance(pub_id, int) and not isinstance(pub_id, bool):
        pub_id = str(pub_id)
    elif not isinstance(pub_id, str):
        raise RecordError("pub_id is not a string or an integer")
    _row_start(_tsv_cell(pub_id, "pub_id"), "pub_id")

    if "pub_year" not in obj:
        raise RecordError("missing pub_year")
    pub_year = _parse_int(obj["pub_year"], "pub_year")
    if not 1900 <= pub_year <= 2100:
        raise RecordError(f"pub_year {pub_year} outside plausible range 1900-2100")

    doc_type = _parse_doc_type(obj.get("doc_type"))

    authors_raw = obj.get("authors")
    if not authors_raw or not isinstance(authors_raw, list):
        raise RecordError("authors list is missing or empty")
    authors = []
    for i, author in enumerate(authors_raw):
        try:
            authors.append(_parse_authorship(author, aliases, interned))
        except RecordError as exc:
            raise RecordError(f"author {i + 1} {exc}") from exc
    positions = [a.position for a in authors]
    if positions != list(range(1, len(authors) + 1)):
        raise RecordError(f"author position gap or disorder: {positions}")

    field_weights = []
    for fw in _parse_list(obj, "field_weights", "field_weights"):
        if not isinstance(fw, dict) or fw.get("field_id") is None or "weight" not in fw:
            raise RecordError("field_weights entries need field_id and weight")
        weight = fw["weight"]
        if type(weight) not in (int, float):   # a bool or a string is no JSON number
            raise RecordError(f"field weight {weight!r} is not a number")
        try:
            weight = float(weight)
        except OverflowError as exc:
            raise RecordError(f"field weight {weight!r} is not a number") from exc
        if not 0.0 < weight <= 1.0:
            raise RecordError(f"field weight {weight} outside (0, 1]")
        if not isinstance(fw["field_id"], str):
            raise RecordError("field_id is not a string")
        field_id = _tsv_cell(fw["field_id"], "field_id")
        name = _row_start(field_map.get(field_id, field_id), "field")
        if name == TOTAL_FIELD:
            raise RecordError(f"field {name!r} names the whole-period row")
        field_weights.append(FieldWeight(name, weight))
    if field_weights:
        total = sum(fw.weight for fw in field_weights)
        if abs(total - 1.0) > 1e-9:
            raise RecordError(f"field_weights sum {total!r} != 1")

    funding_orgs = _parse_list(obj, "funding_orgs", "funding_orgs")
    if not all(isinstance(org, str) for org in funding_orgs):
        raise RecordError("funding_orgs entries must be strings")

    # no stage reads the title or the DOI, so they are checked, not kept
    for key in ("title", "doi"):
        if obj.get(key) is not None and not isinstance(obj[key], str):
            raise RecordError(f"{key} is not a string")
    doi_created = obj.get("doi_created_date")
    if doi_created is not None:
        doi_created = _parse_date(doi_created, "doi_created_date")
    ack = obj.get("acknowledgment_text")
    if ack is not None and not isinstance(ack, str):
        raise RecordError("acknowledgment_text is not a string")
    return PublicationRecord(
        pub_id, pub_year, doc_type, doi_created, ack or None,
        tuple(funding_orgs), tuple(authors), tuple(field_weights),
    )


#: a JSON escape of a UTF-16 surrogate code unit, paired or not
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def _is_utf8(text: str) -> bool:
    """False when ``text`` holds a lone surrogate, which UTF-8 cannot encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_corpus(
    lines: Iterable[str], aliases: CountryAliases | None = None,
    field_map: Mapping[str, str] | None = None,
) -> ParseResult:
    """Parse a line-delimited record stream.

    Malformed lines become :class:`ParseIssue` entries with their 1-based
    line number. So does a line holding a lone surrogate, whether raw (an
    undecodable byte, as :func:`load_corpus` passes it on) or as a JSON
    escape: no artifact could encode it. Raises :class:`CorpusParseError`
    only when the stream had content but not a single record parsed.
    """
    result = ParseResult()
    saw_content = False
    seen_ids: set[str] = set()
    interned: _Interned = {}
    field_map = field_map or {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        saw_content = True
        try:
            # ASCII lines, most of a corpus, hold neither kind of surrogate
            if not line.isascii() and not _is_utf8(line):
                raise RecordError("line is not valid UTF-8")
            obj = json.loads(line)
            if _SURROGATE_ESCAPE_RE.search(line) and not _is_utf8(
                json.dumps(obj, ensure_ascii=False)
            ):
                raise RecordError("a string holds a lone surrogate escape")
            record = _record_from_dict(obj, aliases, field_map, interned)
        except json.JSONDecodeError as exc:
            result.errors.append(ParseIssue(line_no, f"invalid JSON: {exc.msg}"))
            continue
        except RecordError as exc:
            result.errors.append(ParseIssue(line_no, str(exc)))
            continue
        except RecursionError:
            # nesting deeper than the interpreter's recursion limit
            result.errors.append(ParseIssue(line_no, "value nested too deeply"))
            continue
        except ValueError as exc:
            # json.loads refuses an integer literal longer than the
            # interpreter's int conversion limit (sys.get_int_max_str_digits)
            result.errors.append(ParseIssue(line_no, f"invalid JSON: {exc}"))
            continue
        if record.pub_id in seen_ids:
            result.errors.append(
                ParseIssue(line_no, f"duplicate pub_id: {record.pub_id}")
            )
            continue
        seen_ids.add(record.pub_id)
        result.records.append(record)
    if saw_content and not result.records:
        raise CorpusParseError(result.errors)
    return result


class _HashingReader(io.RawIOBase):
    """A binary file that adds every byte read through it to a SHA-256."""

    def __init__(self, raw: io.RawIOBase):
        self._raw = raw
        self.digest = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        size = self._raw.readinto(buffer)
        if size:
            self.digest.update(memoryview(buffer)[:size])
        return size


def load_corpus(
    path: str | Path, aliases: CountryAliases | None = None,
    field_map: Mapping[str, str] | None = None,
) -> ParseResult:
    """Parse a UTF-8 corpus file, hashing its bytes as they are read. A
    byte-order mark at its start is dropped. An undecodable byte becomes
    a lone surrogate, so its line alone is reported (see
    :func:`parse_corpus`)."""
    with open(path, "rb", buffering=0) as raw:
        hashing = _HashingReader(raw)
        with io.TextIOWrapper(
            io.BufferedReader(hashing), encoding="utf-8-sig", errors="surrogateescape"
        ) as handle:
            result = parse_corpus(handle, aliases, field_map)
    result.sha256 = hashing.digest.hexdigest()
    return result


def filter_documents(records: Iterable[PublicationRecord]) -> list[PublicationRecord]:
    """Keep Article and Review records only, preserving order."""
    return [r for r in records if r.doc_type in (DocType.ARTICLE, DocType.REVIEW)]


def resolve_pub_date(record: PublicationRecord) -> PubDate:
    """DOI created date when present, else July 1 of the publication year.

    The mid-year fallback keeps date comparisons total for records that
    only carry a year.
    """
    if record.doi_created_date is not None:
        return PubDate(record.doi_created_date, DateSource.DOI_CREATED)
    return PubDate(date(record.pub_year, 7, 1), DateSource.YEAR_FALLBACK)

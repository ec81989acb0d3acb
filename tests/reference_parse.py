"""The record parser as it stood before the package's parse fast path,
kept verbatim as the oracle that ``tests/test_corpus.py`` compares the
package with: every record equal, every ``RecordError`` with the same text,
raised by the same check first.

One difference is intended. Here a falsy ``pub_id`` such as ``false``,
``0`` or ``[]`` is reported as "missing pub_id"; the package reports only
a null or empty one so, and types the rest. The property draws valid
pub_ids only.

The reference reads no field map, so it keeps every raw field id; a
raw id of ``Total``, the whole-period row's name, is rejected where the
package rejects a field that resolves to it. The package's parse with a
field map is compared with this parse renamed through the map.
"""
from __future__ import annotations

import re
from datetime import date

from fundmob.corpus import (
    TOTAL_FIELD,
    UNKNOWN_COUNTRY,
    Affiliation,
    Authorship,
    CountryAliases,
    DocType,
    FieldWeight,
    PublicationRecord,
    RecordError,
)
from fundmob.textnorm import normalize_text


#: the one date form accepted; ``date.fromisoformat`` alone accepts more
#: forms on newer Pythons ("20160321", "2016-W12-1")
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


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
    for member in DocType:
        if value.strip().lower() == member.value.lower():
            return member
    raise RecordError(f"unknown doc_type string: {value!r}")


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


def _parse_str(obj: dict, key: str, default: str | None = None, owner: str = "") -> str | None:
    """A string field; missing or null is ``default``, any other non-string
    is an error rather than its ``str()``. ``owner`` prefixes the field
    name in the error ("author 2 ")."""
    value = obj.get(key)
    if value is None:
        return default
    if not isinstance(value, str):
        raise RecordError(f"{owner}{key} is not a string")
    return value


def _tsv_cell(value: str, label: str) -> str:
    """``value``, which an artifact writes into one TSV cell, so that it
    may hold neither a tab nor a character ``str.splitlines`` splits at."""
    if "\t" in value or "".join(value.splitlines()) != value:
        raise RecordError(f"{label} holds a tab or a line break: {value!r}")
    return value


def _parse_authorship(obj: object, index: int, aliases: CountryAliases | None) -> Authorship:
    label = f"author {index + 1}"
    owner = f"{label} "
    if not isinstance(obj, dict):
        raise RecordError(f"{label} is not an object")
    if "position" not in obj or "last_name" not in obj:
        raise RecordError(f"{label} missing position/last_name")
    position = _parse_int(obj["position"], f"{label} position")
    last_name = _parse_str(obj, "last_name", "", owner)
    if not normalize_text(last_name):
        raise RecordError(f"{label} has an empty last_name")
    affiliations = []
    for aff in _parse_list(obj, "affiliations", f"{label} affiliations"):
        if not isinstance(aff, dict):
            raise RecordError(f"{label} has an affiliation that is not an object")
        country = _parse_str(aff, "country", owner=owner)
        affiliations.append(Affiliation(
            org_name=_parse_str(aff, "org_name", "", owner),
            country=(aliases.normalize(country) if aliases is not None
                     else (country or "").strip() or UNKNOWN_COUNTRY),
        ))
    email = (_parse_str(obj, "email", owner=owner) or "").strip()
    return Authorship(
        position=position,
        full_name=_tsv_cell(_parse_str(obj, "full_name", last_name, owner), f"{label} full_name"),
        last_name=last_name,
        first_name=_parse_str(obj, "first_name", owner=owner) or None,
        initials=_parse_str(obj, "initials", owner=owner) or None,
        email=email or None,
        affiliations=tuple(affiliations),
    )


def reference_record_from_dict(obj: object, aliases: CountryAliases | None = None) -> PublicationRecord:
    """Build and validate one record from a decoded JSON object, as the
    package did before its parse fast path."""
    if not isinstance(obj, dict):
        raise RecordError("record is not an object")
    pub_id = obj.get("pub_id")
    if not pub_id:
        raise RecordError("missing pub_id")
    # integer ids keep their decimal text form; any other non-string is an
    # error rather than its str()
    if isinstance(pub_id, int) and not isinstance(pub_id, bool):
        pub_id = str(pub_id)
    elif not isinstance(pub_id, str):
        raise RecordError("pub_id is not a string or an integer")
    _tsv_cell(pub_id, "pub_id")

    if "pub_year" not in obj:
        raise RecordError("missing pub_year")
    pub_year = _parse_int(obj["pub_year"], "pub_year")
    if not 1900 <= pub_year <= 2100:
        raise RecordError(f"pub_year {pub_year} outside plausible range 1900-2100")

    doc_type = _parse_doc_type(obj.get("doc_type"))

    authors_raw = obj.get("authors")
    if not authors_raw or not isinstance(authors_raw, list):
        raise RecordError("authors list is missing or empty")
    authors = tuple(
        _parse_authorship(a, i, aliases) for i, a in enumerate(authors_raw)
    )
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
        field_id = _tsv_cell(_parse_str(fw, "field_id"), "field_id")
        if field_id == TOTAL_FIELD:
            raise RecordError(f"field {field_id!r} names the whole-period row")
        field_weights.append(FieldWeight(field_id, weight))
    if field_weights:
        total = sum(fw.weight for fw in field_weights)
        if abs(total - 1.0) > 1e-9:
            raise RecordError(f"field_weights sum {total!r} != 1")

    funding_orgs = _parse_list(obj, "funding_orgs", "funding_orgs")
    if not all(isinstance(org, str) for org in funding_orgs):
        raise RecordError("funding_orgs entries must be strings")

    # no stage reads the title or the DOI, so they are checked, not kept
    _parse_str(obj, "title")
    _parse_str(obj, "doi")
    doi_created = obj.get("doi_created_date")
    return PublicationRecord(
        pub_id=pub_id,
        pub_year=pub_year,
        doc_type=doc_type,
        doi_created_date=_parse_date(doi_created, "doi_created_date") if doi_created is not None else None,
        acknowledgment_text=_parse_str(obj, "acknowledgment_text") or None,
        funding_orgs=tuple(funding_orgs),
        authors=authors,
        field_weights=tuple(field_weights),
    )

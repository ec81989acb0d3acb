"""End-to-end pipeline: corpus file in, report artifacts out.

Every artifact is deterministic for a given (input, configuration) pair:
rows are sorted, JSON keys are sorted, and the run manifest captures
content hashes and stage counts rather than environment details, so two
runs produce byte-identical output directories.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import ackminer, corpus, disambig, indicators, mobility, periods

logger = logging.getLogger("fundmob")


class ConfigError(Exception):
    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


#: One row per config file, in loading order: the ``PipelineConfig``
#: field, the name used in messages, and the loader.
_CONFIG_FILES: tuple[tuple[str, str, Callable[[Path], object]], ...] = (
    ("country_aliases", "country aliases", corpus.CountryAliases.load),
    ("lexicon", "lexicon", ackminer.FunderLexicon.load),
    ("surnames", "surnames", mobility.SurnameList.load),
    ("field_map", "field map", mobility.load_field_map),
    ("disambig_config", "disambiguation config", disambig.ScoringWeights.load),
    ("overrides", "overrides", disambig.load_overrides),
)


@dataclass
class PipelineConfig:
    input: Path
    lexicon: Path
    surnames: Path
    field_map: Path
    country_aliases: Path
    disambig_config: Path
    out_dir: Path
    overrides: Path | None = None
    whole_count: bool = False
    top_k: int = 10

    def __post_init__(self) -> None:
        for name in ("input", "out_dir", *(field for field, _, _ in _CONFIG_FILES)):
            if name != "overrides" or self.overrides is not None:
                setattr(self, name, Path(getattr(self, name)))


def _load_config_files(config: PipelineConfig) -> list[object]:
    """The loaded config files in table order, None for absent overrides.

    Raises one ``ConfigError`` listing every problem with the
    configuration, not just the first.
    """
    problems = []
    if not config.input.is_file():
        problems.append(f"input file does not exist: {config.input}")
    loaded = []
    for field, label, loader in _CONFIG_FILES:
        path = getattr(config, field)
        if path is None:
            loaded.append(None)
        elif not path.is_file():
            problems.append(f"{label} file does not exist: {path}")
        else:
            try:
                loaded.append(loader(path))
            except ValueError as exc:
                problems.append(f"{label} file {path}: {exc}")
    probe = config.out_dir
    while not probe.exists():
        parent = probe.parent
        if parent == probe:
            break
        probe = parent
    if probe.exists():
        if config.out_dir.exists() and not config.out_dir.is_dir():
            problems.append(f"output path is not a directory: {config.out_dir}")
        elif not os.access(probe, os.W_OK):
            problems.append(f"output directory is not writable: {config.out_dir}")
    if config.top_k < 1:
        problems.append(f"top-k must be positive, got {config.top_k}")
    if problems:
        raise ConfigError(problems)
    return loaded


def _sha256(path: Path | None) -> str | None:
    return None if path is None else hashlib.sha256(path.read_bytes()).hexdigest()


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_table(
    path: Path,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    footer_comments: Sequence[str] = (),
) -> None:
    lines = ["# delimiter: tab", "\t".join(columns)]
    lines.extend("\t".join(_fmt(cell) for cell in row) for row in rows)
    lines.extend(f"# {comment}" for comment in footer_comments)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: object) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage and write all artifacts; returns the manifest."""
    aliases, lexicon, surnames, field_map, weights, overrides = _load_config_files(config)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    parsed = corpus.load_corpus(config.input, aliases)
    for issue in parsed.errors:
        logger.warning("skipping %s", issue)
    docs = corpus.filter_documents(parsed.records)
    index = disambig.CorpusIndex(docs)

    funded_ids = periods.funded_pub_ids(docs, lexicon)
    if not funded_ids:
        logger.warning("no funder-acknowledging records; artifacts will be empty")

    # a record outside funded_ids mentions no funder, so it has no
    # funding sentence and nothing to mine
    funded_records = [r for r in docs if r.pub_id in funded_ids]
    sentence_count = 0
    funded_authorships: list[ackminer.FundedAuthorship] = []
    for record in funded_records:
        sentences, matches = ackminer.mine_record(record, lexicon)
        sentence_count += len(sentences)
        funded_authorships.extend(matches)
    identified_keys = {(f.pub_id, f.author_position) for f in funded_authorships}

    clusters = disambig.cluster_corpus(docs, weights, overrides, index=index)
    cluster_of: dict[disambig.AuthorshipKey, str] = {}
    for cluster in clusters:
        for key in cluster.members:
            cluster_of[key] = cluster.cluster_id
    funded_clusters = [
        c for c in clusters if c.members & identified_keys
    ]

    labeling = periods.label_corpus(funded_clusters, funded_ids, index)
    during_by_cluster: dict[str, set[str]] = {}
    for pair in labeling.pairs:
        if pair.label is periods.Label.DURING:
            during_by_cluster.setdefault(pair.cluster_id, set()).add(pair.pub_id)

    chinese_clusters = [
        c for c in funded_clusters
        if mobility.is_mainland_chinese_scholar(c, surnames, index)
    ]
    assignments = sorted(
        (
            mobility.assign_mobility(
                c, index, during_by_cluster.get(c.cluster_id, set())
            )
            for c in chinese_clusters
        ),
        key=lambda a: a.cluster_id,
    )
    flows = mobility.aggregate_flows(assignments)
    top_dest = mobility.top_destinations_by_field(
        assignments, index, field_map, during_by_cluster, k=config.top_k
    )

    identified_record_ids = {f.pub_id for f in funded_authorships}
    labeled_records = [
        index.record(pub_id) for pub_id in sorted(labeling.record_labels)
    ]
    ppic = indicators.pp_ic(
        labeled_records, labeling.record_labels, field_map, config.whole_count
    )
    field_dist = indicators.field_distribution(
        funded_records, identified_record_ids, field_map
    )
    temporal = indicators.temporal_distribution(
        funded_records, lambda r: r.doc_type.value
    )

    _write_artifacts(
        config, index, cluster_of, clusters, funded_authorships, labeling,
        assignments, flows, top_dest, ppic, field_dist, temporal,
    )

    manifest = {
        "input_sha256": _sha256(config.input),
        "config": {
            **{f"{field}_sha256": _sha256(getattr(config, field)) for field, _, _ in _CONFIG_FILES},
            "whole_count": config.whole_count,
            "top_k": config.top_k,
        },
        "stages": {
            "records_in": len(parsed.records),
            "parse_errors": len(parsed.errors),
            "records_after_doc_filter": len(docs),
            "authorships_total": len(index.authorships),
            "funded_records": len(funded_ids),
            "funding_sentences": sentence_count,
            "identified_authorships": len(funded_authorships),
            "identified_records": len(identified_record_ids),
            "clusters": len(clusters),
            "funded_scholar_clusters": len(funded_clusters),
            "chinese_scholar_clusters": len(chinese_clusters),
            "assignments_by_rule": {
                rule.value: sum(1 for a in assignments if a.rule_fired is rule)
                for rule in mobility.Rule
            },
            "labels_by_class": {
                label.value: sum(1 for p in labeling.pairs if p.label is label)
                for label in periods.Label
            },
            "scholar_paper_pairs": len(labeling.pairs),
        },
    }
    _write_json(config.out_dir / "manifest.json", manifest)
    return manifest


def _write_artifacts(
    config: PipelineConfig,
    index: disambig.CorpusIndex,
    cluster_of: dict[disambig.AuthorshipKey, str],
    clusters: Sequence[disambig.ResearcherCluster],
    funded_authorships: Sequence[ackminer.FundedAuthorship],
    labeling: periods.LabelingResult,
    assignments: Sequence[mobility.MobilityAssignment],
    flows: mobility.FlowTable,
    top_dest: mobility.FieldDestinations,
    ppic: indicators.PpIcReport,
    field_dist: dict[str, indicators.FieldShare],
    temporal: dict[int, dict[str, int]],
) -> None:
    out = config.out_dir

    _write_table(
        out / "funded_scholars.tsv",
        ["pub_id", "author_position", "full_name", "cluster_id",
         "match_kind", "evidence", "sentence_start", "sentence_end"],
        [
            [
                f.pub_id,
                f.author_position,
                index.author((f.pub_id, f.author_position)).full_name,
                cluster_of[(f.pub_id, f.author_position)],
                f.match_kind.value,
                f.evidence,
                f.sentence_span[0],
                f.sentence_span[1],
            ]
            for f in sorted(funded_authorships, key=lambda f: (f.pub_id, f.author_position))
        ],
    )

    _write_table(
        out / "clusters.tsv",
        ["cluster_id", "display_name", "pub_id", "author_position"],
        [
            [c.cluster_id, c.display_name, pub_id, position]
            for c in clusters
            for pub_id, position in sorted(c.members)
        ],
    )

    _write_table(
        out / "mobility_assignments.tsv",
        ["cluster_id", "outcome", "rule_fired", "destination"],
        [
            [a.cluster_id, a.outcome.value, a.rule_fired.value, a.destination or ""]
            for a in assignments
        ],
    )

    _write_table(
        out / "mobility_flows.tsv",
        ["kind", "destination_or_reason", "scholars"],
        [["Destination", code, n] for code, n in flows.destinations]
        + [["Unidentified", reason, n] for reason, n in flows.unidentified],
    )

    _write_table(
        out / "top_destinations.tsv",
        ["field", "rank", "destination", "fractional_scholars"],
        [
            [field, rank, code, count]
            for field, ranking in top_dest.per_field.items()
            for rank, (code, count) in enumerate(ranking, start=1)
        ],
        footer_comments=[
            f"destination scholars without field weights: {top_dest.excluded_scholars}"
        ],
    )

    _write_table(
        out / "period_labels.tsv",
        ["pub_id", "cluster_id", "label", "window_start", "window_end", "date_source"],
        [
            [
                pair.pub_id,
                pair.cluster_id,
                pair.label.value,
                labeling.windows[pair.cluster_id].first_funded_date.date.isoformat(),
                labeling.windows[pair.cluster_id].last_funded_date.date.isoformat(),
                labeling.dates[pair.pub_id].source.value,
            ]
            for pair in labeling.pairs
        ],
    )

    _write_table(
        out / "pp_ic.tsv",
        ["period", "field", "numerator", "denominator", "proportion"],
        [
            [period, field, cell.numerator, cell.denominator, cell.value]
            for (period, field), cell in sorted(ppic.cells.items())
        ],
        footer_comments=[f"records with no known country: {ppic.zero_country_records}"],
    )

    _write_table(
        out / "field_distribution.tsv",
        ["field", "identified", "unidentified", "total"],
        [
            [field, share.identified, share.unidentified, share.total]
            for field, share in sorted(field_dist.items())
        ],
    )

    _write_table(
        out / "temporal.tsv",
        ["year", "tag", "count"],
        [
            [year, tag, count]
            for year, row in temporal.items()
            for tag, count in sorted(row.items())
        ],
    )

    # _write_json sorts the keys at every level
    pp_ic: dict[str, dict[str, dict]] = {}
    for (period, field), cell in ppic.cells.items():
        pp_ic.setdefault(period, {})[field] = {
            "numerator": cell.numerator,
            "denominator": cell.denominator,
            "proportion": cell.value,
        }
    report = {
        "pp_ic": pp_ic,
        "pp_ic_coverage": {"records_with_no_known_country": ppic.zero_country_records},
        "field_distribution": {
            field: {
                "identified": share.identified,
                "unidentified": share.unidentified,
                "total": share.total,
            }
            for field, share in field_dist.items()
        },
        "temporal": {str(year): row for year, row in temporal.items()},
    }
    _write_json(out / "indicators.json", report)
